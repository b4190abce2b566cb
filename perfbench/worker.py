"""One workload in one fresh process: set up, run passes, check, report.

Started by ``run.py``; prints ``ready`` once its inputs are ready (the end
of set-up), then ``setup <scaled CPU s> <CPU s>``, and at the end one JSON
line with the measured results.  With ``--setup-only`` it exits after the
``setup`` line.  With ``--trace 1`` it runs
untraced passes for half the time, then installs the tracer, sets up again
inside a ``setup`` span and runs traced passes, each inside a ``pass``
span, for the other half.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing, workloads  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
MIN_PASSES = 3

# CPU seconds that calibrate() took on the host the baseline was recorded
# on.  A fixed constant: changing it rescales every time the benchmark
# reports.
REFERENCE_CALIBRATION_S = 0.017
_CALIBRATION_VECTOR = np.arange(400.0)


def calibrate() -> float:
    """CPU seconds of a fixed loop that calls no avalloc code, the median
    of five runs.  It mixes what the workloads spend their time on:
    Fraction sums, dict updates, an integer loop and numpy products."""
    runs = []
    for _ in range(5):
        t0 = time.process_time()
        acc, table, total = Fraction(0), {}, 0
        for k in range(1, 1500):
            acc += Fraction(k % 97, k % 89 + 1)
            table[k % 101] = table.get(k % 101, 0) + k
        for i in range(60_000):
            total += i * i
        for _ in range(10):
            total += float(np.outer(_CALIBRATION_VECTOR, _CALIBRATION_VECTOR).sum())
        runs.append(time.process_time() - t0)
    return statistics.median(runs)


@dataclass
class PassLog:
    """What the passes of one phase did; ``counters`` holds each op's exact
    counters from its first successful pass."""

    pass_s: list = field(default_factory=list)
    pass_cpu_s: list = field(default_factory=list)
    pass_wall_s: list = field(default_factory=list)
    scale: list = field(default_factory=list)
    op_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def run_passes(ops, seconds, min_passes, log: PassLog, tracer=None) -> PassLog:
    """Closed loop: the next pass starts when the previous one and its
    checks have ended, until ``seconds`` of wall time have passed and at
    least ``min_passes`` ran.  Passes and ops are timed in CPU seconds of
    this process, rescaled by the calibration loop run before and after
    each pass (see README.md).  A failing op is counted and the run goes
    on."""
    start = time.perf_counter()
    before = calibrate()
    while len(log.pass_s) < min_passes or time.perf_counter() - start < seconds:
        outcomes = []
        root = tracer.open("pass") if tracer else None
        wall, cpu = time.perf_counter(), time.process_time()
        for op in ops:
            t0 = time.process_time()
            try:
                out, err = op.run(), None
            except Exception as exc:  # the run continues; the op is counted failed
                out, err = None, exc
            outcomes.append((op, out, err, time.process_time() - t0))
        cpu = time.process_time() - cpu
        log.pass_wall_s.append(time.perf_counter() - wall)
        if tracer:
            tracer.close(root)
        after = calibrate()
        scale = REFERENCE_CALIBRATION_S / ((before + after) / 2)
        before = after
        log.scale.append(scale)
        log.pass_cpu_s.append(cpu)
        log.pass_s.append(cpu * scale)
        for op, out, err, dt in outcomes:
            log.attempted += 1
            log.op_s.setdefault(op.name, []).append(dt * scale)
            if err is None:
                try:
                    counters = op.check(out)
                    first = log.counters.setdefault(op.name, counters)
                    if counters != first:
                        raise workloads.CheckFailed("exact counters differ from the first pass")
                    continue
                except Exception as exc:  # a wrong output is a failed op
                    err = exc
            log.fail(f"{op.name}: {type(err).__name__}: {err}")
            traceback.print_exception(err, file=sys.stderr, limit=3)
    return log


# -- per-layer metrics from the traced phase -----------------------------------

SPANS = tuple(t.span for t in tracing.TARGETS)
GENERATOR_SPANS = tuple(s for s in SPANS if s.startswith("generators."))
BUILD_SPANS = tuple(s for s in SPANS if s.startswith("lp_models.build_"))
PLAN_SPANS = ("rounding.OfflinePlan.__init__", "rounding.OnlinePlan.__init__")
RUN_SPANS = ("rounding.OfflinePlan.run", "rounding.OnlinePlan.run")
TRIALS_SPANS = ("harness.run_offline_trials", "harness.run_online_trials")
ORACLE_SPANS = ("oracles.exact_opt", "oracles.exact_bundling_opt")
DETAIL_SPANS = tuple(s for s in SPANS if s not in GENERATOR_SPANS)


def per_pass(stats_by_pass):
    """Counts of one pass (they must be equal on every pass) with times
    averaged over the passes."""
    first = stats_by_pass[0]
    n = len(stats_by_pass)
    out = {}
    for name, st in first.items():
        out[name] = tracing.SpanStats(
            calls=st.calls,
            s=sum(p[name].s for p in stats_by_pass) / n,
            self_s=sum(p[name].self_s for p in stats_by_pass) / n,
            errors=dict(st.errors),
            info=dict(st.info),
        )
    return out


def exact_counts(stats):
    """The parts of span stats that must repeat exactly."""
    return {name: (st.calls, st.errors, st.info) for name, st in stats.items()}


def _add(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}


def merge(a, b):
    """Span stats of ``a`` and ``b`` added name by name."""
    return {name: tracing.SpanStats(x.calls + b[name].calls, x.s + b[name].s,
                                    x.self_s + b[name].self_s,
                                    _add(x.errors, b[name].errors), _add(x.info, b[name].info))
            for name, x in a.items()}


def layer_metrics(m, overhead_frac) -> dict:
    """Per-layer metrics of one set-up plus one pass; ``m`` maps span names
    to their stats."""

    def total(names, attr):
        return sum(getattr(m[n], attr) for n in names)

    def info(names, key):
        return sum(m[n].info.get(key, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    lp = m["lp.solve_lp"]
    run_calls = total(RUN_SPANS, "calls")
    out = {
        "generators.s": (total(GENERATOR_SPANS, "s"), "s"),
        "generators.calls": (total(GENERATOR_SPANS, "calls"), "count"),
        "lp_models.build_s": (total(BUILD_SPANS, "s"), "s"),
        "lp_models.n_vars": (info(BUILD_SPANS, "n_vars"), "count"),
        "lp_models.n_rows": (info(BUILD_SPANS, "n_rows"), "count"),
        "lp_models.nnz": (info(BUILD_SPANS, "nnz"), "count"),
        "lp.solve_s": (lp.s, "s"),
        "lp.calls": (lp.calls, "count"),
        "lp.iterations": (lp.info.get("iterations", 0), "count"),
        "lp.certified_frac": (ratio(lp.info.get("certified", 0), lp.calls), "ratio"),
        "rounding.plan_s": (total(PLAN_SPANS, "s"), "s"),
        "rounding.run_s": (total(RUN_SPANS, "s"), "s"),
        "rounding.run_calls": (run_calls, "count"),
        "rounding.stream_s": (m["rounding.sample_stream"].s, "s"),
        "rounding.opened_per_trial": (ratio(info(RUN_SPANS, "opened"), run_calls), "count"),
        "rounding.members_per_trial": (ratio(info(RUN_SPANS, "members"), run_calls), "count"),
        "rounding.join_frac": (
            ratio(info(RUN_SPANS, "members"), info(RUN_SPANS, "slots")), "ratio"),
        "harness.trials_s": (total(TRIALS_SPANS, "s"), "s"),
        "harness.self_s": (total(TRIALS_SPANS, "self_s"), "s"),
        "harness.bench_self_s": (m["harness.bench_examples"].self_s, "s"),
        "oracles.exact_opt_s": (m["oracles.exact_opt"].s, "s"),
        "oracles.bundling_opt_s": (m["oracles.exact_bundling_opt"].s, "s"),
        "oracles.calls": (total(ORACLE_SPANS, "calls"), "count"),
        "oracles.refused": (sum(m[n].errors.get("TooLarge", 0) for n in ORACLE_SPANS), "count"),
        "cli.self_s": (m["cli.main"].self_s, "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    for name in DETAIL_SPANS:
        out[f"{name}.calls"] = (m[name].calls, "count")
        out[f"{name}.s"] = (m[name].s, "s")
        out[f"{name}.self_s"] = (m[name].self_s, "s")
    return out


def traced_phase(wl, seed, seconds, workdir, plain: PassLog):
    """Set-up and passes under the tracer; returns (log, per-layer metrics)."""
    log = PassLog()
    tracer = tracing.Tracer()
    with tracer:
        root = tracer.open("setup")
        ops = wl.setup(seed, workdir)
        tracer.close(root)
        run_passes(ops, seconds, 1, log, tracer)
    spans = tracer.spans
    setup = tracing.summarize(spans, tracing.subtree(spans, root), SPANS)
    passes = [tracing.summarize(spans, tracing.subtree(spans, i), SPANS)
              for i, s in enumerate(spans) if s.name == "pass" and s.parent is None]
    if any(exact_counts(p) != exact_counts(passes[0]) for p in passes):
        log.fail("trace: span counts differ between traced passes")
    for name, counters in log.counters.items():
        if plain.counters.get(name) != counters:
            log.fail(f"{name}: exact counters differ between traced and untraced passes")
    base = statistics.median(plain.pass_s)
    overhead = (statistics.median(log.pass_s) - base) / base
    scale = statistics.median(log.scale)
    layers = layer_metrics(merge(setup, per_pass(passes)), overhead)
    return log, {k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        ops = wl.setup(args.seed, workdir)
        setup_cpu_s = time.process_time()
        print("ready", flush=True)
        scaled = setup_cpu_s * REFERENCE_CALIBRATION_S / calibrate()
        print(f"setup {scaled!r} {setup_cpu_s!r}", flush=True)
        if args.setup_only:
            return 0
        wrapped = tracing.installed_wrappers()
        if wrapped:
            raise RuntimeError(f"untraced run carries wrappers: {wrapped}")
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = 1 if args.trace else MIN_PASSES
        plain = run_passes(ops, seconds, passes, PassLog())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = {
            "pass_s": plain.pass_s,
            "pass_cpu_s": plain.pass_cpu_s,
            "pass_wall_s": plain.pass_wall_s,
            "peak_rss_mb": peak_rss_mb,
            "counters": plain.counters,
            "extra": (wl.extra_metrics(plain.op_s, plain.counters)
                      if len(plain.counters) == len(ops) else {}),
        }
        logs = [plain]
        if args.trace:
            traced, layers = traced_phase(wl, args.seed, seconds, workdir, plain)
            logs.append(traced)
            result["layers"] = layers
        result["attempted"] = sum(log.attempted for log in logs)
        result["failed"] = sum(log.failed for log in logs)
        result["failures"] = [f for log in logs for f in log.failures]
        print(json.dumps(result, default=str), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other worker still uses it
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
