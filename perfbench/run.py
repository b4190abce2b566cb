"""Benchmark of the avalloc toolkit: one command, one workload per process.

    python3 perfbench/run.py --workload lp-ladder --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh worker process (``worker.py``) on one
thread, in a closed loop: the next pass starts when the previous one has
ended.  Times are CPU seconds of the worker, rescaled to a reference
speed by a calibration loop (README.md says why).  ``setup_s`` is the
median, over ``SETUP_SAMPLES`` fresh processes, of the time from process
start to inputs ready; ``pass_s`` is the median pass of the run.

The output lists every metric by name and unit, the exact counters, and
the environment; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` names: its
``end_to_end`` metrics with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKER = Path(__file__).with_name("worker.py")
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark itself could not run."""


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "load1": os.getloadavg()[0],
    }


def spawn(workload, seed, seconds, trace, setup_only):
    """Start a worker; return (its rescaled and raw CPU seconds from process
    start to inputs ready, wall seconds from spawn to ready, process)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **ONE_THREAD})
    ready = proc.stdout.readline()
    wall_s = time.perf_counter() - t0
    fields = proc.stdout.readline().split()
    if ready.strip() != "ready" or len(fields) != 3 or fields[0] != "setup":
        stop(proc)
        raise BenchError(f"{workload} worker failed during set-up (exit {proc.returncode})")
    return float(fields[1]), float(fields[2]), wall_s, proc


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_workload(workload, seed, seconds, trace) -> dict:
    env_start = environment()
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        *ready, proc = spawn(workload, seed, seconds, trace, setup_only=True)
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            stop(proc)
        setups.append(ready)
    *ready, proc = spawn(workload, seed, seconds, trace, setup_only=False)
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setups
    result["env"] = {"start": env_start, "end": environment()}
    return result


def metrics_of(result) -> dict:
    """Every metric of one workload run as name -> (value, unit)."""
    out = {
        "setup_s": (statistics.median(s[0] for s in result["setup_s"]), "s"),
        "setup_cpu_s": (statistics.median(s[1] for s in result["setup_s"]), "s"),
        "setup_wall_s": (statistics.median(s[2] for s in result["setup_s"]), "s"),
        "pass_s": (statistics.median(result["pass_s"]), "s"),
        "pass_cpu_s": (statistics.median(result["pass_cpu_s"]), "s"),
        "pass_wall_s": (statistics.median(result["pass_wall_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "fail_frac": (result["failed"] / result["attempted"], "ratio"),
    }
    out.update({k: tuple(v) for k, v in result["extra"].items()})
    out.update({k: tuple(v) for k, v in result.get("layers", {}).items()})
    return out


def report(workload, seed, trace, result, spec) -> dict:
    metrics = metrics_of(result)
    print(f"== {workload}  seed {seed}  trace {trace}  passes {len(result['pass_s'])}"
          f"  ops {result['attempted']}  failed {result['failed']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, counters in result["counters"].items():
        digest = hashlib.sha256(json.dumps(counters, sort_keys=True).encode()).hexdigest()[:16]
        shape = {k: counters[k] for k in ("n_vars", "n_rows", "nnz", "iterations") if k in counters}
        print(f"  counters {name:<14} {digest} {shape if shape else ''}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for when, env in result["env"].items():
        print(f"  env {when}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload} did not measure {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "avalloc" / "__init__.py").is_file():
            raise BenchError(f"no avalloc sources under {ROOT / 'src'}")
        with open(SPEC) as f:
            spec = json.load(f)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(workload, args.seed, seconds, args.trace)
            line = report(workload, args.seed, args.trace, result, spec)
            print(json.dumps(line), flush=True)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
