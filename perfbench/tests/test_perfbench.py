"""Tests of the benchmark itself: span arithmetic, wrapper lifetime, failure
counting, output checks and the metric names BENCHMARK.json promises.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from perfbench import tracing, worker, workloads
from perfbench.tracing import Span
from perfbench.workloads import CheckFailed, Op

ROOT = worker.ROOT


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),   # overlaps the previous child
        Span("c", 8.0, 12.0, parent=0),  # runs past the parent's end
        Span("d", 1.5, 2.5, parent=1),   # grandchild: not subtracted from "a"
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10 - (4 + 2))
    assert selfs[1] == pytest.approx(2 - 1)
    assert selfs[2] == pytest.approx(3)
    assert selfs[4] == pytest.approx(1)


def test_summarize_lists_zero_call_spans_and_counts_recursion_once():
    spans = [
        Span("setup", 0.0, 10.0),
        Span("f", 1.0, 9.0, parent=0, info={"n": 2}),
        Span("f", 2.0, 4.0, parent=1, info={"n": 3}, error="TooLarge"),
        Span("g", 5.0, 6.0, parent=1),
    ]
    stats = tracing.summarize(spans, tracing.subtree(spans, 0), ["f", "g", "never"])
    assert set(stats) == {"f", "g", "never"}
    assert stats["never"].calls == 0 and stats["never"].s == 0.0
    assert stats["f"].calls == 2
    assert stats["f"].s == pytest.approx(8.0)  # the inner call lies inside the outer
    assert stats["f"].self_s == pytest.approx((8 - 3) + 2)
    assert stats["f"].info == {"n": 5}
    assert stats["f"].errors == {"TooLarge": 1}


def test_layer_metrics_cover_every_span_even_without_calls():
    empty = {name: tracing.SpanStats() for name in worker.SPANS}
    layers = worker.layer_metrics(empty, 0.0)
    for target in tracing.TARGETS:
        if target.span in worker.DETAIL_SPANS:
            assert layers[f"{target.span}.calls"] == (0, "count")
    assert layers["lp.certified_frac"] == (0.0, "ratio")


# -- wrappers ----------------------------------------------------------------


def test_tracer_wraps_every_binding_and_uninstall_restores_them():
    import avalloc
    from avalloc import generators, harness, lp, lp_models, rounding

    originals = (lp.solve_lp, lp_models.solve_lp, avalloc.solve_lp,
                 harness.BENCH_SUITES["examples"], rounding.OfflinePlan.run)
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    with tracer:
        wrapped = tracing.installed_wrappers()
        for name in ("avalloc.lp.solve_lp", "avalloc.lp_models.solve_lp",
                     "avalloc.solve_lp", "avalloc.harness.BENCH_SUITES['examples']",
                     "avalloc.rounding.OfflinePlan.run", "avalloc.cli.main"):
            assert name in wrapped
        model = generators.gen_iid_lower_bound(4)
        lp_models.solve_model_lp(lp_models.build_opton_lp(model))
    assert tracing.installed_wrappers() == []
    assert (lp.solve_lp, lp_models.solve_lp, avalloc.solve_lp,
            harness.BENCH_SUITES["examples"], rounding.OfflinePlan.run) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["generators.gen_iid_lower_bound", "lp_models.build_opton_lp",
                     "lp.solve_lp"]
    assert tracer.spans[1].info["n_vars"] > 0
    assert tracer.spans[2].info["certified"] == 1


def test_untraced_worker_runs_without_wrappers(monkeypatch):
    seen = []
    real = tracing.installed_wrappers

    def spy():
        seen.append(real())
        return seen[-1]

    monkeypatch.setattr(tracing, "installed_wrappers", spy)
    wl = workloads.Workload("tiny", "one small LP", lambda seed, d: [
        Op("naive", lambda: 1, lambda out: {"out": out})], workloads.no_metrics)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", wl)
    assert worker.main(["--workload", "tiny", "--seed", "0", "--seconds", "0"]) == 0
    assert seen == [[]]


# -- failure counting ----------------------------------------------------------


def _raises():
    raise ValueError("boom")


def _reject(_out):
    raise CheckFailed("bad")


def test_failing_ops_raise_fail_frac_while_the_run_continues():
    changing = iter(range(100))
    ops = [
        Op("ok", lambda: 1, lambda out: {"v": out}),
        Op("raises", _raises, lambda out: {}),
        Op("wrong", lambda: 2, _reject),
        Op("drifts", lambda: next(changing), lambda out: {"v": out}),
    ]
    log = worker.run_passes(ops, seconds=0, min_passes=3, log=worker.PassLog())
    assert len(log.pass_s) == 3
    assert log.attempted == 12
    # raises and wrong fail every pass; drifts fails on the passes after its first
    assert log.failed == 3 + 3 + 2
    assert log.counters["ok"] == {"v": 1}
    assert any("differ from the first pass" in f for f in log.failures)


def test_rescaled_passes_keep_their_raw_cpu_time():
    ops = [Op("ok", lambda: sum(range(10_000)), lambda out: {"v": out})]
    log = worker.run_passes(ops, seconds=0, min_passes=2, log=worker.PassLog())
    assert len(log.scale) == 2 and all(s > 0 for s in log.scale)
    for scaled, raw, s in zip(log.pass_s, log.pass_cpu_s, log.scale):
        assert scaled == pytest.approx(raw * s)


def test_wrong_reference_value_fails_the_ladder_op():
    from avalloc import generators, lp_models

    inst = generators.gen_random(20, 8, workloads.INSTANCE_SEED)
    right = workloads.load_reference()["lp-ladder"]["naive-20"]
    ops = [workloads.ladder_op("naive-20", lp_models.build_naive_lp, inst, right),
           workloads.ladder_op("naive-20-wrong", lp_models.build_naive_lp, inst,
                               str(Fraction(right) + Fraction(1, 10**6)))]
    log = worker.run_passes(ops, seconds=0, min_passes=1, log=worker.PassLog())
    assert log.attempted == 2 and log.failed == 1
    assert log.failures[0].startswith("naive-20-wrong: CheckFailed")
    assert log.counters["naive-20"]["objective"] == right


def test_battery_comparison_ignores_new_fields_and_seed_dependent_ones():
    ref = {"seed": 0, "a": {"x": 1.5, "mean": 2.0}, "b": 3}
    report = {"seed": 7, "a": {"x": 1.5, "mean": 9.0, "added_later": 1}, "b": 3, "new": {}}
    workloads.compare_report(ref, report, seed_dependent_too=False)
    with pytest.raises(CheckFailed, match="a.mean"):
        workloads.compare_report(ref, {**report, "seed": 0}, seed_dependent_too=True)
    with pytest.raises(CheckFailed, match="b"):
        workloads.compare_report(ref, {**report, "b": 4}, seed_dependent_too=False)
    with pytest.raises(CheckFailed, match="lacks a.x"):
        workloads.compare_report(ref, {**report, "a": {}}, seed_dependent_too=False)


# -- the promises of BENCHMARK.json -------------------------------------------


def test_benchmark_json_names_what_the_benchmark_measures():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = worker.layer_metrics({n: tracing.SpanStats() for n in worker.SPANS}, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_v, unit) in layers.items()]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in end_to_end
    assert end_to_end <= {"setup_s", "pass_s", "peak_rss_mb"}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
