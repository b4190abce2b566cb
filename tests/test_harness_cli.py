import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avalloc
from avalloc import IidModel
from avalloc.cli import main
from avalloc.core import write_json
from avalloc.generators import (
    gen_integrality_gap,
    gen_iid_lower_bound,
    gen_random,
    gen_random_iid_model,
)
from avalloc.harness import (
    bench_examples,
    run_offline_trials,
    run_online_trials,
    write_report_csv,
)
from avalloc.lp_models import (
    build_bundle_lp,
    build_bundle_lp_budgeted,
    build_opton_lp,
    solve_model_lp,
)
from avalloc.rounding import (
    OfflinePlan,
    OnlinePlan,
    _replay_prefix,
    derive_trial_seed,
    round_offline,
    round_online,
    sample_stream,
    stream_instance,
)
from reference_replay import reference_replay_prefix
from util import entries, unit_instance


@pytest.fixture(scope="module")
def gap_solution():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    return inst, solve_model_lp(build_bundle_lp(inst))


def test_reports_are_reproducible(gap_solution):
    inst, x = gap_solution
    a = run_offline_trials(inst, x, alpha=0.3, beta=0.156, seed=5, trials=200)
    b = run_offline_trials(inst, x, alpha=0.3, beta=0.156, seed=5, trials=200)
    assert a.to_json_dict() == b.to_json_dict()
    c = run_offline_trials(inst, x, alpha=0.3, beta=0.156, seed=6, trials=200)
    assert c.to_json_dict() != a.to_json_dict()


def test_single_trial_report_equals_single_run(gap_solution):
    inst, x = gap_solution
    rep = run_offline_trials(inst, x, alpha=0.3, beta=0.156, seed=9, trials=1)
    out = round_offline(inst, x, 0.3, derive_trial_seed(9, 0))
    assert rep.mean == float(out.value(inst))
    assert rep.stddev == 0.0
    assert rep.minimum == rep.mean
    assert rep.feasible_count == 1


@pytest.mark.parametrize("bad_trial, tamper", [
    # item n sits in the bundles of both buyers; each buyer's total balances
    (1, lambda bid: {bid[("b1", "p1")]: ["n"], bid[("b2", "p2")]: ["n"]}),
    # the P-edge (q, b1) joins p1's bundle as a member; b1's total balances
    (2, lambda bid: {bid[("b1", "p1")]: ["q"], bid[("b2", "p2")]: []}),
], ids=["shared-item", "p-edge-member"])
def test_offline_trials_validate_every_trial(monkeypatch, bad_trial, tamper):
    inst = unit_instance({
        ("p1", "b1"): 2, ("q", "b1"): "1.5", ("p2", "b2"): 2,
        ("n", "b1"): "0.5", ("n", "b2"): "0.5",
    })
    x = solve_model_lp(build_bundle_lp(inst))
    run_block = OfflinePlan.run_block
    blocks = []

    def tampered(self, seeds):
        # row bad_trial opens the tampered bundles and nothing else; its
        # members are labelled by columns added for them
        opened, joined, value = run_block(self, seeds)
        blocks.append(len(seeds))
        bid = {(j, p): b for b, (j, p) in enumerate(self.bundles)}
        bundles = tamper(bid)
        joins = [(i, b) for b, items in bundles.items() for i in items]
        self.coin_items = [*self.coin_items, *(i for i, _b in joins)]
        joined = np.hstack([joined, np.full((len(seeds), len(joins)), -1)])
        opened[bad_trial] = False
        opened[bad_trial, list(bundles)] = True
        joined[bad_trial] = -1
        joined[bad_trial, joined.shape[1] - len(joins):] = [b for _i, b in joins]
        return opened, joined, value

    monkeypatch.setattr(OfflinePlan, "run_block", tampered)
    with pytest.raises(RuntimeError, match=f"trial {bad_trial} "):
        run_offline_trials(inst, x, alpha=0.3, beta=0.156, seed=0, trials=5)
    assert blocks == [5]  # all five trials ran in one block


def _tamper_plans(monkeypatch, cls, tamper):
    """Make every cls plan call tamper(plan) once compiled."""
    init = cls.__init__

    def tampered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tamper(self)

    monkeypatch.setattr(cls, "__init__", tampered)


@pytest.fixture(scope="module")
def binding_budgets():
    # P-items alone can exhaust a buyer's single budget
    inst = gen_random(12, 3, 4, unambiguous=True, budget_resources=1, bid_frac="0.6")
    return inst, solve_model_lp(build_bundle_lp_budgeted(inst))


def test_offline_check_reads_budgets_from_the_instance(monkeypatch, binding_budgets):
    inst, x = binding_budgets
    run_offline_trials(inst, x, 0.9, 0.156, seed=0, trials=200, budgeted=True)

    def double_caps(plan):
        plan.caps = plan.caps * 2

    _tamper_plans(monkeypatch, OfflinePlan, double_caps)
    with pytest.raises(RuntimeError, match="budget 'r1' of buyer"):
        run_offline_trials(inst, x, 0.9, 0.156, seed=0, trials=200, budgeted=True)
    # a single run checks its one-row block the same way, naming its row 0
    with pytest.raises(RuntimeError, match="trial 0 gave an invalid bundling: budget 'r1'"):
        OfflinePlan(inst, x, 0.9, budgeted=True).run(1)


def test_offline_check_reads_members_from_the_instance(monkeypatch, binding_budgets):
    inst, x = binding_budgets
    plain = gen_random(12, 3, 4, unambiguous=True)
    xp = solve_model_lp(build_bundle_lp(plain))
    round_offline(plain, xp, 0.9, 0)

    def reroute(plan):
        # each coin's bundle moves to the next bundle of another buyer, so
        # members join with the deficits and costs of their first buyer
        buyer = [j for j, _p in plan.bundles]
        plan.c_bundle = np.array([
            next(c for c in [*range(b + 1, len(buyer)), *range(b)] if buyer[c] != buyer[b])
            for b in plan.c_bundle.tolist()], dtype=np.int64)

    _tamper_plans(monkeypatch, OfflinePlan, reroute)
    with pytest.raises(RuntimeError, match="gave an invalid bundling"):
        run_offline_trials(inst, x, 0.9, 0.156, seed=0, trials=200, budgeted=True)
    with pytest.raises(RuntimeError, match="trial 0 gave an invalid bundling: bundle uses"):
        round_offline(plain, xp, 0.9, 0)


def test_online_replay_reads_excesses_from_the_model(monkeypatch):
    # an opener of excess 1 has room for two members of deficit 1/2 only
    model = IidModel(
        types=["p", "n"], buyers=["b"], values={("p", "b"): 2, ("n", "b"): Fraction(1, 2)},
        thresholds={"b": 1}, probs={"p": Fraction(1, 4), "n": Fraction(3, 4)}, horizon=12,
    )
    x = solve_model_lp(build_opton_lp(model))
    run_online_trials(model, x, 0.9, 0.0766, seed=6, trials=300)
    # trial 3 is one the tampered plan below runs into a broken prefix
    seed, stream = derive_trial_seed(6, 3), sample_stream(model, 6, 3)
    round_online(model, x, 0.9, seed, stream)

    def free_joins(plan):
        plan.deficit = plan.deficit * 0

    _tamper_plans(monkeypatch, OnlinePlan, free_joins)
    with pytest.raises(RuntimeError, match="violated a prefix constraint"):
        run_online_trials(model, x, 0.9, 0.0766, seed=6, trials=300)
    # a single run checks its one-row block the same way, naming its row 0
    with pytest.raises(RuntimeError, match="trial 0 violated a prefix constraint"):
        OnlinePlan(model, x, 0.9).run(seed, stream)
    with pytest.raises(RuntimeError, match="trial 0 violated a prefix constraint"):
        round_online(model, x, 0.9, seed, stream)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.integers(3, 12), st.integers(1, 4), st.integers(0, 10 ** 6), st.booleans())
def test_offline_trials_on_random_instances_are_all_feasible(n, m, seed, budgeted):
    inst = gen_random(n, m, seed, unambiguous=True, budget_resources=2 if budgeted else 0)
    build = build_bundle_lp_budgeted if budgeted else build_bundle_lp
    x = solve_model_lp(build(inst))
    rep = run_offline_trials(
        inst, x, alpha=None, beta=0.156, seed=seed, trials=20, budgeted=budgeted
    )
    assert rep.feasible_count == rep.trials == 20
    assert rep.mean <= rep.lp_value + 1e-9


def _fraction_replay(model, events):
    """Prefix check in Fractions, the reference for the scaled integers;
    an arrival to buyer None goes to no buyer."""
    value, count = {}, {}
    for j, typ in events:
        if j is None:
            continue
        value[j] = value.get(j, Fraction(0)) + model.values[(typ, j)]
        count[j] = count.get(j, 0) + 1
        if value[j] < model.thresholds[j] * count[j]:
            return False
    return True


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3))
def test_integer_replay_matches_fraction_replay(data, n_types, n_buyers):
    # a value is its buyer's threshold times a multiple of 1/4, so prefixes
    # often meet their constraint with equality, or a fraction whose
    # denominator need not divide the threshold's
    types = [f"y{k}" for k in range(n_types)]
    buyers = [f"b{k}" for k in range(n_buyers)]
    fraction = st.builds(Fraction, st.integers(1, 30), st.integers(1, 12))
    thresholds = {j: data.draw(fraction) for j in buyers}

    def value(j):
        return data.draw(st.one_of(
            st.builds(Fraction, st.integers(1, 8), st.just(4)).map(lambda r: r * thresholds[j]),
            fraction,
        ))

    model = IidModel(
        types=types, buyers=buyers,
        values={(i, j): value(j) for i in types for j in buyers},
        thresholds=thresholds,
        probs={i: Fraction(1, n_types) for i in types},
        horizon=2,
    )
    values, excess = model.inst.scaled[:2]
    for (i, j), v in values.items():  # one common factor scales both sides
        assert Fraction(excess[(i, j)], v) == model.inst.excess(i, j) / model.values[(i, j)]
    # a block of rows, shorter rows padded with arrivals to no buyer
    rows = data.draw(st.lists(st.lists(
        st.tuples(st.sampled_from([*buyers, None]), st.sampled_from(types)), max_size=12),
        min_size=1, max_size=4))
    width = max(map(len, rows))
    buyer = np.full((len(rows), width), -1)
    typ = np.zeros((len(rows), width), dtype=np.int64)
    for r, events in enumerate(rows):
        for k, (j, i) in enumerate(events):
            buyer[r, k] = -1 if j is None else buyers.index(j)
            typ[r, k] = types.index(i)
    want = [r for r, events in enumerate(rows) if not _fraction_replay(model, events)]
    assert _replay_prefix(model, buyer, typ) == (want[0] if want else None)


@st.composite
def replay_blocks(draw):
    """A model and a block of decision rows (buyer, types) for the prefix
    replay, with the model's scale factor.  Edges sit at a quarter-step
    multiple of the threshold, so steps are negative, zero or positive, and
    some (type, buyer) pairs are non-edges; some buyers take only positive
    steps.  Arrivals go to no buyer (-1), to a buyer or to the index past
    the last buyer.  A factor of 2**70 on every value and threshold puts
    the scaled integers past 2**63, so sums run in object arrays."""
    nt, nb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    factor = draw(st.sampled_from([1, 2 ** 70]))
    types = [f"y{k}" for k in range(nt)]
    buyers = [f"b{k}" for k in range(nb)]
    thresholds = {j: Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4))) for j in buyers}
    values = {}
    for j in buyers:
        quarters = st.integers(5, 8) if draw(st.booleans()) else st.integers(1, 8)
        for i in types:
            if draw(st.integers(0, 5)):
                values[(i, j)] = thresholds[j] * draw(quarters) / 4 * factor
    model = IidModel(
        types=types, buyers=buyers, values=values,
        thresholds={j: t * factor for j, t in thresholds.items()},
        probs={i: Fraction(1, nt) for i in types}, horizon=2,
    )
    n, width = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    to_none = draw(st.integers(0, 3))
    cells = st.one_of(st.just(-1), st.integers(-1, nb)) if to_none else st.integers(0, nb - 1)
    buyer = np.array(draw(st.lists(cells, min_size=n * width, max_size=n * width)),
                     dtype=np.int64).reshape(n, width)
    typ = np.array(draw(st.lists(st.integers(0, nt - 1), min_size=n * width,
                                 max_size=n * width)), dtype=np.int64).reshape(n, width)
    return model, factor, buyer, typ


def _past_int64_block():
    """b0 gains 2**70 per y0 and loses 2**69 per y1, so the block's sums run
    in Python ints; rows 1 and 2 dip below 0 and row 0 does not."""
    big = 2 ** 70
    model = IidModel(
        types=["y0", "y1"], buyers=["b0"],
        values={("y0", "b0"): 2 * big, ("y1", "b0"): Fraction(big, 2)},
        thresholds={"b0": big}, probs={"y0": Fraction(1, 2), "y1": Fraction(1, 2)},
        horizon=2,
    )
    typ = np.array([[0, 1, 1, 0], [0, 1, 1, 1], [1, 0, 0, 0]])
    return model, big, np.zeros_like(typ), typ


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(replay_blocks())
@example(_past_int64_block())
def test_replay_matches_the_sorted_reference(block):
    model, factor, buyer, typ = block
    excess = model.inst.scaled[1].values()
    if factor > 1:  # every nonzero scaled excess is past int64
        assert all(e == 0 or abs(e) >= 2 ** 63 for e in excess)
    if not buyer.shape[1]:
        # the reference overflows int64 on an empty block of a model past
        # 2**63; an empty row breaks nothing
        assert _replay_prefix(model, buyer, typ) is None
        return
    # each suffix of the block, so every failing row is compared, not only
    # the first
    for r in range(len(buyer)):
        assert _replay_prefix(model, buyer[r:], typ[r:]) == reference_replay_prefix(
            model, buyer[r:], typ[r:])


def test_trial_runs_do_not_import_numpy_ma():
    # numpy.ma costs about 1.2 MiB of resident memory on its first import
    # (np.unique pulls it in), so neither the trial loops nor the single
    # runs, checks included, may reach it: plain and budgeted, in int64 and
    # in object arrays, and online with blocks split in halves
    code = textwrap.dedent("""
        import sys
        import numpy
        print("numpy.ma" in sys.modules)
        from fractions import Fraction
        from avalloc import rounding
        from avalloc.generators import gen_integrality_gap, gen_random, gen_random_iid_model
        from avalloc.harness import run_offline_trials, run_online_trials
        from avalloc.lp_models import (
            build_bundle_lp, build_bundle_lp_budgeted, build_opton_lp, solve_model_lp)
        from util import dense_coin_model, huge_scale_instance
        inst = gen_integrality_gap(3, Fraction(1, 10))
        x = solve_model_lp(build_bundle_lp(inst))
        run_offline_trials(inst, x, 0.3, 0.156, 0, 20)
        rounding.OfflinePlan(inst, x, 0.3).run(0)
        for inst in (gen_random(20, 6, 1, unambiguous=True, budget_resources=2),
                     huge_scale_instance(True)):
            x = solve_model_lp(build_bundle_lp_budgeted(inst))
            run_offline_trials(inst, x, None, 0.156, 0, 20, budgeted=True)
            rounding.OfflinePlan(inst, x, None, budgeted=True).run(0)
        model = gen_random_iid_model(4, 3, 10, 1)
        x = solve_model_lp(build_opton_lp(model))
        run_online_trials(model, x, 0.64, 0.0766, 0, 20)
        rounding.OnlinePlan(model, x, 0.64).run(0, rounding.sample_stream(model, 0))
        rounding._BLOCK = 1 << 10  # each block of 2 trials has too many coins and splits
        run_online_trials(*dense_coin_model(100), 0.64, 0.0766, 0, 20)
        print("numpy.ma" in sys.modules)
    """)
    src, tests = Path(avalloc.__file__).parents[1], Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    at_import, after_runs = out.stdout.split()
    if at_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself (numpy < 2)")
    assert after_runs == "False"


def _check_online_runs(model, seed):
    """run_online_trials finishes (it replays every prefix of every trial),
    and each round_online output is a valid bundling of its stream with
    feasible prefixes."""
    x = solve_model_lp(build_opton_lp(model))
    rep = run_online_trials(model, x, alpha=0.64, beta=0.0766, seed=seed, trials=20)
    assert rep.feasible_count == rep.trials == 20
    for t in range(5):
        stream = sample_stream(model, seed, t)
        out, _trace = round_online(model, x, 0.64, derive_trial_seed(seed, t), stream)
        out.validate(stream_instance(model, stream))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 15), st.integers(0, 10 ** 6))
def test_online_trials_on_random_models_are_all_feasible(n_types, n_buyers, half, seed):
    _check_online_runs(gen_random_iid_model(n_types, n_buyers, 2 * half, seed), seed)


def test_online_trials_with_a_zero_excess_opener():
    # (z, b1) has value equal to the threshold: it opens bundles with no
    # room for members, and each such opening meets the constraint exactly
    model = IidModel(
        types=["z", "p", "n"],
        buyers=["b1", "b2"],
        values={("z", "b1"): 1, ("z", "b2"): 1, ("p", "b2"): 2,
                ("n", "b1"): "0.6", ("n", "b2"): "0.8"},
        thresholds={"b1": 1, "b2": 1},
        probs={"z": Fraction(1, 3), "p": Fraction(1, 3), "n": Fraction(1, 3)},
        horizon=6,
    )
    assert model.inst.excess("z", "b1") == 0
    assert entries(solve_model_lp(build_opton_lp(model)))[("z", "b1", "z")] > 0
    for seed in range(4):
        _check_online_runs(model, seed)


def test_online_report_fields():
    model = gen_iid_lower_bound(10)
    x = solve_model_lp(build_opton_lp(model))
    rep = run_online_trials(model, x, alpha=0.64, beta=0.0766, seed=2, trials=100)
    doc = rep.to_json_dict()
    assert doc["mode"] == "online"
    assert doc["feasible_count"] == 100
    assert doc["lp_value_exact"] == "29/10"
    assert doc["ci95_lo"] <= doc["mean"] <= doc["ci95_hi"]
    assert set(doc["open_expected"]) >= set(doc["open_rates"])


def test_report_writers(tmp_path):
    doc = {"a": 1, "b": {"c": [1, 2], "d": 0.5}}
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    write_json(doc, jpath)
    write_report_csv(doc, cpath)
    assert json.loads(jpath.read_text()) == doc
    lines = cpath.read_text().splitlines()
    assert lines[0] == "key,value"
    assert "b.c.0,1" in lines
    with pytest.raises(ValueError):  # JSON has no infinity
        write_json({"ratio": float("inf")}, tmp_path / "inf.json")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_zero_mean_report_is_json(tmp_path, capsys):
    # two N-types and no P-type: no trial allocates anything
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "horizon": 4, "buyers": [{"id": "b", "rho": 1}],
        "types": [{"id": "n1", "prob": 0.5, "values": {"b": 0.5}},
                  {"id": "n2", "prob": 0.5, "values": {"b": 0.25}}],
    }))
    assert main(["online", "--model", str(model), "--trials", "3"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["mean"] == 0 and doc["ratio_lp_over_mean"] is None


def test_bench_small_is_deterministic():
    a = bench_examples(trials=60, seed=3)
    b = bench_examples(trials=60, seed=3)
    assert a == b
    assert a["naive_lp_gap"]["3"]["lp"] == 4.0
    assert a["bundle_lp_n3"]["lp"] == 2.2
    assert a["supply"] == {"base_opt": 2.02, "dup3_opt": 12.0}
    assert a["adversarial_T5"]["greedy"] == 1.25
    assert a["max_coverage"]["yes_opt"] == 6.0
    assert a["clique_reduction"]["triangle_opt"] == 5.0


# -- CLI ----------------------------------------------------------------------


def test_cli_gen_lp_exact_round_trip(tmp_path, capsys):
    path = tmp_path / "gap3.json"
    assert main(["gen", "integrality-gap", "-n", "3", "--eps", "0.1",
                 "-o", str(path)]) == 0
    assert main(["lp", str(path), "--which", "naive"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 4.0 and doc["value_exact"] == "4/1"
    assert main(["exact", str(path), "--bundling", "--gap"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["opt"]["value_exact"] == "11/5"
    assert doc["bundling_opt"]["value_exact"] == "11/5"
    assert doc["gap_opt"]["value_exact"] == "11/5"


def test_cli_solve_algorithms(tmp_path, capsys):
    path = tmp_path / "gap3.json"
    main(["gen", "integrality-gap", "-n", "3", "--eps", "0.1", "-o", str(path)])
    for algo in ("bundle-round", "greedy-p", "single-buyer"):
        assert main(["solve", str(path), "--algo", algo, "--alpha", "0.3",
                     "--seed", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True

    clique = tmp_path / "tri.json"
    main(["gen", "genava-clique", "--vertices", "a,b,c",
          "--edges", "a-b,b-c,a-c", "-o", str(clique)])
    assert main(["solve", str(clique), "--algo", "bicriteria", "--eps", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] >= 2.5  # at least eps * OPT = 0.5 * 5

    budgeted = tmp_path / "bud.json"
    main(["gen", "random", "--items", "6", "--buyers", "3", "--seed", "9",
          "--unambiguous", "--budget-resources", "1", "-o", str(budgeted)])
    capsys.readouterr()
    assert main(["solve", str(budgeted), "--algo", "bundle-round-budgeted",
                 "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["alpha"] == pytest.approx(1 / 3)  # default 1/(3K) at K=1


def test_cli_solve_resolves_ambiguous_instances(tmp_path, capsys):
    inst = tmp_path / "amb.json"
    inst.write_text(json.dumps({
        "buyers": [{"id": "b1", "rho": 1}, {"id": "b2", "rho": 1}],
        "items": [
            {"id": "i1", "values": {"b1": 1.3, "b2": 0.9}},
            {"id": "i2", "values": {"b1": 1.5}},
        ],
    }))
    assert main(["solve", str(inst), "--algo", "bundle-round", "--alpha", "0.3",
                 "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True


def test_cli_online_and_trace(tmp_path, capsys):
    model = tmp_path / "m.json"
    main(["gen", "iid-lower-bound", "-T", "10", "-o", str(model)])
    trace = tmp_path / "trace.jsonl"
    assert main(["online", "--model", str(model), "--trials", "50",
                 "--seed", "1", "--trace", str(trace)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible_count"] == 50
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(lines) == 10
    assert all(set(l) == {"t", "item", "type", "bundle", "reason"} for l in lines)


def test_cli_lp_which_variants(tmp_path, capsys):
    model = tmp_path / "m.json"
    main(["gen", "iid-lower-bound", "-T", "10", "-o", str(model)])
    assert main(["lp", str(model), "--which", "opton"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value_exact"] == "29/10"
    assert doc["iterations"] == 11  # the solver's pivot count, deterministic
    # the float basis is optimal in exact arithmetic
    assert (doc["exact_pivots"], doc["restarted"]) == (0, False)
    # openers first, then one pricing round admits the 9 members
    assert (doc["rounds"], doc["columns"]) == (2, 9)
    assert main(["lp", str(model), "--which", "optoff", "--gamma-floor", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "optimal"
    export = tmp_path / "lp.txt"
    inst = tmp_path / "gap3.json"
    main(["gen", "integrality-gap", "-n", "3", "--eps", "0.1", "-o", str(inst)])
    assert main(["lp", str(inst), "--which", "bundle", "--export", str(export)]) == 0
    capsys.readouterr()
    assert main(["lp", str(inst), "--which", "naive"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["rounds"], doc["columns"]) == (1, 0)  # the naive LP owns no rows
    assert export.read_text().startswith("Maximize")


def test_cli_pivot_limit_exits_3(tmp_path, capsys, monkeypatch):
    # a float basis with a column repeated is singular, so the exact layer
    # restarts from the slack basis; on a 1-pivot budget the restart is a
    # typed refusal, exit 3 as for an oracle's work budget.  A failed
    # certificate stays exit 2
    from avalloc import lp as lp_module
    from avalloc.errors import NumericalFailure

    path = tmp_path / "gap3.json"
    main(["gen", "integrality-gap", "-n", "3", "--eps", "0.1", "-o", str(path)])
    float_solve, exact_simplex = lp_module._float_solve, lp_module._exact_revised_simplex

    def repeated(lp):
        status, basis, *rest = float_solve(lp)
        basis[-1] = basis[0]
        return (status, basis, *rest)

    def one_pivot_restart(form, c, basis, max_pivots=2000):
        return exact_simplex(form, c, basis, max_pivots=1 if max_pivots == 5000 else max_pivots)

    monkeypatch.setattr(lp_module, "_float_solve", repeated)
    assert main(["lp", str(path), "--which", "bundle"]) == 0
    assert '"restarted": true' in capsys.readouterr().out
    monkeypatch.setattr(lp_module, "_exact_revised_simplex", one_pivot_restart)
    assert main(["lp", str(path), "--which", "bundle"]) == 3
    assert "exact pivot limit exceeded" in capsys.readouterr().err

    def no_certificate(lp, xs, ys):
        raise NumericalFailure("exact vertex violates a row")

    monkeypatch.undo()
    monkeypatch.setattr(lp_module, "_verify_exact", no_certificate)
    assert main(["lp", str(path), "--which", "bundle"]) == 2
    assert "violates a row" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"buyers": [], "items": [], "extra": 1}')
    assert main(["exact", str(bad)]) == 2
    capsys.readouterr()
    big = tmp_path / "big.json"
    main(["gen", "random", "--items", "8", "--buyers", "3", "--seed", "1",
          "-o", str(big)])
    capsys.readouterr()
    assert main(["exact", str(big), "--limit", "10"]) == 3
    assert capsys.readouterr().err == "error: work 2192 exceeds limit 10\n"
    # a limit below 1 is a usage error, not a refusal
    for limit in ("0", "-5"):
        assert main(["exact", str(big), "--limit", limit]) == 2
        assert "at least 1" in capsys.readouterr().err
    # a refusal names what passed its limit: 18 items pass the subset
    # tables' width, 11 pass exact_gap_opt's elements
    main(["gen", "random", "--items", "18", "--buyers", "2", "-o", str(big)])
    assert main(["exact", str(big)]) == 3
    assert capsys.readouterr().err == "error: subset table width 262144 exceeds limit 131072\n"
    main(["gen", "random", "--items", "11", "--buyers", "2", "--unambiguous", "-o", str(big)])
    assert main(["exact", str(big), "--gap"]) == 3
    assert capsys.readouterr().err == "error: GAP elements 11 exceeds limit 10\n"
    assert main(["gen", "integrality-gap", "-n", "3", "--eps", "0.9"]) == 2
    capsys.readouterr()
    # malformed numbers are rejected where the JSON is loaded
    for rho, value in (("[1]", "2"), ("true", "2"), ("1", "1e400")):
        bad.write_text('{"buyers": [{"id": "b", "rho": %s}], '
                       '"items": [{"id": "i", "values": {"b": %s}}]}' % (rho, value))
        assert main(["lp", str(bad), "--which", "naive"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # malformed shapes: an unhashable id, a list for a map, a string for a list
    for doc in ('{"buyers": [{"id": ["b"], "rho": 1}], "items": []}',
                '{"buyers": [{"id": "b", "rho": 1}], "items": [{"id": "i", "values": [1]}]}',
                '{"buyers": "xx", "items": []}'):
        bad.write_text(doc)
        assert main(["lp", str(bad), "--which", "naive"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    bad.write_text('{"horizon": [4], "buyers": [{"id": "b", "rho": 1}], '
                   '"types": [{"id": "t", "prob": 1, "values": {"b": 2}}]}')
    assert main(["lp", str(bad), "--which", "opton"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # a missing required field is named with its entry
    for which, doc, err in (
        ("naive", '{"buyers": [{"rho": 1}], "items": []}', "buyer entry lacks field 'id'"),
        ("naive", '{"buyers": [{"id": "b"}], "items": []}', "buyer entry lacks field 'rho'"),
        ("naive", '{"buyers": [], "items": [{"values": {}}]}', "item entry lacks field 'id'"),
        ("opton", '{"horizon": 4, "buyers": [{"id": "b", "rho": 1}], '
                  '"types": [{"id": "t", "values": {"b": 2}}]}', "type entry lacks field 'prob'"),
        ("opton", '{"buyers": [{"id": "b", "rho": 1}], '
                  '"types": [{"id": "t", "prob": 1, "values": {"b": 2}}]}',
         "model document lacks field 'horizon'"),
    ):
        bad.write_text(doc)
        assert main(["lp", str(bad), "--which", which]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
    # a model's types are checked like an instance's items: a duplicate id,
    # a negative value, a negative cost
    for types in ('{"id": "t", "prob": 1, "values": {"b": 2}}, '
                  '{"id": "t", "prob": 1, "values": {"b": 2}}',
                  '{"id": "t", "prob": 1, "values": {"b": -2}}',
                  '{"id": "t", "prob": 1, "values": {"b": 2}, "costs": {"b": -1}}'):
        bad.write_text('{"horizon": 4, "buyers": [{"id": "b", "rho": 1}], '
                       '"types": [%s]}' % types)
        assert main(["lp", str(bad), "--which", "opton"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # trial counts below 1 and guarantee parameters beta outside (0, 1)
    model = tmp_path / "model.json"
    assert main(["gen", "iid-lower-bound", "-T", "4", "-o", str(model)]) == 0
    online = ["online", "--model", str(model), "--trials", "5"]
    for argv in (online + ["--trials", "0"], online + ["--trials", "-3"],
                 online + ["--beta", "1"], online + ["--beta", "nan"],
                 online + ["--beta", "-0.5"], ["bench", "--trials", "0"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # empty generator sizes are named
    for family, flag, err in (("random", "--buyers", "buyers must be at least 1, got 0"),
                              ("random", "--items", "items must be at least 0, got -1"),
                              ("random-iid", "--types", "types must be at least 1, got -1")):
        assert main(["gen", family, flag, "0" if flag == "--buyers" else "-1"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
    # so are densities outside [0, 1], NaN included
    for args, err in ((["--edge-density", "nan", "--p-density", "-3"],
                       "edge_density must lie in [0, 1], got nan"),
                      (["--p-density", "-3"], "p_density must lie in [0, 1], got -3.0"),
                      (["--edge-density", "1.5"], "edge_density must lie in [0, 1], got 1.5"),
                      # and negative budget counts and bid fractions
                      (["--budget-resources", "-1"],
                       "budget_resources must be at least 0, got -1"),
                      (["--budget-resources", "1", "--bid-frac", "-0.5"],
                       "bid_frac must be at least 0, got -1/2")):
        assert main(["gen", "random", *args]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


def test_cli_export_gap_and_bench(tmp_path, capsys):
    inst = tmp_path / "gap3.json"
    main(["gen", "integrality-gap", "-n", "3", "--eps", "0.1", "-o", str(inst)])
    assert main(["export-gap", str(inst)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["bins"]) == 3
    report = tmp_path / "rep.json"
    assert main(["bench", "--suite", "examples", "--trials", "50",
                 "--seed", "2", "-o", str(report)]) == 0
    first = report.read_bytes()
    assert (tmp_path / "rep.csv").exists()
    assert main(["bench", "--suite", "examples", "--trials", "50",
                 "--seed", "2", "-o", str(report)]) == 0
    assert report.read_bytes() == first  # bit-for-bit reproducible


def test_cli_bench_dash_writes_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--trials", "50", "--seed", "2", "-o", "-"]) == 0
    assert json.loads(capsys.readouterr().out) == bench_examples(trials=50, seed=2)
    assert list(tmp_path.iterdir()) == []


def test_cli_dash_writes_trace_and_export_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "iid-lower-bound", "-T", "4", "-o", "m.json"]) == 0
    assert main(["online", "--model", "m.json", "--trials", "3", "--trace", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = {"t", "item", "type", "bundle", "reason"}
    assert [set(json.loads(l)) for l in lines[:4]] == [fields] * 4
    assert json.loads("\n".join(lines[4:]))["trials"] == 3
    assert main(["lp", "m.json", "--which", "opton", "--export", "-"]) == 0
    assert capsys.readouterr().out.startswith("Maximize")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_cli_env_seed(capsys):
    # the seeded families' default seed is 0
    for family in ("random", "random-iid"):
        def gen(*seed):
            assert main(["gen", family, *seed]) == 0
            return capsys.readouterr().out

        assert gen() == gen("--seed", "0") != gen("--seed", "123")
