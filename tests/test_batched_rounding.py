"""The batched rounding runs against the one-trial-at-a-time reference in
scalar_rounding.py, trial by trial, and reports against the block size."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalloc import IidModel, rounding
from avalloc.generators import gen_random, gen_random_iid_model
from avalloc.harness import run_offline_trials, run_online_trials
from avalloc.lp_models import (
    build_bundle_lp,
    build_bundle_lp_budgeted,
    build_opton_lp,
    solve_model_lp,
)
from avalloc.rounding import OfflinePlan, OnlinePlan, derive_trial_seed, sample_stream
from dense_candidates import dense_coin_candidates
from scalar_rounding import ScalarOfflinePlan, ScalarOnlinePlan
from util import BIG_P, BIG_Q, dense_coin_model, huge_scale_instance, solution


def _check_offline(inst, x, alpha, budgeted, seed, trials):
    plan = OfflinePlan(inst, x, alpha, budgeted=budgeted)
    ref = ScalarOfflinePlan(inst, x, alpha, budgeted=budgeted)
    assert [b[:2] for b in ref.bundles] == plan.bundles
    runs = [(start + r, plan.outcome(block, r))
            for start, block in plan.run_trials(seed, trials) for r in range(len(block[2]))]
    assert [t for t, _out in runs] == list(range(trials))
    for t, (opened, value) in runs:
        want = ref.run(derive_trial_seed(seed, t))
        assert (opened, value) == want
        assert list(opened) == sorted(opened)
        plan.to_bundled(opened).validate(inst)
    one, value = plan.run(derive_trial_seed(seed, 0))
    assert (one, value) == (runs[0][1][0], Fraction(runs[0][1][1], inst.scale))
    return plan


def _check_online(model, x, alpha, seed, trials):
    plan = OnlinePlan(model, x, alpha)
    ref = ScalarOnlinePlan(model, x, alpha)
    streams = [sample_stream(model, seed, t) for t in range(trials)]
    seeds = [derive_trial_seed(seed, t) for t in range(trials)]
    arrivals = rounding.stream_arrivals(model, seed, np.arange(trials, dtype=np.uint64))
    block = plan.run_block(np.array(seeds, dtype=np.uint64), arrivals)
    traced = [plan.outcome(block, t) for t in range(trials)]
    for start, block in plan.run_trials(seed, trials):
        for r in range(len(block[3])):
            want = ref.run(seeds[start + r], streams[start + r])
            assert traced[start + r] == want
            assert plan.outcome(block, r) == want
    opened, members, value, trace = plan.run(seeds[0], streams[0])
    assert (opened, members, value, trace) == (
        *traced[0][:2], Fraction(traced[0][2], model.inst.scale), traced[0][3])
    return plan


_bids = st.sampled_from([None, "0.05", "0.6"])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(3, 12), st.integers(1, 4), st.integers(0, 10 ** 6), _bids,
       st.sampled_from([None, 0.3, 0.9]))
def test_offline_runs_match_scalar_reference(n, m, seed, bids, alpha):
    # bids None is plain mode; otherwise one or two budgets per buyer, which
    # P-items alone can exhaust when bids reach 0.6 of a unit budget
    if bids is None:
        inst = gen_random(n, m, seed, unambiguous=True)
        x = solve_model_lp(build_bundle_lp(inst))
    else:
        inst = gen_random(n, m, seed, unambiguous=True, budget_resources=1 + seed % 2,
                          bid_frac=bids)
        x = solve_model_lp(build_bundle_lp_budgeted(inst))
    plan = _check_offline(inst, x, alpha, bids is not None, seed, 30)
    assert plan.dtype is np.int64


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 15), st.integers(0, 10 ** 6),
       st.sampled_from([None, 0.9]))
def test_online_runs_and_traces_match_scalar_reference(n_types, n_buyers, half, seed, alpha):
    model = gen_random_iid_model(n_types, n_buyers, 2 * half, seed)
    plan = _check_online(model, solve_model_lp(build_opton_lp(model)), alpha, seed, 20)
    assert plan.dtype is np.int64


@pytest.mark.parametrize("budgeted", [False, True])
def test_object_dtype_offline_matches_scalar_reference(budgeted):
    inst = huge_scale_instance(budgeted)
    assert inst.scale > 2 ** 63
    build = build_bundle_lp_budgeted if budgeted else build_bundle_lp
    x = solve_model_lp(build(inst))
    plan = _check_offline(inst, x, 0.6, budgeted, 4, 300)
    assert plan.dtype is object
    # the block check sums in Python ints too
    assert run_offline_trials(inst, x, 0.6, 0.156, 4, 300, budgeted).feasible_count == 300


def test_object_dtype_online_matches_scalar_reference():
    model = IidModel(
        types=["p", "q", "n", "m"], buyers=["b1", "b2"],
        values={("p", "b1"): 2 + Fraction(1, BIG_P), ("q", "b2"): Fraction(5, 2),
                ("n", "b1"): 1 - Fraction(1, BIG_Q), ("n", "b2"): Fraction(1, 2),
                ("m", "b2"): Fraction(3, 4) + Fraction(1, BIG_P), ("q", "b1"): Fraction(1, 3)},
        thresholds={"b1": 1, "b2": 1},
        probs={"p": Fraction(1, 4), "q": Fraction(1, 4), "n": Fraction(1, 4),
               "m": Fraction(1, 4)},
        horizon=12,
    )
    assert model.inst.scale > 2 ** 63
    x = solve_model_lp(build_opton_lp(model))
    plan = _check_online(model, x, 0.9, 2, 300)
    assert plan.dtype is object
    # the prefix replay sums in Python ints too
    assert run_online_trials(model, x, 0.9, 0.0766, 2, 300).feasible_count == 300


def test_online_exact_fits_match_scalar_reference():
    # an opener of excess 1 takes exactly two members of deficit 1/2: the
    # second join meets the threshold with equality
    model = IidModel(
        types=["p", "n"], buyers=["b"], values={("p", "b"): 2, ("n", "b"): Fraction(1, 2)},
        thresholds={"b": 1}, probs={"p": Fraction(1, 4), "n": Fraction(3, 4)}, horizon=12,
    )
    plan = _check_online(model, solve_model_lp(build_opton_lp(model)), 0.9, 6, 300)
    joins = [len(m) for _s, block in plan.run_trials(6, 300) for r in range(len(block[3]))
             for m in plan.outcome(block, r)[1].values()]
    assert max(joins) == 2


def _candidate_triples(plan, first, second, opener):
    """plan.coin_candidates as a set of (row, col, slot) triples, after
    checking that each names the coin of its arrival's type against its
    bundle's class, once."""
    cells, entries, slots = plan.coin_candidates(first, second, opener)
    rows, cols = np.divmod(cells, second.shape[1])
    typ = second[rows, cols]
    assert ((plan.join_start[typ] <= entries) & (entries < plan.join_start[typ + 1])).all()
    nb = len(plan.model.buyers)
    assert (plan.join_class[entries] == first[rows, slots] * nb + opener[rows, slots]).all()
    triples = set(zip(rows.tolist(), cols.tolist(), slots.tolist()))
    assert len(triples) == len(cells)
    return triples


def _dense_triples(plan, first, second, opener):
    return set(zip(*(a.tolist() for a in dense_coin_candidates(plan, first, second, opener))))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 15), st.integers(0, 10 ** 6),
       st.integers(1, 9), st.sampled_from([0.0, 0.3, 1.0]))
def test_coin_candidates_match_the_dense_gather(n_types, n_buyers, half, seed, n, open_frac):
    model = gen_random_iid_model(n_types, n_buyers, 2 * half, seed)
    plan = OnlinePlan(model, solve_model_lp(build_opton_lp(model)), 0.9)
    # the blocks of real runs, then random streams with random openers, a
    # buyer for any type; open_frac 0 opens no bundle
    seeds = rounding.trial_seeds(seed, np.arange(n, dtype=np.uint64))
    arrivals = rounding.stream_arrivals(model, seed, np.arange(n, dtype=np.uint64))
    opener = plan.run_block(seeds, arrivals)[0]
    rng = np.random.default_rng(seed)
    blocks = [(arrivals, opener)]
    arrivals = rng.integers(n_types, size=(n, 2 * half))
    opener = rng.integers(n_buyers, size=(n, half))
    blocks.append((arrivals, np.where(rng.random((n, half)) < open_frac, opener, -1)))
    for arrivals, opener in blocks:
        first, second = arrivals[:, :half], arrivals[:, half:]
        assert (_candidate_triples(plan, first, second, opener)
                == _dense_triples(plan, first, second, opener))


def test_coin_candidates_of_a_model_without_coins():
    # every edge is a P-edge, so no arrival has a coin
    model = IidModel(
        types=["p", "q"], buyers=["b1", "b2"],
        values={("p", "b1"): 2, ("p", "b2"): Fraction(3, 2), ("q", "b2"): Fraction(5, 4)},
        thresholds={"b1": 1, "b2": 1}, probs={"p": Fraction(1, 2), "q": Fraction(1, 2)},
        horizon=10,
    )
    plan = _check_online(model, solve_model_lp(build_opton_lp(model)), 0.9, 4, 40)
    assert not plan.join_start.any() and len(plan.join_class) == len(plan.join_coin) == 0
    arrivals = rounding.stream_arrivals(model, 4, np.arange(40, dtype=np.uint64))
    opener, hit, joined = plan.run_block(rounding.trial_seeds(4, np.arange(40, dtype=np.uint64)),
                                         arrivals)[:3]
    assert (opener >= 0).any() and (hit < 0).all() and not joined.any()
    first, second = arrivals[:, :5], arrivals[:, 5:]
    assert _candidate_triples(plan, first, second, opener) == set()


def _contested_model():
    """Three N-types that may join two or three of the classes (p1, b1),
    (p1, b2) and (p2, b2), each with coin probability 0.225 or 0.45 at
    alpha 0.9, and openers of excess 1/4 or 1/5: a bundle fits two or
    three members of deficit 1/10 or 1/20.  The solution is feasible for
    the online LP, not optimal."""
    model = IidModel(
        types=["p1", "p2", "n1", "n2", "n3"], buyers=["b1", "b2"],
        values={("p1", "b1"): Fraction(5, 4), ("p1", "b2"): Fraction(6, 5),
                ("p2", "b2"): Fraction(5, 4), ("n1", "b1"): Fraction(9, 10),
                ("n1", "b2"): Fraction(9, 10), ("n2", "b1"): Fraction(19, 20),
                ("n2", "b2"): Fraction(9, 10), ("n3", "b1"): Fraction(9, 10),
                ("n3", "b2"): Fraction(19, 20)},
        thresholds={"b1": 1, "b2": 1},
        probs={"p1": Fraction(1, 8), "p2": Fraction(1, 8), "n1": Fraction(1, 4),
               "n2": Fraction(1, 4), "n3": Fraction(1, 4)},
        horizon=16,
    )
    x = {("p1", "b1", "p1"): 1, ("p2", "b2", "p2"): 1, ("p1", "b2", "p1"): Fraction(1, 2),
         ("n1", "b1", "p1"): 1, ("n2", "b1", "p1"): 1, ("n3", "b1", "p1"): 1,
         ("n1", "b2", "p2"): 1, ("n2", "b2", "p2"): 1, ("n3", "b2", "p2"): 1,
         ("n2", "b2", "p1"): Fraction(1, 2), ("n3", "b2", "p1"): 1}
    x = {k: Fraction(v) for k, v in x.items()}
    objective = sum(v * model.values[(i, j)] for (i, j, _p), v in x.items())
    return model, solution(model.inst, x, objective)


def test_contested_bundles_match_scalar_reference():
    model, x = _contested_model()
    plan = _check_online(model, x, 0.9, 3, 300)
    most, refused = 0, 0
    for _start, (_opener, hit, joined, _value, _arrivals) in plan.run_trials(3, 300):
        rows, cols = np.nonzero(hit >= 0)
        hits_per_bundle = np.unique(rows * plan.half + hit[rows, cols], return_counts=True)[1]
        most = max(most, hits_per_bundle.max(initial=0))
        refused += len(rows) - int(joined.sum())
    # later join rounds run, and some of their hits find the residual spent
    assert most >= 3
    assert refused >= 1
    assert run_online_trials(model, x, 0.9, 0.0766, 3, 300).feasible_count == 300


def _reports():
    plain = gen_random(14, 4, 5, unambiguous=True)
    budgeted = gen_random(12, 3, 4, unambiguous=True, budget_resources=1, bid_frac="0.6")
    model = gen_random_iid_model(5, 3, 16, 2)
    return [
        run_offline_trials(plain, solve_model_lp(build_bundle_lp(plain)), None, 0.156, 3, 50),
        run_offline_trials(budgeted, solve_model_lp(build_bundle_lp_budgeted(budgeted)), 0.9,
                           0.156, 3, 50, budgeted=True),
        run_online_trials(model, solve_model_lp(build_opton_lp(model)), 0.64, 0.0766, 3, 50),
    ]


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    default = [r.to_json_dict() for r in _reports()]
    for block in (1, 7, 60):
        monkeypatch.setattr(rounding, "_BLOCK", block)
        assert [r.to_json_dict() for r in _reports()] == default


def test_blocks_hold_a_bounded_number_of_elements():
    model = gen_random_iid_model(5, 3, 100, 2)
    plan = OnlinePlan(model, solve_model_lp(build_opton_lp(model)), None)
    # per trial: four T-wide replay arrays, the phase-I draw table, and a
    # second-half arrival per join class of its type
    joins = np.diff(plan.join_start).max()
    assert plan.block_trials == rounding._BLOCK // max(4 * 100, 50 * plan.open_acc.shape[1],
                                                       50 * joins) >= 100
    inst = gen_random(14, 4, 5, unambiguous=True, budget_resources=2)
    plan = OfflinePlan(inst, solve_model_lp(build_bundle_lp_budgeted(inst)), None, True)
    # per trial: one column per coin, per P-item draw, per bundle, per budget
    widths = [len(plan.c_bundle), plan.p_acc.size, len(plan.bundles), plan.caps.size]
    assert plan.block_trials == rounding._BLOCK // max(widths) > 1


def test_dense_coin_blocks_split_within_the_budget(monkeypatch):
    model, x = dense_coin_model(100)
    # a block of 150 trials has about 94,000 coins, so it splits; each of
    # its rows still matches the scalar reference
    _check_online(model, x, None, 5, 150)
    want = run_online_trials(model, x, None, 0.0766, 5, 300)
    assert want.feasible_count == 300
    coin_candidates = OnlinePlan.coin_candidates
    blocks = []  # (trials, coins) of each block asked for its coins

    def counted(self, first, second, opener):
        coins = coin_candidates(self, first, second, opener)
        blocks.append((len(second), None if coins is None else len(coins[0])))
        return coins

    monkeypatch.setattr(OnlinePlan, "coin_candidates", counted)
    for block in (rounding._BLOCK, 4096, 1):
        monkeypatch.setattr(rounding, "_BLOCK", block)
        blocks.clear()
        assert run_online_trials(model, x, None, 0.0766, 5, 300) == want
        ran = [(n, coins) for n, coins in blocks if coins is not None]
        # every trial ran once, and a block of more than one trial over the
        # budget split instead of materializing its coins
        assert sum(n for n, _coins in ran) == 300
        assert all(n == 1 or coins <= block for n, coins in ran)
        assert (len(ran) < len(blocks)) == (block > 1)


def test_online_rounding_memory_bound():
    # the dense-coin model at T=400: up to 40,000 coins a trial, about
    # 10,000 drawn, against a block of 40 trials sized by the plan's widths.
    # A block over rounding._BLOCK coins splits, so the traced peak stays
    # under 8 MiB (5.2 MiB measured with numpy 2.4; 34 MiB with the split
    # taken out)
    model, x = dense_coin_model(400)
    tracemalloc.start()
    try:
        report = run_online_trials(model, x, None, 0.0766, 0, 50)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert report.feasible_count == 50
    assert peak < 8
