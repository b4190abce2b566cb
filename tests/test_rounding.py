import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avalloc import (
    BundleLpSolution,
    IidModel,
    allocation_value,
    is_feasible,
)
from avalloc.errors import AmbiguousInstance, InfeasibleFractional, StreamModelMismatch
from avalloc.genava import greedy_p_only
from avalloc.generators import (
    gen_adversarial_T,
    gen_integrality_gap,
    gen_iid_lower_bound,
    gen_random,
    gen_random_iid_model,
)
from avalloc.harness import run_offline_trials, run_online_trials, verify_prefix_feasibility
from avalloc.lp_models import (
    build_bundle_lp,
    build_bundle_lp_budgeted,
    build_opton_lp,
    bundle_lp_shape,
    opton_lp_shape,
    solve_model_lp,
)
from avalloc.rounding import (
    OfflinePlan,
    OnlinePlan,
    RoundingParams,
    _mix,
    _mix_from,
    check_fractional,
    counter_uniform,
    derive_trial_seed,
    gamma_offline,
    gamma_online,
    round_offline,
    round_online,
    sample_stream,
    stream_instance,
)
from scalar_fractional import scalar_check_fractional
from util import entries, solution, unit_instance


def _gap_solution():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    return inst, solve_model_lp(build_bundle_lp(inst))


def test_counter_uniform_range_and_determinism():
    vals = [counter_uniform(7, 1, k) for k in range(1000)]
    assert all(0 <= v < 1 for v in vals)
    assert vals == [counter_uniform(7, 1, k) for k in range(1000)]
    assert derive_trial_seed(3, 4) == derive_trial_seed(3, 4)
    assert derive_trial_seed(3, 4) != derive_trial_seed(3, 5)


def _reference_mix(*parts):
    """The key hash as one splitmix64 round per part, written out apart
    from the package's fold."""
    mask = (1 << 64) - 1
    h = 0x9E3779B97F4A7C15
    for p in parts:
        x = ((h ^ (p & mask)) + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        h = x ^ (x >> 31)
    return h


_key_parts = st.lists(st.integers(-(2 ** 80), 2 ** 80), max_size=4)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_key_parts, _key_parts)
@example([-1, 2 ** 64], [2 ** 64 + 5, -(2 ** 70)])
@example([], [])
def test_prefix_fold_continues_the_key_hash(a, b):
    h = _mix_from(_mix(*a), *b)
    assert h == _mix(*a, *b) == _reference_mix(*a, *b)
    assert counter_uniform(*a, *b) == (h >> 11) * 2.0 ** -53
    # the fold over a uint64 array, with the parts as ints or as arrays
    start = np.full(3, _mix(*a), dtype=np.uint64)
    by_ints = _mix_from(start, *b)
    by_arrays = _mix_from(start, *(np.full(3, p % 2 ** 64, dtype=np.uint64) for p in b))
    assert by_ints.dtype == by_arrays.dtype == np.uint64
    assert by_ints.tolist() == by_arrays.tolist() == [h] * 3


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# Reports, streams and traces recorded before the online loop used prefix
# hashes, a candidate index, a cached stream CDF and an integer replay.  The
# plain offline report was recorded again when the bundle LP came to be
# solved by column generation: its optimum of 2639/100 moved to another
# integral vertex, where item i6 joins buyer b8's bundle opened by i1, not
# the one opened by i8.
ONLINE_REPORT_DIGESTS = {
    0: "974b5e5b984f46dcc9f3dd6d15193b9fbd9f4cca4593a6b0fca8a97210852196",
    5: "61554467f43b869ece262ae78505b72dda27ddc69b6fa6219b6873febd4a3d55",
}
OFFLINE_REPORT_DIGESTS = {
    False: "be4e9f97ba0a5a2b7c181a7213064794ff412056ccb3e12a380b723718c00936",
    True: "32b67142d571297de5217a607944d89e593f980c1d8b24d99b0436a598e05253",
}
STREAM_DIGEST = "7aabbe0c40e5bba33996ba64f065ba24054da0c613d6146ef9a113ccd717ba2c"
TRACE_DIGEST = "62a2a2e3bd11e40c4e29d02481f65143bb852bb612df7fdb6ffc0fc1a34ae695"


@pytest.fixture(scope="module")
def random_iid_solution():
    model = gen_random_iid_model(8, 5, 100, 1)
    return model, solve_model_lp(build_opton_lp(model))


@pytest.mark.parametrize("seed", sorted(ONLINE_REPORT_DIGESTS))
def test_online_report_is_pinned(random_iid_solution, seed):
    model, x = random_iid_solution
    report = run_online_trials(model, x, alpha=0.64, beta=0.0766, seed=seed, trials=200)
    assert _sha(report.to_json_dict()) == ONLINE_REPORT_DIGESTS[seed]


@pytest.mark.parametrize("budgeted", [False, True])
def test_offline_report_is_pinned(budgeted):
    if budgeted:
        inst = gen_random(20, 6, 1, unambiguous=True, budget_resources=2)
        x = solve_model_lp(build_bundle_lp_budgeted(inst))
    else:
        inst = gen_random(20, 8, 1, unambiguous=True)
        x = solve_model_lp(build_bundle_lp(inst))
    report = run_offline_trials(inst, x, alpha=None, beta=0.156, seed=0, trials=200,
                                budgeted=budgeted)
    assert _sha(report.to_json_dict()) == OFFLINE_REPORT_DIGESTS[budgeted]


def test_online_streams_and_traces_are_pinned():
    model = gen_iid_lower_bound(20)
    x = solve_model_lp(build_opton_lp(model))
    arrivals, traces = [], []
    for t in range(50):
        stream = sample_stream(model, 3, t)
        _out, trace = round_online(
            model, x, RoundingParams(alpha=0.64, seed=derive_trial_seed(3, t)), stream
        )
        arrivals.append(stream)
        traces.append([rec.to_json() for rec in trace])
    assert _sha(arrivals) == STREAM_DIGEST
    assert _sha(traces) == TRACE_DIGEST


def test_params_validation():
    with pytest.raises(ValueError):
        RoundingParams(alpha=0)


def test_gamma_formulas():
    assert gamma_offline(0.3, 0.156) == pytest.approx(0.3 * 0.7 * (1 - 0.3 / 0.844))
    assert gamma_online(0.64, 0.0766) == pytest.approx(
        0.32 * 0.68 * (1 - 0.32 / (1 - 0.0766))
    )
    # the analysis constants are positive at the default parameters
    assert gamma_offline(0.3, 0.156) > 0.13
    assert gamma_online(0.64, 0.0766) > 0.14


def test_offline_deterministic_given_seed():
    inst, x = _gap_solution()
    a = round_offline(inst, x, RoundingParams(alpha=0.3, seed=11))
    b = round_offline(inst, x, RoundingParams(alpha=0.3, seed=11))
    c = round_offline(inst, x, RoundingParams(alpha=0.3, seed=12))
    assert a == b
    assert any(round_offline(inst, x, RoundingParams(alpha=0.3, seed=s)) != a
               for s in range(20)) or c != a


def test_offline_single_p_item_always_opens():
    inst = unit_instance({("p", "b"): 2})
    x = solve_model_lp(build_bundle_lp(inst))
    assert entries(x)[("p", "b", "p")] == 1
    for seed in range(100):
        out = round_offline(inst, x, RoundingParams(alpha=0.3, seed=seed))
        assert len(out) == 1 and out.bundles[0].p_item == "p"


def test_offline_residual_mass_opens_nothing():
    # when the opener mass sums below 1 the leftover probability opens no
    # bundle, preserving the marginal exactly
    inst = unit_instance({("p", "b"): 2})
    x = solution(inst, {("p", "b", "p"): Fraction(1, 2)}, Fraction(1))
    trials = 10_000
    plan = OfflinePlan(inst, x, alpha=0.3)
    opens = sum(int(opened.any(1).sum()) for _s, (opened, _j, _v) in plan.run_trials(3, trials))
    sigma = (trials * 0.25) ** 0.5
    assert abs(opens - trials / 2) <= 3 * sigma


def test_offline_pure_p_instance_matches_lp_marginals():
    inst = unit_instance(
        {("p1", "b1"): "1.5", ("p1", "b2"): "1.2", ("p2", "b1"): "1.1"},
        buyers=["b1", "b2"],
    )
    x = solve_model_lp(build_bundle_lp(inst))
    expect = sum(float(v) * float(inst.values[(i, j)]) for (i, j, _p), v in entries(x).items())
    trials = 10_000
    plan = OfflinePlan(inst, x, alpha=0.3)
    total = 0.0
    for _s, block in plan.run_trials(5, trials):
        total += sum(float(plan.to_bundled(plan.outcome(block, r)[0]).value(inst))
                     for r in range(len(block[2])))
    mean = total / trials
    # each value is bounded by 2.7, so 3 sigma of the mean is comfortably 0.05
    assert abs(mean - expect) <= 0.05


def test_offline_gap_instance_mean_beats_one():
    # the theory floor is LP/32 = 0.06875; in practice the run keeps the
    # whole opened bundle most of the time
    inst, x = _gap_solution()
    trials = 2000
    plan = OfflinePlan(inst, x, alpha=0.3)
    total = 0.0
    for _s, block in plan.run_trials(17, trials):
        total += sum(float(plan.to_bundled(plan.outcome(block, r)[0]).value(inst))
                     for r in range(len(block[2])))
    mean = total / trials
    assert mean >= float(x.objective) / 32
    assert mean >= 1.0


def test_offline_feasible_across_seeds():
    for seed in range(50):
        inst = gen_random(7, 3, seed=3000 + seed, unambiguous=True)
        x = solve_model_lp(build_bundle_lp(inst))
        out = round_offline(inst, x, RoundingParams(alpha=0.3, seed=seed))
        out.validate(inst)
        assert is_feasible(inst, out.to_allocation())


def test_offline_rejects_infeasible_fractional():
    inst, x = _gap_solution()
    bad = solution(inst, {("p", "b1", "p"): 2.0}, 2.6)
    with pytest.raises(InfeasibleFractional):
        round_offline(inst, bad, RoundingParams(alpha=0.3, seed=0))
    # a non-finite opener or member passes no comparison, so it is named
    # as such; a NaN opener would otherwise never open its bundle.  A
    # Fraction beyond the float range is infinite as a float
    random_inst = gen_random(7, 3, 3001, unambiguous=True)
    random_x = solve_model_lp(build_bundle_lp(random_inst))
    for bad in (float("nan"), float("inf"), Fraction(10 ** 400)):
        for case, sol in ((inst, x), (random_inst, random_x)):
            for opener in (True, False):
                key = next(k for k in entries(sol) if (k[0] == k[2]) == opener)
                tampered = solution(case, {**entries(sol), key: bad}, sol.objective)
                with pytest.raises(InfeasibleFractional, match="non-finite"):
                    OfflinePlan(case, tampered, alpha=0.3)
    # of two bundles over their value rows, the first in column order is named
    two = unit_instance({("p1", "b"): "1.2", ("p2", "b"): "1.2", ("n1", "b"): "0.5",
                         ("n2", "b"): "0.5"})
    late = {("n2", "b", "p2"): 1, ("p2", "b", "p2"): 1, ("n1", "b", "p1"): 1, ("p1", "b", "p1"): 1}
    with pytest.raises(InfeasibleFractional, match=r"bundle \('b', 'p1'\) violates"):
        OfflinePlan(two, solution(two, late), alpha=0.3)
    # the bundle LP, and so its check, is defined on unambiguous instances only
    amb = unit_instance({("i", "b1"): "1.3", ("i", "b2"): "0.9"}, buyers=["b1", "b2"])
    with pytest.raises(AmbiguousInstance):
        round_offline(amb, solution(amb, {}), RoundingParams(alpha=0.3))


def test_a_solution_keeps_only_its_nonzero_layout_columns():
    # the plain instance of the offline Monte-Carlo benchmark
    inst = gen_random(20, 8, 1, unambiguous=True)
    lp = build_bundle_lp(inst)
    x = solve_model_lp(lp)
    assert lp.n_vars == 493 and x.keys is inst.bundle_layout.keys
    assert len(x.x) == 20 and list(x.x) == sorted(x.x) and all(x.x.values())


def test_check_fractional_binds_a_solution_to_its_layout():
    edges = {("p", "b"): 2, ("n1", "b"): "0.5"}
    a = unit_instance(edges)
    x = solve_model_lp(build_bundle_lp(a))
    # an equal layout of another instance is accepted
    OfflinePlan(unit_instance(edges), x, alpha=0.3)
    # one more N-edge, and so one more column
    b = unit_instance({**edges, ("n2", "b"): "0.5"})
    with pytest.raises(InfeasibleFractional, match="bundle layout"):
        OfflinePlan(b, x, alpha=0.3)


def test_check_fractional_rejects_columns_out_of_order_or_range():
    a = unit_instance({("p", "b"): 2, ("n1", "b"): "0.5"})
    x = solve_model_lp(build_bundle_lp(a))
    assert list(x.x) == [0, 1]
    for cols in ({1: 1, 0: 1}, {0: 1, 2: 1}, {-1: 1}, {0: 1, 0.5: 1}, {("p", "b", "p"): 1}):
        with pytest.raises(InfeasibleFractional, match="increasing layout columns"):
            check_fractional(a, BundleLpSolution(x.keys, cols, 0), *bundle_lp_shape(a))


def test_online_rejects_infeasible_fractional():
    # caps q_i*T: 1 for p and q, 2 for n; p opens with excess 1, n joins
    # with deficit 4/5
    model = IidModel(
        types=["p", "q", "n"],
        buyers=["b"],
        values={("p", "b"): 2, ("q", "b"): 3, ("n", "b"): "0.2"},
        thresholds={"b": 1},
        probs={"p": Fraction(1, 4), "q": Fraction(1, 4), "n": Fraction(1, 2)},
        horizon=4,
    )
    stream = ("p", "q", "n", "n")
    cases = [
        ({("p", "b", "p"): -0.5}, "negative"),
        ({("p", "b", "p"): 0.5, ("n", "b", "p"): 1.5}, "opener cap"),
        ({("p", "b", "p"): 1.5}, "mass"),
        ({("p", "b", "p"): 1, ("n", "b", "p"): 2}, "value row"),
        ({("p", "b", "p"): float("nan")}, "non-finite"),
        ({("p", "b", "p"): 1, ("n", "b", "p"): float("nan")}, "non-finite"),
        ({("p", "b", "p"): float("inf"), ("n", "b", "p"): 1}, "non-finite"),
        ({("p", "b", "p"): 1, ("n", "b", "p"): float("-inf")}, "non-finite"),
    ]
    for x, reason in cases:
        with pytest.raises(InfeasibleFractional, match=reason):
            round_online(model, solution(model.inst, x), RoundingParams(alpha=0.64, seed=0),
                         stream)
    ok = {("p", "b", "p"): 1, ("n", "b", "p"): Fraction(5, 4)}
    round_online(model, solution(model.inst, ok), RoundingParams(alpha=0.64, seed=0), stream)
    # a member within the tolerance of an absent or zero opener passes the
    # check and tosses no coin, as offline
    for x in ({("n", "b", "p"): 1e-12}, {("p", "b", "p"): 0, ("n", "b", "p"): 1e-12}):
        plan = OnlinePlan(model, solution(model.inst, x), 0.64)
        assert not plan.join_start.any() and len(plan.join_class) == len(plan.join_coin) == 0


def test_zero_opener_tosses_no_coin_in_either_plan():
    # an opener listed at 0 with a member at 1e-12 passes check_fractional;
    # neither plan divides by the opener or tosses the member's coin
    values = {("p", "b"): 2, ("n", "b"): "0.5"}

    def listed(inst, opener, member):
        col = inst.bundle_layout.col
        return BundleLpSolution(inst.bundle_layout.keys,
                                {col[("p", "b", "p")]: opener, col[("n", "b", "p")]: member}, 0)

    inst = unit_instance(values)
    plan = OfflinePlan(inst, listed(inst, 0, 1e-12), 0.3)
    assert plan.bundles == [] and plan.coin_items == [] and len(plan.c_prob) == 0
    report = run_offline_trials(inst, listed(inst, 0, 1e-12), 0.3, 0.156, seed=0, trials=20)
    assert report.mean == 0 and report.feasible_count == 20
    model = IidModel(types=["p", "n"], buyers=["b"], values=values, thresholds={"b": 1},
                     probs={"p": Fraction(1, 2), "n": Fraction(1, 2)}, horizon=4)
    x = listed(model.inst, 0, 1e-12)
    plan = OnlinePlan(model, x, 0.64)
    assert not plan.open_acc.any() and len(plan.join_coin) == 0
    report = run_online_trials(model, x, 0.64, 0.0766, seed=0, trials=20)
    assert report.mean == 0 and report.feasible_count == 20
    # a member listed at 0 under an open bundle has no join entry either
    assert len(OnlinePlan(model, listed(model.inst, 1, 0), 0.64).join_class) == 0


def _tamper(inst, x, rng, kinds, item_cap, member_cap):
    """x with the tampering of each kind applied in turn, drawn from rng."""
    x, layout = dict(x), inst.bundle_layout
    keys = list(x) or [None]
    members = [k for k in layout.keys if k[0] != k[2]] or [None]
    for kind in kinds:
        key = rng.choice(keys)
        if kind == "negative" and key:
            # a negative opener also caps its members
            key = rng.choice([key, (key[2], key[1], key[2])])
            x[key] = -rng.choice([Fraction(1, 2), Fraction(1, 10 ** 12), Fraction(1, 10 ** 8)])
        elif kind == "over_cap" and members[0]:
            member = rng.choice(members)
            x[member] = x.get(member, 0) + rng.choice([Fraction(1, 10 ** 6), 1])
        elif kind == "value_row":
            # fill bundles with whole items up to the caps, so that the value
            # rows of several bundles fail and the first in column order is named
            for _i, j, p in rng.sample(layout.keys, min(2, len(layout.keys))):
                for i, _j, _p in (k for k in layout.keys if k[1:] == (j, p) and k[0] != p):
                    x.update({k: 0 for k in x if k[0] == i})
                    x[(i, j, p)] = min(x.get((p, j, p), 0) * member_cap(i), item_cap(i))
        elif kind == "mass" and key:
            x[key] = x.get(key, 0) * 2 + rng.choice([0, Fraction(1, 10 ** 12), Fraction(1, 2)])
        elif kind == "zero" and key:
            x[key] = rng.choice([0, 0.0, -0.0])
        elif kind == "drop" and key:
            x.pop(key, None)
        elif kind == "float":
            x = {k: float(v) for k, v in x.items()}
        elif kind == "non_finite" and key:
            x[key] = rng.choice([float("nan"), float("inf"), float("-inf")])
    return x


_TAMPERS = ["negative", "over_cap", "value_row", "mass", "zero", "drop", "float", "non_finite"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.booleans(), st.integers(1, 8), st.integers(1, 3), st.integers(0, 10 ** 6),
       st.sampled_from([0, 1, 2]), st.lists(st.sampled_from(_TAMPERS), max_size=4),
       st.randoms(use_true_random=False))
def test_check_fractional_matches_the_scalar_check(online, n, m, seed, budgets, kinds, rng):
    # both LP shapes over gen_random* inputs, tampered; the only allowed
    # difference is that a non-finite entry is now rejected as such
    if online:
        model = gen_random_iid_model(n, m, 2 * n, seed)
        inst, shape = model.inst, opton_lp_shape(model)
        lp = build_opton_lp(model)
    else:
        inst = gen_random(n, m, seed, unambiguous=True, budget_resources=budgets)
        shape = bundle_lp_shape(inst)
        lp = (build_bundle_lp_budgeted if budgets else build_bundle_lp)(inst)
    x = solution(inst, _tamper(inst, entries(solve_model_lp(lp)), rng, kinds, *shape))

    def fault(check):
        try:
            return check(inst, x, *shape)
        except InfeasibleFractional as exc:
            return str(exc)

    got, want = fault(check_fractional), fault(scalar_check_fractional)
    if isinstance(got, str):
        non_finite = any(isinstance(v, float) and not math.isfinite(v) for v in x.x.values())
        assert got == want or (non_finite and got.startswith("non-finite value at"))
        return
    assert want is None
    cols, floats = got
    assert cols.tolist() == list(x.x)
    assert floats.tolist() == [float(v) for v in x.x.values()]


def test_offline_small_deficit_allocation_rate():
    # deficits 0.1 against excess 1: beta = 0.156 covers them, so the
    # allocation probability must reach gamma * x (here the exact rate is
    # alpha itself since nothing ever collides)
    inst = unit_instance(
        {("p", "b"): 2, ("n1", "b"): "0.9", ("n2", "b"): "0.9", ("n3", "b"): "0.9"}
    )
    x = solve_model_lp(build_bundle_lp(inst))
    assert all(entries(x)[(f"n{k}", "b", "p")] == 1 for k in (1, 2, 3))
    alpha, beta = 0.3, 0.156
    trials = 10_000
    hits = {k: 0 for k in (1, 2, 3)}
    plan = OfflinePlan(inst, x, alpha=alpha)
    for _s, (_opened, joined, _value) in plan.run_trials(9, trials):
        for k in (1, 2, 3):
            hits[k] += int((joined[:, plan.coin_items.index(f"n{k}")] >= 0).sum())
    gamma = gamma_offline(alpha, beta)
    for k, cnt in hits.items():
        rate = cnt / trials
        sigma = (rate * (1 - rate) / trials) ** 0.5 or 1 / trials
        assert rate >= gamma * 1.0 - 3 * sigma


def _round_budgeted(inst, x, params):
    plan = OfflinePlan(inst, x, params.alpha, budgeted=True)
    return plan.to_bundled(plan.run(params.seed)[0])


def test_budgeted_matches_plain_when_no_budgets_bind():
    inst = gen_random(6, 3, seed=31, unambiguous=True)
    x = solve_model_lp(build_bundle_lp(inst))
    params = RoundingParams(alpha=0.3, seed=77)
    assert round_offline(inst, x, params) == _round_budgeted(inst, x, params)

    huge = gen_random(6, 3, seed=31, unambiguous=True, budget_resources=1)
    relaxed = unit_instance(
        dict(huge.values),
        buyers=list(huge.buyers),
        budgets={k: Fraction(10 ** 9) for k in huge.budgets},
        rcosts=dict(huge.resource_costs),
    )
    xb = solve_model_lp(build_bundle_lp(relaxed))
    assert round_offline(relaxed, xb, params) == _round_budgeted(relaxed, xb, params)


def test_budgeted_default_alpha_is_one_third_per_resource():
    inst = gen_random(6, 3, seed=12, unambiguous=True, budget_resources=1)
    x = solve_model_lp(build_bundle_lp_budgeted_safe(inst))
    plan = OfflinePlan(inst, x, alpha=None, budgeted=True)
    assert plan.alpha == pytest.approx(1 / 3)


def test_budgeted_phase_one_keeps_every_budget():
    # bids up to 0.6 of a unit budget, so P-items alone can overspend it:
    # P-only bundles of b3 rooted at i1, i3 and i7 would cost it 53/50
    inst = gen_random(12, 3, 4, unambiguous=True, budget_resources=1, bid_frac="0.6")
    x = solve_model_lp(build_bundle_lp_budgeted(inst))
    rep = run_offline_trials(inst, x, alpha=0.9, beta=0.156, seed=0, trials=200,
                             budgeted=True)
    assert rep.feasible_count == rep.trials == 200


def build_bundle_lp_budgeted_safe(inst):
    from avalloc.lp_models import build_bundle_lp_budgeted

    return build_bundle_lp_budgeted(inst)


def test_budgeted_small_bids_feasibility():
    for seed in (41, 42):
        inst = gen_random(7, 3, seed=seed, unambiguous=True, budget_resources=1)
        x = solve_model_lp(build_bundle_lp_budgeted_safe(inst))
        plan = OfflinePlan(inst, x, alpha=1 / 3, budgeted=True)
        for _s, block in plan.run_trials(seed, 500):
            for r in range(len(block[2])):
                opened, _value = plan.outcome(block, r)
                assert is_feasible(inst, plan.to_bundled(opened).to_allocation())


# -- online --------------------------------------------------------------------


def test_online_pure_n_stream_allocates_nothing():
    model = IidModel(
        types=["n", "p"],
        buyers=["b"],
        values={("n", "b"): "0.5", ("p", "b"): 2},
        thresholds={"b": 1},
        probs={"n": Fraction(1, 2), "p": Fraction(1, 2)},
        horizon=4,
    )
    x = solve_model_lp(build_opton_lp(model))
    stream = ("n", "n", "n", "n")
    out, trace = round_online(model, x, RoundingParams(alpha=0.64, seed=3), stream)
    assert len(out) == 0
    assert all(rec.reason in ("no-phase", "multi-hit") for rec in trace)


def test_online_single_p_type_value_four():
    model = IidModel(
        types=["p"], buyers=["b"], values={("p", "b"): 2},
        thresholds={"b": 1}, probs={"p": 1}, horizon=4,
    )
    x = solve_model_lp(build_opton_lp(model))
    assert entries(x)[("p", "b", "p")] == 4
    for seed in range(30):
        stream = ("p",) * 4
        out, trace = round_online(model, x, RoundingParams(alpha=0.64, seed=seed), stream)
        inst = stream_instance(model, stream)
        assert out.value(inst) == 4  # both phase-one arrivals open, none join
        assert [r.reason for r in trace] == ["opened", "opened", "multi-hit", "multi-hit"]


def test_stream_instance_reads_a_missing_model_cost_as_one():
    model = IidModel(
        types=["t", "u"], buyers=["b"], values={("t", "b"): 2, ("u", "b"): "0.5"},
        thresholds={"b": 1}, probs={"t": "0.5", "u": "0.5"}, horizon=2,
        costs={("t", "b"): "1.5"},
    )
    assert model.inst.excess("u", "b") == Fraction(-1, 2)
    inst = stream_instance(model, ("u", "t"))
    assert inst.items == ("t1", "t2")
    assert inst.costs == {("t1", "b"): 1, ("t2", "b"): Fraction(3, 2)}


def test_online_requires_even_horizon_and_known_types():
    model = gen_iid_lower_bound(9)
    x_lp = build_opton_lp(model)
    x = solve_model_lp(x_lp)
    with pytest.raises(ValueError):
        round_online(model, x, RoundingParams(alpha=0.64, seed=0),
                     ("p",) * 9)
    even = gen_iid_lower_bound(10)
    xe = solve_model_lp(build_opton_lp(even))
    with pytest.raises(StreamModelMismatch):
        round_online(even, xe, RoundingParams(alpha=0.64, seed=0),
                     ("p",) * 9)
    with pytest.raises(StreamModelMismatch):
        round_online(even, xe, RoundingParams(alpha=0.64, seed=0),
                     ("ghost",) * 10)


def test_online_prefix_feasible_and_committed():
    model = gen_iid_lower_bound(20)
    x = solve_model_lp(build_opton_lp(model))
    for t in range(200):
        stream = sample_stream(model, 13, t)
        out, trace = round_online(
            model, x, RoundingParams(alpha=0.64, seed=derive_trial_seed(13, t)), stream
        )
        assert verify_prefix_feasibility(model, trace)
        inst = stream_instance(model, stream)
        out.validate(inst)
        placed = [rec.item for rec in trace
                  if rec.reason in ("opened", "singleton+permissible")]
        assert len(placed) == len(set(placed))  # never reassigned


def test_online_deterministic_given_seed():
    model = gen_iid_lower_bound(10)
    x = solve_model_lp(build_opton_lp(model))
    stream = sample_stream(model, 5, 0)
    a = round_online(model, x, RoundingParams(alpha=0.64, seed=8), stream)
    b = round_online(model, x, RoundingParams(alpha=0.64, seed=8), stream)
    assert a[0] == b[0]
    assert [r.to_json() for r in a[1]] == [r.to_json() for r in b[1]]


def test_online_open_count_marginal():
    # expected copies of each bundle over the first half is x_pjp / 2
    model = gen_iid_lower_bound(10)
    x = solve_model_lp(build_opton_lp(model))
    (xp,) = [float(v) for (i, _j, p), v in entries(x).items() if i == p]
    expect = xp / 2
    trials = 4000
    plan = OnlinePlan(model, x, alpha=0.64)
    total = 0
    for _s, (opener, *_rest) in plan.run_trials(21, trials):
        total += int((opener >= 0).sum())
    mean = total / trials
    T = model.horizon
    q = xp / T
    var_per_trial = (T / 2) * q * (1 - q)
    sigma = (var_per_trial / trials) ** 0.5
    assert abs(mean - expect) <= 3 * sigma


def test_trace_records_serialize():
    model = gen_iid_lower_bound(10)
    x = solve_model_lp(build_opton_lp(model))
    stream = sample_stream(model, 1, 0)
    _out, trace = round_online(model, x, RoundingParams(alpha=0.64, seed=1), stream)
    for rec in trace:
        doc = rec.to_json()
        assert set(doc) == {"t", "item", "type", "bundle", "reason"}
        assert doc["reason"] in (
            "opened", "no-phase", "singleton+permissible", "multi-hit", "impermissible",
        )


# -- greedy ------------------------------------------------------------------


def test_greedy_on_adversarial_sequence():
    inst, _order = gen_adversarial_T(5, Fraction(1, 20))
    alloc = greedy_p_only(inst)
    assert allocation_value(inst, alloc) == Fraction(5, 4)
    assert is_feasible(inst, alloc)


def test_greedy_all_n_and_all_p():
    all_n = unit_instance({("i", "b"): "0.5", ("k", "b"): "0.9"})
    assert greedy_p_only(all_n).assignment == {}
    all_p = unit_instance(
        {("i", "b1"): "1.5", ("i", "b2"): 2, ("k", "b1"): "1.2"}, buyers=["b1", "b2"]
    )
    alloc = greedy_p_only(all_p)
    assert alloc.assignment == {"i": "b2", "k": "b1"}
    assert allocation_value(all_p, alloc) == Fraction(32, 10)


def test_sample_stream_deterministic_and_valid():
    model = gen_iid_lower_bound(10)
    s1 = sample_stream(model, 3, 0)
    s2 = sample_stream(model, 3, 0)
    s3 = sample_stream(model, 3, 1)
    assert s1 == s2 and len(s1) == 10
    assert s1 != s3
    assert all(t in model.types for t in s1)
