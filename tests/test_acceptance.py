"""Acceptance battery: one test per criterion, each printing a PASS line
with its headline numbers and asserting the stated tolerances exactly.

Statistical checks run at 10^4 trials on fixed master seeds; every
Monte-Carlo output is feasibility-checked in exact arithmetic (the runners
abort the suite on any single infeasible trial).  Run with -s to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction

from avalloc import (
    RoundingParams,
    allocation_value,
    duplicate_supply,
    extract_bundling,
    round_online,
)
from avalloc.core import restrict_edges
from avalloc.generators import (
    gen_adversarial_T,
    gen_genava_clique,
    gen_iid_lower_bound,
    gen_integrality_gap,
    gen_max_coverage,
    gen_random,
    gen_random_iid_model,
    gen_supply_example,
    gen_tightness_example,
)
from avalloc.gap import bundles_to_gap, export_gap, gap_solution_to_bundles, gap_value
from avalloc.harness import run_offline_trials, run_online_trials, verify_prefix_feasibility
from avalloc.lp import solve_lp
from avalloc.lp_models import (
    IidModel,
    build_bundle_lp,
    build_bundle_lp_budgeted,
    build_naive_lp,
    build_opton_lp,
    build_optoff_lp,
    compute_kappa,
    solve_model_lp,
)
from avalloc.oracles import exact_bundling_opt, exact_gap_opt, exact_opt
from avalloc.genava import greedy_p_only
from util import random_feasible_allocation

TRIALS = 10_000


def _passline(name, started, limit, detail):
    elapsed = time.time() - started
    print(f"[PASS] {name}: {detail} ({elapsed:.1f}s)")
    assert elapsed < limit, f"{name} exceeded its {limit}s budget: {elapsed:.1f}s"


def _marginals_within_3_sigma(report, trials):
    """Every expected opening probability q is matched within 3 sigma;
    probability-one bundles must open every time and no unexpected bundle
    may ever open."""
    assert not set(report.open_rates) - set(report.open_expected)
    worst = 0.0
    for key, q in report.open_expected.items():
        rate = report.open_rates.get(key, 0.0)
        if q >= 1.0:
            assert rate == 1.0, f"{key}: expected certain opening, got {rate}"
        else:
            sigma = (q * (1 - q) / trials) ** 0.5
            assert abs(rate - q) <= 3 * sigma, f"{key}: |{rate} - {q}| > 3 sigma"
            if sigma:
                worst = max(worst, abs(rate - q) / sigma)
    return worst


def test_criterion_01_naive_lp_gap_grows_linearly():
    t0 = time.time()
    eps = Fraction(1, 10)
    ratios = []
    for n in (2, 3, 4, 5):
        inst = gen_integrality_gap(n, eps)
        lp = solve_lp(build_naive_lp(inst))
        opt, _ = exact_opt(inst)
        assert lp.exact_objective == n + 1
        assert opt == 2 + (n - 1) * eps
        ratios.append(Fraction(n + 1) / opt)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    _passline(
        "criterion 1 (naive relaxation gap)", t0, 1.0,
        f"LP = n+1 for n in 2..5, opt = 2+(n-1)/10, ratios {[str(r) for r in ratios]}",
    )


def test_criterion_02_bundle_lp_tight_on_gap_family():
    t0 = time.time()
    inst = gen_integrality_gap(3, Fraction(1, 10))
    sol = solve_lp(build_bundle_lp(inst))
    opt, _ = exact_opt(inst)
    assert sol.exact_objective == Fraction(11, 5) == opt
    _passline(
        "criterion 2 (bundle relaxation tight)", t0, 1.0,
        "bundle LP = exact opt = 11/5 at n=3, eps=1/10",
    )


def test_criterion_03_bundling_factor_two():
    t0 = time.time()
    ratios = {}
    for eps in (Fraction(1, 2), Fraction(1, 5)):
        inst = gen_tightness_example(eps)
        opt, _ = exact_opt(inst)
        bopt, _ = exact_bundling_opt(inst)
        r = opt / bopt
        assert 1 < r <= 2
        ratios[eps] = r
    assert ratios[Fraction(1, 5)] > ratios[Fraction(1, 2)]  # toward 2 as eps drops

    checked = 0
    for k in range(500):
        inst = gen_random(5 + k % 4, 2 + k % 3, seed=5000 + k)
        alloc, order = random_feasible_allocation(inst, random.Random(k))
        out = extract_bundling(inst, alloc, order)
        assert 2 * out.value(inst) >= allocation_value(inst, alloc)
        checked += 1
    assert checked == 500
    _passline(
        "criterion 3 (bundling factor two)", t0, 30.0,
        f"ratios {ratios[Fraction(1,2)]} -> {ratios[Fraction(1,5)]}; "
        "500 extracted bundlings kept half their allocation",
    )


def test_criterion_04_supply_growth():
    t0 = time.time()
    base = gen_supply_example(3, Fraction(1, 100))
    opt, _ = exact_opt(base)
    dup_opt, _ = exact_opt(duplicate_supply(base, 3))
    assert opt == Fraction(101, 50)
    assert dup_opt == 12
    for k in (2, 3):
        inst = gen_supply_example(k, Fraction(1, 100))
        o, _ = exact_opt(inst)
        od, _ = exact_opt(duplicate_supply(inst, k))
        assert k * o <= od <= (k * k + k) * o
    _passline(
        "criterion 4 (superlinear supply growth)", t0, 10.0,
        "opt 2.02 -> 12.00 under 3x duplication; k*opt <= opt' <= (k^2+k)*opt for k in {2,3}",
    )


def _offline_suite():
    suite = []
    for k in range(20):
        suite.append(
            gen_random(6 + k % 3, 3 + k % 2, seed=9000 + k, unambiguous=True)
        )
    suite.append(gen_integrality_gap(3, Fraction(1, 10)))
    suite.append(gen_supply_example(3, Fraction(1, 100)))
    suite.append(gen_tightness_example(Fraction(1, 2)))
    suite.append(gen_max_coverage([["e1", "e2"], ["e3", "e4"]], 2, Fraction(1, 10)))
    return suite


def test_criterion_05_and_06_offline_rounding():
    t0 = time.time()
    worst_z = 0.0
    worst_margin = float("inf")
    for inst in _offline_suite():
        x = solve_model_lp(build_bundle_lp(inst))
        assert float(x.objective) > 0
        rep = run_offline_trials(
            inst, x, alpha=0.3, beta=0.156, seed=20250, trials=TRIALS
        )
        assert rep.feasible_count == TRIALS
        assert rep.ci95_lo >= rep.lp_value / 32
        worst_margin = min(worst_margin, rep.ci95_lo / (rep.lp_value / 32))
        worst_z = max(worst_z, _marginals_within_3_sigma(rep, TRIALS))
    _passline(
        "criteria 5+6 (offline rounding, 24 instances x 10^4 trials)", t0, 120.0,
        f"all feasible; CI lower bound >= LP/32 with margin >= {worst_margin:.1f}x; "
        f"worst opening-marginal z = {worst_z:.2f}",
    )


def _online_suite():
    models = [gen_iid_lower_bound(20)]
    for k in range(5):
        models.append(
            gen_random_iid_model(4 + k % 2, 3, 24 + 4 * (k % 3), seed=8800 + k)
        )
    return models


def test_criterion_07_online_rounding():
    t0 = time.time()
    worst_z = 0.0
    worst_margin = float("inf")
    for model in _online_suite():
        assert model.horizon <= 40 and model.horizon % 2 == 0
        x = solve_model_lp(build_opton_lp(model))
        von = float(x.objective)
        assert von > 0
        rep = run_online_trials(
            model, x, alpha=0.64, beta=0.0766, seed=1234, trials=TRIALS
        )
        assert rep.feasible_count == TRIALS  # every prefix of every trial
        assert rep.ci95_lo >= von / 57
        worst_margin = min(worst_margin, rep.ci95_lo / (von / 57))
        worst_z = max(worst_z, _marginals_within_3_sigma(rep, TRIALS))
    _passline(
        "criterion 7 (online rounding, 6 models x 10^4 streams)", t0, 180.0,
        f"all prefixes feasible; CI lower bound >= V[ON]/57 with margin >= "
        f"{worst_margin:.1f}x; worst per-(bundle,t) z = {worst_z:.2f}",
    )


def test_criterion_08_adversarial_sequences():
    t0 = time.time()
    eps = Fraction(1, 20)
    inst, _order = gen_adversarial_T(5, eps)
    greedy_val = allocation_value(inst, greedy_p_only(inst))
    opt, _ = exact_opt(inst)
    cap = 1 + eps * 5
    assert greedy_val == Fraction(5, 4) == cap
    # the construction sums to T + eps for the single subsidized buyer; the
    # oracle value is authoritative (see decisions ledger on the quoted 5.95)
    assert opt == Fraction(101, 20)
    prefix = restrict_edges(inst, [(i, j) for (i, j) in inst.values if i != "star"])
    assert exact_opt(prefix)[0] == 0  # deficit-only prefix admits nothing

    # the two-phase online algorithm, run degenerately on the adversarial
    # sequence (even horizon 6), cannot beat the single subsidized item either
    T6 = 6
    eps6 = Fraction(1, 20)
    buyers = [f"b{k}" for k in range(1, T6 + 1)]
    model = IidModel(
        types=["low", "star"],
        buyers=buyers,
        values={("low", j): 1 - eps6 for j in buyers} | {("star", "b1"): 1 + eps6 * T6},
        thresholds={j: Fraction(1) for j in buyers},
        probs={"low": Fraction(T6 - 1, T6), "star": Fraction(1, T6)},
        horizon=T6,
    )
    x = solve_model_lp(build_opton_lp(model))
    stream = ("low",) * (T6 - 1) + ("star",)
    out, trace = round_online(model, x, RoundingParams(alpha=0.64, seed=0), stream)
    assert verify_prefix_feasibility(model, trace)
    from avalloc.rounding import stream_instance

    assert out.value(stream_instance(model, stream)) <= 1 + eps6 * T6
    _passline(
        "criterion 8 (adversarial arrival sequences)", t0, 1.0,
        "greedy = 1+eps*T = 5/4; oracle opt = 101/20; online play capped at 1+eps*T",
    )


def test_criterion_09_gap_correspondence():
    t0 = time.time()
    for k in range(100):
        inst = gen_random(4 + k % 3, 2 + k % 2, seed=4000 + k, unambiguous=True)
        bval, bopt = exact_bundling_opt(inst)
        gap = export_gap(inst)
        assert exact_gap_opt(gap) == bval
        sol = bundles_to_gap(bopt, inst)
        assert gap_value(sol, gap) == bval
        back = gap_solution_to_bundles(sol, gap, inst)
        assert back.value(inst) == bval
    _passline(
        "criterion 9 (assignment-problem correspondence)", t0, 60.0,
        "100 instances: exported optimum = bundling optimum, round trips exact",
    )


def test_criterion_10_coverage_reduction():
    t0 = time.time()
    yes = gen_max_coverage([["e1", "e2"], ["e3", "e4"]], 2, Fraction(1, 10))
    assert exact_opt(yes)[0] == 6  # k + n
    no = gen_max_coverage(
        [["e1", "e2"], ["e1", "e3"], ["e1", "e4"]], 2, Fraction(1, 10)
    )
    assert exact_opt(no)[0] < 6
    _passline(
        "criterion 10 (coverage reduction)", t0, 1.0,
        f"perfect partition reaches 6 = k+n; overlapping system stops at "
        f"{exact_opt(no)[0]}",
    )


def test_criterion_11_clique_reduction():
    t0 = time.time()
    tri = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert exact_opt(tri)[0] == 5  # alpha(K3)*M + |E| = 1*2 + 3
    p3 = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert exact_opt(p3)[0] == 2 * Fraction(4, 3) + 2  # alpha(P3)*M + |E|
    _passline(
        "criterion 11 (independent-set reduction)", t0, 1.0,
        "triangle opt = 5, path opt = 14/3, both matching alpha(G)*M + |E|",
    )


def test_criterion_12_budgeted_rounding():
    # The guarantee chain for the budget-aware variant is vacuous at K=1
    # with alpha=1/3 (its gamma turns negative); the threshold constant
    # C = 729/8 is the chain's value at its smallest usable parameter
    # point (K=3), applied conservatively here.  See the decisions ledger.
    t0 = time.time()
    C = Fraction(729, 8)
    worst_margin = float("inf")
    for k in range(8):
        inst = gen_random(
            6 + k % 3, 3, seed=9900 + k, unambiguous=True, budget_resources=1
        )
        assert all(c <= Fraction(1, 20) for c in inst.resource_costs.values())
        x = solve_model_lp(build_bundle_lp_budgeted(inst))
        rep = run_offline_trials(
            inst, x, alpha=1 / 3, beta=0.5, seed=31337, trials=TRIALS, budgeted=True
        )
        assert rep.feasible_count == TRIALS  # average-value and budget checks
        assert rep.mean >= rep.lp_value / float(C)
        worst_margin = min(worst_margin, rep.mean / (rep.lp_value / float(C)))
    _passline(
        "criterion 12 (budget-aware rounding, 8 instances x 10^4 trials)", t0, 120.0,
        f"all feasible incl. budgets; mean >= LP/(729/8) with margin >= "
        f"{worst_margin:.1f}x",
    )


def test_criterion_13_concentration_factor():
    t0 = time.time()
    assert abs(compute_kappa(1, 1000) - 21.446) <= 1e-3
    # scaling an ex-post-feasible solution down by the worst rhs ratio makes
    # it online-feasible; with every type expecting >= 1 arrival the ratio
    # is at most 2*kappa
    for seed in range(6000, 6005):
        model = gen_random_iid_model(4, 3, 24, seed=seed)
        assert all(model.probs[i] * model.horizon >= 1 for i in model.types)
        kappa = compute_kappa(1, model.horizon)
        von = float(solve_model_lp(build_opton_lp(model)).objective)
        voff = float(solve_model_lp(build_optoff_lp(model, 1)).objective)
        assert voff >= von
        assert voff <= 2 * kappa * von
    _passline(
        "criterion 13 (concentration factor)", t0, 60.0,
        "kappa(1, 1000) = 21.446 +/- 1e-3; V[OFF] <= 2*kappa*V[ON] on 5 models",
    )
