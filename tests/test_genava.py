from fractions import Fraction

import pytest

from avalloc import allocation_value, is_feasible
from avalloc.genava import (
    _knapsack_2approx,
    bicriteria_cost_ratio,
    genava_bicriteria_greedy,
    genava_single_buyer,
    greedy_p_only,
)
from avalloc.generators import gen_genava_clique, gen_random
from avalloc.oracles import exact_opt
from util import unit_instance


def _triangle():
    return gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_bicriteria_fully_feasible_when_values_cover_costs():
    inst = unit_instance(
        {("i", "b1"): 3, ("i", "b2"): 2, ("k", "b1"): 1},
        buyers=["b1", "b2"],
        costs={("i", "b1"): 2, ("i", "b2"): 1, ("k", "b1"): 1},
    )
    alloc = genava_bicriteria_greedy(inst, Fraction(1, 4))
    assert is_feasible(inst, alloc)
    assert allocation_value(inst, alloc) == 3 + 1  # per-item max qualifying value


def test_bicriteria_on_triangle():
    tri = _triangle()
    eps = Fraction(1, 2)
    alloc = genava_bicriteria_greedy(tri, eps)
    opt, _ = exact_opt(tri)
    assert allocation_value(tri, alloc) >= eps * opt
    bound = 1 + eps / (1 - eps)  # from the v >= rho*c*(1-eps) selection rule
    for j, ratio in bicriteria_cost_ratio(tri, alloc).items():
        if ratio is not None:
            assert ratio <= bound


def test_bicriteria_small_eps_limit_is_feasible():
    tri = _triangle()
    alloc = genava_bicriteria_greedy(tri, Fraction(1, 10 ** 6))
    # only edges with v >= rho*c survive the rule, so the output is
    # exactly feasible
    for i, j in alloc.assignment.items():
        assert tri.values[(i, j)] >= tri.thresholds[j] * tri.cost(i, j)
    assert is_feasible(tri, alloc)


def test_bicriteria_eps_validation():
    with pytest.raises(ValueError):
        genava_bicriteria_greedy(_triangle(), 0)
    with pytest.raises(ValueError):
        genava_bicriteria_greedy(_triangle(), 1)


def test_single_buyer_on_triangle():
    tri = _triangle()
    alloc = genava_single_buyer(tri)
    assert is_feasible(tri, alloc)
    opt, _ = exact_opt(tri)
    assert allocation_value(tri, alloc) >= opt / (2 * len(tri.buyers))
    assert len({j for j in alloc.assignment.values()}) <= 1


def test_single_buyer_half_on_single_buyer_instances():
    for seed in range(20):
        inst = gen_random(6, 1, seed=2000 + seed)
        alloc = genava_single_buyer(inst)
        assert is_feasible(inst, alloc)
        opt, _ = exact_opt(inst)
        assert 2 * allocation_value(inst, alloc) >= opt


def test_single_buyer_all_p_picks_best_buyer():
    inst = unit_instance(
        {("i1", "b1"): 2, ("i2", "b1"): 3, ("i1", "b2"): 4},
        buyers=["b1", "b2"],
    )
    alloc = genava_single_buyer(inst)
    # b1 collects 5, beating b2's 4
    assert allocation_value(inst, alloc) == 5
    assert set(alloc.assignment.values()) == {"b1"}


def test_single_buyer_always_feasible_sweep():
    for seed in range(15):
        inst = gen_random(7, 3, seed=2100 + seed)
        alloc = genava_single_buyer(inst)
        assert is_feasible(inst, alloc)


@pytest.mark.parametrize("algo", [
    greedy_p_only,
    genava_single_buyer,
    lambda inst: genava_bicriteria_greedy(inst, Fraction(1, 10)),
], ids=["greedy-p", "single-buyer", "bicriteria"])
def test_baselines_refuse_budgets(algo):
    # this instance's budgets bind: read without them, single-buyer's
    # allocation is infeasible and worth 911/100, above the optimum 357/50
    inst = gen_random(10, 2, 3, budget_resources=1, bid_frac="0.6")
    with pytest.raises(ValueError, match="do not support budgets"):
        algo(inst)


def test_knapsack_two_approx():
    import itertools

    entries = [
        ("a", Fraction(6), Fraction(5)),
        ("b", Fraction(5), Fraction(4)),
        ("c", Fraction(4), Fraction(3)),
        ("d", Fraction(1), Fraction(1)),
    ]
    for cap in (Fraction(5), Fraction(7), Fraction(9), Fraction(2)):
        _chosen, got = _knapsack_2approx(entries, cap)
        best = Fraction(0)
        for r in range(len(entries) + 1):
            for combo in itertools.combinations(entries, r):
                if sum((w for _i, _v, w in combo), Fraction(0)) <= cap:
                    best = max(best, sum((v for _i, v, _w in combo), Fraction(0)))
        assert 2 * got >= best
        assert got <= best
