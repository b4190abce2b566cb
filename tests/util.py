"""Shared helpers for the test suite."""

from fractions import Fraction

from avalloc import Allocation, BundleLpSolution, IidModel, Instance
from avalloc.lp_models import build_opton_lp, solve_model_lp


def unit_instance(values, buyers=None, costs=None, budgets=None, rcosts=None):
    """Instance with rho=1 buyers from a {(item, buyer): value} dict."""
    items = list(dict.fromkeys(i for i, _j in values))
    if buyers is None:
        buyers = list(dict.fromkeys(j for _i, j in values))
    return Instance(
        items=items,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
        costs=costs,
        budgets=budgets,
        resource_costs=rcosts,
    )


def solution(inst, entries, objective=0):
    """The BundleLpSolution over inst's bundle layout that holds the truthy
    values of entries, a {(item, buyer, p_item): value} dict, as from_lp
    keeps only the nonzero ones."""
    layout = inst.bundle_layout
    x = {layout.col[k]: v for k, v in entries.items() if v}
    return BundleLpSolution(layout.keys, dict(sorted(x.items())), objective)


def entries(x):
    """A BundleLpSolution's values keyed by (item, buyer, p_item)."""
    return {x.keys[c]: v for c, v in x.x.items()}


def random_feasible_allocation(inst, rng):
    """A feasible allocation plus a prefix-feasible arrival order: a random
    set of P-edges first, then N-edges added greedily while they fit."""
    assignment = {}
    order = []
    slack = {j: Fraction(0) for j in inst.buyers}
    items = list(inst.items)
    rng.shuffle(items)
    for i in items:
        p_choices = [j for j in inst.buyers if (i, j) in inst.values and inst.is_p_edge(i, j)]
        if p_choices and rng.random() < 0.8:
            j = rng.choice(p_choices)
            assignment[i] = j
            slack[j] += inst.excess(i, j)
            order.append(i)
    for i in items:
        if i in assignment:
            continue
        n_choices = [
            j
            for j in inst.buyers
            if (i, j) in inst.values
            and not inst.is_p_edge(i, j)
            and slack[j] + inst.excess(i, j) >= 0
        ]
        if n_choices and rng.random() < 0.8:
            j = rng.choice(n_choices)
            assignment[i] = j
            slack[j] += inst.excess(i, j)
            order.append(i)
    return Allocation(assignment), order


def dense_coin_model(horizon):
    """(model, online-LP optimum) with one buyer and two types, each
    arriving with probability 1/2: every first-half arrival of the P-type
    opens a bundle, and every second-half arrival of the N-type has a coin
    at every open bundle, about (T/4)**2 coins a trial."""
    model = IidModel(types=["p", "n"], buyers=["b"],
                     values={("p", "b"): 3, ("n", "b"): Fraction(1, 2)}, thresholds={"b": 1},
                     probs={"p": Fraction(1, 2), "n": Fraction(1, 2)}, horizon=horizon)
    return model, solve_model_lp(build_opton_lp(model))
