"""Greedy baselines and approximation algorithms for the cost-mode
(return-on-spend) problem.

Both greedy baselines give each item to the buyer of its highest-value
admitted edge: greedy_p_only admits P-edges, so it is always feasible; the
linear-time bicriteria greedy relaxes each buyer's constraint by a factor
1/(1-eps) while keeping at least an eps fraction of the optimum value.  The
strictly feasible single-buyer algorithm (all P-edges plus a 2-approximate
knapsack over N-edges) is within a factor 2n of the optimum for n buyers.
None of the three reads budgets, so each raises ValueError on an instance
that carries them.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Allocation, Instance, id_order, to_fraction


def _check_no_budgets(inst: Instance):
    if inst.budgets:
        raise ValueError("the cost-mode baselines do not support budgets")


def _greedy(inst: Instance, admits) -> Allocation:
    """Assign each item to the buyer of its highest-value edge (i, j) with
    admits(i, j), the earlier-declared buyer on a tie; leave it unallocated
    when no edge is admitted.  Each item is decided on its own."""
    _check_no_budgets(inst)
    assignment = {}
    for i in inst.items:
        admitted = [j for j in inst.edges_of_item(i) if admits(i, j)]
        if admitted:  # max keeps the first of equal values
            assignment[i] = max(admitted, key=lambda j: inst.values[(i, j)])
    return Allocation(assignment)


def greedy_p_only(inst: Instance) -> Allocation:
    """Allocate each item along its highest-value nonnegative-excess edge,
    unallocated otherwise.  Always feasible; ties go to the earlier buyer.
    Items are decided independently, so the arrival order does not matter."""
    return _greedy(inst, inst.is_p_edge)


def genava_bicriteria_greedy(inst: Instance, eps) -> Allocation:
    """Assign each item to the highest-value buyer among those with
    v_ij >= rho_j * c_ij * (1 - eps); leave it unallocated when no buyer
    qualifies.

    The output is only nearly feasible: each buyer's rho-weighted cost is at
    most 1/(1-eps) = 1 + eps/(1-eps) times their received value, because the
    selection rule enforces that ratio edge by edge.  Ties go to the
    earlier-declared buyer.
    """
    eps = to_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    return _greedy(inst, lambda i, j: (
        inst.values[(i, j)] >= inst.thresholds[j] * inst.cost(i, j) * (1 - eps)))


def bicriteria_cost_ratio(inst: Instance, alloc: Allocation) -> dict:
    """Per-buyer rho*cost / value of an allocation (None when the buyer got
    nothing); the measured slack reported alongside the greedy output."""
    out = {}
    for j in inst.buyers:
        items = alloc.items_of(j)
        if not items:
            out[j] = None
            continue
        value = sum((inst.values[(i, j)] for i in items), Fraction(0))
        cost = sum((inst.cost(i, j) for i in items), Fraction(0))
        out[j] = None if value == 0 else inst.thresholds[j] * cost / value
    return out


def _knapsack_2approx(entries, capacity: Fraction):
    """Greedy-by-density fill compared against the best single item: a
    2-approximation for 0/1 knapsack.  entries: (item, value, weight);
    weights are positive, capacity nonnegative."""
    chosen_greedy = []
    value_greedy = Fraction(0)
    room = capacity
    order = sorted(entries, key=lambda e: (-(e[1] / e[2]), id_order(e[0])))
    for item, value, weight in order:
        if weight <= room:
            chosen_greedy.append(item)
            value_greedy += value
            room -= weight
    best_single = None
    for item, value, weight in entries:
        if weight <= capacity and (best_single is None or value > best_single[1]):
            best_single = (item, value)
    if best_single is not None and best_single[1] > value_greedy:
        return [best_single[0]], best_single[1]
    return chosen_greedy, value_greedy


def genava_single_buyer(inst: Instance) -> Allocation:
    """Best single-buyer allocation: every P-edge of the buyer plus a
    2-approximate knapsack of N-edges packed into the total P-excess.
    Strictly feasible; within 2n of the optimum over n buyers."""
    _check_no_budgets(inst)
    best = None
    for j in inst.buyers:
        p_edges = [i for i in inst.items if (i, j) in inst.values and inst.is_p_edge(i, j)]
        capacity = sum((inst.excess(i, j) for i in p_edges), Fraction(0))
        p_value = sum((inst.values[(i, j)] for i in p_edges), Fraction(0))
        n_entries = [
            (i, inst.values[(i, j)], -inst.excess(i, j))
            for i in inst.items
            if (i, j) in inst.values and not inst.is_p_edge(i, j)
        ]
        chosen, n_value = _knapsack_2approx(n_entries, capacity)
        total = p_value + n_value
        if best is None or total > best[0]:
            best = (total, j, p_edges, chosen)
    if best is None or best[0] == 0:
        return Allocation({})
    _total, j, p_edges, chosen = best
    return Allocation({i: j for i in p_edges + list(chosen)})
