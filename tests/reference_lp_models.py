"""The Fraction-dict LP builders: the reference the builders in
``avalloc.lp_models``, which emit each row in the instance's scaled
integers, are compared with.

These are lp_models' builders as they ran before rows were stored as ints:
every coefficient is a Fraction in a {column: coefficient} dict, zeros
included where the row held them, and each LP is built through
``LinearProgram.from_rows``, which drops the zeros and stores each row over
the lcm of its denominators.
"""

import math
from fractions import Fraction

from avalloc.core import Instance, to_fraction
from avalloc.errors import DomainError, GammaViolated, MissingBudgets
from avalloc.lp import LinearProgram
from avalloc.lp_models import IidModel, bundle_lp_shape, compute_kappa, opton_lp_shape


def build_naive_lp(inst: Instance) -> LinearProgram:
    """Fractional relaxation of the assignment ILP; plain mode only."""
    if inst.has_costs:
        raise ValueError("naive LP is defined for plain (unit-cost) instances")
    edges = inst.edges()
    idx = {e: k for k, e in enumerate(edges)}
    n = len(edges)
    objective = [inst.values[e] for e in edges]
    rows = []
    for j in inst.buyers:
        row = {
            idx[(i, j)]: inst.thresholds[j] - inst.values[(i, j)]
            for i in inst.items
            if (i, j) in idx
        }
        if row:
            rows.append((row, "<=", Fraction(0)))
    for i in inst.items:
        row = {idx[(i, j)]: Fraction(1) for j in inst.buyers if (i, j) in idx}
        if row:
            rows.append((row, "<=", Fraction(1)))
    return LinearProgram.from_rows(
        objective=objective,
        rows=rows,
        upper_bounds=[Fraction(1)] * n,
        var_keys=edges,
    )


def _bundle_lp(inst: Instance, item_cap, member_cap, extra_rows=()) -> LinearProgram:
    """The bundle relaxation every bundle-shaped LP shares.

    Columns as in inst.bundle_layout: openers x_pjp per P-edge (p, j), members
    x_ijp per N-edge (i, j) and bundle (j, p).  item_cap(i) is the rhs of the
    row of item i; member_cap(i) multiplies x_pjp in the membership row of x_ijp.
    ``extra_rows`` (unowned) follow the membership rows.
    """
    layout = inst.bundle_layout
    keys = layout.keys
    # per-bundle average-value rows: sum_i (rho_j c_ij - v_ij) x_ijp <= 0
    value_rows = [{} for _ in layout.bundles]
    # per-item rows: the mass of item i over all bundles <= item_cap(i)
    item_rows = {}
    for pos, ((i, j, _p), b) in enumerate(zip(keys, layout.bundle.tolist())):
        value_rows[b][pos] = -inst.excess(i, j)
        item_rows.setdefault(i, {})[pos] = Fraction(1)
    rows = [(row, "<=", Fraction(0)) for row in value_rows]
    rows += [(row, "<=", item_cap(i)) for i, row in item_rows.items()]
    # membership rows: x_ijp <= member_cap(i) * x_pjp, each owned by its
    # member, which the solver leaves out with the row until it prices in
    members = [
        (pos, i, opener)
        for pos, ((i, _j, _p), opener) in enumerate(zip(keys, layout.opener.tolist()))
        if opener != pos
    ]
    owner = [None] * len(rows) + [pos for pos, _i, _opener in members]
    rows += [({pos: Fraction(1), opener: -member_cap(i)}, "<=", Fraction(0))
             for pos, i, opener in members]
    rows += extra_rows
    owner += [None] * len(extra_rows)
    return LinearProgram.from_rows(
        objective=[inst.values[(i, j)] for (i, j, _p) in keys],
        rows=rows,
        var_keys=keys,
        row_owner=owner,
    )


def build_bundle_lp(inst: Instance) -> LinearProgram:
    """Bundle relaxation for an unambiguous instance."""
    return _bundle_lp(inst, *bundle_lp_shape(inst))


def build_bundle_lp_budgeted(inst: Instance) -> LinearProgram:
    """Bundle LP with per-buyer and per-bundle budget rows per resource."""
    if not inst.budgets:
        raise MissingBudgets("instance carries no budgets")
    shape = bundle_lp_shape(inst)
    keys, col = inst.bundle_layout.keys, inst.bundle_layout.col
    rows = []
    for res in inst.resources():
        for j in inst.buyers:
            cap = inst.budget(res, j)
            if cap is None:
                continue
            rcost = {
                pos: inst.rcost(res, i, j) for pos, (i, jj, _p) in enumerate(keys) if jj == j
            }
            row = {pos: c for pos, c in rcost.items() if c}
            if row:
                rows.append((row, "<=", cap))
            # one row per bundle (j, p), openers taken in bundle order
            for (p, jj, pp) in keys:
                if p != pp or jj != j:
                    continue
                row = {pos: c for pos, c in rcost.items() if keys[pos][2] == p}
                row[col[(p, j, p)]] -= cap
                rows.append((row, "<=", Fraction(0)))
    return _bundle_lp(inst, *shape, extra_rows=rows)


def build_opton_lp(model: IidModel) -> LinearProgram:
    """Relaxation of any feasible-with-probability-one online algorithm;
    its value is denoted V[ON]."""
    return _bundle_lp(model.inst, *opton_lp_shape(model))


def build_optoff_lp(model: IidModel, gamma_floor) -> LinearProgram:
    """Ex-post upper-bound LP (value V[OFF]); requires q_i*T >= gamma_floor
    for every type."""
    gamma_floor = to_fraction(gamma_floor)
    if gamma_floor <= 0:
        raise DomainError("gamma floor must be positive")
    T = model.horizon
    offending = [i for i in model.types if model.probs[i] * T < gamma_floor]
    if offending:
        raise GammaViolated(offending, gamma_floor)
    kappa = to_fraction(compute_kappa(gamma_floor, T))

    def item_cap(i):
        return Fraction(2 * math.ceil(model.probs[i] * T))

    def member_cap(i):
        return Fraction(math.ceil(model.probs[i] * T * kappa))

    return _bundle_lp(model.inst, item_cap, member_cap)
