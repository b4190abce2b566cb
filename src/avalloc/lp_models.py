"""Builders for every LP the toolkit solves.

Four relaxations over an instance, or over the instance of an arrival
model's item types:

* naive LP: drop integrality from the assignment ILP (variables x_ij).
* bundle LP: variables x_ijp tied to opened bundles; requires every item to
  be a pure P-item or N-item.  Variables are created only where they may be
  nonzero: x_pjp for each P-edge (p, j), and x_ijp for each N-edge (i, j)
  against each bundle (j, p).  Pinned-to-zero variables are omitted.
* budgeted bundle LP: bundle LP plus per-buyer and per-bundle budget rows
  for each configured resource.
* arrival-model LPs: the same bundle structure over item types, with
  right-hand sides q_i*T (online-feasible version, value V[ON]) or the
  inflated 2*ceil(q_i*T) / ceil(q_i*T*kappa) version bounding the ex-post
  optimum (value V[OFF]).

Variable order is always lexicographic by declared (item, buyer, p-item)
position, so solver output is deterministic.  Builders accept cost-mode
instances by using the excess v - rho*c wherever the plain mode uses v - rho.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .bundling import state_dtype
from .core import (
    Instance,
    buyers_from_json,
    buyers_to_json,
    items_from_json,
    items_to_json,
    number_from_json,
    object_from_json,
    read_json,
    reject_unknown_fields,
    required_field,
    to_fraction,
    write_json,
)
from .errors import (
    AmbiguousInstance,
    DomainError,
    GammaViolated,
    InvalidInstance,
    MissingBudgets,
)
from .lp import LinearProgram, LpSolution, solve_lp


@dataclass(frozen=True)
class IidModel:
    """Known distribution over item types with T i.i.d. arrivals.

    The valuation over the types is self.inst, an Instance whose items are
    the types, built once and checked like any instance; a type's missing
    cost is read as 1.  probs must sum to 1 exactly.  costs come only from
    a model document's type entries, and put the model in cost mode; the
    online rounding algorithms require plain mode.
    """

    types: tuple
    buyers: tuple
    values: dict
    thresholds: dict
    probs: dict
    horizon: int
    costs: dict | None = None
    inst: Instance = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        costs = self.costs
        if costs is not None:
            costs = MappingProxyType({k: to_fraction(v) for k, v in costs.items()})
            object.__setattr__(self, "costs", costs)
            costs = {**{e: Fraction(1) for e in self.values}, **costs}
        inst = Instance(items=self.types, buyers=self.buyers, values=self.values,
                        thresholds=self.thresholds, costs=costs)
        object.__setattr__(self, "inst", inst)
        object.__setattr__(self, "types", inst.items)
        object.__setattr__(self, "buyers", inst.buyers)
        object.__setattr__(self, "values", inst.values)
        object.__setattr__(self, "thresholds", inst.thresholds)
        object.__setattr__(self, "probs", MappingProxyType(
            {k: to_fraction(v) for k, v in self.probs.items()}))
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if set(self.probs) != set(self.types):
            raise ValueError("probs must cover exactly the declared types")
        if any(q < 0 for q in self.probs.values()):
            raise ValueError("negative arrival probability")
        if sum(self.probs.values()) != 1:
            raise ValueError("arrival probabilities must sum to 1 exactly")

    @cached_property
    def stream_table(self) -> tuple:
        """The arrival draw's arrays (cdf, guide, crowded).  An arrival
        drawn as u in [0, 1) is the first type whose cumulative probability,
        as the float of the exact sum in declared type order, exceeds u,
        else the last type; cdf holds those floats with the last one
        replaced by inf, so that the first entry above u is always that
        type's.  For K the least power of two >= 4 * types, the guide table
        (Chen & Asau, 1974) holds at g < K the count of cdf entries <= g / K,
        and crowded[g] whether two or more entries lie strictly between g / K
        and (g + 1) / K.  Those buckets hold at most 1/8 of the mass: the
        others see at most one entry past guide[g]."""
        cdf = np.array([float(q) for q in itertools.accumulate(
            self.probs[i] for i in self.types)])
        cdf[-1] = math.inf
        k = 1 << (4 * len(cdf) - 1).bit_length()
        bounds = np.arange(k + 1) / k
        guide = np.searchsorted(cdf, bounds[:-1], side="right")
        crowded = np.searchsorted(cdf, bounds[1:], side="left") - guide >= 2
        return cdf, guide, crowded

    @cached_property
    def replay_table(self) -> tuple:
        """The prefix replay's arrays (excess, edge, most): per type, the
        scaled excess (Instance.scaled of inst) of each buyer, then 0 for
        the index past the last buyer and 0 for no buyer; whether an
        arrival of the type may step to that index, along an edge or to no
        buyer; and the largest magnitude of an excess.  excess is int64,
        or an object array of Python ints when most reaches 2**63."""
        inst, nb = self.inst, len(self.buyers)
        scaled = inst.scaled[1]
        t = np.array([inst.item_index(i) for i, _j in scaled], dtype=np.intp)
        b = np.array([inst.buyer_index(j) for _i, j in scaled], dtype=np.intp)
        most = max(map(abs, scaled.values()), default=0)
        excess = np.zeros((len(self.types), nb + 2), dtype=state_dtype(most))
        excess[t, b] = list(scaled.values())
        edge = np.zeros(excess.shape, dtype=bool)
        edge[t, b] = edge[:, nb + 1] = True
        return excess, edge, most


@dataclass
class BundleLpSolution:
    """Solution of an LP over the key list keys (a bundle LP's are its
    instance's bundle_layout.keys): x maps each nonzero column, in
    increasing order, to its value."""

    keys: list
    x: dict
    objective: object

    @classmethod
    def from_lp(cls, lp: LinearProgram, sol: LpSolution) -> "BundleLpSolution":
        if lp.var_keys is None:
            raise ValueError("LP carries no variable keys")
        return cls(lp.var_keys, {c: v for c, v in enumerate(sol.exact_values) if v},
                   sol.exact_objective)


# ---------------------------------------------------------------------------


def build_naive_lp(inst: Instance) -> LinearProgram:
    """Fractional relaxation of the assignment ILP; plain mode only.  A
    buyer's row is minus its scaled excesses over inst.scale."""
    if inst.has_costs:
        raise ValueError("naive LP is defined for plain (unit-cost) instances")
    edges = inst.edges()
    idx = {e: k for k, e in enumerate(edges)}
    excess = inst.scaled[1]
    rows = []
    for j in inst.buyers:
        terms = [(idx[(i, j)], -excess[(i, j)]) for i in inst.items if (i, j) in idx]
        if terms:
            rows.append(_int_row([t for t in terms if t[1]], 0, inst.scale))
    for i in inst.items:
        cols = tuple(idx[(i, j)] for j in inst.buyers if (i, j) in idx)
        if cols:
            rows.append((cols, (1,) * len(cols), 1, 1))
    return LinearProgram(objective=[inst.values[e] for e in edges], int_rows=rows,
                         upper_bounds=[Fraction(1)] * len(edges), var_keys=edges)


def _int_row(terms, rhs, scale):
    """The stored row of (column, int) terms in increasing column order."""
    cols, ints = zip(*terms) if terms else ((), ())
    return cols, ints, rhs, scale


def _bundle_lp(inst: Instance, item_cap, member_cap, extra_rows=()) -> LinearProgram:
    """The bundle relaxation every bundle-shaped LP shares.

    Columns as in inst.bundle_layout: openers x_pjp per P-edge (p, j), members
    x_ijp per N-edge (i, j) and bundle (j, p).  item_cap(i) is the rhs of the
    row of item i; member_cap(i) multiplies x_pjp in the membership row of x_ijp.
    ``extra_rows`` (unowned, stored rows) follow the membership rows.  Value
    rows are read off inst.scaled over inst.scale, item and membership rows
    off their cap's numerator over its denominator.
    """
    layout = inst.bundle_layout
    keys = layout.keys
    excess = inst.scaled[1]
    # per-bundle average-value rows: sum_i (rho_j c_ij - v_ij) x_ijp <= 0
    value_rows = [[] for _ in layout.bundles]
    # per-item rows: the mass of item i over all bundles <= item_cap(i)
    item_rows = {}
    for pos, ((i, j, _p), b) in enumerate(zip(keys, layout.bundle.tolist())):
        if excess[(i, j)]:
            value_rows[b].append((pos, -excess[(i, j)]))
        item_rows.setdefault(i, []).append(pos)
    rows = [_int_row(terms, 0, inst.scale) for terms in value_rows]
    for i, cols in item_rows.items():
        cap = item_cap(i)
        rows.append((tuple(cols), (cap.denominator,) * len(cols), cap.numerator, cap.denominator))
    # membership rows: x_ijp <= member_cap(i) * x_pjp, each owned by its
    # member, which the solver leaves out with the row until it prices in
    owner = [None] * len(rows)
    caps = {i: member_cap(i) for i in item_rows}
    for pos, ((i, _j, _p), opener) in enumerate(zip(keys, layout.opener.tolist())):
        if opener != pos:
            a, den = -caps[i].numerator, caps[i].denominator
            rows.append(((pos,), (den,), 0, den) if not a else
                        ((opener, pos), (a, den), 0, den) if opener < pos else
                        ((pos, opener), (den, a), 0, den))
            owner.append(pos)
    rows += extra_rows
    owner += [None] * len(extra_rows)
    return LinearProgram(objective=[inst.values[(i, j)] for (i, j, _p) in keys],
                         int_rows=rows, var_keys=keys, row_owner=owner)


def _one(_item) -> Fraction:
    return Fraction(1)


def bundle_lp_shape(inst: Instance):
    """(item_cap, member_cap) of the offline bundle LP: each item has one
    copy and each member joins at most its opener's mass.  Requires an
    unambiguous instance."""
    if not inst.is_unambiguous():
        raise AmbiguousInstance(f"ambiguous items: {inst.ambiguous_items()}")
    return _one, _one


def opton_lp_shape(model: IidModel):
    """(item_cap, member_cap) of the online LP over model.inst: type i
    arrives q_i*T times in expectation, and so caps both its mass and its
    members per opened bundle."""
    T = model.horizon

    def expected_arrivals(i):
        return model.probs[i] * T

    return expected_arrivals, expected_arrivals


def build_bundle_lp(inst: Instance) -> LinearProgram:
    """Bundle relaxation for an unambiguous instance."""
    return _bundle_lp(inst, *bundle_lp_shape(inst))


def build_bundle_lp_budgeted(inst: Instance) -> LinearProgram:
    """Bundle LP with per-buyer and per-bundle budget rows per resource."""
    if not inst.budgets:
        raise MissingBudgets("instance carries no budgets")
    shape = bundle_lp_shape(inst)
    layout = inst.bundle_layout
    _values, _excess, rcosts, budgets = inst.scaled
    members = [[] for _ in layout.bundles]  # the columns of each bundle
    for pos, b in enumerate(layout.bundle.tolist()):
        members[b].append(pos)
    rows = []
    for res in inst.resources():
        for j in inst.buyers:
            cap = budgets.get((res, j))
            if cap is None:
                continue
            rcost = {pos: rcosts.get((res, i, j), 0)
                     for pos, (i, jj, _p) in enumerate(layout.keys) if jj == j}
            terms = [(pos, c) for pos, c in rcost.items() if c]
            if terms:
                rows.append(_int_row(terms, cap, inst.scale))
            # one row per bundle (j, p) in bundle order, the budget taken off its opener
            for b, (jj, p) in enumerate(layout.bundles):
                if jj == j:
                    row = {pos: rcost[pos] for pos in members[b]}
                    row[layout.col[(p, j, p)]] -= cap
                    rows.append(_int_row([(pos, c) for pos, c in row.items() if c], 0, inst.scale))
    return _bundle_lp(inst, *shape, extra_rows=rows)


# ---------------------------------------------------------------------------
# arrival-model LPs


def build_opton_lp(model: IidModel) -> LinearProgram:
    """Relaxation of any feasible-with-probability-one online algorithm;
    its value is denoted V[ON]."""
    return _bundle_lp(model.inst, *opton_lp_shape(model))


def compute_kappa(gamma, T: int) -> float:
    """Concentration factor 6/min(1, gamma) * ln T / ln ln T."""
    gamma = to_fraction(gamma)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if T < 3:
        raise DomainError("T must be at least 3 so that ln ln T is positive")
    return 6.0 / min(1.0, float(gamma)) * math.log(T) / math.log(math.log(T))


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


def solve_model_lp(lp: LinearProgram) -> BundleLpSolution:
    """Solve any of the bundle-shaped LPs and wrap the keyed solution."""
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise ValueError(f"LP not optimal: {sol.status}")
    return BundleLpSolution.from_lp(lp, sol)


# -- JSON interchange for arrival models ------------------------------------
#
#   {"horizon": int, "buyers": [{"id": str, "rho": num}],
#    "types": [{"id": str, "prob": num, "values": {buyerId: num},
#               "costs": {buyerId: num}?}]}
#
# Buyers and types are read and written as an instance's buyers and items.


def model_from_dict(doc: dict) -> IidModel:
    doc = object_from_json(doc, "model document")
    reject_unknown_fields(doc, {"horizon", "buyers", "types"}, "model document")
    buyers, thresholds, _ = buyers_from_json(doc, {"id", "rho"})
    types, values, costs, _, entries = items_from_json(
        doc, "type", {"id", "prob", "values", "costs"}, buyers
    )
    probs = {tid: number_from_json(required_field(t, "prob", "type entry"))
             for tid, t in zip(types, entries)}
    horizon = number_from_json(required_field(doc, "horizon", "model document"))
    if horizon.denominator != 1:
        raise InvalidInstance(f"horizon must be an integer, got {horizon}")
    return IidModel(types=types, buyers=buyers, values=values, thresholds=thresholds,
                    probs=probs, horizon=int(horizon), costs=costs)


def model_to_dict(model: IidModel) -> dict:
    return {
        "horizon": model.horizon,
        "buyers": buyers_to_json(model.inst),
        "types": items_to_json(model.inst, model.costs, model.probs),
    }


def load_model(fp) -> IidModel:
    return model_from_dict(read_json(fp))


def dump_model(model: IidModel, fp):
    write_json(model_to_dict(model), fp)
