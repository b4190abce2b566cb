"""Data model for average-value allocation instances.

An instance is a bipartite valuation structure: items on one side, buyers on
the other, with an edge (i, j) wherever buyer j has positive value for item i.
Each buyer j carries a threshold rho_j, and a feasible allocation must keep
the buyer's total received value at least rho_j times the number of received
items.  In return-on-spend mode each edge additionally carries a cost c_ij
and the count on the right-hand side becomes the cost sum.  Optional budget
side constraints cap, per buyer and per named resource, the total resource
cost of the received items.

All numeric data is held as exact ``fractions.Fraction``.  Floats entering
through the Python API or through JSON files are read at face value as
decimals (0.99 becomes 99/100, not the nearest binary double), so feasibility
decisions at zero excess are exact.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InvalidInstance, UnknownEdge


def to_fraction(x) -> Fraction:
    """Convert a boundary value to an exact rational.

    Floats are interpreted via their shortest decimal representation, strings
    may be decimals ("1.03") or ratios ("4/3"), ints and Fractions pass
    through unchanged.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r}")
        return Fraction(Decimal(repr(x)))
    if isinstance(x, (str, Decimal)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


_FLOAT_MAX = Fraction(sys.float_info.max)
# shared default of rcost; Fractions are immutable, so one zero serves every call
_ZERO = Fraction(0)


def number_from_json(x) -> Fraction:
    """``to_fraction`` for a number read from a JSON document.

    A value that is not a number, a zero denominator included, or lies
    outside the float range, raises InvalidInstance: the float simplex phase
    and the reports convert every value to float.
    """
    try:
        v = to_fraction(x)
    except (TypeError, ValueError) as exc:
        raise InvalidInstance(f"expected a number, got {x!r}") from exc
    if abs(v) > _FLOAT_MAX:
        raise InvalidInstance(f"number outside the float range |x| <= {sys.float_info.max:g}")
    return v


# the columns of the bundle LP, as Instance.bundle_layout builds them
BundleLayout = namedtuple("BundleLayout", "keys col bundles item buyer bundle opener excess")


@dataclass(frozen=True)
class Instance:
    """A bipartite valuation instance, immutable after construction.

    values maps (item, buyer) to the edge value; a missing pair is a
    non-edge and can never be allocated.  costs, when present, must cover
    every valued edge (return-on-spend mode).  budgets maps (resource, buyer)
    to a positive cap, resource_costs maps (resource, item, buyer) to a
    nonnegative per-edge resource cost (missing entries are 0).
    """

    items: tuple
    buyers: tuple
    values: dict
    thresholds: dict
    costs: dict | None = None
    budgets: dict | None = None
    resource_costs: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "buyers", tuple(self.buyers))
        for name in ("values", "thresholds", "costs", "budgets", "resource_costs"):
            d = getattr(self, name)
            if d is not None:
                object.__setattr__(self, name, MappingProxyType(
                    {k: to_fraction(v) for k, v in d.items()}))
        self._validate()
        object.__setattr__(self, "_item_index", {i: k for k, i in enumerate(self.items)})
        object.__setattr__(self, "_buyer_index", {j: k for k, j in enumerate(self.buyers)})
        object.__setattr__(self, "_excess", {
            (i, j): v - self.thresholds[j] * self.cost(i, j)
            for (i, j), v in self.values.items()
        })

    def _validate(self):
        if len(set(self.items)) != len(self.items):
            raise InvalidInstance("duplicate item ids")
        if len(set(self.buyers)) != len(self.buyers):
            raise InvalidInstance("duplicate buyer ids")
        item_set, buyer_set = set(self.items), set(self.buyers)
        for (i, j), v in self.values.items():
            if i not in item_set or j not in buyer_set:
                raise InvalidInstance(f"edge ({i!r}, {j!r}) references unknown item/buyer")
            if v < 0:
                raise InvalidInstance(f"negative value on edge ({i!r}, {j!r})")
        for j in self.buyers:
            rho = self.thresholds.get(j)
            if rho is None:
                raise InvalidInstance(f"buyer {j!r} has no threshold")
            if rho <= 0:
                raise InvalidInstance(f"buyer {j!r} threshold must be positive")
        for j in self.thresholds:
            if j not in buyer_set:
                raise InvalidInstance(f"threshold for unknown buyer {j!r}")
        if self.costs is not None:
            for (i, j), c in self.costs.items():
                if (i, j) not in self.values:
                    raise InvalidInstance(f"cost on non-edge ({i!r}, {j!r})")
                if c < 0:
                    raise InvalidInstance(f"negative cost on edge ({i!r}, {j!r})")
            for e in self.values:
                if e not in self.costs:
                    raise InvalidInstance(f"valued edge {e!r} lacks a cost entry")
        if self.budgets is not None:
            for (res, j), b in self.budgets.items():
                if j not in buyer_set:
                    raise InvalidInstance(f"budget for unknown buyer {j!r}")
                if b <= 0:
                    raise InvalidInstance(f"budget {res!r} for {j!r} must be positive")
        if self.resource_costs is not None:
            for (res, i, j), c in self.resource_costs.items():
                if (i, j) not in self.values:
                    raise InvalidInstance(f"resource cost on non-edge ({i!r}, {j!r})")
                if c < 0:
                    raise InvalidInstance("negative resource cost")

    @cached_property
    def scale(self) -> int:
        """Least common denominator of every value, excess, resource cost
        and budget."""
        numbers = [*self.values.values(), *self._excess.values(),
                   *(self.resource_costs or {}).values(), *(self.budgets or {}).values()]
        return math.lcm(*(q.denominator for q in numbers))

    @cached_property
    def scaled(self) -> tuple:
        """(values, excesses, resource costs, budgets) times self.scale, as
        ints keyed like the Fraction maps.  A positive common factor keeps
        every comparison of sums exact: a set of edges meets its buyer's
        threshold exactly when its scaled excess sum is >= 0."""
        scale = self.scale

        def ints(d):
            return {k: int(q * scale) for k, q in (d or {}).items()}

        return ints(self.values), ints(self._excess), ints(self.resource_costs), ints(self.budgets)

    @cached_property
    def bundle_layout(self) -> BundleLayout:
        """The columns of every bundle-shaped LP: per edge (i, j), the opener
        (i, j, i) of a P-edge or a member (i, j, p) per bundle (j, p) of an
        N-edge; per column, arrays of the index of i, of j, of (j, p) in bundles
        (one per P-edge (p, j)), the column of (p, j, p) and the float excess."""
        edges = self.edges()
        p_edge = [self._excess[e] >= 0 for e in edges]
        bundles = [(j, p) for (p, j), pe in zip(edges, p_edge) if pe]
        of_buyer = {j: [b for b, (jj, _p) in enumerate(bundles) if jj == j] for j in self.buyers}
        cols = [(i, j, b) for (i, j), pe in zip(edges, p_edge) for b in of_buyer[j]
                if not pe or bundles[b][1] == i]
        keys = [(i, j, bundles[b][1]) for i, j, b in cols]
        col = {k: c for c, k in enumerate(keys)}
        excess = {e: float(self._excess[e]) for e in edges}
        return BundleLayout(
            keys, col, bundles,
            item=np.array([self._item_index[i] for i, _j, _b in cols], dtype=np.int64),
            buyer=np.array([self._buyer_index[j] for _i, j, _b in cols], dtype=np.int64),
            bundle=np.array([b for _i, _j, b in cols], dtype=np.int64),
            opener=np.array([col[(p, j, p)] for _i, j, p in keys], dtype=np.int64),
            excess=np.array([excess[(i, j)] for i, j, _b in cols]))

    @cached_property
    def _item_classes(self) -> dict:
        signs = dict.fromkeys(self.items, 0)
        for (i, _j), e in self._excess.items():
            signs[i] |= 2 if e >= 0 else 1
        return {i: ("isolated", "N", "P", "ambiguous")[s] for i, s in signs.items()}

    # -- basic accessors -------------------------------------------------

    @property
    def has_costs(self) -> bool:
        return self.costs is not None

    def item_index(self, i) -> int:
        return self._item_index[i]

    def buyer_index(self, j) -> int:
        return self._buyer_index[j]

    def edges(self):
        """All edges in canonical (item order, buyer order)."""
        return [
            (i, j)
            for i in self.items
            for j in self.buyers
            if (i, j) in self.values
        ]

    def cost(self, i, j) -> Fraction:
        if self.costs is None:
            return Fraction(1)
        return self.costs[(i, j)]

    def excess(self, i, j) -> Fraction:
        """v_ij - rho_j * c_ij; nonnegative exactly on P-edges."""
        return self._excess[(i, j)]

    def is_p_edge(self, i, j) -> bool:
        return self.excess(i, j) >= 0

    def edges_of_item(self, i):
        return [j for j in self.buyers if (i, j) in self.values]

    def item_class(self, i) -> str:
        """'P', 'N', 'isolated' (no edges) or 'ambiguous'."""
        return self._item_classes[i]

    def p_items(self):
        return [i for i in self.items if self.item_class(i) == "P"]

    def n_items(self):
        return [i for i in self.items if self.item_class(i) == "N"]

    def ambiguous_items(self):
        return [i for i in self.items if self.item_class(i) == "ambiguous"]

    def is_unambiguous(self) -> bool:
        return not self.ambiguous_items()

    # -- budgets ---------------------------------------------------------

    def resources(self):
        """Resource names carrying at least one budget, sorted."""
        if not self.budgets:
            return []
        return sorted({res for (res, _j) in self.budgets})

    def budget(self, res, j):
        if not self.budgets:
            return None
        return self.budgets.get((res, j))

    def rcost(self, res, i, j) -> Fraction:
        if not self.resource_costs:
            return _ZERO
        return self.resource_costs.get((res, i, j), _ZERO)


@dataclass(frozen=True)
class Allocation:
    """Integral assignment item -> buyer; unassigned items are absent."""

    assignment: dict

    def __post_init__(self):
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

    def items_of(self, j):
        return [i for i, jj in self.assignment.items() if jj == j]

    def __len__(self):
        return len(self.assignment)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check; truthy iff feasible.

    violations lists (buyer, constraint, slack) with signed slack, negative
    when violated.  The average-value constraint is named "average-value",
    budget constraints "budget:<resource>".
    """

    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def _check_assignment(inst: Instance, alloc: Allocation):
    for i, j in alloc.assignment.items():
        if (i, j) not in inst.values:
            raise UnknownEdge(f"allocation assigns non-edge ({i!r}, {j!r})")


def allocation_value(inst: Instance, alloc: Allocation) -> Fraction:
    """Total value of the assigned edges."""
    _check_assignment(inst, alloc)
    return sum((inst.values[(i, j)] for i, j in alloc.assignment.items()), Fraction(0))


def is_feasible(inst: Instance, alloc: Allocation) -> FeasibilityReport:
    """Check every buyer's average-value constraint and, if configured,
    every budget constraint, in exact arithmetic."""
    _check_assignment(inst, alloc)
    val = {j: Fraction(0) for j in inst.buyers}
    csum = {j: Fraction(0) for j in inst.buyers}
    rsum = {}
    for i, j in alloc.assignment.items():
        val[j] += inst.values[(i, j)]
        csum[j] += inst.cost(i, j)
        for res in inst.resources():
            rsum[(res, j)] = rsum.get((res, j), Fraction(0)) + inst.rcost(res, i, j)
    violations = []
    for j in inst.buyers:
        slack = val[j] - inst.thresholds[j] * csum[j]
        if slack < 0:
            violations.append((j, "average-value", slack))
        for res in inst.resources():
            cap = inst.budget(res, j)
            if cap is None:
                continue
            bslack = cap - rsum.get((res, j), Fraction(0))
            if bslack < 0:
                violations.append((j, f"budget:{res}", bslack))
    return FeasibilityReport(ok=not violations, violations=tuple(violations))


def copy_items(inst: Instance, copies) -> Instance:
    """Instance over the buyers, thresholds and budgets of inst whose items
    are copies of its items.  copies lists (new id, source item, buyers) in
    the new item order; each edge (new id, j) for j in buyers takes the
    value, cost and resource costs of the edge (source item, j)."""
    rcosts_of = {}
    for (res, i, j), c in (inst.resource_costs or {}).items():
        rcosts_of.setdefault((i, j), []).append((res, c))
    items, values, costs, rcosts = [], {}, {}, {}
    for new, source, buyers in copies:
        items.append(new)
        for j in buyers:
            values[(new, j)] = inst.values[(source, j)]
            if inst.costs is not None:
                costs[(new, j)] = inst.costs[(source, j)]
            for res, c in rcosts_of.get((source, j), ()):
                rcosts[(res, new, j)] = c
    return Instance(
        items=items,
        buyers=inst.buyers,
        values=values,
        thresholds=inst.thresholds,
        costs=costs if inst.costs is not None else None,
        budgets=inst.budgets,
        resource_costs=rcosts if inst.resource_costs is not None else None,
    )


def restrict_edges(inst: Instance, keep) -> Instance:
    """Sub-instance keeping only the edges in ``keep`` (same items/buyers)."""
    keep = set(keep)
    return copy_items(
        inst,
        [(i, i, [j for j in inst.edges_of_item(i) if (i, j) in keep]) for i in inst.items],
    )


# -- JSON documents --------------------------------------------------------
#
# Every document is read by read_json and written by write_json.  Instance
# schema (unknown fields are rejected):
#   {"buyers": [{"id": str, "rho": num, "budgets": {res: num}?}],
#    "items": [{"id": str, "values": {buyerId: num},
#               "costs": {buyerId: num}?,
#               "resource_costs": {res: {buyerId: num}}?}]}
# An arrival model's document (lp_models) has the same buyers without
# budgets and lists its types as items with a "prob" and no resource costs.
#
# Numbers may also be strings holding exact rationals ("4/3"); the writer
# emits a plain decimal whenever it round-trips exactly and a "p/q" string
# otherwise.


def _opened(fp, mode):
    """The file a path names, opened, or the file object fp itself."""
    if isinstance(fp, (str, bytes)) or hasattr(fp, "__fspath__"):
        return open(fp, mode)
    return contextlib.nullcontext(fp)


def read_json(fp):
    """The JSON document in a path or a file object; floats are read
    exactly, as Fractions."""
    with _opened(fp, "r") as f:
        return json.load(f, parse_float=Fraction)


def write_json(doc, fp):
    """Write doc to a path or a file object, indented by 2, with a final
    newline.  A NaN or infinite float, which JSON cannot hold, raises
    ValueError."""
    with _opened(fp, "w") as f:
        json.dump(doc, f, indent=2, allow_nan=False)
        f.write("\n")


def object_from_json(x, where) -> dict:
    """A JSON object read from a document; anything else raises
    InvalidInstance."""
    if not isinstance(x, dict):
        raise InvalidInstance(f"{where} must be a JSON object, got {x!r}")
    return x


def list_from_json(x, where) -> list:
    """A JSON list read from a document; anything else raises
    InvalidInstance."""
    if not isinstance(x, list):
        raise InvalidInstance(f"{where} must be a JSON list, got {x!r}")
    return x


def id_from_json(x, where):
    """An id read from a document: a string or an integer."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise InvalidInstance(f"{where} id must be a string or an integer, got {x!r}")
    return x


def id_order(x):
    """Sort key of an id: integers before strings, each in its own order,
    so that a document may mix the two."""
    return (isinstance(x, str), x)


def required_field(d: dict, key, where):
    """d[key]; a missing key raises InvalidInstance naming where and key."""
    if key not in d:
        raise InvalidInstance(f"{where} lacks field {key!r}")
    return d[key]


def reject_unknown_fields(d: dict, allowed, where):
    """Raise InvalidInstance when ``d`` has a key outside ``allowed``."""
    extra = set(d) - allowed
    if extra:
        raise InvalidInstance(f"unknown field(s) {sorted(extra)} in {where}")


def buyers_by_json_key(buyers) -> dict:
    """Map each declared buyer id's JSON object key (its str) to the id.
    JSON object keys are strings, so an integer buyer id 1 is written "1";
    two ids that share a key raise InvalidInstance."""
    by_key = {}
    for bid in buyers:
        if str(bid) in by_key:
            raise InvalidInstance(
                f"buyer ids {by_key[str(bid)]!r} and {bid!r} share the JSON key {str(bid)!r}"
            )
        by_key[str(bid)] = bid
    return by_key


def buyers_from_json(doc: dict, fields) -> tuple:
    """(ids, thresholds, budgets) of the "buyers" list of doc, whose entries
    may hold the given fields."""
    buyers, thresholds, budgets = [], {}, {}
    for b in list_from_json(doc.get("buyers", []), "buyers"):
        b = object_from_json(b, "buyer")
        reject_unknown_fields(b, fields, f"buyer {b.get('id')!r}")
        bid = id_from_json(required_field(b, "id", "buyer entry"), "buyer")
        buyers.append(bid)
        thresholds[bid] = number_from_json(required_field(b, "rho", "buyer entry"))
        caps = object_from_json(b.get("budgets") or {}, f"budgets of buyer {bid!r}")
        for res, cap in caps.items():
            budgets[(res, bid)] = number_from_json(cap)
    return buyers, thresholds, budgets


def items_from_json(doc: dict, entry: str, fields, buyers) -> tuple:
    """(ids, values, costs or None, resource costs, entry objects) of the
    list of ``entry`` objects ("item" or "type") under the key entry + "s"
    of doc.  Entries may hold the given fields; their maps are keyed by the
    JSON keys of the declared buyers."""
    buyer_of = buyers_by_json_key(buyers)
    items, values, costs, rcosts, entries = [], {}, {}, {}, []
    any_costs = False
    for it in list_from_json(doc.get(entry + "s", []), entry + "s"):
        it = object_from_json(it, entry)
        reject_unknown_fields(it, fields, f"{entry} {it.get('id')!r}")
        iid = id_from_json(required_field(it, "id", f"{entry} entry"), entry)
        items.append(iid)
        entries.append(it)
        vals = object_from_json(it.get("values") or {}, f"values of {entry} {iid!r}")
        for j, v in vals.items():
            values[(iid, buyer_of.get(j, j))] = number_from_json(v)
        if it.get("costs") is not None:
            any_costs = True
            for j, c in object_from_json(it["costs"], f"costs of {entry} {iid!r}").items():
                costs[(iid, buyer_of.get(j, j))] = number_from_json(c)
        rc = object_from_json(it.get("resource_costs") or {}, f"resource costs of {entry} {iid!r}")
        for res, per_buyer in rc.items():
            for j, c in object_from_json(per_buyer, f"{res!r} costs of {entry} {iid!r}").items():
                rcosts[(res, iid, buyer_of.get(j, j))] = number_from_json(c)
    return items, values, costs if any_costs else None, rcosts, entries


def instance_from_dict(doc: dict) -> Instance:
    doc = object_from_json(doc, "instance document")
    reject_unknown_fields(doc, {"buyers", "items"}, "instance document")
    buyers, thresholds, budgets = buyers_from_json(doc, {"id", "rho", "budgets"})
    items, values, costs, rcosts, _ = items_from_json(
        doc, "item", {"id", "values", "costs", "resource_costs"}, buyers
    )
    return Instance(items=items, buyers=buyers, values=values, thresholds=thresholds,
                    costs=costs, budgets=budgets or None, resource_costs=rcosts or None)


def exact_text(x) -> str | None:
    """A Fraction as an exact "p/q" string (an integer keeps its "/1");
    None for any other number."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return None


def fraction_to_json(x: Fraction):
    """Render a Fraction as a JSON-safe number when exact, else "p/q"."""
    if x.denominator == 1:
        return int(x)
    f = float(x)
    if math.isfinite(f) and Fraction(Decimal(repr(f))) == x:
        return f
    return exact_text(x)


def buyers_to_json(inst: Instance) -> list:
    """The buyer entries of inst, each with its budgets if it has any."""
    caps = {}
    for (res, j), cap in sorted((inst.budgets or {}).items(), key=lambda kv: kv[0][0]):
        caps.setdefault(j, {})[res] = fraction_to_json(cap)
    buyers = []
    for j in inst.buyers:
        b = {"id": j, "rho": fraction_to_json(inst.thresholds[j])}
        if j in caps:
            b["budgets"] = caps[j]
        buyers.append(b)
    return buyers


def items_to_json(inst: Instance, costs, probs=None) -> list:
    """The item entries of inst.  costs is the cost map to write, which
    may cover only some valued pairs; probs, when given, adds each item's
    "prob" after its id."""
    costs = costs or {}
    byres = {}
    for (res, i, j), c in sorted((inst.resource_costs or {}).items(),
                                 key=lambda kv: (kv[0][0], id_order(kv[0][2]))):
        byres.setdefault(i, {}).setdefault(res, {})[j] = fraction_to_json(c)
    items = []
    for i in inst.items:
        rec = {"id": i}
        if probs is not None:
            rec["prob"] = fraction_to_json(probs[i])
        rec["values"] = {
            j: fraction_to_json(inst.values[(i, j)]) for j in inst.buyers if (i, j) in inst.values
        }
        per = {j: fraction_to_json(costs[(i, j)]) for j in inst.buyers if (i, j) in costs}
        if per:
            rec["costs"] = per
        if i in byres:
            rec["resource_costs"] = byres[i]
        items.append(rec)
    return items


def instance_to_dict(inst: Instance) -> dict:
    return {"buyers": buyers_to_json(inst), "items": items_to_json(inst, inst.costs)}


def load_instance(fp) -> Instance:
    """Read an instance from a JSON file object or path."""
    return instance_from_dict(read_json(fp))


def dump_instance(inst: Instance, fp):
    write_json(instance_to_dict(inst), fp)
