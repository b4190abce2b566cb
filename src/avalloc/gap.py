"""Export unambiguous instances as partition-matroid GAP instances.

Bins are the pairs (p, j) over P-items p and their edges (p, j); at most
one bin per P-item may be opened.  The P-item occupies zero space in its
own bins and an inadmissible 1 + eps_gap = 2 in every other bin; an N-item i
fits bin (p, j) with size -e_ij / e_pj, where e = v - rho*c is the excess,
when the P-edge has positive excess.  Zero-excess bins admit no N-items,
and non-edges are likewise blocked with oversize entries, so maximal
feasible GAP solutions correspond one-to-one, value for value, with bundle
partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .bundling import Bundle, BundledAllocation
from .core import Instance, fraction_to_json, to_fraction, write_json
from .errors import AmbiguousInstance, InfeasibleGapSolution, NotMaximal


@dataclass(frozen=True)
class GapInstance:
    """elements pack into unit-capacity bins; sizes/values keyed by
    (element, bin); groups: at most one open bin per group key; a blocked
    entry has size 1 + eps_gap."""

    elements: tuple
    bins: tuple
    values: dict
    sizes: dict
    groups: dict
    eps_gap: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "bins", tuple(self.bins))
        groups = self.groups or {b: (b,) for b in self.bins}
        for name, d in (("values", self.values), ("sizes", self.sizes)):
            object.__setattr__(self, name, MappingProxyType(
                {k: to_fraction(v) for k, v in d.items()}))
        object.__setattr__(self, "groups", MappingProxyType(
            {g: tuple(bs) for g, bs in groups.items()}))


def export_gap(inst: Instance) -> GapInstance:
    """Build the GAP image of an unambiguous instance."""
    if not inst.is_unambiguous():
        raise AmbiguousInstance(f"ambiguous items: {inst.ambiguous_items()}")
    p_items = inst.p_items()
    n_items = inst.n_items()
    blocked = 1 + GapInstance.eps_gap  # 2, which fits no unit bin
    bins = [(p, j) for p in p_items for j in inst.buyers if (p, j) in inst.values]
    values, sizes = {}, {}
    for p in p_items:
        for b in bins:
            bp, bj = b
            if bp == p:
                values[(p, b)] = inst.values[(p, bj)]
                sizes[(p, b)] = Fraction(0)
            else:
                values[(p, b)] = Fraction(0)
                sizes[(p, b)] = blocked
    for i in n_items:
        for b in bins:
            bp, bj = b
            excess = inst.excess(bp, bj)
            if (i, bj) not in inst.values or excess == 0:
                values[(i, b)] = Fraction(0)
                sizes[(i, b)] = blocked
                continue
            deficit = -inst.excess(i, bj)
            values[(i, b)] = inst.values[(i, bj)]
            sizes[(i, b)] = deficit / excess
    groups = {}
    for b in bins:
        groups.setdefault(b[0], []).append(b)
    return GapInstance(
        elements=list(inst.items),
        bins=bins,
        values=values,
        sizes=sizes,
        groups=groups,
    )


def gap_solution_to_bundles(solution: dict, gap: GapInstance, inst: Instance) -> BundledAllocation:
    """Convert a maximal feasible GAP solution (element -> bin) into the
    corresponding bundle partition of equal value."""
    p_items = set(inst.p_items())
    load = {}
    open_by_group = {}
    for e, b in solution.items():
        if e not in gap.elements or b not in gap.bins:
            raise InfeasibleGapSolution(f"unknown element or bin in ({e!r}, {b!r})")
        s = gap.sizes.get((e, b))
        if s is None:
            raise InfeasibleGapSolution(f"element {e!r} has no size in bin {b}")
        load[b] = load.get(b, Fraction(0)) + s
    for b, total in load.items():
        if total > 1:
            raise InfeasibleGapSolution(f"bin {b} over capacity: {total}")
    for b in load:
        for g, bs in gap.groups.items():
            if b in bs:
                if g in open_by_group and open_by_group[g] != b:
                    raise InfeasibleGapSolution(f"two open bins in group {g!r}")
                open_by_group[g] = b
    for p in p_items:
        if p not in solution:
            raise NotMaximal(f"P-item {p!r} is not packed")
    bundles = {}
    for e, b in solution.items():
        bundles.setdefault(b, []).append(e)
    out = []
    for (p, j), members in sorted(
        bundles.items(), key=lambda kv: (inst.item_index(kv[0][0]), inst.buyer_index(kv[0][1]))
    ):
        if p not in members:
            raise InfeasibleGapSolution(f"open bin ({p!r}, {j!r}) without its P-item")
        out.append(
            Bundle(buyer=j, p_item=p, n_items=frozenset(m for m in members if m != p))
        )
    result = BundledAllocation(out)
    result.validate(inst)
    return result


def bundles_to_gap(bundling: BundledAllocation, inst: Instance) -> dict:
    """Inverse direction: a bundle partition as a GAP assignment."""
    solution = {}
    for b in bundling.bundles:
        bin_key = (b.p_item, b.buyer)
        solution[b.p_item] = bin_key
        for i in b.n_items:
            solution[i] = bin_key
    return solution


def gap_value(solution: dict, gap: GapInstance) -> Fraction:
    return sum((gap.values.get((e, b), Fraction(0)) for e, b in solution.items()), Fraction(0))


# -- JSON export -----------------------------------------------------------
#
# {"eps_gap": num, "elements": [id], "bins": [{"p": id, "buyer": id}],
#  "groups": {p: [bin index]},
#  "entries": [{"element": id, "bin": index, "value": num, "size": num}]}


def gap_to_dict(gap: GapInstance) -> dict:
    bin_index = {b: k for k, b in enumerate(gap.bins)}
    entries = []
    for e in gap.elements:
        for b in gap.bins:
            if (e, b) in gap.sizes:
                entries.append(
                    {
                        "element": e,
                        "bin": bin_index[b],
                        "value": fraction_to_json(gap.values[(e, b)]),
                        "size": fraction_to_json(gap.sizes[(e, b)]),
                    }
                )
    return {
        "eps_gap": fraction_to_json(gap.eps_gap),
        "elements": list(gap.elements),
        "bins": [{"p": p, "buyer": j} for (p, j) in gap.bins],
        "groups": {str(g): [bin_index[b] for b in bs] for g, bs in gap.groups.items()},
        "entries": entries,
    }


def dump_gap(gap: GapInstance, fp):
    write_json(gap_to_dict(gap), fp)
