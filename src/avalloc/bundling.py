"""Permissible-bundle structure and transformations.

A permissible bundle for buyer j is a single P-edge plus zero or more N-edges
to the same buyer whose combined value still meets the buyer's threshold on
the whole group.  In plain mode (unit costs) any feasible allocation can be
thinned online into such bundles keeping at least half its value
(extract_bundling).  In cost mode the factor two does not hold: two free
P-items can jointly pay an N-item's deficit that no single bundle can, and
test_cost_mode_bundling_can_lose_more_than_half pins an instance whose
optimum is 102 and whose bundling optimum is 2.  Any instance can be made
unambiguous, randomly with an expected quarter of the optimum surviving, or
deterministically from a bundling of the split instance with half the value
surviving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Allocation, Instance, copy_items, id_order, restrict_edges
from .errors import InfeasiblePrefix, InvalidBundling, UnknownEdge


@dataclass(frozen=True)
class Bundle:
    buyer: str
    p_item: str
    n_items: frozenset

    def __post_init__(self):
        object.__setattr__(self, "n_items", frozenset(self.n_items))
        if self.p_item in self.n_items:
            raise InvalidBundling(
                f"item {self.p_item!r} cannot be both the P-item and an N-item"
            )

    def members(self):
        """All items of the bundle, P-item first, N-items in sorted order."""
        return [self.p_item] + sorted(self.n_items, key=id_order)

    def validate(self, inst: Instance):
        """Raise InvalidBundling unless the bundle on its own is a valid
        bundling of inst (BundledAllocation.validate)."""
        BundledAllocation((self,)).validate(inst)

    def value(self, inst: Instance) -> Fraction:
        j = self.buyer
        return sum((inst.values[(i, j)] for i in self.members()), Fraction(0))


@dataclass(frozen=True)
class BundledAllocation:
    bundles: tuple

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(self.bundles))

    def validate(self, inst: Instance):
        """Raise InvalidBundling unless the bundling is valid for inst:
        invalid_bundling on a block of one row, every bundle open."""
        labels = [(b.buyer, b.p_item) for b in self.bundles]
        members = [i for b in self.bundles for i in sorted(b.n_items, key=id_order)]
        joined = [k for k, b in enumerate(self.bundles) for _i in b.n_items]
        fault = invalid_bundling(
            inst, labels, np.ones((1, len(labels)), dtype=bool), members,
            np.array(joined, dtype=np.int64).reshape(1, len(joined)))
        if fault is not None:
            raise InvalidBundling(fault[1])

    def to_allocation(self) -> Allocation:
        assignment = {}
        for b in self.bundles:
            for i in b.members():
                assignment[i] = b.buyer
        return Allocation(assignment)

    def value(self, inst: Instance) -> Fraction:
        return sum((b.value(inst) for b in self.bundles), Fraction(0))

    def __len__(self):
        return len(self.bundles)


def state_dtype(bound: int):
    """int64 when no sum formed from magnitudes totalling at most bound can
    reach 2**63, else object (Python ints)."""
    return np.int64 if bound < 1 << 63 else object


def invalid_bundling(inst: Instance, labels, opened, members, joined):
    """The lowest row of a block of bundlings of inst that is not valid, as
    (row, reason), or None when every row is valid.

    Bundle b is labels[b] = (buyer, P-item) and is open in row r when
    opened[r, b]; item members[e] joins bundle joined[r, e] in row r, or no
    bundle when that is -1.  A row is valid when every open bundle has a
    known buyer, a P-edge opener and N-edge members, every member joins an
    open bundle, every bundle keeps a nonnegative residual excess (its value
    minus rho_j times its cost sum), no item is used twice and every
    configured budget holds.  Only inst.scaled and the labels are read, so
    the check does not depend on how the block was made.  Sums run in the
    scaled integers: int64 arrays when a bound computed from the block
    stays below 2**63, object arrays of Python ints otherwise.
    """
    _values, excess, rcosts, budgets = inst.scaled
    n, nb = opened.shape
    # one entry per open bundle (its opener) and per join (a member): its
    # row, its bundle and its item, an index into names
    r_open, b_open = np.nonzero(opened)
    r_join, e_join = np.nonzero(joined >= 0)
    rows = np.concatenate([r_open, r_join])
    bundle = np.concatenate([b_open, joined[r_join, e_join]])
    item = np.concatenate([b_open, nb + e_join])
    names = [p for _j, p in labels] + list(members)
    # the (item, buyer) edge of each distinct (item, bundle) cell; a row
    # holds a cell at most once, so the cells' magnitudes bound its sums
    cells, cell = np.unique(item * nb + bundle, return_inverse=True)
    edges = [(names[c // nb], labels[c % nb][0]) for c in cells.tolist()]
    exc = [excess.get(e) for e in edges]
    costs = {res: [rcosts.get((res, *e), 0) for e in edges] for res in inst.resources()}
    bound = sum(abs(e) for e in exc if e is not None) + sum(map(sum, costs.values()))
    dt = state_dtype(bound + sum(budgets.values()))

    def ints(xs):
        return np.array([x or 0 for x in xs], dtype=dt)

    faults = []  # (row, check, reason, entry): the first bad entry of each check

    def fault(at, bad, reason):
        if bad.any():
            k = np.flatnonzero(bad)
            k = k[np.argmin(at[k])]
            faults.append((int(at[k]), len(faults), reason, k))

    def over(key, amounts, limit, reason):
        """Fault a row whose sum of amounts per key passes limit[key]."""
        if limit:
            total = np.zeros((n, len(limit)), dtype=dt)
            np.add.at(total, (rows, key), amounts)
            bad = (total > np.array(limit, dtype=dt)).ravel()
            fault(np.arange(bad.size) // len(limit), bad,
                  lambda k: reason(k % len(limit), int(total.flat[k])))

    def edge_fault(k):
        i, j = edges[cell[k]]
        if j not in inst.thresholds:
            return f"unknown buyer {j!r}"
        if exc[cell[k]] is None:
            return f"bundle uses non-edge ({i!r}, {j!r})"
        return f"({i!r}, {j!r}) is not {'a P' if item[k] < nb else 'an N'}-edge"

    # 1 on a P-edge (excess >= 0), 0 on an N-edge, 2 otherwise; openers
    # need a P-edge and members an N-edge
    kind = [2 if j not in inst.thresholds or e is None else int(e >= 0)
            for (_i, j), e in zip(edges, exc)]
    fault(rows, np.array(kind, dtype=np.int64)[cell] != (item < nb), edge_fault)
    fault(rows, ~opened[rows, bundle],
          lambda k: f"item {names[item[k]]!r} joins the closed bundle {labels[bundle[k]]}")
    over(bundle, -ints(exc)[cell], [0] * nb,
         lambda b, _t: "bundle for {!r} rooted at {!r} is not permissible".format(*labels[b]))
    ids = {}
    code = np.array([ids.setdefault(i, len(ids)) for i in names], dtype=np.int64)
    over(code[item], np.ones(len(rows), dtype=dt), [1] * len(ids),
         lambda u, _t: f"item {list(ids)[u]!r} used by two bundles")
    owners = list(dict.fromkeys(j for j, _p in labels))
    owner = np.array([owners.index(j) for j, _p in labels], dtype=np.int64)
    for res, cost in costs.items():
        over(owner[bundle], ints(cost)[cell], [budgets.get((res, j), bound) for j in owners],
             lambda g, t, res=res: f"budget {res!r} of buyer {owners[g]!r} exceeded: "
             f"{Fraction(t, inst.scale)} > {inst.budget(res, owners[g])}")
    if faults:
        row, _check, reason, k = min(faults, key=lambda f: f[:2])
        return row, reason(k)
    return None


def extract_bundling(inst: Instance, alloc: Allocation, arrival_order) -> BundledAllocation:
    """Thin a prefix-feasible allocation into permissible bundles, online.

    Items are processed in arrival order.  A P-edge always opens a new
    bundle.  An N-edge joins the open bundle of its buyer with the largest
    residual excess among those it fits into; if it fits nowhere, the open
    bundle with the smallest residual excess is closed and the item dropped.
    Every P-edge of the input is kept, so in plain mode (unit costs) the
    result retains at least half the input value.  In cost mode it can
    retain less (test_cost_mode_bundling_can_lose_more_than_half).  Decisions depend only on the processed prefix, so the
    assignment of an early item never changes when the order is extended.
    """
    for i, j in alloc.assignment.items():
        if (i, j) not in inst.values:
            raise UnknownEdge(f"allocation assigns non-edge ({i!r}, {j!r})")
    order = list(arrival_order)
    if len(set(order)) != len(order):
        raise ValueError("arrival order contains duplicates")
    missing = set(alloc.assignment) - set(order)
    if missing:
        raise ValueError(f"arrival order misses allocated items: {sorted(missing, key=id_order)}")

    # open[j] is a list of [p_item, member list, residual excess, opened_at]
    open_by_buyer = {j: [] for j in inst.buyers}
    closed = []
    prefix_slack = {j: Fraction(0) for j in inst.buyers}
    for pos, i in enumerate(order):
        j = alloc.assignment.get(i)
        if j is None:
            continue
        prefix_slack[j] += inst.excess(i, j)
        if prefix_slack[j] < 0:
            raise InfeasiblePrefix(
                f"buyer {j!r} violated after {pos + 1} arrivals (slack {prefix_slack[j]})"
            )
        exc = inst.excess(i, j)
        if exc >= 0:
            open_by_buyer[j].append([i, [], exc, pos])
            continue
        deficit = -exc
        fitting = [b for b in open_by_buyer[j] if b[2] >= deficit]
        if fitting:
            best = max(fitting, key=lambda b: (b[2], -b[3]))
            best[1].append(i)
            best[2] -= deficit
        else:
            if not open_by_buyer[j]:
                raise InfeasiblePrefix(
                    f"no open bundle for buyer {j!r} at arrival {i!r}"
                )
            worst = min(open_by_buyer[j], key=lambda b: (b[2], b[3]))
            open_by_buyer[j].remove(worst)
            closed.append((j, worst))
    records = closed + [(j, b) for j in inst.buyers for b in open_by_buyer[j]]
    records.sort(key=lambda r: r[1][3])
    bundles = [Bundle(buyer=j, p_item=b[0], n_items=frozenset(b[1])) for j, b in records]
    out = BundledAllocation(bundles)
    out.validate(inst)
    return out


def make_unambiguous_random(inst: Instance, rng) -> Instance:
    """Resolve every ambiguous item to one side with a fair coin.

    One coin is drawn per item in declared order (heads keeps the N side,
    tails the P side); items that are already pure or isolated are left
    unchanged by either branch.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    drop = set()
    for i in inst.items:
        keep_n = rng.random() < 0.5
        if inst.item_class(i) != "ambiguous":
            continue
        for j in inst.edges_of_item(i):
            p_side = inst.is_p_edge(i, j)
            if (keep_n and p_side) or (not keep_n and not p_side):
                drop.add((i, j))
    keep = [e for e in inst.values if e not in drop]
    return restrict_edges(inst, keep)


def split_ambiguous(inst: Instance):
    """Split each ambiguous item i into a positive copy (P-edges only) and a
    negative copy (N-edges only).  Returns (split instance, copy -> original
    id map)."""
    copies, orig_of = [], {}
    for i in inst.items:
        if inst.item_class(i) != "ambiguous":
            copies.append((i, i, inst.edges_of_item(i)))
            continue
        for copy_id, p_side in ((f"{i}+", True), (f"{i}-", False)):
            if copy_id in inst._item_index or copy_id in orig_of:
                raise InvalidBundling(f"split id {copy_id!r} collides with an existing item")
            orig_of[copy_id] = i
            copies.append((copy_id, i, [j for j in inst.edges_of_item(i)
                                        if inst.is_p_edge(i, j) == p_side]))
    return copy_items(inst, copies), orig_of


def make_unambiguous_deterministic(inst: Instance, bundling: BundledAllocation):
    """Convert a bundling of the split instance into one for the original.

    Builds the conflict digraph over bundles (an arc a -> b whenever some
    item's positive copy roots bundle a while its negative copy sits in b;
    each bundle has at most one out-arc, so components are single cycles with
    in-trees).  Cycle arcs are cut by deleting the negative copy from the
    head bundle; on each remaining branching the cheaper parity level is
    discarded, counting only the root's N-items since its P-item conflicts
    with nothing and is kept either way.  The result keeps at least half the
    input value and uses each original item at most once.
    """
    split, orig_of = split_ambiguous(inst)
    bundling.validate(split)

    bundles = [
        {"buyer": b.buyer, "p": b.p_item, "members": set(b.n_items)}
        for b in bundling.bundles
    ]
    root_of_copy = {b["p"]: idx for idx, b in enumerate(bundles)}
    member_bundle = {}
    for idx, b in enumerate(bundles):
        for i in b["members"]:
            member_bundle[i] = idx

    # arcs[a] = (b, negative copy id sitting in b)
    arcs = {}
    for copy, a in root_of_copy.items():
        if copy not in orig_of:
            continue
        orig = orig_of[copy]
        other = f"{orig}-" if copy.endswith("+") else f"{orig}+"
        if other in member_bundle:
            if not other.endswith("-"):
                raise InvalidBundling(
                    f"positive copy {other!r} used as an N-item"
                )
            arcs[a] = (member_bundle[other], other)

    # locate cycles in the functional graph and cut them
    color = {}  # 0 in progress, 1 done
    for start in range(len(bundles)):
        if start in color:
            continue
        path = []
        node = start
        while node is not None and node not in color:
            color[node] = 0
            path.append(node)
            node = arcs[node][0] if node in arcs else None
        if node is not None and color[node] == 0:
            cycle = path[path.index(node):]
            for a in cycle:
                b, neg_copy = arcs.pop(a)
                bundles[b]["members"].discard(neg_copy)
        for v in path:
            color[v] = 1

    # remaining arcs are branchings pointing at their roots
    def find_root(v):
        depth = 0
        while v in arcs:
            v = arcs[v][0]
            depth += 1
        return v, depth

    comp = {}
    for v in range(len(bundles)):
        root, depth = find_root(v)
        comp.setdefault(root, []).append((v, depth))

    def bundle_value(idx, with_p=True):
        b = bundles[idx]
        j = b["buyer"]
        total = sum((split.values[(i, j)] for i in b["members"]), Fraction(0))
        if with_p:
            total += split.values[(b["p"], j)]
        return total

    kept = []  # (bundle idx, include members?)
    for root, nodes in comp.items():
        odd = [v for v, d in nodes if d % 2 == 1]
        even_nonroot = [v for v, d in nodes if d % 2 == 0 and v != root]
        v_odd = sum((bundle_value(v) for v in odd), Fraction(0))
        v_even = sum((bundle_value(v) for v in even_nonroot), Fraction(0))
        v_even += bundle_value(root, with_p=False)  # root P-item kept either way
        if v_even >= v_odd:
            kept.extend((v, True) for v in even_nonroot)
            kept.append((root, True))
        else:
            kept.extend((v, True) for v in odd)
            kept.append((root, False))

    out_bundles = []
    used_roles = {}  # original item -> 'P' | 'N'
    for idx, with_members in sorted(kept):
        b = bundles[idx]
        p_orig = orig_of.get(b["p"], b["p"])
        used_roles[p_orig] = "P"
        members = []
        if with_members:
            for i in b["members"]:
                i_orig = orig_of.get(i, i)
                used_roles[i_orig] = "N"
                members.append(i_orig)
        out_bundles.append(Bundle(buyer=b["buyer"], p_item=p_orig, n_items=frozenset(members)))

    keep_edges = []
    for i in inst.items:
        if inst.item_class(i) != "ambiguous":
            keep_edges.extend((i, j) for j in inst.edges_of_item(i))
            continue
        role = used_roles.get(i, "P")
        want_p = role == "P"
        keep_edges.extend(
            (i, j) for j in inst.edges_of_item(i) if inst.is_p_edge(i, j) == want_p
        )
    out_inst = restrict_edges(inst, keep_edges)
    out = BundledAllocation(out_bundles)
    out.validate(out_inst)
    return out_inst, out


def duplicate_supply(inst: Instance, k: int) -> Instance:
    """Replace each item by k identical copies (ids suffixed @1..@k)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return copy_items(inst, [(f"{i}@{t}", i, inst.edges_of_item(i))
                             for i in inst.items for t in range(1, k + 1)])
