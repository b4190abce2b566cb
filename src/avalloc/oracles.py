"""Brute-force ground truth for small instances.

exact_opt enumerates, per buyer, every feasible subset of that buyer's edge
neighborhood and combines them by dynamic programming over the remaining
item set, so correctness never relies on any structural shortcut.  The state
budget is quoted as (buyers+1)^items, the size of the raw assignment space;
the DP itself visits at most 3^items * buyers (subset, subset-of-subset)
pairs.  Whether a buyer may receive a subset is decided once per subset,
into a table the DP reads.  exact_bundling_opt replaces per-buyer
feasibility by "partitionable into permissible bundles" (tabulated over
bitmask subsets), and exact_gap_opt searches bin-opening choices (one per
partition group) times element packings with a value-bound prune.

exact_opt and exact_bundling_opt run on the instance's scaled integers
(Instance.scaled: every number times one common denominator), which keeps
every sum and comparison exact, and return exact Fraction values.
exact_gap_opt runs in Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .bundling import Bundle, BundledAllocation
from .core import Allocation, Instance
from .errors import TooLarge

DEFAULT_STATE_LIMIT = 10_000_000
_DP_MASK_LIMIT = 1 << 17  # memory guard for the subset tables


def _state_count(inst: Instance) -> int:
    return (len(inst.buyers) + 1) ** len(inst.items)


def _submasks(mask):
    """The nonempty submasks of mask, in increasing order."""
    T = -mask & mask
    while T:
        yield T
        T = (T - mask) & mask


def _mask_items(inst: Instance, mask: int) -> list:
    """The items whose bits are set in mask, in item order."""
    return [i for k, i in enumerate(inst.items) if mask >> k & 1]


def _buyer_tables(inst: Instance, j):
    """Tables over the submasks T of buyer j's edge neighborhood, each a
    list indexed by T: the scaled value sum, the scaled excess sum, and
    whether every budget of j holds.  Returns (edge_mask, val, exc,
    in_budget); entries outside the neighborhood stay 0."""
    values, excess, rcosts, budgets = inst.scaled
    edge_mask = 0
    for k, i in enumerate(inst.items):
        if (i, j) in values:
            edge_mask |= 1 << k
    size = 1 << len(inst.items)
    val = [0] * size
    exc = [0] * size
    in_budget = bytearray(size)
    in_budget[0] = 1
    # (cap, resource cost per item position, resource sum per mask)
    caps = [
        (budgets[(res, j)], [rcosts.get((res, i, j), 0) for i in inst.items], [0] * size)
        for res in inst.resources()
        if (res, j) in budgets
    ]
    for T in _submasks(edge_mask):
        low = T & -T
        rest = T ^ low
        k = low.bit_length() - 1
        i = inst.items[k]
        val[T] = val[rest] + values[(i, j)]
        exc[T] = exc[rest] + excess[(i, j)]
        ok = True
        for cap, rc, rsum in caps:
            rsum[T] = rsum[rest] + rc[k]
            if rsum[T] > cap:
                ok = False
        in_budget[T] = ok
    return edge_mask, val, exc, in_budget


def _allocation_dp(inst: Instance, admissible, max_states: int):
    """Maximize total value over item partitions, buyer j receiving a set T
    for which admissible(j, tables) -- a table over the submasks T of j's
    neighborhood, built once per buyer from _buyer_tables -- is truthy.
    Returns (value, chosen masks)."""
    states = _state_count(inst)
    if states > max_states:
        raise TooLarge(states, max_states)
    n = len(inst.items)
    if (1 << n) > _DP_MASK_LIMIT:
        raise TooLarge(1 << n, _DP_MASK_LIMIT)
    full = (1 << n) - 1
    m = len(inst.buyers)
    g_next = [0] * (full + 1)
    choice = [None] * m
    for jpos in range(m - 1, -1, -1):
        j = inst.buyers[jpos]
        tables = _buyer_tables(inst, j)
        edge_mask, val, _exc, _in_budget = tables
        adm = admissible(j, tables)
        g_cur = [0] * (full + 1)
        ch = choice[jpos] = [0] * (full + 1)
        for S in range(full + 1):
            avail = S & edge_mask
            best = g_next[S]
            best_T = 0
            T = avail
            while T:
                if adm[T]:
                    cand = val[T] + g_next[S ^ T]
                    if cand > best:
                        best = cand
                        best_T = T
                T = (T - 1) & avail
            g_cur[S] = best
            ch[S] = best_T
        g_next = g_cur
    masks = []
    S = full
    for jpos in range(m):
        T = choice[jpos][S]
        masks.append(T)
        S ^= T
    return Fraction(g_next[full], inst.scale), masks


def _single_buyer_dfs(inst: Instance, max_states: int):
    """Memoryless search for one buyer when the bitmask tables would not
    fit; prunes on the remaining positive-value sum."""
    states = _state_count(inst)
    if states > max_states:
        raise TooLarge(states, max_states)
    values, excess, rcosts, budgets = inst.scaled
    j = inst.buyers[0]
    edges = [i for i in inst.items if (i, j) in values]
    rest_value = [0] * (len(edges) + 1)
    for k in range(len(edges) - 1, -1, -1):
        rest_value[k] = rest_value[k + 1] + values[(edges[k], j)]
    # (cap, resource cost per edge position)
    caps = [
        (budgets[(res, j)], [rcosts.get((res, i, j), 0) for i in edges])
        for res in inst.resources()
        if (res, j) in budgets
    ]
    best = [0, []]

    def dfs(k, val, exc, ruse, taken):
        if val + rest_value[k] <= best[0]:
            return
        if exc >= 0 and val > best[0]:
            best[0] = val
            best[1] = list(taken)
        if k == len(edges):
            return
        i = edges[k]
        if all(ruse[r] + rc[k] <= cap for r, (cap, rc) in enumerate(caps)):
            taken.append(i)
            dfs(k + 1, val + values[(i, j)], exc + excess[(i, j)],
                [u + rc[k] for u, (_cap, rc) in zip(ruse, caps)], taken)
            taken.pop()
        dfs(k + 1, val, exc, ruse, taken)

    dfs(0, 0, 0, [0] * len(caps), [])
    return Fraction(best[0], inst.scale), Allocation({i: j for i in best[1]})


def exact_opt(inst: Instance, max_states: int = DEFAULT_STATE_LIMIT):
    """Globally optimal feasible allocation by exhaustive search.

    Supports plain, cost-mode and budgeted instances.  Returns
    (value, Allocation); raises TooLarge beyond the state budget, and
    TooLarge(2**items, _DP_MASK_LIMIT) when the subset tables of an
    instance with several buyers would pass that limit.
    """
    if len(inst.buyers) == 1 and (1 << len(inst.items)) > _DP_MASK_LIMIT:
        return _single_buyer_dfs(inst, max_states)

    def admissible(j, tables):
        _edge, _val, exc, in_budget = tables
        return bytearray(ok and e >= 0 for ok, e in zip(in_budget, exc))

    value, masks = _allocation_dp(inst, admissible, max_states)
    return value, Allocation({i: j for j, T in zip(inst.buyers, masks)
                              for i in _mask_items(inst, T)})


def _partition_tables(inst: Instance, j, tables):
    """Which submasks of buyer j's neighborhood partition into permissible
    bundles: one P-edge and a nonnegative excess sum each.  Returns (part,
    pick, p_mask): part is a table over the submasks, and pick maps each
    partitionable nonempty mask to its first bundle, the largest one that
    holds the mask's lowest item and leaves a partitionable rest."""
    edge_mask, _val, exc, _in_budget = tables
    _values, excess, _rcosts, _budgets = inst.scaled
    p_mask = 0
    for k, i in enumerate(inst.items):
        if (i, j) in excess and excess[(i, j)] >= 0:
            p_mask |= 1 << k
    size = len(exc)
    permissible = bytearray(size)
    part = bytearray(size)
    part[0] = 1
    pick = {}
    for T in _submasks(edge_mask):
        roots = T & p_mask
        permissible[T] = roots != 0 and roots & (roots - 1) == 0 and exc[T] >= 0
        # bundles B holding T's lowest item, in decreasing order; T ^ B < T
        low = T & -T
        rest = T ^ low
        sub = rest
        while True:
            B = sub | low
            if permissible[B] and part[T ^ B]:
                pick[T] = B
                part[T] = 1
                break
            if not sub:
                break
            sub = (sub - 1) & rest
    return part, pick, p_mask


def exact_bundling_opt(inst: Instance, max_states: int = DEFAULT_STATE_LIMIT):
    """Optimal value over allocations partitionable into permissible
    bundles.  Returns (value, BundledAllocation)."""
    parters = {}

    def admissible(j, tables):
        parters[j] = _partition_tables(inst, j, tables)
        part = parters[j][0]
        return bytearray(ok and p for ok, p in zip(tables[3], part))

    value, masks = _allocation_dp(inst, admissible, max_states)
    bundles = []
    for jpos, T in enumerate(masks):
        j = inst.buyers[jpos]
        if not T:
            continue
        _part, pick, p_mask = parters[j]
        mask = T
        while mask:
            B = pick[mask]
            root_bit = B & p_mask
            root = inst.items[root_bit.bit_length() - 1]
            bundles.append(Bundle(buyer=j, p_item=root,
                                  n_items=frozenset(_mask_items(inst, B ^ root_bit))))
            mask ^= B
    out = BundledAllocation(bundles)
    out.validate(inst)
    return value, out


def exact_gap_opt(gap, max_elements: int = 10, max_bins: int = 12) -> Fraction:
    """Exact optimum of a partition-matroid GAP instance.

    Opens at most one bin per group, packs elements into open bins within
    unit capacity, maximizes total packed value.
    """
    if len(gap.elements) > max_elements:
        raise TooLarge(len(gap.elements), max_elements)
    if len(gap.bins) > max_bins:
        raise TooLarge(len(gap.bins), max_bins)
    groups = list(gap.groups.values())
    elements = list(gap.elements)
    # optimistic per-element bound used for pruning
    best_val = []
    for e in elements:
        vals = [
            gap.values.get((e, b), Fraction(0))
            for b in gap.bins
            if gap.sizes.get((e, b), Fraction(2)) <= 1
        ]
        best_val.append(max(vals, default=Fraction(0)))
    suffix = [Fraction(0)] * (len(elements) + 1)
    for k in range(len(elements) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + best_val[k]
    best = [Fraction(0)]

    def pack(k, open_bins, capacity, acc):
        if acc + suffix[k] <= best[0]:
            return
        if k == len(elements):
            if acc > best[0]:
                best[0] = acc
            return
        e = elements[k]
        pack(k + 1, open_bins, capacity, acc)  # leave e unpacked
        for b in open_bins:
            s = gap.sizes.get((e, b))
            if s is None or s > capacity[b]:
                continue
            capacity[b] -= s
            pack(k + 1, open_bins, capacity, acc + gap.values.get((e, b), Fraction(0)))
            capacity[b] += s

    def choose(gpos, open_bins):
        if gpos == len(groups):
            capacity = {b: Fraction(1) for b in open_bins}
            pack(0, open_bins, capacity, Fraction(0))
            return
        choose(gpos + 1, open_bins)  # group stays closed
        for b in groups[gpos]:
            choose(gpos + 1, open_bins + [b])

    choose(0, [])
    return best[0]
