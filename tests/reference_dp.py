"""The subset DP over every item set: the reference the oracles' DP, which
fills only the sets a later buyer reads, is compared with.

This is oracles._allocation_dp as it ran before it skipped unread states,
without the state-budget checks: for each buyer, from the last to the
first, it fills the best value and choice at every mask S, walking the
submasks T of S's part of the buyer's neighborhood in decreasing order and
keeping the first strictly better one.
"""

from fractions import Fraction

from avalloc.oracles import _buyer_tables, _edge_mask


def reference_allocation_dp(inst, admissible):
    """(value, chosen masks) over item partitions, buyer j receiving a set
    T with admissible(j, tables)[T] truthy."""
    full = (1 << len(inst.items)) - 1
    m = len(inst.buyers)
    g_next = [0] * (full + 1)
    choice = [None] * m
    for jpos in range(m - 1, -1, -1):
        j = inst.buyers[jpos]
        tables = _buyer_tables(inst, j, _edge_mask(inst, j))
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
