"""The partition tables without pruning: the reference
oracles._partition_tables, which skips submasks that no partition into
permissible bundles can cover, is compared with.

This is oracles._partition_tables as it ran before the prune: at every
submask T of the buyer's neighborhood, in increasing order, it walks the
bundles holding T's lowest item, largest first, until one is permissible
and leaves a partitionable rest.
"""

from avalloc.oracles import _submasks


def reference_partition_tables(inst, j, tables):
    """(part, pick, p_mask) as oracles._partition_tables returns them."""
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
