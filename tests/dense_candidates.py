"""The dense coin gather that OnlinePlan.run_block ran before its candidate
lookup: the reference OnlinePlan.coin_candidates is compared with."""

import numpy as np


def dense_coin_candidates(plan, first, second, opener):
    """(rows, cols, slots) of the coins of a block: second-half arrival
    (row, col) against each open bundle (row, slot) its type may join, read
    off the full (types, types, buyers) may-join table, rebuilt from the
    plan's join lists."""
    nt, nb = plan.values.shape
    may_join = np.zeros((nt, nt * nb), dtype=bool)
    may_join[np.repeat(np.arange(nt), np.diff(plan.join_start)), plan.join_class] = True
    may_join = may_join.reshape(nt, nt, nb)
    buyer = np.maximum(opener, 0)
    gathered = may_join[second[:, :, None], first[:, None, :], buyer[:, None, :]]
    return np.nonzero(gathered & (opener >= 0)[:, None, :])
