"""The dense coin gather that OnlinePlan.run_block ran before its candidate
lookup: the reference OnlinePlan.coin_candidates is compared with."""

import numpy as np


def dense_coin_candidates(plan, first, second, opener):
    """(rows, cols, slots) of the coins of a block: second-half arrival
    (row, col) against each open bundle (row, slot) its type may join, read
    off the full (types, types, buyers) table plan.join_prob > 0."""
    may_join = plan.join_prob > 0
    buyer = np.maximum(opener, 0)
    gathered = may_join[second[:, :, None], first[:, None, :], buyer[:, None, :]]
    return np.nonzero(gathered & (opener >= 0)[:, None, :])
