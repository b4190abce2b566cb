"""The prefix replay that harness._replay_prefix ran before it summed each
buyer's steps in place: the reference the replay is compared with.

It sorts each row's arrivals stably by buyer, so every buyer's arrivals
form one segment in time order, takes the row's running total and reads
each prefix sum as that total less the total before the segment starts.
"""

import numpy as np

from avalloc.bundling import state_dtype


def reference_replay_prefix(model, buyer, types):
    """The lowest row of a block of decision sequences in which a prefix
    breaks a buyer's constraint, or None when no row does; the contract of
    harness._replay_prefix."""
    excess, nb, width = model.inst.scaled[1], len(model.buyers), buyer.shape[1]
    # a broken arrival steps below anything the rest of its row can make up
    low = -width * max(map(abs, excess.values()), default=0) - 1
    table = np.array([[excess.get((i, j), low) for j in model.buyers] + [low, 0]
                      for i in model.types], dtype=state_dtype(width * -low))
    to = np.where(buyer < 0, nb + 1, np.minimum(buyer, nb))
    # the arrivals of a row in segments per buyer, each in time order; a
    # prefix sum is the row's running total less the total before the
    # first arrival of its segment
    rows = np.arange(len(to))[:, None]
    order = np.argsort(to, axis=1, kind="stable")
    step = table[types, to][rows, order]
    to = to[rows, order]
    total = np.cumsum(step, axis=1)
    first = np.ones(to.shape, dtype=bool)
    first[:, 1:] = to[:, 1:] != to[:, :-1]
    first = np.maximum.accumulate(np.where(first, np.arange(width), 0), axis=1)
    bad = np.flatnonzero((total - (total - step)[rows, first] < 0).any(1))
    return int(bad[0]) if len(bad) else None
