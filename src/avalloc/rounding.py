"""Randomized rounding of the bundle relaxations, offline and online.

Both roundings run one two-phase scheme, compiled from the LP solution by
one step (_support).  Phase I opens at most one bundle per P-item p, or per
first-half arrival of type p online, picking buyer j with probability x_pjp
(online divided by q_p T; leftover mass opens nothing).  Phase II tosses,
for each N-item i, or second-half arrival of type i online, an independent
coin per open bundle jp with probability alpha * x_ijp / x_pjp (online
divided by q_i T), and none for a bundle whose opener is absent or zero; i
joins only when exactly one coin came up heads and the hit bundle stays
permissible.  Offline, the budget-aware variant also requires every
configured per-buyer budget to survive each addition, the P-item that opens
a bundle included.  Online, a stream is the tuple of the arriving type ids,
stream[t-1] the type at time t; decisions are immediate and irrevocable and
every prefix of the run satisfies the buyers' constraints.

All randomness comes from a counter-based generator keyed by
(seed, stream tag, indices), so coin flips are independent across items and
bundles and a run is reproducible regardless of evaluation order.  The key
is hashed as a left fold, so a run hashes each shared prefix once (the
(seed, tag) of a trial, then the item or timestep, and online the (buyer,
opener type) of an arrival's coins against the open bundles of one class)
and continues the fold for each coin.  The fold runs on a Python int or,
elementwise, on a numpy uint64 array with the same result.  A stream's
arrival is the type its uniform falls in, read off a guide table over the
model's cumulative probabilities (IidModel.stream_table): one lookup and
one compare, and a searchsorted only in the few buckets that hold two or
more of them.

A compiled plan keeps what the two roundings differ in: offline the
budgets and the per-bundle and per-coin arrays, online the coins divided
by q T and the values per (type, buyer).  It runs a block of trials at
once, each step for every trial of the block with numpy.  Offline, it
loops over the items, since a budget is shared by all the bundles of a
buyer.  Online, it does not walk the arrivals: an arrival's coins are
looked up among the block's open bundles, sorted by (trial, class of opener
type and buyer), in the classes its type may join; and since online
bundles share no state, the joins run in rounds, round k taking each
bundle's k-th hit in arrival order.
Residuals, budgets and values are kept in scaled integers: int64 arrays
when a bound computed from the plan shows that no sum can reach 2**63,
object arrays of Python ints otherwise.  A block holds about _BLOCK array
elements and is returned as arrays, one row per trial, with no Python
object per trial.  Each plan checks every block that run_trials or run
returns, from the instance or model and its labels alone, and raises
RuntimeError naming the lowest invalid trial: offline by
bundling.invalid_bundling, online by replaying every prefix of the
decisions (_replay_prefix).  An online block is
sized by the arrays every trial holds, not by its coins, which are far
fewer than the (T/2)**2 of every second-half arrival against every
first-half bundle; a block of more than one trial whose coins would pass
_BLOCK runs each half as its own block instead.  run() is a block of one
trial turned into Python objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bundling import Bundle, BundledAllocation, invalid_bundling, state_dtype
from .core import Instance, copy_items
from .errors import InfeasibleFractional, StreamModelMismatch
from .lp_models import BundleLpSolution, IidModel, bundle_lp_shape, opton_lp_shape

_MASK = (1 << 64) - 1
_H0 = 0x9E3779B97F4A7C15  # the fold's start, and splitmix64's increment
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_U64 = (np.uint64(_H0), np.uint64(_M1), np.uint64(_M2))
_UNIT = 2.0 ** -53
_TAG_OPEN_OFF = 1
_TAG_COIN_OFF = 2
_TAG_OPEN_ON = 3
_TAG_COIN_ON = 4
_TAG_STREAM = 5
_TAG_TRIAL = 6

# array elements per block of trials; a block runs max(1, _BLOCK // width)
# trials, where width is the largest per-trial row of the plan, and an
# online block of more than one trial also holds at most _BLOCK coins
_BLOCK = 1 << 16

# slack allowed on each row and bound of a fractional solution, read as floats
FRACTIONAL_TOL = 1e-9


def _mix_from(h, *parts):
    """Continue the fold of _mix from h, the hash of a prefix of the key:
    _mix_from(_mix(*a), *b) == _mix(*a, *b).  Each part, read modulo 2**64,
    costs one splitmix64 round.  h is an int below 2**64, or a numpy uint64
    array of such hashes folded elementwise; with an array, a part is an
    int or a uint64 array that broadcasts against h."""
    h0, m1, m2 = _U64 if isinstance(h, np.ndarray) else (_H0, _M1, _M2)
    for p in parts:
        # h < 2**64, so masking the sum equals xoring h with p & _MASK; the
        # masks are no-ops on uint64 arrays, which wrap by themselves
        z = (h ^ (p & _MASK)) + h0
        z &= _MASK
        z ^= z >> 30
        z *= m1
        z &= _MASK
        z ^= z >> 27
        z *= m2
        z &= _MASK
        h = z ^ (z >> 31)
    return h


def _mix(*parts: int) -> int:
    return _mix_from(_H0, *parts)


def _mix_rows(prefix: int, rows: np.ndarray) -> np.ndarray:
    """_mix_from(prefix, r) for each r of a uint64 array."""
    return _mix_from(np.full(rows.shape, prefix, dtype=np.uint64), rows)


def _unit(h):
    """The uniform in [0, 1) read off a hash, or an array of hashes."""
    return (h >> 11) * _UNIT


def counter_uniform(*parts: int) -> float:
    """Deterministic uniform in [0, 1) from an integer key."""
    return _unit(_mix(*parts))


def derive_trial_seed(seed: int, trial: int) -> int:
    """Substream seed for one trial; independent of scheduling order."""
    return _mix(seed, _TAG_TRIAL, trial)


def trial_seeds(seed: int, trials: np.ndarray) -> np.ndarray:
    """derive_trial_seed(seed, t) for each t of a uint64 array."""
    return _mix_rows(_mix(seed, _TAG_TRIAL), trials)


def _block_trials(width: int) -> int:
    return max(1, _BLOCK // max(width, 1))


def _ragged(counts: np.ndarray) -> np.ndarray:
    """0, 1, .., k - 1 for each k of counts, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) - np.repeat(ends - counts, counts)


def _draw_table(n_rows: int, entries):
    """Phase-I draw table of (row, weight, choice) entries: the arrays (acc,
    choice), one row each, of the row's running sums of weights, in entry
    order, and its choices, padded with 0.0, which no draw falls below."""
    rows = [[] for _ in range(n_rows)]
    for r, w, c in entries:
        rows[r].append(((rows[r][-1][0] if rows[r] else 0.0) + w, c))
    width = max(1, max(map(len, rows), default=0))
    acc = np.zeros((n_rows, width))
    choice = np.zeros((n_rows, width), dtype=np.int64)
    for r, row in enumerate(rows):
        for k, (a, c) in enumerate(row):
            acc[r, k], choice[r, k] = a, c
    return acc, choice


def _ratio(v, xp) -> float:
    """x_ijp / x_pjp as a float; a Fraction pair is divided exactly first."""
    return float(Fraction(v) / Fraction(xp)) if isinstance(v, Fraction) else v / xp


def check_unit_interval(name: str, x: float):
    """Raise ValueError unless 0 < x < 1; a NaN is rejected too."""
    if not 0 < x < 1:
        raise ValueError(f"{name} must lie in (0, 1)")


def gamma_offline(alpha: float, beta: float) -> float:
    """Per-N-item allocation guarantee factor of the offline rounding."""
    return alpha * (1 - alpha) * (1 - alpha / (1 - beta))


def gamma_online(alpha: float, beta: float) -> float:
    """Per-copy allocation guarantee factor of the online rounding."""
    return (alpha / 2) * (1 - alpha / 2) * (1 - alpha / (2 * (1 - beta)))


def draw_types(model: IidModel, u: np.ndarray) -> np.ndarray:
    """The type index of each arrival drawn as a uniform of u: the first
    type whose cumulative probability exceeds it, else the last.  The guide
    table of model.stream_table leaves one compare per uniform, and a
    searchsorted for the uniforms in a crowded bucket."""
    cdf, guide, crowded = model.stream_table
    g = (u * len(guide)).astype(np.intp)
    k = guide[g]
    k += cdf[k] <= u
    if crowded.any():
        busy = crowded[g]
        k[busy] = np.searchsorted(cdf, u[busy], side="right")
    return k


def stream_arrivals(model: IidModel, seed: int, trials: np.ndarray) -> np.ndarray:
    """Type indices of the streams of the trials in a uint64 array, one row
    per trial: the type at time t is drawn (draw_types) as
    counter_uniform(seed, stream tag, trial, t)."""
    h = _mix_rows(_mix(seed, _TAG_STREAM), trials)
    return draw_types(model, _unit(_mix_from(
        h[:, None], np.arange(1, model.horizon + 1, dtype=np.uint64))))


def sample_stream(model: IidModel, seed: int, trial: int = 0) -> tuple:
    """Stream of one trial, as drawn by stream_arrivals: the tuple of its
    type ids, stream[t-1] the type at time t."""
    row = stream_arrivals(model, seed, np.array([trial & _MASK], dtype=np.uint64))[0]
    return tuple(model.types[k] for k in row.tolist())


def stream_instance(model: IidModel, stream) -> Instance:
    """Instance realized by a stream (a sequence of type ids): one item per
    timestep (id "t<k>"), a copy of its type in model.inst."""
    _check_stream(model, stream)
    inst = model.inst
    return copy_items(inst, [(f"t{t}", typ, inst.edges_of_item(typ))
                             for t, typ in enumerate(stream, start=1)])


def _check_stream(model: IidModel, stream):
    if len(stream) != model.horizon:
        raise StreamModelMismatch(
            f"stream length {len(stream)} != horizon {model.horizon}"
        )
    known = set(model.types)
    for typ in stream:
        if typ not in known:
            raise StreamModelMismatch(f"unknown type {typ!r} in stream")


# ---------------------------------------------------------------------------
# fractional-solution checks


def _float(v) -> float:
    """float(v), or the infinity of v's sign for a Fraction or int beyond
    the float range, on which float() raises OverflowError."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def check_fractional(inst: Instance, x: BundleLpSolution, item_cap, member_cap):
    """Raise InfeasibleFractional unless x is over inst.bundle_layout, with
    increasing columns, and is finite and satisfies, within FRACTIONAL_TOL,
    the bundle LP over inst of the shape (item_cap, member_cap); a fault is
    named at its first column, else item, else bundle.  Returns the columns
    of x and their floats."""
    layout = inst.bundle_layout
    if x.keys is not layout.keys and x.keys != layout.keys:
        raise InfeasibleFractional("solution is not over the instance's bundle layout")
    c = list(x.x)
    if any(type(k) is not int for k in c) or c != sorted(set(c)) or (
            c and not 0 <= c[0] <= c[-1] < len(layout.keys)):
        raise InfeasibleFractional("solution columns are not increasing layout columns")
    c = np.array(c, dtype=np.int64)
    fv = np.array([_float(v) for v in x.x.values()])
    xv = np.zeros(len(layout.keys))
    xv[c] = fv
    opener, item = layout.opener[c], layout.item[c]
    member_caps = np.array([float(member_cap(i)) for i in inst.items])
    bad = ~np.isfinite(fv) | (fv < -FRACTIONAL_TOL) | (
        (opener != c) & (fv > xv[opener] * member_caps[item] + FRACTIONAL_TOL))
    if bad.any():
        v, (i, j, p) = fv[bad][0], layout.keys[c[bad][0]]
        raise InfeasibleFractional(
            f"non-finite value at {(i, j, p)}" if not np.isfinite(v)
            else f"negative value at {(i, j, p)}" if v < -FRACTIONAL_TOL
            else f"x[{i},{j},{p}] exceeds its opener cap")
    mass = np.bincount(item, fv, len(inst.items))
    over = np.flatnonzero(mass > [float(item_cap(i)) + FRACTIONAL_TOL for i in inst.items])
    if over.size:
        i = over[0]
        raise InfeasibleFractional(f"item {inst.items[i]!r} mass {float(mass[i])} exceeds its cap")
    bundle = layout.bundle[c]
    av = np.bincount(bundle, -(fv * layout.excess[c]), len(layout.bundles))
    violated = bundle[av[bundle] > FRACTIONAL_TOL]
    if violated.size:
        b = violated[0]
        raise InfeasibleFractional(
            f"bundle {layout.bundles[b]} violates its value row by {float(av[b])}")
    return c, fv


def _support(inst: Instance, x: BundleLpSolution, shape, alpha: float):
    """Check x (check_fractional, for the LP shape (item_cap, member_cap))
    and alpha, and return what both roundings draw from, (opens, mass,
    members, prob): the openers of nonzero value in column order and their
    floats, and the members whose opener is in opens, in (item, opener
    column) order, with their coin probabilities alpha * x_ijp / x_pjp, each
    ratio taken exactly first."""
    cols, mass = check_fractional(inst, x, *shape)
    check_unit_interval("alpha", alpha)
    layout = inst.bundle_layout
    opener = layout.opener[cols]
    nonzero = np.zeros(len(layout.keys), dtype=bool)
    nonzero[cols] = [v != 0 for v in x.x.values()]
    is_open = (opener == cols) & nonzero[cols]
    members = cols[(opener != cols) & nonzero[opener]]
    members = members[np.lexsort((layout.opener[members], layout.item[members]))]
    prob = [alpha * _ratio(x.x[c], x.x[o])
            for c, o in zip(members.tolist(), layout.opener[members].tolist())]
    return cols[is_open], mass[is_open], members, prob


# ---------------------------------------------------------------------------
# offline rounding


class OfflinePlan:
    """Instance + fractional solution compiled for repeated rounding runs.

    Validation and all Fraction divisions happen once.  A run touches only
    floats and the instance's scaled integers (Instance.scaled), held in
    arrays of self.dtype, and turns its value into a Fraction once at the
    end.  Bundle b is self.bundles[b] = (buyer, P-item), in canonical
    (P-item, buyer) order, with the float x_pjp in self.b_mass[b].  A
    plain plan (budgeted False) ignores budgets, so it refuses an instance
    that carries them.
    """

    def __init__(self, inst: Instance, x: BundleLpSolution, alpha: float | None,
                 budgeted: bool = False):
        if inst.budgets and not budgeted:
            raise ValueError("the plain rounding does not support budgets")
        self.inst = inst
        self.resources = inst.resources() if budgeted else []
        k = len(self.resources)
        self.alpha = alpha if alpha is not None else 1.0 / (3 * max(k, 1))
        opens, self.b_mass, members, prob = _support(inst, x, bundle_lp_shape(inst), self.alpha)
        layout = inst.bundle_layout
        self.bundles = [layout.bundles[b] for b in layout.bundle[opens].tolist()]
        self.b_buyer = layout.buyer[opens]
        # phase I: per P-item with a bundle, its cumulative probabilities and bundles
        p_of = layout.item[opens].tolist()
        p_row = {p: r for r, p in enumerate(dict.fromkeys(p_of))}
        self.p_index = np.array(list(p_row), dtype=np.uint64)
        self.p_acc, self.p_bundle = _draw_table(len(p_row), [
            (p_row[p], m, b) for b, (p, m) in enumerate(zip(p_of, self.b_mass.tolist()))])
        # phase II: one column per coin, the coins of an N-item contiguous
        item, opener = layout.item[members], layout.opener[members]
        self.c_bundle = np.searchsorted(opens, opener)
        self.c_key = [a.astype(np.uint64) for a in (item, layout.buyer[members], layout.item[opener])]
        self.c_prob = np.array(prob, dtype=np.float64)
        self.c_start = np.flatnonzero(np.diff(item, prepend=-1))
        self.coin_items = [inst.items[i] for i in item[self.c_start].tolist()]
        # scaled excess, value and resource costs of each bundle's edge, then each coin's
        values, excess, rcosts, budgets = inst.scaled
        edges = [layout.keys[c][:2] for c in (*opens.tolist(), *members.tolist())]
        exc, val = [excess[e] for e in edges], [values[e] for e in edges]
        rc = [[rcosts.get((res, *e), 0) for res in self.resources] for e in edges]
        caps = [[budgets.get((res, j)) for res in self.resources] for j in inst.buyers]
        # every sum a run forms is bounded by the sum of these magnitudes,
        # which also stands in for an absent budget cap
        bound = sum(map(abs, exc)) + sum(map(abs, val)) + sum(map(sum, rc))
        bound += sum(c for row in caps for c in row if c is not None)
        self.dtype = dt = state_dtype(bound)
        n = len(opens)
        exc, val = np.array(exc, dtype=dt), np.array(val, dtype=dt)
        rc = np.array(rc, dtype=dt).reshape(len(edges), k)
        self.b_excess, self.b_value, self.b_rc = exc[:n], val[:n], rc[:n]
        self.c_deficit, self.c_value, self.c_rc = -exc[n:], val[n:], rc[n:]
        self.caps = np.array([[bound if c is None else c for c in row] for row in caps],
                             dtype=dt).reshape(len(caps), k)
        self.block_trials = _block_trials(max(len(members), self.p_acc.size, n, len(caps) * k))

    def _within_caps(self, used, rows, b, cost):
        """Which (trial row, bundle b) pairs may add resource costs cost
        without passing a budget cap of the bundle's buyer."""
        j = self.b_buyer[b]
        return (used[rows, j] + cost <= self.caps[j]).all(1)

    def run_block(self, seeds: np.ndarray):
        """One rounding pass per seed of a uint64 array, as the block's
        arrays (opened, joined, value): in row r, bundle b is open when
        opened[r, b], the N-item self.coin_items[e] joined bundle
        joined[r, e] (-1 for none), and value[r] is the total value in the
        instance's scaled integers."""
        n, dt, k = len(seeds), self.dtype, len(self.resources)
        keys = _mix_rows(_H0, seeds)
        # every coin is known up front; only the budgets and residuals
        # need the items in order
        u_open = _unit(_mix_from(_mix_from(keys, _TAG_OPEN_OFF)[:, None], self.p_index))
        below = u_open[:, :, None] < self.p_acc
        pick = np.where(below.any(2), self.p_bundle[np.arange(len(self.p_acc)), below.argmax(2)], -1)
        u_coin = _unit(_mix_from(_mix_from(keys, _TAG_COIN_OFF)[:, None], *self.c_key))
        opened = np.zeros((n, len(self.bundles)), dtype=bool)
        residual = np.zeros((n, len(self.bundles)), dtype=dt)
        value = np.zeros(n, dtype=dt)
        used = np.zeros((n, *self.caps.shape), dtype=dt)
        for q in range(pick.shape[1]):
            rows = np.flatnonzero(pick[:, q] >= 0)
            b = pick[rows, q]
            if k:
                keep = self._within_caps(used, rows, b, self.b_rc[b])
                rows, b = rows[keep], b[keep]
                used[rows, self.b_buyer[b]] += self.b_rc[b]
            opened[rows, b] = True
            residual[rows, b] = self.b_excess[b]
            value[rows] += self.b_value[b]
        # per N-item the coin column of its single hit, or -1
        hits = opened[:, self.c_bundle] & (u_coin < self.c_prob)
        hit_col = np.add.reduceat(np.where(hits, np.arange(1, hits.shape[1] + 1), 0),
                                  self.c_start, axis=1) - 1
        single = np.add.reduceat(hits, self.c_start, axis=1, dtype=np.int64) == 1
        hit = np.where(single, hit_col, -1)
        joined = np.full(hit.shape, -1)
        for e in range(hit.shape[1]):
            rows = np.flatnonzero(hit[:, e] >= 0)
            c = hit[rows, e]
            b = self.c_bundle[c]
            keep = residual[rows, b] >= self.c_deficit[c]
            if k:
                keep &= self._within_caps(used, rows, b, self.c_rc[c])
            rows, c, b = rows[keep], c[keep], b[keep]
            residual[rows, b] -= self.c_deficit[c]
            value[rows] += self.c_value[c]
            if k:
                used[rows, self.b_buyer[b]] += self.c_rc[c]
            joined[rows, e] = b
        return opened, joined, value

    def outcome(self, block, r: int):
        """Row r of a run_block result as (opened bundle ids mapped to their
        member N-items, total value in scaled integers)."""
        opened, joined, value = block
        trial = {b: [] for b in np.flatnonzero(opened[r]).tolist()}
        for item, b in zip(self.coin_items, joined[r].tolist()):
            if b >= 0:
                trial[b].append(item)
        return trial, int(value[r])

    def check(self, block, start: int = 0):
        """Raise RuntimeError, naming trial start + r, at the lowest row r
        of a run_block result that is not a valid bundling of the instance
        (bundling.invalid_bundling on the bundles' labels and coin_items)."""
        opened, joined, _value = block
        fault = invalid_bundling(self.inst, self.bundles, opened, self.coin_items, joined)
        if fault is not None:
            row, reason = fault
            raise RuntimeError(f"trial {start + row} gave an invalid bundling: {reason}")

    def run_trials(self, seed: int, trials: int):
        """Yield (start, run_block result) for trials t = 0 .. trials-1,
        each seeded by derive_trial_seed(seed, t), one checked block of at
        most self.block_trials trials at a time; row r of a block is trial
        start + r."""
        for start in range(0, trials, self.block_trials):
            ts = np.arange(start, min(trials, start + self.block_trials), dtype=np.uint64)
            block = self.run_block(trial_seeds(seed, ts))
            self.check(block, start)
            yield start, block

    def run(self, seed: int):
        """One checked rounding pass.  Returns (opened bundle ids mapped to
        their member N-items, total value as a Fraction)."""
        block = self.run_block(np.array([seed & _MASK], dtype=np.uint64))
        self.check(block)
        opened, value = self.outcome(block, 0)
        return opened, Fraction(value, self.inst.scale)

    def to_bundled(self, opened) -> BundledAllocation:
        bundles = [
            Bundle(buyer=self.bundles[b][0], p_item=self.bundles[b][1],
                   n_items=frozenset(members))
            for b, members in sorted(opened.items())
        ]
        return BundledAllocation(bundles)


def round_offline(inst: Instance, x: BundleLpSolution, alpha: float | None,
                  seed: int = 0) -> BundledAllocation:
    """Round a bundle-LP solution offline (alpha None picks the plan's
    default); the output is checked, and deterministic given the seed."""
    plan = OfflinePlan(inst, x, alpha)
    return plan.to_bundled(plan.run(seed)[0])


# ---------------------------------------------------------------------------
# online rounding


@dataclass(frozen=True)
class TraceRecord:
    """One immediate decision: reason is 'opened' or 'no-phase' in the first
    half, 'singleton+permissible' (allocated), 'multi-hit' (zero or several
    coins hit) or 'impermissible' in the second half."""

    t: int
    item: str
    type: str
    bundle: tuple | None
    reason: str

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "item": self.item,
            "type": self.type,
            "bundle": None if self.bundle is None else "|".join(str(b) for b in self.bundle),
            "reason": self.reason,
        }


def _replay_prefix(model: IidModel, buyer: np.ndarray, types: np.ndarray):
    """The lowest row of a block of decision sequences in which a prefix
    breaks a buyer's constraint, or None when no row does.

    In row r, arrival k has the type model.types[types[r, k]] and went to
    the buyer model.buyers[buyer[r, k]], or to none when that is -1; a
    prefix holds when each buyer's sum of scaled excesses (Instance.scaled
    of model.inst, read from model.replay_table) is >= 0.  An arrival along
    a non-edge, or to the index past the last buyer, breaks its row.  Each
    buyer's running sum runs along the rows in time order, in int64, or in
    Python ints when a bound computed from the model reaches 2**63."""
    excess, edge, most = model.replay_table
    nb, width = len(model.buyers), max(buyer.shape[1], 1)
    # a broken arrival steps below anything the rest of its row can make up;
    # every entry, and every sum of up to width of them, lies within width * -low
    low = -width * most - 1
    dt = state_dtype(width * -low)
    table = np.where(edge, excess.astype(dt, copy=False), low)
    to = np.where(buyer < 0, nb + 1, np.minimum(buyer, nb))
    step = table.ravel()[types * (nb + 2) + to]
    # a running sum from 0 falls below 0 only at a negative step, so only
    # the buyers (index nb included) that take one are summed
    bad = np.zeros(len(to), dtype=bool)
    for j in np.flatnonzero(np.bincount(to[step < 0], minlength=nb + 2)):
        bad |= (np.cumsum(np.where(to == j, step, 0), axis=1) < 0).any(1)
    bad = np.flatnonzero(bad)
    return int(bad[0]) if len(bad) else None


class OnlinePlan:
    """Model + online-LP solution compiled for repeated stream runs.  A
    run sums values and residuals in the scaled integers of the model's
    instance (Instance.scaled), held in arrays of self.dtype, and turns its value
    into a Fraction once at the end.  Types and buyers are numbered in
    model order, and a bundle is named by its opening time: at most one
    bundle opens per first-half arrival."""

    def __init__(self, model: IidModel, x: BundleLpSolution, alpha: float | None):
        if model.costs is not None:
            raise ValueError("online rounding requires a plain (unit-cost) model")
        if model.horizon % 2 != 0:
            raise ValueError("online rounding needs an even horizon")
        if model.horizon > np.iinfo(np.intp).max:
            raise ValueError(f"horizon {model.horizon} is too long for an array")
        self.model = model
        self.alpha = 0.64 if alpha is None else alpha
        opens, mass, members, prob = _support(model.inst, x, opton_lp_shape(model), self.alpha)
        T = model.horizon
        self.half = T // 2
        inst, nt, nb = model.inst, len(model.types), len(model.buyers)
        layout = inst.bundle_layout
        # phase I: per type, cumulative opening probabilities over buyers;
        # no type of probability 0 opens or joins a bundle
        qT = [float(model.probs[i] * T) for i in model.types]
        t_of, j_of = layout.item[opens].tolist(), layout.buyer[opens].tolist()
        self.open_acc, self.open_buyer = _draw_table(nt, [
            (t, m / qT[t], j) for t, m, j in zip(t_of, mass.tolist(), j_of) if qT[t] > 0])
        # phase II: per type i, the classes c = p * nb + j of the open
        # bundles (p, j) it may join and their coin probabilities, in entries
        # join_start[i] .. join_start[i + 1] - 1 of join_class and join_coin
        i = layout.item[members]
        coin = np.array([pr / qT[t] if qT[t] > 0 else 0.0 for t, pr in zip(i.tolist(), prob)])
        has = coin > 0
        self.join_start = np.searchsorted(i[has], np.arange(nt + 1))
        self.join_class = (layout.item[layout.opener[members]] * nb + layout.buyer[members])[has]
        self.join_coin = coin[has]
        # scaled value and excess of each (type, buyer), 0 on non-edges; a
        # run's value is at most T times the largest value, and a bundle's
        # residual lies between 0 and its opener's excess
        values, excess = inst.scaled[:2]
        self.dtype = dt = state_dtype(T * sum(abs(v) + abs(excess[e]) for e, v in values.items()))
        self.values, self.p_excess = np.zeros((nt, nb), dtype=dt), np.zeros((nt, nb), dtype=dt)
        for (i, j), v in values.items():
            t, jdx = inst.item_index(i), inst.buyer_index(j)
            self.values[t, jdx], self.p_excess[t, jdx] = v, excess[(i, j)]
        self.deficit = -self.p_excess
        # per trial: the four T-wide arrays the prefix replay holds at once,
        # the phase-I draw table, and a second-half arrival per join class
        # of its type; the coins are bounded as a block runs (run_block)
        joins = np.diff(self.join_start).max(initial=0)
        self.block_trials = _block_trials(
            max(4 * T, self.half * self.open_acc.shape[1], (T - self.half) * joins))

    def coin_candidates(self, first, second, opener):
        """The coins of a block, one per second-half arrival and open bundle
        it may join, in runs that share the arrival and the bundle's class:
        arrays (cells, entries, counts, slots), per run the arrival's cell
        r * (T - half) + c, the coins' entry of join_class and join_coin
        and the number of coins, then per coin, run by run, the bundle's
        opening slot.  The open bundles are sorted by (row, class) once,
        and each arrival looks up the run of open bundles in each class its
        type may join; empty runs are left out.  None, before any coin is
        materialized, when a block of more than one trial has more than
        _BLOCK coins."""
        m, (nt, nb) = second.shape[1], self.values.shape
        is_open = opener >= 0
        key = np.arange(len(opener))[:, None] * (nt * nb) + first * nb + opener
        order = np.argsort(key[is_open], kind="stable")
        key, open_slot = key[is_open][order], np.nonzero(is_open)[1][order]
        i = second.ravel()
        count = np.diff(self.join_start)[i]
        cells = np.repeat(np.arange(len(i)), count)
        e = np.repeat(self.join_start[i], count) + _ragged(count)
        want = cells // m * (nt * nb) + self.join_class[e]
        lo = np.searchsorted(key, want)
        count = np.searchsorted(key, want, side="right") - lo
        if len(second) > 1 and count.sum() > _BLOCK:
            return None
        runs = np.flatnonzero(count)
        count = count[runs]
        return (cells[runs], e[runs], count,
                open_slot[np.repeat(lo[runs], count) + _ragged(count)])

    def run_block(self, seeds: np.ndarray, arrivals: np.ndarray):
        """One online pass per seed of a uint64 array, against the stream
        in the same row of arrivals (type indices), as the block's arrays
        (opener, hit, joined, value, arrivals): in row r, opener[r, s] is
        the buyer index of the bundle opened at time s + 1 (-1 for none),
        hit[r, c] the opening slot s of the single coin that second-half
        arrival c hit (-1 for none or several), joined[r, c] whether it
        joined that bundle, and value[r] the total value in the model's
        scaled integers."""
        n, T, half, dt = len(seeds), self.model.horizon, self.half, self.dtype
        keys = _mix_rows(_H0, seeds)[:, None]
        first, second = arrivals[:, :half], arrivals[:, half:]
        # phase I: no state, so every arrival's opening at once; opener is
        # the buyer of the bundle opened at each first-half time, or -1
        u = _unit(_mix_from(keys, _TAG_OPEN_ON, np.arange(1, half + 1, dtype=np.uint64)))
        below = u[:, :, None] < self.open_acc[first]
        opener = np.where(below.any(2), self.open_buyer[first, below.argmax(2)], -1)
        is_open = opener >= 0
        buyer = np.maximum(opener, 0)
        residual = np.where(is_open, self.p_excess[first, buyer], 0).astype(dt).ravel()
        value = np.where(is_open, self.values[first, buyer], 0).astype(dt).sum(1)
        # phase II coins, hashed at the open bundles each arrival may join;
        # hit is the opening slot of a second-half arrival's single hit, or -1
        m = T - half
        coins = self.coin_candidates(first, second, opener)
        if coins is None:
            # too many coins for one block: each half runs as its own block,
            # down to a block of one trial, whose coins are at most (T/2)**2
            halves = (self.run_block(seeds[:n // 2], arrivals[:n // 2]),
                      self.run_block(seeds[n // 2:], arrivals[n // 2:]))
            return tuple(np.concatenate(parts) for parts in zip(*halves))
        # a coin's key is (time, buyer, opener type, opening slot): the hash
        # of its first three parts is folded once per run, the slot per coin
        cells, e, count, slots = coins
        p, j = np.divmod(self.join_class[e], self.values.shape[1])
        h_t = _mix_from(keys, _TAG_COIN_ON, np.arange(half + 1, T + 1, dtype=np.uint64))
        h_run = _mix_from(h_t.ravel()[cells], j.astype(np.uint64), p.astype(np.uint64))
        u = _unit(_mix_from(np.repeat(h_run, count), (slots + 1).astype(np.uint64)))
        won = u < np.repeat(self.join_coin[e], count)
        cells, slots = np.repeat(cells, count)[won], slots[won]
        one = np.bincount(cells, minlength=n * m)[cells] == 1
        hit = np.full(n * m, -1)
        hit[cells[one]] = slots[one]
        # joins: bundles share no state, so each bundle takes its hits in
        # arrival order, round k its k-th hit, each while its residual
        # covers the deficit
        cells = np.flatnonzero(hit >= 0)
        bundle = cells // m * half + hit[cells]
        order = np.argsort(bundle, kind="stable")
        cells, bundle = cells[order], bundle[order]
        rank = np.arange(len(bundle)) - np.searchsorted(bundle, bundle)
        i, j = second.ravel()[cells], buyer.ravel()[bundle]
        deficit = self.deficit[i, j]
        joins = np.zeros(len(cells), dtype=bool)
        for k in range(rank.max(initial=-1) + 1):
            at = np.flatnonzero(rank == k)
            at = at[residual[bundle[at]] >= deficit[at]]
            residual[bundle[at]] -= deficit[at]
            joins[at] = True
        joined = np.zeros(n * m, dtype=bool)
        joined[cells[joins]] = True
        gain = np.zeros(n * m, dtype=dt)
        gain[cells[joins]] = self.values[i[joins], j[joins]]
        value += gain.reshape(n, m).sum(1)
        hit, joined = hit.reshape(n, m), joined.reshape(n, m)
        return opener, hit, joined, value, arrivals

    def outcome(self, block, r: int):
        """Row r of a run_block result as (opened keys, members per key,
        value in scaled integers, trace); opened keys are (buyer, type,
        time)."""
        opener, hit, joined, value, arrivals = block
        opener, hit, joined, arrivals = (a[r].tolist() for a in (opener, hit, joined, arrivals))
        value = int(value[r])
        types, buyers, half = self.model.types, self.model.buyers, self.half
        keys = [None if j < 0 else (buyers[j], types[arrivals[s]], s + 1)
                for s, j in enumerate(opener)]
        opened = [key for key in keys if key is not None]
        members = {key: [] for key in opened}
        for c, s in enumerate(hit):
            if joined[c]:
                members[keys[s]].append((half + c + 1, types[arrivals[half + c]]))
        trace = [TraceRecord(t, f"t{t}", types[arrivals[t - 1]], key,
                             "no-phase" if key is None else "opened")
                 for t, key in enumerate(keys, start=1)]
        for c, s in enumerate(hit):
            t = half + c + 1
            key = None if s < 0 else keys[s]
            reason = ("multi-hit" if key is None
                      else "singleton+permissible" if joined[c] else "impermissible")
            trace.append(TraceRecord(t, f"t{t}", types[arrivals[t - 1]], key, reason))
        return opened, members, value, trace

    def check(self, block, start: int = 0):
        """Raise RuntimeError, naming trial start + r, at the lowest row r
        of a run_block result in which a prefix of the decisions breaks a
        buyer's constraint (_replay_prefix on the model)."""
        opener, hit, joined, _value, arrivals = block
        # the buyer of each arrival; a join to no open bundle goes to the
        # index past the last buyer, which the replay rejects
        joiner = np.take_along_axis(opener, np.maximum(hit, 0), 1)
        joiner[(hit < 0) | (joiner < 0)] = len(self.model.buyers)
        row = _replay_prefix(self.model, np.hstack([opener, np.where(joined, joiner, -1)]),
                             arrivals)
        if row is not None:
            raise RuntimeError(f"trial {start + row} violated a prefix constraint")

    def run_trials(self, seed: int, trials: int):
        """Yield (start, run_block result) for trials t = 0 .. trials-1,
        each seeded by derive_trial_seed(seed, t) on the stream
        sample_stream(model, seed, t), one checked block of at most
        self.block_trials trials at a time; row r of a block is trial
        start + r."""
        for start in range(0, trials, self.block_trials):
            ts = np.arange(start, min(trials, start + self.block_trials), dtype=np.uint64)
            block = self.run_block(trial_seeds(seed, ts), stream_arrivals(self.model, seed, ts))
            self.check(block, start)
            yield start, block

    def run(self, seed: int, stream):
        """One checked online pass against a stream of type ids.  Returns
        (opened keys, members per key, value, trace).  opened keys are
        (buyer, type, time)."""
        _check_stream(self.model, stream)
        arrivals = np.array([list(map(self.model.inst.item_index, stream))], dtype=np.int64)
        block = self.run_block(np.array([seed & _MASK], dtype=np.uint64), arrivals)
        self.check(block)
        opened, members, value, trace = self.outcome(block, 0)
        return opened, members, Fraction(value, self.model.inst.scale), trace


def round_online(model: IidModel, x: BundleLpSolution, alpha: float | None, seed: int, stream):
    """Round an online-LP solution against a realized stream of type ids
    (alpha None picks the plan's default); the run is checked.

    Returns (BundledAllocation over the stream instance, decision trace).
    Bundles are labelled (buyer, type, opening time); items carry the
    timestep ids of stream_instance.
    """
    plan = OnlinePlan(model, x, alpha)
    opened, members, _value, trace = plan.run(seed, stream)
    bundles = [
        Bundle(
            buyer=key[0],
            p_item=f"t{key[2]}",
            n_items=frozenset(f"t{t}" for t, _typ in members[key]),
        )
        for key in opened
    ]
    return BundledAllocation(bundles), trace

