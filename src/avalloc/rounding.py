"""Randomized rounding of the bundle relaxations, offline and online.

Offline: phase I opens at most one bundle per P-item p, picking buyer j with
probability x_pjp (leftover mass opens nothing).  Phase II visits each
N-item i, tosses an independent coin per open bundle jp with probability
alpha * x_ijp / x_pjp, and allocates i only when exactly one coin came up
heads and the hit bundle stays permissible.  The budget-aware variant also
requires every configured per-buyer budget to survive the addition.

Online: arrivals in the first half of the horizon may only open bundles
(buyer drawn with probability x_pjp / (q_p T)); arrivals in the second half
may only join them, with per-open-bundle coin probability
alpha * x_ijp / (x_pjp q_i T).  Decisions are immediate and irrevocable and
every prefix of the run satisfies the buyers' constraints.

All randomness comes from a counter-based generator keyed by
(seed, stream tag, indices), so coin flips are independent across items and
bundles and a run is reproducible regardless of evaluation order.  The key
is hashed as a left fold, so a run hashes each shared prefix once (the
(seed, tag) of a trial, then the item or timestep) and continues the fold
for each coin.  The fractional input is validated once per plan; the
Monte-Carlo harness reuses compiled plans across trials.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .bundling import Bundle, BundledAllocation
from .core import Allocation, Instance
from .errors import InfeasibleFractional, PhaseViolation, StreamModelMismatch
from .lp_models import BundleLpSolution, IidModel, bundle_lp_shape, opton_lp_shape

_MASK = (1 << 64) - 1
_H0 = 0x9E3779B97F4A7C15  # the fold's start, and splitmix64's increment
_UNIT = 2.0 ** -53
_TAG_OPEN_OFF = 1
_TAG_COIN_OFF = 2
_TAG_OPEN_ON = 3
_TAG_COIN_ON = 4
_TAG_STREAM = 5
_TAG_TRIAL = 6

# slack allowed on each row and bound of a fractional solution, read as floats
FRACTIONAL_TOL = 1e-9


def _mix_from(h: int, *parts: int) -> int:
    """Continue the fold of _mix from h, the hash of a prefix of the key:
    _mix_from(_mix(*a), *b) == _mix(*a, *b).  Each part, read modulo 2**64,
    costs one splitmix64 round."""
    for p in parts:
        # h < 2**64, so masking the sum equals xoring h with p & _MASK
        z = ((h ^ p) + _H0) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        h = z ^ (z >> 31)
    return h


def _mix(*parts: int) -> int:
    return _mix_from(_H0, *parts)


def counter_uniform(*parts: int) -> float:
    """Deterministic uniform in [0, 1) from an integer key."""
    return (_mix(*parts) >> 11) * _UNIT


def derive_trial_seed(seed: int, trial: int) -> int:
    """Substream seed for one trial; independent of scheduling order."""
    return _mix(seed, _TAG_TRIAL, trial)


@dataclass(frozen=True)
class RoundingParams:
    """alpha drives the phase-II coins (None picks the algorithm default);
    beta only enters the reported guarantee factor gamma; seed fixes all
    randomness."""

    alpha: float | None
    beta: float = 0.156
    seed: int = 0

    def __post_init__(self):
        if self.alpha is not None and not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")


def gamma_offline(alpha: float, beta: float) -> float:
    """Per-N-item allocation guarantee factor of the offline rounding."""
    return alpha * (1 - alpha) * (1 - alpha / (1 - beta))


def gamma_online(alpha: float, beta: float) -> float:
    """Per-copy allocation guarantee factor of the online rounding."""
    return (alpha / 2) * (1 - alpha / 2) * (1 - alpha / (2 * (1 - beta)))


@dataclass(frozen=True)
class OnlineStream:
    """Realized arrival sequence: arrivals[t-1] is the type at time t."""

    arrivals: tuple

    def __post_init__(self):
        object.__setattr__(self, "arrivals", tuple(self.arrivals))

    def __len__(self):
        return len(self.arrivals)


def sample_stream(model: IidModel, seed: int, trial: int = 0) -> OnlineStream:
    """Stream of one trial: the type at time t is drawn by
    counter_uniform(seed, stream tag, trial, t) from model.stream_cdf."""
    cdf, types = model.stream_cdf, model.types
    last = len(types) - 1
    h = _mix(seed, _TAG_STREAM, trial)
    arrivals = []
    for t in range(1, model.horizon + 1):
        k = bisect_right(cdf, (_mix_from(h, t) >> 11) * _UNIT)
        arrivals.append(types[min(k, last)])
    return OnlineStream(arrivals)


def stream_instance(model: IidModel, stream: OnlineStream) -> Instance:
    """Instance realized by a stream: one item per timestep (id "t<k>")."""
    _check_stream(model, stream)
    items, values = [], {}
    costs = {} if model.costs is not None else None
    for t, typ in enumerate(stream.arrivals, start=1):
        iid = f"t{t}"
        items.append(iid)
        for j in model.buyers:
            if (typ, j) in model.values:
                values[(iid, j)] = model.values[(typ, j)]
                if costs is not None:
                    costs[(iid, j)] = model.cost(typ, j)
    return Instance(
        items=items,
        buyers=model.buyers,
        values=values,
        thresholds=dict(model.thresholds),
        costs=costs,
    )


def _check_stream(model: IidModel, stream: OnlineStream):
    if len(stream) != model.horizon:
        raise StreamModelMismatch(
            f"stream length {len(stream)} != horizon {model.horizon}"
        )
    known = set(model.types)
    for typ in stream.arrivals:
        if typ not in known:
            raise StreamModelMismatch(f"unknown type {typ!r} in stream")


# ---------------------------------------------------------------------------
# fractional-solution checks


def check_fractional(src, x: BundleLpSolution, units, item_cap, member_cap):
    """Raise InfeasibleFractional unless x satisfies, within FRACTIONAL_TOL,
    the bundle LP that lp_models builds over src (an instance or an arrival
    model) from the shape (units, item_cap, member_cap)."""
    mass = {i: 0.0 for i in units}
    av = {}
    for (i, j, p), v in x.x.items():
        fv = float(v)
        if fv < -FRACTIONAL_TOL:
            raise InfeasibleFractional(f"negative value at {(i, j, p)}")
        if (i, j) not in src.values or (p, j) not in src.values or src.excess(p, j) < 0:
            raise InfeasibleFractional(f"variable {(i, j, p)} outside the bundle LP")
        excess = src.excess(i, j)
        if i != p and excess >= 0:
            raise InfeasibleFractional(f"P-edge ({i!r}, {j!r}) used as a member")
        mass[i] += fv
        av[(j, p)] = av.get((j, p), 0.0) - fv * float(excess)
        if i != p:
            cap = float(x.x.get((p, j, p), 0)) * float(member_cap(i))
            if fv > cap + FRACTIONAL_TOL:
                raise InfeasibleFractional(f"x[{i},{j},{p}] exceeds its opener cap")
    for i, s in mass.items():
        if s > float(item_cap(i)) + FRACTIONAL_TOL:
            raise InfeasibleFractional(f"unit {i!r} mass {s} exceeds its cap")
    for bp, s in av.items():
        if s > FRACTIONAL_TOL:
            raise InfeasibleFractional(f"bundle {bp} violates its value row by {s}")


# ---------------------------------------------------------------------------
# offline rounding


class OfflinePlan:
    """Instance + fractional solution compiled for repeated rounding runs.

    Validation and all Fraction divisions happen once; a run touches only
    floats and the instance's scaled integers (Instance.scaled), and turns
    its value into a Fraction once at the end.
    """

    def __init__(self, inst: Instance, x: BundleLpSolution, alpha: float | None,
                 budgeted: bool = False):
        check_fractional(inst, x, *bundle_lp_shape(inst))
        self.inst = inst
        values, excess, rcosts, budgets = inst.scaled
        self.resources = inst.resources() if budgeted else []
        k = len(self.resources)
        self.alpha = alpha if alpha is not None else 1.0 / (3 * max(k, 1))
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        self.budgeted = budgeted
        # bundles in canonical (p, j) order
        self.bundles = []  # (buyer, p_item, excess, p_value, p_rcosts), all scaled
        bundle_idx = {}
        for p in inst.items:
            if inst.item_class(p) != "P":
                continue
            for j in inst.buyers:
                v = x.x.get((p, j, p))
                if v:
                    bundle_idx[(j, p)] = len(self.bundles)
                    self.bundles.append((
                        j, p, excess[(p, j)], values[(p, j)],
                        [rcosts.get((res, p, j), 0) for res in self.resources],
                    ))
        # phase I: per P-item cumulative distribution over buyers
        self.p_draws = []  # (p_index, [(acc_float, bundle_id)])
        for p in inst.items:
            if inst.item_class(p) != "P":
                continue
            acc = 0.0
            cum = []
            for j in inst.buyers:
                v = x.x.get((p, j, p))
                if v:
                    acc += float(v)
                    cum.append((acc, bundle_idx[(j, p)]))
            self.p_draws.append((inst.item_index(p), cum))
        # phase II: per N-item candidate coins against every bundle
        self.n_entries = []  # (item, item_index, [(bundle_id, jdx, pdx, prob, deficit, value, rcosts)])
        for i in inst.items:
            if inst.item_class(i) != "N":
                continue
            cands = []
            for (j, p), b in bundle_idx.items():
                v = x.x.get((i, j, p))
                if not v:
                    continue
                xp = x.x[(p, j, p)]
                ratio = float(Fraction(v) / Fraction(xp)) if isinstance(v, Fraction) else v / xp
                cands.append((
                    b,
                    inst.buyer_index(j),
                    inst.item_index(p),
                    self.alpha * ratio,
                    -excess[(i, j)],
                    values[(i, j)],
                    [rcosts.get((res, i, j), 0) for res in self.resources],
                ))
            if cands:
                self.n_entries.append((i, inst.item_index(i), cands))
        self.budget_caps = {
            (res, j): budgets[(res, j)]
            for res in self.resources
            for j in inst.buyers
            if (res, j) in budgets
        }

    def run(self, seed: int):
        """One rounding pass.  Returns (opened bundle ids, members per
        bundle id, total value as a Fraction)."""
        opened = {}
        residual = {}
        used = {}
        value = 0
        h_open = _mix(seed, _TAG_OPEN_OFF)
        h_coin = _mix(seed, _TAG_COIN_OFF)
        for p_index, cum in self.p_draws:
            u = (_mix_from(h_open, p_index) >> 11) * _UNIT
            for acc, b in cum:
                if u < acc:
                    j, _p, excess, p_value, p_rc = self.bundles[b]
                    opened[b] = []
                    residual[b] = excess
                    value += p_value
                    for res_pos, res in enumerate(self.resources):
                        used[(res, j)] = used.get((res, j), 0) + p_rc[res_pos]
                    break
        for item, item_index, cands in self.n_entries:
            hit = None
            multi = False
            h_item = _mix_from(h_coin, item_index)
            for b, jdx, pdx, prob, deficit, v, rc in cands:
                if b not in opened:
                    continue
                if (_mix_from(h_item, jdx, pdx) >> 11) * _UNIT < prob:
                    if hit is not None:
                        multi = True
                        break
                    hit = (b, deficit, v, rc)
            if multi or hit is None:
                continue
            b, deficit, v, rc = hit
            if residual[b] < deficit:
                continue
            j = self.bundles[b][0]
            ok = True
            for res_pos, res in enumerate(self.resources):
                cap = self.budget_caps.get((res, j))
                if cap is not None and used.get((res, j), 0) + rc[res_pos] > cap:
                    ok = False
                    break
            if not ok:
                continue
            residual[b] -= deficit
            opened[b].append(item)
            value += v
            for res_pos, res in enumerate(self.resources):
                used[(res, j)] = used.get((res, j), 0) + rc[res_pos]
        return opened, Fraction(value, self.inst.scale)

    def to_bundled(self, opened) -> BundledAllocation:
        bundles = [
            Bundle(buyer=self.bundles[b][0], p_item=self.bundles[b][1],
                   n_items=frozenset(members))
            for b, members in sorted(opened.items())
        ]
        return BundledAllocation(bundles)


def round_offline(inst: Instance, x: BundleLpSolution, params: RoundingParams) -> BundledAllocation:
    """Round a bundle-LP solution offline; output is feasible with
    probability 1 and deterministic given the seed."""
    plan = OfflinePlan(inst, x, params.alpha, budgeted=False)
    opened, _value = plan.run(params.seed)
    return plan.to_bundled(opened)


def round_offline_budgeted(inst: Instance, x: BundleLpSolution,
                           params: RoundingParams) -> BundledAllocation:
    """Budget-aware offline rounding; N-items are added only when every
    configured budget of the receiving buyer survives.  With alpha=None the
    default is 1/(3K) for K budget resources."""
    plan = OfflinePlan(inst, x, params.alpha, budgeted=True)
    opened, _value = plan.run(params.seed)
    return plan.to_bundled(opened)


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


class OnlinePlan:
    """Model + online-LP solution compiled for repeated stream runs.  A
    run sums values and residuals in the model's scaled integers
    (IidModel.scaled) and turns its value into a Fraction once at the
    end."""

    def __init__(self, model: IidModel, x: BundleLpSolution, alpha: float | None):
        if model.costs is not None:
            raise ValueError("online rounding requires a plain (unit-cost) model")
        if model.horizon % 2 != 0:
            raise ValueError("online rounding needs an even horizon")
        check_fractional(model, x, *opton_lp_shape(model))
        self.model = model
        self.alpha = 0.64 if alpha is None else alpha
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        T = model.horizon
        self.half = T // 2
        self.tidx = {i: k for k, i in enumerate(model.types)}
        self.bidx = {j: k for k, j in enumerate(model.buyers)}
        # phase I cumulative distribution per type
        self.open_cum = {}
        for p in model.types:
            qT = float(model.probs[p] * T)
            if qT <= 0:
                continue
            acc = 0.0
            cum = []
            for j in model.buyers:
                v = x.x.get((p, j, p))
                if v:
                    acc += float(v) / qT
                    cum.append((acc, j))
            if cum:
                self.open_cum[p] = cum
        # phase II: per bundle (p-type, buyer), the member types with a coin
        # against it and their coin probabilities
        values, thresholds = model.scaled
        self.scaled_values = values
        self.joiners = {}
        self.member_deficit = {}
        for i in model.types:
            qT = float(model.probs[i] * T)
            if qT <= 0:
                continue
            for j in model.buyers:
                if (i, j) not in model.values or model.is_p_edge_type(i, j):
                    continue
                for (p, jj) in model.p_edge_types():
                    if jj != j:
                        continue
                    v = x.x.get((i, j, p))
                    if not v:
                        continue
                    xp = x.x[(p, j, p)]
                    ratio = float(Fraction(v) / Fraction(xp)) if isinstance(v, Fraction) else v / xp
                    self.joiners.setdefault((p, j), []).append((i, self.alpha * ratio / qT))
                self.member_deficit[(i, j)] = thresholds[j] - values[(i, j)]
        self.p_excess = {
            (p, j): values[(p, j)] - thresholds[j] for (p, j) in model.p_edge_types()
        }

    def run(self, seed: int, stream: OnlineStream, want_trace: bool = False):
        """One online pass.  Returns (opened keys, members per key, value,
        trace or None).  opened keys are (buyer, type, time)."""
        _check_stream(self.model, stream)
        model = self.model
        opened = []
        members = {}
        residual = {}
        # per arrival type, its coins against the open bundles in opening
        # order: (key, prob, buyer index, p-type index, opening time)
        candidates = {}
        value = 0
        trace = [] if want_trace else None
        h_open = _mix(seed, _TAG_OPEN_ON)
        h_coin = _mix(seed, _TAG_COIN_ON)
        for t, typ in enumerate(stream.arrivals, start=1):
            item_id = f"t{t}"
            if t <= self.half:
                chosen = None
                cum = self.open_cum.get(typ)
                if cum:
                    u = (_mix_from(h_open, t) >> 11) * _UNIT
                    for acc, j in cum:
                        if u < acc:
                            chosen = j
                            break
                if chosen is None:
                    if want_trace:
                        trace.append(TraceRecord(t, item_id, typ, None, "no-phase"))
                    continue
                key = (chosen, typ, t)
                opened.append(key)
                members[key] = []
                residual[key] = self.p_excess[(typ, chosen)]
                value += self.scaled_values[(typ, chosen)]
                jdx, pdx = self.bidx[chosen], self.tidx[typ]
                for i, prob in self.joiners.get((typ, chosen), ()):
                    candidates.setdefault(i, []).append((key, prob, jdx, pdx, t))
                if want_trace:
                    trace.append(TraceRecord(t, item_id, typ, key, "opened"))
            else:
                hit = None
                multi = False
                cands = candidates.get(typ)
                if cands:
                    h_t = _mix_from(h_coin, t)
                    for key, prob, jdx, pdx, t_open in cands:
                        if (_mix_from(h_t, jdx, pdx, t_open) >> 11) * _UNIT < prob:
                            if hit is not None:
                                multi = True
                                break
                            hit = key
                if multi or hit is None:
                    if want_trace:
                        trace.append(TraceRecord(t, item_id, typ, None, "multi-hit"))
                    continue
                if hit[2] > self.half:
                    raise PhaseViolation(f"bundle {hit} opened after the first half")
                deficit = self.member_deficit[(typ, hit[0])]
                if residual[hit] < deficit:
                    if want_trace:
                        trace.append(TraceRecord(t, item_id, typ, hit, "impermissible"))
                    continue
                residual[hit] -= deficit
                members[hit].append((t, typ))
                value += self.scaled_values[(typ, hit[0])]
                if want_trace:
                    trace.append(TraceRecord(t, item_id, typ, hit, "singleton+permissible"))
        return opened, members, Fraction(value, model.scale), trace


def round_online(model: IidModel, x: BundleLpSolution, params: RoundingParams,
                 stream: OnlineStream):
    """Round an online-LP solution against a realized stream.

    Returns (BundledAllocation over the stream instance, decision trace).
    Bundles are labelled (buyer, type, opening time); items carry the
    timestep ids of stream_instance.
    """
    plan = OnlinePlan(model, x, params.alpha)
    opened, members, _value, trace = plan.run(params.seed, stream, want_trace=True)
    bundles = [
        Bundle(
            buyer=key[0],
            p_item=f"t{key[2]}",
            n_items=frozenset(f"t{t}" for t, _typ in members[key]),
        )
        for key in opened
    ]
    return BundledAllocation(bundles), trace


# ---------------------------------------------------------------------------


def greedy_p_only(inst: Instance, order=None) -> Allocation:
    """Allocate each item along its highest-value nonnegative-excess edge,
    unallocated otherwise.  Always feasible; ties go to the earlier buyer."""
    if order is None:
        order = inst.items
    assignment = {}
    for i in order:
        best = None
        for j in inst.buyers:
            if (i, j) in inst.values and inst.is_p_edge(i, j):
                v = inst.values[(i, j)]
                if best is None or v > best[0]:
                    best = (v, j)
        if best is not None:
            assignment[i] = best[1]
    return Allocation(assignment)
