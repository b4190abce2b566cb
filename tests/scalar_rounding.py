"""One trial at a time in Python ints: the reference the batched rounding
runs are compared with, trial by trial.

These are the offline and online loops as they ran before the runs were
batched over trials, plus the phase-I budget check: a P-item opens its
bundle only if its resource costs keep the buyer within every cap.
"""

from fractions import Fraction

from avalloc.bundling import Bundle, BundledAllocation
from avalloc.rounding import (
    _TAG_COIN_OFF,
    _TAG_COIN_ON,
    _TAG_OPEN_OFF,
    _TAG_OPEN_ON,
    _UNIT,
    TraceRecord,
    _mix,
    _mix_from,
)


class ScalarOfflinePlan:
    def __init__(self, inst, x, alpha, budgeted=False):
        self.inst = inst
        values, excess, rcosts, budgets = inst.scaled
        self.resources = inst.resources() if budgeted else []
        self.alpha = alpha if alpha is not None else 1.0 / (3 * max(len(self.resources), 1))
        self.bundles = []  # (buyer, p_item, excess, p_value, p_rcosts), all scaled
        bundle_idx = {}
        for p in inst.items:
            if inst.item_class(p) != "P":
                continue
            for j in inst.buyers:
                if x.x.get((p, j, p)):
                    bundle_idx[(j, p)] = len(self.bundles)
                    self.bundles.append((
                        j, p, excess[(p, j)], values[(p, j)],
                        [rcosts.get((res, p, j), 0) for res in self.resources],
                    ))
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
                    b, inst.buyer_index(j), inst.item_index(p), self.alpha * ratio,
                    -excess[(i, j)], values[(i, j)],
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

    def _fits(self, used, j, rc):
        return all(
            self.budget_caps.get((res, j)) is None
            or used.get((res, j), 0) + rc[pos] <= self.budget_caps[(res, j)]
            for pos, res in enumerate(self.resources)
        )

    def _spend(self, used, j, rc):
        for pos, res in enumerate(self.resources):
            used[(res, j)] = used.get((res, j), 0) + rc[pos]

    def run(self, seed):
        """(opened bundle ids mapped to their members, scaled value)."""
        opened, residual, used = {}, {}, {}
        value = 0
        h_open = _mix(seed, _TAG_OPEN_OFF)
        h_coin = _mix(seed, _TAG_COIN_OFF)
        for p_index, cum in self.p_draws:
            u = (_mix_from(h_open, p_index) >> 11) * _UNIT
            for acc, b in cum:
                if u < acc:
                    j, _p, excess, p_value, p_rc = self.bundles[b]
                    if self._fits(used, j, p_rc):
                        opened[b] = []
                        residual[b] = excess
                        value += p_value
                        self._spend(used, j, p_rc)
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
            j = self.bundles[b][0]
            if residual[b] < deficit or not self._fits(used, j, rc):
                continue
            residual[b] -= deficit
            opened[b].append(item)
            value += v
            self._spend(used, j, rc)
        return opened, value

    def to_bundled(self, opened):
        return BundledAllocation(
            Bundle(buyer=self.bundles[b][0], p_item=self.bundles[b][1], n_items=members)
            for b, members in sorted(opened.items())
        )


class ScalarOnlinePlan:
    def __init__(self, model, x, alpha):
        self.model = model
        self.alpha = 0.64 if alpha is None else alpha
        T = model.horizon
        self.half = T // 2
        self.tidx = {i: k for k, i in enumerate(model.types)}
        self.bidx = {j: k for k, j in enumerate(model.buyers)}
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
        values, excess = model.inst.scaled[:2]
        p_edges = [(p, j) for p in model.types for j in model.buyers
                   if (p, j) in model.values and model.inst.is_p_edge(p, j)]
        self.scaled_values = values
        self.joiners = {}
        self.member_deficit = {}
        for i in model.types:
            qT = float(model.probs[i] * T)
            if qT <= 0:
                continue
            for j in model.buyers:
                if (i, j) not in model.values or model.inst.is_p_edge(i, j):
                    continue
                for (p, jj) in p_edges:
                    if jj != j:
                        continue
                    v = x.x.get((i, j, p))
                    if not v:
                        continue
                    xp = x.x[(p, j, p)]
                    ratio = float(Fraction(v) / Fraction(xp)) if isinstance(v, Fraction) else v / xp
                    self.joiners.setdefault((p, j), []).append((i, self.alpha * ratio / qT))
                self.member_deficit[(i, j)] = -excess[(i, j)]
        self.p_excess = {(p, j): excess[(p, j)] for (p, j) in p_edges}

    def run(self, seed, stream):
        """(opened keys, members per key, scaled value, trace)."""
        opened, members, residual, candidates, trace = [], {}, {}, {}, []
        value = 0
        h_open = _mix(seed, _TAG_OPEN_ON)
        h_coin = _mix(seed, _TAG_COIN_ON)
        for t, typ in enumerate(stream, start=1):
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
                trace.append(TraceRecord(t, item_id, typ, key, "opened"))
            else:
                hit = None
                multi = False
                h_t = _mix_from(h_coin, t)
                for key, prob, jdx, pdx, t_open in candidates.get(typ, ()):
                    if (_mix_from(h_t, jdx, pdx, t_open) >> 11) * _UNIT < prob:
                        if hit is not None:
                            multi = True
                            break
                        hit = key
                if multi or hit is None:
                    trace.append(TraceRecord(t, item_id, typ, None, "multi-hit"))
                    continue
                deficit = self.member_deficit[(typ, hit[0])]
                if residual[hit] < deficit:
                    trace.append(TraceRecord(t, item_id, typ, hit, "impermissible"))
                    continue
                residual[hit] -= deficit
                members[hit].append((t, typ))
                value += self.scaled_values[(typ, hit[0])]
                trace.append(TraceRecord(t, item_id, typ, hit, "singleton+permissible"))
        return opened, members, value, trace
