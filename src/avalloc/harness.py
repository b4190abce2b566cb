"""Seeded Monte-Carlo experiment runner and report emitter.

Every report is a pure function of (inputs, seed): trial t runs on the
substream seed derive_trial_seed(seed, t), so results do not depend on
scheduling, and every trial's output is re-verified in exact arithmetic,
a block of trials at a time from the plan's arrays and the instance's
scaled integers alone: offline by bundling.invalid_bundling (permissible
bundles, each item used once, every configured budget held), online by
replaying every prefix of the decisions, one running sum in time order
for each buyer that takes a negative step (_replay_prefix).  One invalid
trial aborts the run, naming the lowest such trial; this is a hard
invariant, not a statistic.  Reports carry mean, sample stddev, the normal
95% CI mean +/- 1.96 s/sqrt(N), the minimum, the LP benchmark and the
per-bundle opening rates used by the marginal checks.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .bundling import invalid_bundling, state_dtype
from .core import Instance, allocation_value, exact_text
from .genava import greedy_p_only
from .lp_models import BundleLpSolution, IidModel
from .rounding import (
    OfflinePlan,
    OnlinePlan,
    check_unit_interval,
    gamma_offline,
    gamma_online,
)


@dataclass
class TrialReport:
    mode: str
    trials: int
    seed: int
    alpha: float
    beta: float
    gamma: float
    lp_value: float
    lp_value_exact: str | None
    mean: float
    stddev: float
    ci95_lo: float
    ci95_hi: float
    minimum: float
    feasible_count: int
    ratio_lp_over_mean: float | None
    open_rates: dict = field(default_factory=dict)
    open_expected: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The fields in declaration order, minimum as "min" and the rate
        maps by sorted key."""
        doc = {("min" if k == "minimum" else k): v for k, v in asdict(self).items()}
        for k in ("open_rates", "open_expected"):
            doc[k] = dict(sorted(doc[k].items()))
        return doc


def _stats(values, trials):
    mean = sum(values) / trials
    var = sum((v - mean) ** 2 for v in values) / (trials - 1) if trials > 1 else 0.0
    sd = var ** 0.5
    half = 1.96 * sd / (trials ** 0.5)
    return mean, sd, mean - half, mean + half, min(values)


def _trial_report(mode, x, alpha, beta, gamma, seed, values, open_counts, expected):
    """The report of one Monte-Carlo run from its per-trial values (floats,
    in trial order) and the number of trials that opened each bundle."""
    trials = len(values)
    mean, sd, lo, hi, mn = _stats(values, trials)
    lp_val = float(x.objective)
    return TrialReport(
        mode=mode, trials=trials, seed=seed, alpha=alpha, beta=beta, gamma=gamma,
        lp_value=lp_val, lp_value_exact=exact_text(x.objective), mean=mean, stddev=sd,
        ci95_lo=lo, ci95_hi=hi, minimum=mn, feasible_count=trials,
        ratio_lp_over_mean=(lp_val / mean if mean else None),
        open_rates={k: c / trials for k, c in open_counts.items()}, open_expected=expected,
    )


def _check_run(beta: float, trials: int):
    """Reject a guarantee parameter beta outside (0, 1) and a run of no
    trials."""
    check_unit_interval("beta", beta)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def run_offline_trials(
    inst: Instance,
    x: BundleLpSolution,
    alpha: float | None,
    beta: float,
    seed: int,
    trials: int,
    budgeted: bool = False,
) -> TrialReport:
    """Monte-Carlo over the offline rounding; aborts on any infeasible
    output."""
    _check_run(beta, trials)
    plan = OfflinePlan(inst, x, alpha, budgeted=budgeted)
    values, open_counts = [], np.zeros(len(plan.bundles), dtype=np.int64)
    for start, (opened, joined, value) in plan.run_trials(seed, trials):
        fault = invalid_bundling(inst, plan.bundles, opened, plan.coin_items, joined)
        if fault is not None:
            row, reason = fault
            raise RuntimeError(f"trial {start + row} gave an invalid bundling: {reason}")
        values += [v / inst.scale for v in value.tolist()]
        open_counts += opened.sum(0)
    counts = {f"{j}|{p}": c for (j, p), c in zip(plan.bundles, open_counts.tolist()) if c}
    expected = {f"{j}|{p}": m for (j, p), m in zip(plan.bundles, plan.b_mass.tolist()) if m > 0}
    return _trial_report(
        "offline-budgeted" if budgeted else "offline", x, plan.alpha, beta,
        gamma_offline(plan.alpha, beta), seed, values, counts, expected,
    )


def _replay_prefix(model: IidModel, buyer: np.ndarray, types: np.ndarray):
    """The lowest row of a block of decision sequences in which a prefix
    breaks a buyer's constraint, or None when no row does.

    In row r, arrival k has the type model.types[types[r, k]] and went to
    the buyer model.buyers[buyer[r, k]], or to none when that is -1; a
    prefix holds when each buyer's sum of scaled excesses (Instance.scaled
    of model.inst) is >= 0.  An arrival along a non-edge, or to the index
    past the last buyer, breaks its row.  Each buyer's running sum runs
    along the rows in time order, in int64, or in Python ints when a bound
    computed from the model reaches 2**63."""
    excess, nb, width = model.inst.scaled[1], len(model.buyers), max(buyer.shape[1], 1)
    # a broken arrival steps below anything the rest of its row can make up;
    # every entry, and every sum of up to width of them, lies within width * -low
    low = -width * max(map(abs, excess.values()), default=0) - 1
    table = np.array([[excess.get((i, j), low) for j in model.buyers] + [low, 0]
                      for i in model.types], dtype=state_dtype(width * -low))
    to = np.where(buyer < 0, nb + 1, np.minimum(buyer, nb))
    step = table.ravel()[types * (nb + 2) + to]
    # a running sum from 0 falls below 0 only at a negative step, so only
    # the buyers (index nb included) that take one are summed
    bad = np.zeros(len(to), dtype=bool)
    for j in np.flatnonzero(np.bincount(to[step < 0], minlength=nb + 2)):
        bad |= (np.cumsum(np.where(to == j, step, 0), axis=1) < 0).any(1)
    bad = np.flatnonzero(bad)
    return int(bad[0]) if len(bad) else None


def verify_prefix_feasibility(model: IidModel, trace) -> bool:
    """Exact check that every decision kept every buyer's constraint: the
    prefix replay of a block of one row."""
    buyers, types = list(model.buyers), list(model.types)
    kept = np.array([(buyers.index(rec.bundle[0]) if rec.bundle[0] in buyers else len(buyers),
                      types.index(rec.type))
                     for rec in trace if rec.reason in ("opened", "singleton+permissible")],
                    dtype=np.int64).reshape(-1, 2).T
    return _replay_prefix(model, kept[:1], kept[1:]) is None


def run_online_trials(
    model: IidModel,
    x: BundleLpSolution,
    alpha: float | None,
    beta: float,
    seed: int,
    trials: int,
) -> TrialReport:
    """Monte-Carlo over the online rounding on sampled streams; aborts
    unless every prefix of every trial is feasible."""
    _check_run(beta, trials)
    plan = OnlinePlan(model, x, alpha)
    nt, nb, half = len(model.types), len(model.buyers), plan.half
    values, open_counts = [], np.zeros(half * nt * nb, dtype=np.int64)
    for start, (opener, hit, joined, value, arrivals) in plan.run_trials(seed, trials):
        # the buyer of each arrival; a join to no open bundle goes to the
        # index nb, which the replay rejects
        joiner = np.take_along_axis(opener, np.maximum(hit, 0), 1)
        joiner[(hit < 0) | (joiner < 0)] = nb
        row = _replay_prefix(model, np.hstack([opener, np.where(joined, joiner, -1)]), arrivals)
        if row is not None:
            raise RuntimeError(f"trial {start + row} violated a prefix constraint")
        values += [v / model.inst.scale for v in value.tolist()]
        rows, slots = np.nonzero(opener >= 0)
        code = (slots * nt + arrivals[rows, slots]) * nb + opener[rows, slots]
        open_counts += np.bincount(code, minlength=open_counts.size)
    # open_counts is indexed by (t_open - 1, type, buyer) in row-major order
    opened = np.flatnonzero(open_counts)
    counts = {f"{model.buyers[k % nb]}|{model.types[k // nb % nt]}|{k // (nb * nt) + 1}": c
              for k, c in zip(opened.tolist(), open_counts[opened].tolist())}
    T = model.horizon
    openers = [(x.keys[c], float(v)) for c, v in x.x.items()]
    expected = {f"{j}|{p}|{t_open}": f / T
                for (i, j, p), f in openers if i == p and f > 0 for t_open in range(1, half + 1)}
    return _trial_report(
        "online", x, plan.alpha, beta, gamma_online(plan.alpha, beta), seed, values,
        counts, expected,
    )


# ---------------------------------------------------------------------------
# report files


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(doc, (list, tuple)):
        for k, v in enumerate(doc):
            rows.extend(_flatten(v, f"{prefix}{k}."))
    else:
        rows.append((prefix[:-1], doc))
    return rows


def write_report_csv(doc: dict, path):
    rows = _flatten(doc)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["key", "value"])
        for k, v in rows:
            w.writerow([k, v])


def bench_examples(trials: int = 10_000, seed: int = 0) -> dict:
    """Assemble the headline numbers of the verification battery into one
    reproducible report (a compact mirror of the acceptance suite)."""
    from .generators import (
        gen_adversarial_T,
        gen_genava_clique,
        gen_integrality_gap,
        gen_iid_lower_bound,
        gen_max_coverage,
        gen_supply_example,
        gen_tightness_example,
    )
    from .bundling import duplicate_supply
    from .lp_models import (
        build_bundle_lp,
        build_naive_lp,
        build_opton_lp,
        build_optoff_lp,
        compute_kappa,
        solve_model_lp,
    )
    from .lp import solve_lp
    from .oracles import exact_bundling_opt, exact_opt

    report = {"suite": "examples", "trials": trials, "seed": seed}

    naive = {}
    for n in (2, 3, 4, 5):
        inst = gen_integrality_gap(n, Fraction(1, 10))
        sol = solve_lp(build_naive_lp(inst))
        opt, _ = exact_opt(inst)
        naive[str(n)] = {
            "lp": float(sol.exact_objective),
            "opt": float(opt),
            "ratio": float(sol.exact_objective / opt),
        }
    report["naive_lp_gap"] = naive

    gap3 = gen_integrality_gap(3, Fraction(1, 10))
    bundle_sol = solve_model_lp(build_bundle_lp(gap3))
    opt3, _ = exact_opt(gap3)
    report["bundle_lp_n3"] = {"lp": float(bundle_sol.objective), "opt": float(opt3)}

    tight = {}
    for eps in (Fraction(1, 2), Fraction(1, 5)):
        inst = gen_tightness_example(eps)
        opt, _ = exact_opt(inst)
        bopt, _ = exact_bundling_opt(inst)
        tight[str(eps)] = {"opt": float(opt), "bundling_opt": float(bopt),
                           "ratio": float(opt / bopt)}
    report["bundling_tightness"] = tight

    supply = gen_supply_example(3, Fraction(1, 100))
    base_opt, _ = exact_opt(supply)
    dup_opt, _ = exact_opt(duplicate_supply(supply, 3))
    report["supply"] = {"base_opt": float(base_opt), "dup3_opt": float(dup_opt)}

    off = run_offline_trials(
        gap3, bundle_sol, alpha=0.3, beta=0.156, seed=seed, trials=trials
    )
    report["offline_rounding_gap_n3"] = off.to_json_dict()

    model = gen_iid_lower_bound(20)
    on_lp = solve_model_lp(build_opton_lp(model))
    on = run_online_trials(
        model, on_lp, alpha=0.64, beta=0.0766, seed=seed, trials=trials
    )
    report["online_rounding_iid_T20"] = on.to_json_dict()

    adv, _order = gen_adversarial_T(5, Fraction(1, 20))
    greedy_val = allocation_value(adv, greedy_p_only(adv))
    adv_opt, _ = exact_opt(adv)
    report["adversarial_T5"] = {"greedy": float(greedy_val), "opt": float(adv_opt)}

    yes = gen_max_coverage([["e1", "e2"], ["e3", "e4"]], k=2, eps=Fraction(1, 10))
    yes_opt, _ = exact_opt(yes)
    no = gen_max_coverage(
        [["e1", "e2"], ["e1", "e3"], ["e1", "e4"]], k=2, eps=Fraction(1, 10)
    )
    no_opt, _ = exact_opt(no)
    report["max_coverage"] = {"yes_opt": float(yes_opt), "no_opt": float(no_opt)}

    tri = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    tri_opt, _ = exact_opt(tri)
    p3 = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c")])
    p3_opt, _ = exact_opt(p3)
    report["clique_reduction"] = {"triangle_opt": float(tri_opt), "path3_opt": float(p3_opt)}

    voff = solve_model_lp(build_optoff_lp(model, 1)).objective
    report["arrival_lps_T20"] = {
        "v_on": float(on_lp.objective),
        "v_off": float(voff),
        "kappa": compute_kappa(1, 20),
        "kappa_1_1000": compute_kappa(1, 1000),
    }
    return report


BENCH_SUITES = {"examples": bench_examples}
