"""The benchmark's workloads: their inputs, timed operations and checks.

Every workload solves or rounds a fixed set of instances made by the
package's own generators with generator seed ``INSTANCE_SEED``; the run's
``--seed`` drives the Monte-Carlo trials and the battery.  Independent
instance draws were tried and rejected: on the bundle LP with 32 items the
certified solve took 4.1 s to 7.9 s over generator seeds 0..9 (and 6.2 s to
8.2 s over relabelings of one instance), so the seed, not the code, would
decide the measured time.

An operation (``Op``) is one certified LP, one ``run_*_trials`` call or one
battery report.  ``run`` is timed; ``check`` runs outside the timed region,
raises ``CheckFailed`` on a wrong output, and returns the exact counters
that must repeat on every pass.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

INSTANCE_SEED = 1
OFFLINE_TRIALS = 500
ONLINE_TRIALS = 200
BATTERY_TRIALS = 10_000
OFFLINE_BETA = 0.156
ONLINE_ALPHA, ONLINE_BETA = 0.64, 0.0766
SMALL_LP_VARS = 200
HIGHS_REL_TOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Battery fields that change with the Monte-Carlo seed; the rest of the
# report is the same for every seed.
SEED_DEPENDENT = frozenset(
    {"seed", "mean", "stddev", "ci95_lo", "ci95_hi", "min", "ratio_lp_over_mean", "open_rates"}
)
ROUNDING_SECTIONS = ("offline_rounding_gap_n3", "online_rounding_iid_T20")


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], list]
    extra_metrics: Callable[[dict, dict], dict]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


# -- lp-ladder ---------------------------------------------------------------


def ladder_inputs():
    """(name, builder, input) for each rung, smallest bundle LP first."""
    from avalloc import generators, lp_models

    s = INSTANCE_SEED
    arrivals = generators.gen_iid_lower_bound(40)
    return [
        ("bundle-12", lp_models.build_bundle_lp,
         generators.gen_random(12, 8, s, unambiguous=True)),
        ("bundle-20", lp_models.build_bundle_lp,
         generators.gen_random(20, 8, s, unambiguous=True)),
        ("bundle-32", lp_models.build_bundle_lp,
         generators.gen_random(32, 8, s, unambiguous=True)),
        ("budgeted-20", lp_models.build_bundle_lp_budgeted,
         generators.gen_random(20, 6, s, unambiguous=True, budget_resources=2)),
        ("naive-20", lp_models.build_naive_lp, generators.gen_random(20, 8, s)),
        ("opton-40", lp_models.build_opton_lp, arrivals),
        ("optoff-40", lambda m: lp_models.build_optoff_lp(m, 1), arrivals),
    ]


def lp_shape(lp) -> dict:
    """Shape of an LP; nonzeros are counted from each row's stored
    coefficients, whether the row is a dense list or a mapping."""
    nnz = 0
    for coeffs, _rel, _rhs in lp.rows:
        values = coeffs.values() if hasattr(coeffs, "values") else coeffs
        nnz += sum(1 for a in values if a)
    return {"n_vars": lp.n_vars, "n_rows": lp.n_rows, "nnz": nnz}


def highs_objective(lp) -> float:
    """Optimum of the same LP by scipy's HiGHS, the test suite's reference
    solver."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, vstack

    def matrix(rows, sign):
        data, cols, ptr = [], [], [0]
        for coeffs, _rel, _rhs in rows:
            items = coeffs.items() if hasattr(coeffs, "items") else enumerate(coeffs)
            for k, a in items:
                if a:
                    data.append(sign * float(a))
                    cols.append(k)
            ptr.append(len(data))
        return csr_matrix((data, cols, ptr), shape=(len(rows), lp.n_vars))

    le = [r for r in lp.rows if r[1] == "<="]
    ge = [r for r in lp.rows if r[1] == ">="]
    eq = [r for r in lp.rows if r[1] == "=="]
    a_ub = vstack([matrix(le, 1.0), matrix(ge, -1.0)]) if le or ge else None
    b_ub = [float(r[2]) for r in le] + [-float(r[2]) for r in ge]
    ubs = lp.upper_bounds or [None] * lp.n_vars
    res = linprog(
        c=-np.array([float(c) for c in lp.objective]),
        A_ub=a_ub, b_ub=b_ub or None,
        A_eq=matrix(eq, 1.0) if eq else None,
        b_eq=[float(r[2]) for r in eq] or None,
        bounds=[(0, None if u is None else float(u)) for u in ubs],
        method="highs",
    )
    if res.status != 0:
        raise CheckFailed(f"HiGHS did not solve the LP: {res.message}")
    return -res.fun


def ladder_op(name, builder, inp, reference_objective) -> Op:
    """Build plus certified solve of one rung, checked against HiGHS and
    against the exact optimum recorded for the rung."""
    from avalloc import lp as lp_module

    highs = {}

    def run():
        lp = builder(inp)
        return lp, lp_module.solve_lp(lp)

    def check(out):
        lp, sol = out
        if sol.status != "optimal":
            raise CheckFailed(f"status {sol.status}")
        obj = sol.exact_objective
        if not isinstance(obj, Fraction):
            raise CheckFailed(f"objective {obj!r} is not certified exactly")
        if "value" not in highs:
            highs["value"] = highs_objective(lp)
        ref = highs["value"]
        if abs(float(obj) - ref) > HIGHS_REL_TOL * max(1.0, abs(ref)):
            raise CheckFailed(f"exact objective {obj} differs from HiGHS {ref!r}")
        if str(obj) != reference_objective:
            raise CheckFailed(f"exact objective {obj} differs from recorded {reference_objective}")
        return {**lp_shape(lp), "iterations": sol.iterations, "objective": str(obj)}

    return Op(name, run, check)


def setup_ladder(_seed, _workdir):
    refs = load_reference()["lp-ladder"]
    return [ladder_op(name, b, inp, refs[name]) for name, b, inp in ladder_inputs()]


def ladder_metrics(op_s, counters):
    small = [n for n, c in counters.items() if c["n_vars"] < SMALL_LP_VARS]
    large = max(counters, key=lambda n: counters[n]["n_vars"])
    passes = len(op_s[large])
    return {
        "lp_large_s": (statistics.median(op_s[large]), "s"),
        "lp_small_s": (statistics.median(
            sum(op_s[n][k] for n in small) for k in range(passes)), "s"),
    }


# -- Monte-Carlo workloads ----------------------------------------------------


def trials_check(trials, lp_solution, bounded_by_lp) -> Callable:
    """Exact-feasibility count, trial count and LP value of one report; the
    whole deterministic report is the counter that must repeat."""
    obj = lp_solution.objective
    exact = f"{obj.numerator}/{obj.denominator}"

    def check(report):
        doc = report.to_json_dict()
        if doc["trials"] != trials or doc["feasible_count"] != trials:
            raise CheckFailed(
                f"{doc['feasible_count']} of {doc['trials']} trials feasible, {trials} run")
        if doc["lp_value_exact"] != exact:
            raise CheckFailed(f"report LP value {doc['lp_value_exact']} is not {exact}")
        if bounded_by_lp and doc["mean"] > doc["lp_value"] * (1 + 1e-12):
            raise CheckFailed(f"mean {doc['mean']} exceeds the LP bound {doc['lp_value']}")
        return doc

    return check


def setup_offline(seed, _workdir):
    from avalloc import generators, harness, lp_models

    s = INSTANCE_SEED
    plain = generators.gen_random(20, 8, s, unambiguous=True)
    plain_x = lp_models.solve_model_lp(lp_models.build_bundle_lp(plain))
    budgeted = generators.gen_random(20, 6, s, unambiguous=True, budget_resources=2)
    budgeted_x = lp_models.solve_model_lp(lp_models.build_bundle_lp_budgeted(budgeted))
    return [
        Op("plain",
           lambda: harness.run_offline_trials(
               plain, plain_x, None, OFFLINE_BETA, seed, OFFLINE_TRIALS),
           trials_check(OFFLINE_TRIALS, plain_x, bounded_by_lp=True)),
        Op("budgeted",
           lambda: harness.run_offline_trials(
               budgeted, budgeted_x, None, OFFLINE_BETA, seed, OFFLINE_TRIALS, budgeted=True),
           trials_check(OFFLINE_TRIALS, budgeted_x, bounded_by_lp=True)),
    ]


def offline_metrics(op_s, _counters):
    return {
        "trials_per_s": (OFFLINE_TRIALS / statistics.median(op_s["plain"]), "trials/s"),
        "budgeted_trials_per_s": (
            OFFLINE_TRIALS / statistics.median(op_s["budgeted"]), "trials/s"),
    }


def setup_online(seed, _workdir):
    from avalloc import generators, harness, lp_models

    model = generators.gen_random_iid_model(8, 5, 100, INSTANCE_SEED)
    x = lp_models.solve_model_lp(lp_models.build_opton_lp(model))
    # the online LP bounds the expected optimum, not each stream's, so the
    # sample mean is not checked against it
    return [Op("online",
               lambda: harness.run_online_trials(
                   model, x, ONLINE_ALPHA, ONLINE_BETA, seed, ONLINE_TRIALS),
               trials_check(ONLINE_TRIALS, x, bounded_by_lp=False))]


def online_metrics(op_s, _counters):
    return {"trials_per_s": (ONLINE_TRIALS / statistics.median(op_s["online"]), "trials/s")}


# -- battery -----------------------------------------------------------------


def compare_report(reference, report, seed_dependent_too: bool, path="") -> None:
    """Every field of ``reference`` must be present and equal in
    ``report``; fields added to reports later are ignored."""
    for key, want in reference.items():
        if key in SEED_DEPENDENT and not seed_dependent_too:
            continue
        where = f"{path}.{key}" if path else key
        if key not in report:
            raise CheckFailed(f"report lacks {where}")
        got = report[key]
        if isinstance(want, dict) and isinstance(got, dict):
            compare_report(want, got, seed_dependent_too, where)
        elif got != want:
            raise CheckFailed(f"{where} is {got!r}, recorded {want!r}")


def battery_check(json_path: Path, seed: int, reference: dict) -> Callable:
    def check(exit_code):
        if exit_code != 0:
            raise CheckFailed(f"avalloc bench exited with {exit_code}")
        with open(json_path) as f:
            doc = json.load(f)
        with open(json_path.with_suffix(".csv"), newline="") as f:
            header = next(csv.reader(f))
        if header != ["key", "value"]:
            raise CheckFailed(f"CSV header {header}")
        compare_report(reference, doc, seed_dependent_too=seed == reference["seed"])
        for section in ROUNDING_SECTIONS:
            rep = doc[section]
            if rep["feasible_count"] != rep["trials"] or rep["trials"] != BATTERY_TRIALS:
                raise CheckFailed(f"{section}: {rep['feasible_count']} of {rep['trials']} feasible")
        return doc

    return check


def setup_battery(seed, workdir):
    from avalloc import cli

    out = workdir / "battery.json"
    argv = ["bench", "--suite", "examples", "--trials", str(BATTERY_TRIALS),
            "--seed", str(seed), "-o", str(out)]

    def run():
        out.unlink(missing_ok=True)  # the check must read this pass's report
        return cli.main(argv)

    return [Op("battery", run, battery_check(out, seed, load_reference()["battery"]))]


def no_metrics(_op_s, _counters):
    return {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lp-ladder",
            "stresses lp_models and lp: build and certified solve of 7 LPs up to 1271 vars; "
            "bypasses rounding and harness, so a rounding change should not move it",
            setup_ladder, ladder_metrics),
        Workload(
            "offline-mc",
            "stresses OfflinePlan.run and the harness's exact per-trial check, plain and "
            "budgeted; its LPs are solved in set-up, so an LP change moves only setup_s",
            setup_offline, offline_metrics),
        Workload(
            "online-mc",
            "stresses OnlinePlan.run, which rescans open bundles per arrival at T=100, and "
            "sample_stream; offline-mc bypasses both",
            setup_online, online_metrics),
        Workload(
            "battery",
            "avalloc bench --suite examples: the only workload where oracles and cli do "
            "real work; its T=20 rounding complements online-mc",
            setup_battery, no_metrics),
    )
}
