"""Command-line interface tying the toolkit together.

Subcommands: gen (instance/model families), solve (rounding and greedy
algorithms), exact (brute-force oracles), lp (build and solve any of the
relaxations), online (Monte-Carlo of the online rounding), bench (named
report suites), export-gap.  Exit codes: 0 success, 2 validation or usage
error, 3 an oracle's size limit (work, subset table width, GAP elements or
bins), a pivot limit or memory exceeded.  The default seed is 0.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import bundling, gap, generators, genava, harness, oracles, rounding
from .core import (
    allocation_value,
    exact_text,
    id_order,
    instance_to_dict,
    is_feasible,
    load_instance,
    to_fraction,
    write_json,
)
from .errors import AvallocError, PivotLimit, TooLarge
from .lp import lp_to_text, solve_lp
from .lp_models import (
    IidModel,
    build_bundle_lp,
    build_bundle_lp_budgeted,
    build_naive_lp,
    build_opton_lp,
    build_optoff_lp,
    load_model,
    model_to_dict,
    solve_model_lp,
)


def _to_stdout(path) -> bool:
    return path is None or path == "-"


def _emit(doc, path):
    """Write doc to the file at path, or to stdout when path is None or "-"."""
    write_json(doc, sys.stdout if _to_stdout(path) else path)


def _write_text(text: str, path):
    """Write text to the file at path, or to stdout when path is "-"."""
    if _to_stdout(path):
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _frac_fields(x) -> dict:
    return {"value": float(x), "value_exact": exact_text(x)}


def _by_id(d: dict) -> dict:
    """d with its keys, item or buyer ids, in id order."""
    return dict(sorted(d.items(), key=lambda kv: id_order(kv[0])))


def _bundles_doc(bundling) -> list:
    return [{"buyer": b.buyer, "p_item": b.p_item, "n_items": sorted(b.n_items, key=id_order)}
            for b in bundling.bundles]


# -- gen ---------------------------------------------------------------------


def _parse_sets(spec: str):
    return [group.split(",") for group in spec.split(";") if group]


def _parse_edges(spec: str):
    out = []
    for token in spec.split(","):
        if not token:
            continue
        u, _, v = token.partition("-")
        out.append((u, v))
    return out


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "integrality-gap":
        out = generators.gen_integrality_gap(args.n, args.eps)
    elif fam == "supply":
        out = generators.gen_supply_example(args.k, args.eps)
    elif fam == "tightness":
        out = generators.gen_tightness_example(args.eps)
    elif fam == "max-coverage":
        out = generators.gen_max_coverage(_parse_sets(args.sets), args.k, args.eps)
    elif fam == "genava-clique":
        out = generators.gen_genava_clique(
            args.vertices.split(","), _parse_edges(args.edges), args.eps
        )
    elif fam == "iid-lower-bound":
        out = generators.gen_iid_lower_bound(args.T)
    elif fam == "adversarial":
        # declaration order is the arrival order
        out, _order = generators.gen_adversarial_T(args.T, args.eps)
    elif fam == "random":
        out = generators.gen_random(
            args.items,
            args.buyers,
            seed=args.seed,
            edge_density=args.edge_density,
            p_density=args.p_density,
            unambiguous=args.unambiguous,
            budget_resources=args.budget_resources,
            bid_frac=args.bid_frac,
        )
    elif fam == "random-iid":
        out = generators.gen_random_iid_model(args.types, args.buyers, args.T, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {fam!r}")
    _emit(model_to_dict(out) if isinstance(out, IidModel) else instance_to_dict(out), args.output)
    return 0


# -- solve --------------------------------------------------------------------


def _allocation_doc(inst, alloc, extra=None) -> dict:
    value = allocation_value(inst, alloc)
    doc = {
        "assignment": _by_id(alloc.assignment),
        "feasible": bool(is_feasible(inst, alloc)),
    }
    doc.update(_frac_fields(value))
    if extra:
        doc.update(extra)
    return doc


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    seed = args.seed
    if args.algo in ("bundle-round", "bundle-round-budgeted"):
        rounding.check_unit_interval("beta", args.beta)
        budgeted = args.algo == "bundle-round-budgeted"
        work = inst
        if not inst.is_unambiguous():
            work = bundling.make_unambiguous_random(inst, random.Random(seed))
        lp = build_bundle_lp_budgeted(work) if budgeted else build_bundle_lp(work)
        x = solve_model_lp(lp)
        plan = rounding.OfflinePlan(work, x, args.alpha, budgeted=budgeted)
        opened, _value = plan.run(seed)
        out = plan.to_bundled(opened)
        doc = _allocation_doc(
            work,
            out.to_allocation(),
            {
                "algo": args.algo,
                "seed": seed,
                "alpha": plan.alpha,
                "beta": args.beta,
                "gamma": rounding.gamma_offline(plan.alpha, args.beta),
                "lp_value": float(x.objective),
                "bundles": _bundles_doc(out),
            },
        )
    elif args.algo == "greedy-p":
        alloc = genava.greedy_p_only(inst)
        doc = _allocation_doc(inst, alloc, {"algo": args.algo})
    elif args.algo == "bicriteria":
        alloc = genava.genava_bicriteria_greedy(inst, args.eps)
        ratios = genava.bicriteria_cost_ratio(inst, alloc)
        doc = {
            "algo": args.algo,
            "eps": float(to_fraction(args.eps)),
            "assignment": _by_id(alloc.assignment),
            "cost_over_value": {
                j: (None if r is None else float(r)) for j, r in _by_id(ratios).items()
            },
        }
        doc.update(_frac_fields(allocation_value(inst, alloc)))
    elif args.algo == "single-buyer":
        alloc = genava.genava_single_buyer(inst)
        doc = _allocation_doc(inst, alloc, {"algo": args.algo})
    else:  # pragma: no cover
        raise ValueError(f"unknown algorithm {args.algo!r}")
    _emit(doc, args.output)
    return 0


# -- exact --------------------------------------------------------------------


def _cmd_exact(args) -> int:
    inst = load_instance(args.instance)
    value, alloc = oracles.exact_opt(inst, max_states=args.limit)
    doc = {"opt": _frac_fields(value), "assignment": _by_id(alloc.assignment)}
    if args.bundling:
        bval, bopt = oracles.exact_bundling_opt(inst, max_states=args.limit)
        doc["bundling_opt"] = _frac_fields(bval)
        doc["bundles"] = _bundles_doc(bopt)
    if args.gap:
        gap_inst = gap.export_gap(inst)
        doc["gap_opt"] = _frac_fields(oracles.exact_gap_opt(gap_inst))
    _emit(doc, args.output)
    return 0


# -- lp -----------------------------------------------------------------------


def _cmd_lp(args) -> int:
    if args.which in ("opton", "optoff"):
        model = load_model(args.instance)
        if args.which == "opton":
            lp = build_opton_lp(model)
        else:
            lp = build_optoff_lp(model, args.gamma_floor)
    else:
        inst = load_instance(args.instance)
        if args.which == "naive":
            lp = build_naive_lp(inst)
        elif args.which == "bundle":
            lp = build_bundle_lp(inst)
        else:
            lp = build_bundle_lp_budgeted(inst)
    if args.export:
        _write_text(lp_to_text(lp), args.export)
    sol = solve_lp(lp)
    doc = {"which": args.which, "status": sol.status,
           "n_vars": lp.n_vars, "n_rows": lp.n_rows, "iterations": sol.iterations,
           "exact_pivots": sol.exact_pivots, "restarted": sol.restarted,
           "rounds": sol.rounds, "columns": sol.columns}
    if sol.status == "optimal":
        doc.update(_frac_fields(sol.exact_objective))
    _emit(doc, args.output)
    return 0


# -- online ---------------------------------------------------------------


def _cmd_online(args) -> int:
    model = load_model(args.model)
    seed = args.seed
    x = solve_model_lp(build_opton_lp(model))
    report = harness.run_online_trials(
        model, x, alpha=args.alpha, beta=args.beta, seed=seed, trials=args.trials
    )
    if args.trace:
        stream = rounding.sample_stream(model, seed, 0)
        params = rounding.RoundingParams(alpha=args.alpha, seed=rounding.derive_trial_seed(seed, 0))
        _out, trace = rounding.round_online(model, x, params, stream)
        _write_text("".join(json.dumps(rec.to_json()) + "\n" for rec in trace), args.trace)
    _emit(report.to_json_dict(), args.output)
    return 0


# -- bench / export-gap ----------------------------------------------------


def _cmd_bench(args) -> int:
    suite = harness.BENCH_SUITES[args.suite]
    report = suite(trials=args.trials, seed=args.seed)
    _emit(report, args.output)
    if not _to_stdout(args.output):
        csv_path = args.output
        csv_path = csv_path[:-5] + ".csv" if csv_path.endswith(".json") else csv_path + ".csv"
        harness.write_report_csv(report, csv_path)
    return 0


def _cmd_export_gap(args) -> int:
    inst = load_instance(args.instance)
    gap_inst = gap.export_gap(inst)
    doc = gap.gap_to_dict(gap_inst)
    _emit(doc, args.output)
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="avalloc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a named instance or model family")
    g.add_argument("family", choices=[
        "integrality-gap", "supply", "tightness", "max-coverage", "genava-clique",
        "iid-lower-bound", "adversarial", "random", "random-iid",
    ])
    g.add_argument("-n", type=int, default=3)
    g.add_argument("-k", type=int, default=2)
    g.add_argument("-T", type=int, default=10)
    g.add_argument("--eps", default="0.1",
                   help="the family's eps; for genava-clique, the exponent of M = 2|E|/n^eps")
    g.add_argument("--sets", default="e1,e2;e3,e4",
                   help="semicolon-separated element groups, e.g. 'e1,e2;e3,e4'")
    g.add_argument("--vertices", default="a,b,c")
    g.add_argument("--edges", default="a-b,b-c,a-c", help="comma-separated u-v pairs")
    g.add_argument("--items", type=int, default=6)
    g.add_argument("--buyers", type=int, default=3)
    g.add_argument("--types", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--edge-density", type=float, default=0.75)
    g.add_argument("--p-density", type=float, default=0.4)
    g.add_argument("--unambiguous", action="store_true")
    g.add_argument("--budget-resources", type=int, default=0)
    g.add_argument("--bid-frac", default="0.05")
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("solve", help="run an allocation algorithm on an instance file")
    s.add_argument("instance")
    s.add_argument("--algo", required=True, choices=[
        "bundle-round", "bundle-round-budgeted", "greedy-p", "bicriteria", "single-buyer",
    ])
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--beta", type=float, default=0.156)
    s.add_argument("--eps", default="0.1")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output")
    s.set_defaults(fn=_cmd_solve)

    e = sub.add_parser("exact", help="brute-force optimum of an instance file")
    e.add_argument("instance")
    e.add_argument("--bundling", action="store_true")
    e.add_argument("--gap", action="store_true")
    e.add_argument("--limit", type=int, default=oracles.DEFAULT_STATE_LIMIT,
                   help="most (state, subset) pairs the oracles' DP may walk")
    e.add_argument("-o", "--output")
    e.set_defaults(fn=_cmd_exact)

    l = sub.add_parser("lp", help="build and solve one of the relaxations")
    l.add_argument("instance", help="instance file (naive/bundle/budgeted) or model file")
    l.add_argument("--which", required=True,
                   choices=["naive", "bundle", "budgeted", "opton", "optoff"])
    l.add_argument("--gamma-floor", default="1")
    l.add_argument("--export", help="also write the LP in text form to this path")
    l.add_argument("-o", "--output")
    l.set_defaults(fn=_cmd_lp)

    o = sub.add_parser("online", help="Monte-Carlo of the online rounding on a model file")
    o.add_argument("--model", required=True)
    o.add_argument("--alpha", type=float, default=0.64)
    o.add_argument("--beta", type=float, default=0.0766)
    o.add_argument("--trials", type=int, default=1000)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--trace", help="write the first trial's decision records (JSONL)")
    o.add_argument("-o", "--output")
    o.set_defaults(fn=_cmd_online)

    b = sub.add_parser("bench", help="run a named report suite")
    b.add_argument("--suite", default="examples", choices=sorted(harness.BENCH_SUITES))
    b.add_argument("--trials", type=int, default=10_000)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("-o", "--output")
    b.set_defaults(fn=_cmd_bench)

    x = sub.add_parser("export-gap", help="write the partition-matroid GAP image")
    x.add_argument("instance")
    x.add_argument("-o", "--output")
    x.set_defaults(fn=_cmd_export_gap)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (TooLarge, PivotLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except (AvallocError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
