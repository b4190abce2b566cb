"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload offline-mc --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out results.json

For every end-to-end metric this prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread at or
above a third of the metric's bound is marked ``WIDE``.  Runs execute one
after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace, seconds) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", help="also write the summary as JSON to this file")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    summary = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        runs = [run_once(workload, s, args.trace, args.seconds) for s in parse_seeds(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        summary[workload] = {"failed": failed, "correct": all(r["correct"] for r in runs),
                             "metrics": {}}
        print(f"== {workload}: {len(runs)} runs, {failed} failed ops")
        for name in runs[0]["metrics"]:
            st = spread([r["metrics"][name]["value"] for r in runs])
            summary[workload]["metrics"][name] = st
            bound = bounds.get(name)
            flag = "WIDE" if bound is not None and st["spread"] >= bound / 3 else ""
            print(f"  {name:<14} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                  f"q3 {st['q3']:<12.6g} spread {st['spread']:.4f} {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
