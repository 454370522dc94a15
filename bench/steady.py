"""Steadiness check: run each workload several times and report the spread.

    python3 bench/steady.py --runs 10     # every workload, seeds 1..10
    python3 bench/steady.py --trace       # traced runs: counts repeat?

For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json, and flags
a spread above a third of the bound.  It also prints the share of failed
operations of every run, which must be the same in all of them.

With ``--trace`` it instead makes two traced runs per workload with the
seed 1, checks that every count metric repeats exactly, and prints the
tracing overhead.  Runs are sequential, one ``run.py`` process at a time,
with the seeds of all workloads interleaved.  Every workload of
BENCHMARK.json is run, for ``run_seconds`` each time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(spec: dict, results: dict[str, list[dict]]) -> bool:
    steady = True
    print(f"{'workload':16s} {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "  <-- above bound/3" if spread > metric["bound"] / 3 else ""
            steady = steady and not flag
            print(f"{workload:16s} {metric['name']:12s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{spread:7.3f} {metric['bound']:6.2f}{flag}")
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        ratios = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        print(f"{workload:16s} failed/attempted {shares} -> {len(ratios)} distinct share(s); "
              f"correct in every run: {correct}")
        steady = steady and len(ratios) == 1 and correct
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true", help="check traced runs instead")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if args.trace:
        ok = True
        for workload in workloads:
            a, b = (run_once(workload, 1, seconds, 1) for _ in range(2))
            counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
            differ = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            overhead = [r["metrics"]["trace.overhead_pct"]["value"] for r in (a, b)]
            print(f"{workload:16s} {len(counts)} count metrics, {len(differ)} differ {differ}; "
                  f"tracing overhead {overhead[0]:.1f}% / {overhead[1]:.1f}%")
            ok = ok and not differ and a["correct"] and b["correct"]
    else:
        results: dict[str, list[dict]] = {w: [] for w in workloads}
        for seed in range(1, args.runs + 1):
            for workload in workloads:
                results[workload].append(run_once(workload, seed, seconds, 0))
                print(f"  ran {workload} seed {seed}", file=sys.stderr)
        ok = spread_table(spec, results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
