"""Run every workload over several seeds and summarise the spread of each metric.

From the repository root:

    python3 perfbench/collect.py
    python3 perfbench/collect.py --trace-seed 1 --out perfbench/results/baseline.json

It runs every workload of BENCHMARK.json with seeds 1-10 for run_seconds
each. For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles with n=4) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound,
and flags every spread that is not below a third of its bound. With
--trace-seed it also makes one traced run per workload and prints the
per-layer metrics. With --out it writes every run's record. Runs one after
another, never two at once.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if not result["correct"]:
        print(f"  {workload} seed {seed}: INCORRECT {record['problems']}", file=sys.stderr)
    return {"result": result, "record": record}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-seed", type=int, default=None, help="also make one traced run with this seed")
    parser.add_argument("--out", default=None, help="write every run's record and the summary here")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    doc = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    correct = steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, workload, seed, 0, seconds))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
        entry = {"env": runs[0]["record"]["env"], "runs": [r["record"] for r in runs], "summary": {}}
        print(f"\n{workload}: {len(SEEDS)} runs of {seconds} s")
        print(f"  {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, m in bounds.items():
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            entry["summary"][name] = {**s, "unit": m["unit"], "bound": m["bound"]}
            below = s["spread"] < m["bound"] / 3
            steady &= below
            print(f"  {name:14s} {m['unit']:5s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.2%} {m['bound']:6.0%}{'' if below else '  (spread not below a third of the bound)'}")
        correct &= all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)
        if args.trace_seed is not None:
            traced = run_once(spec, workload, args.trace_seed, 1, seconds)
            entry["trace"] = traced["record"]
            correct &= traced["result"]["correct"]
            print(f"  traced run, seed {args.trace_seed}:")
            for name, m in traced["result"]["metrics"].items():
                print(f"    {name:40s} {m['value']:.6g} {m['unit']}")
        doc["workloads"][workload] = entry
        print(flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print("all runs correct" if correct else "SOME RUNS NOT CORRECT")
    print("every spread below a third of its bound" if steady else "SOME SPREADS NOT BELOW A THIRD OF THEIR BOUND")
    return 0 if correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
