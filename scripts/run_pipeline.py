"""End-to-end demo: dataset -> surrogate -> optimized signal timings.

Runs the whole pipeline on the two-intersection arterial fixture through the
command-line interface, every stage with the same --seed, so the dataset and
each validation start from the same initial state. It prints a comparison of
the optimized configuration against the best training run. Each optimized
configuration is saved as optimized_<target>.json, a lights file for
``simulate --lights``, with the optimize report as report_<target>.json;
optimized.json summarizes the search and names those files.

    python scripts/run_pipeline.py [--runs 60] [--jobs 4] [--seed 2024] [--out-dir out]
"""
from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from macrosim import cli
from macrosim._files import read_json, write_json
from macrosim.dataset import read_csv
from macrosim.metrics import DOCUMENT_KEYS
from macrosim.optimizer import TARGETS, best_training_row

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=60, help="training configurations to simulate")
    ap.add_argument("--jobs", type=int, default=4, help="worker processes for the dataset stage")
    ap.add_argument("--seed", type=int, default=2024, help="the --seed of every stage")
    ap.add_argument("--out-dir", type=pathlib.Path, default=ROOT / "out")
    args = ap.parse_args()
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    protocol = ["--network", str(ROOT / "fixtures" / "twolights.json"),
                "--init", str(ROOT / "fixtures" / "twolights_init.csv"), "--seed", str(args.seed)]
    data, model = str(out / "dataset.csv"), str(out / "surrogate.json")

    stages = [["gen-dataset", *protocol, "--runs", str(args.runs), "--jobs", str(args.jobs), "--out", data],
              ["train-surrogate", "--data", data, "--model", "linear", "--seed", str(args.seed), "--out", model]]
    stages += [["optimize", *protocol, "--model", model, "--objective", target, "--data", data, "--validate",
                "--out", str(out / f"optimized_{target}.json"), "--report", str(out / f"report_{target}.json")]
               for target in TARGETS]
    for argv in stages:
        if cli.main(argv) != 0:
            return 1

    rows = read_csv(data)
    summary = {}
    for target, (metric, direction) in TARGETS.items():
        report = read_json(out / f"report_{target}.json")
        got = report["simulated"][DOCUMENT_KEYS[metric]]
        ref = getattr(best_training_row(rows, target), metric)
        verdict = "beats" if (got >= ref if direction == "maximize" else got <= ref) else "misses"
        print(f"{target:>5}: optimized {got:.4f} {verdict} training best {ref:.4f}")
        summary[target] = {"config_file": f"optimized_{target}.json", "predicted": report["predicted"],
                           "simulated": report["simulated"], "training_best": ref}
    write_json(summary, out / "optimized.json")
    print(f"report -> {out / 'optimized.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
