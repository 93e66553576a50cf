"""End-to-end demo: dataset -> surrogate -> optimized signal timings.

Runs the whole pipeline on the two-intersection arterial fixture and prints
a comparison of the optimized configuration against the best training run.
Each optimized configuration is saved as optimized_<target>.json, a lights
file for ``simulate --lights``; optimized.json summarizes the search and
names those files. Everything is seeded; re-running reproduces the same
numbers.

    python scripts/run_pipeline.py [--runs 60] [--jobs 4] [--out-dir out]
"""
from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from macrosim._files import write_json
from macrosim.dataset import feature_matrix, generate, write_csv
from macrosim.network import load_network
from macrosim.optimizer import (
    TARGETS, DeConfig, best_training_row, optimize_config, surrogate_objective, validate_config,
)
from macrosim.signals import save_config
from macrosim.solver import SimParams, initialize, read_speeds_csv
from macrosim.surrogate import fit_linear, kfold_rmse, save_model

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=60, help="training configurations to simulate")
    ap.add_argument("--jobs", type=int, default=4, help="worker processes for the dataset stage")
    ap.add_argument("--seed", type=int, default=2024, help="master seed for configuration sampling")
    ap.add_argument("--out-dir", type=pathlib.Path, default=ROOT / "out")
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    net = load_network(ROOT / "fixtures" / "twolights.json")
    speeds, default = read_speeds_csv(ROOT / "fixtures" / "twolights_init.csv")
    params = SimParams(seed=0)
    state0 = initialize(net, speeds, params, default_speed=default)

    t0 = time.perf_counter()
    rows = generate(net, state0, params, n_runs=args.runs, seed=args.seed, workers=args.jobs)
    write_csv(rows, args.out_dir / "dataset.csv")
    ok = [r for r in rows if r.ok]
    print(f"[1/3] dataset: {len(ok)}/{len(rows)} runs ok in {time.perf_counter() - t0:.1f} s "
          f"-> {args.out_dir / 'dataset.csv'}")

    X, Y, ids = feature_matrix(rows)
    model = fit_linear(X, Y, feature_ids=ids)
    save_model(model, args.out_dir / "surrogate.json")
    _, rmse = kfold_rmse(lambda Xt, Yt: fit_linear(Xt, Yt, feature_ids=ids), X, Y, k=5, seed=0)
    print(f"[2/3] linear surrogate on {X.shape[0]} rows, 5-fold RMSE {rmse:.4f} "
          f"-> {args.out_dir / 'surrogate.json'}")

    report = {}
    for target, (metric, direction) in TARGETS.items():
        opt = optimize_config(net, surrogate_objective(model, target), DeConfig(seed=0), training_rows=rows)
        metrics = validate_config(net, state0, params, opt.config)
        got = getattr(metrics, metric)
        ref = getattr(best_training_row(rows, target), metric)
        verdict = "beats" if (got >= ref if direction == "maximize" else got <= ref) else "misses"
        config_file = f"optimized_{target}.json"
        save_config(opt.config, args.out_dir / config_file)
        print(f"[3/3] {target:>5}: optimized {got:.4f} {verdict} training best {ref:.4f}  "
              f"config {{{', '.join(f'{k}: {v.red}/{v.green}/{v.offset}' for k, v in sorted(opt.config.items()))}}} "
              f"-> {args.out_dir / config_file}")
        report[target] = {
            "config_file": config_file,
            "predicted": opt.predicted,
            "simulated": {"avg_speed": metrics.avg_speed, "queue_length": metrics.queue_length},
            "training_best": ref,
        }
    write_json(report, args.out_dir / "optimized.json")
    print(f"report -> {args.out_dir / 'optimized.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
