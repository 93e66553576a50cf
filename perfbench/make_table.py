"""Regenerate the training table read by the twolights-surrogate workload.

Run from the repository root:  python3 perfbench/make_table.py

The table is committed so that the surrogate workload simulates nothing.
The exact call that makes it is RECIPE below; it is also written next to the
table as twolights_train.recipe.json. Results do not depend on the worker
count, so re-running gives a bit-identical table for as long as the solver's
results do not change.
"""
from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TABLE = HERE / "data" / "twolights_train.csv"

RECIPE = {
    "call": (
        "dataset.generate(load_network('fixtures/twolights.json'), "
        "initialize(net, *read_speeds_csv('fixtures/twolights_init.csv'), SimParams(seed=0)), "
        "SimParams(seed=0), n_runs=100, seed=2024, workers=2, horizon=340.0, warmup=100.0)"
    ),
    "network": "fixtures/twolights.json",
    "init": "fixtures/twolights_init.csv",
    "sim_params": {"seed": 0},
    "n_runs": 100,
    "seed": 2024,
    "horizon": 340.0,
    "warmup": 100.0,
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from macrosim import dataset, solver
    from macrosim.network import load_network

    net = load_network(ROOT / RECIPE["network"])
    speeds, default = solver.read_speeds_csv(ROOT / RECIPE["init"])
    params = solver.SimParams(**RECIPE["sim_params"])
    state0 = solver.initialize(net, speeds, params, default_speed=default)
    rows = dataset.generate(
        net, state0, params, n_runs=RECIPE["n_runs"], seed=RECIPE["seed"], workers=2,
        horizon=RECIPE["horizon"], warmup=RECIPE["warmup"],
    )
    TABLE.parent.mkdir(exist_ok=True)
    dataset.write_csv(rows, TABLE)
    with open(TABLE.with_suffix(".recipe.json"), "w") as fh:
        json.dump(RECIPE, fh, indent=2)
        fh.write("\n")
    failed = sum(1 for r in rows if not r.ok)
    print(f"wrote {len(rows)} rows ({failed} failed) -> {TABLE.relative_to(ROOT)}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
