"""The benchmark's workloads: closed loops of calls into the macrosim library.

Each workload sets up its inputs from the benchmark seed, then runs
operations one after another; an operation starts only after the previous
one has returned. ``op(k)`` runs operation k and returns its wall time in
seconds, counting only the library calls; ``check(k)`` returns the problems
found in its outputs. ``trace(tracer)`` runs a fixed amount of work in
TRACE_ROUNDS rounds of one untraced and one traced operation on the same
inputs, and returns what the per-layer metrics need beyond the spans.

All simulations use the paper's protocol: 340 s horizon, 100 s warm-up,
dt = 0.5 s.
"""
from __future__ import annotations

import hashlib
import math
import os
import pathlib
import statistics
import time
from unittest import mock

import numpy as np

import gridnet
from macrosim import dataset, network, optimizer, signals, solver, surrogate
from macrosim.network import RoadNetwork

HORIZON_S = 340.0
WARMUP_S = 100.0
DT_S = 0.5

now = time.perf_counter


class SetupError(RuntimeError):
    """Raised when a workload's inputs are not what the benchmark expects."""


def child_seed(seed: int, k: int) -> int:
    """Independent seed for operation k of a run with the given benchmark seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def trace_targets():
    """(owner, attribute, span name) of every wrapped function, where its caller looks it up."""
    return [
        (solver, "run", "solver.run"),
        (solver, "virtual_boundaries", "solver.virtual_boundaries"),
        (solver, "step", "solver.step"),
        (solver, "edge_phases", "signals.edge_phases"),
        (solver, "step_metrics", "metrics.step_metrics"),
        (solver, "ideal_speed", "fundamental.ideal_speed"),
        (RoadNetwork, "fd_for", "network.fd_for"),
        (signals, "sample_config", "signals.sample_config"),
        (dataset, "sample_config", "signals.sample_config"),
        (dataset, "run", "dataset.run"),
        (surrogate, "fit_linear", "surrogate.fit_linear"),
        (surrogate, "fit_mlp", "surrogate.fit_mlp"),
        (surrogate, "kfold_rmse", "surrogate.kfold_rmse"),
        (surrogate, "grid_search_mlp", "surrogate.grid_search_mlp"),
        (optimizer, "optimize_config", "optimizer.optimize_config"),
        (optimizer, "differential_evolution", "optimizer.differential_evolution"),
        (optimizer.Objective, "internal", "optimizer.objective"),
        (optimizer, "predict", "surrogate.predict"),
    ]


def check_run(net, params: solver.SimParams, result: solver.RunResult) -> list[str]:
    """Range checks on one simulation's metrics and final state."""
    problems = []
    m = result.metrics
    v_max = max(e.free_flow_speed for e in net.edges.values())
    if not (math.isfinite(m.avg_speed) and math.isfinite(m.queue_length)):
        problems.append(f"non-finite metrics {m}")
    elif not (0.0 <= m.avg_speed <= v_max and 0.0 <= m.queue_length <= net.total_cells):
        problems.append(f"metrics out of range: avg_speed={m.avg_speed} queue={m.queue_length}")
    rho = result.final_state.rho
    if not (np.all(rho >= params.density_floor) and np.all(rho <= params.jam_density)):
        problems.append(f"final densities outside [{params.density_floor}, {params.jam_density}]")
    if result.steps != math.ceil(HORIZON_S / params.dt_s):
        problems.append(f"ran {result.steps} steps")
    return problems


class Workload:
    name = ""
    pool_workers = 0  # worker processes started by one operation
    min_ops = 1

    def __init__(self, root: pathlib.Path, seed: int, out_dir: pathlib.Path):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir

    def _load_twolights(self, phases: dict) -> None:
        """Shared twolights set-up: network, validation, initial state."""
        t0 = now()
        self.net = network.load_network(self.root / "fixtures" / "twolights.json")
        phases["load_network_s"] = now() - t0
        t0 = now()
        problems = network.validate(self.net)
        phases["validate_s"] = now() - t0
        if problems:
            raise SetupError(f"twolights does not validate: {problems}")
        t0 = now()
        speeds, default = solver.read_speeds_csv(self.root / "fixtures" / "twolights_init.csv")
        self.params = solver.SimParams(dt_s=DT_S, seed=self.seed)
        self.state0 = solver.initialize(self.net, speeds, self.params, default_speed=default)
        phases["initialize_s"] = now() - t0

    def finish(self) -> tuple[int, list[str]]:
        """Checks run once after the timed loop: (operations attempted, problems)."""
        return 0, []

    TRACE_ROUNDS = 2

    def trace_op(self, k: int) -> float:
        """Operation k of a traced run; operations 2r and 2r + 1 do the same work."""
        return self.op(k)

    def trace(self, tracer) -> dict:
        plain, traced, wall = [], [], 0.0
        for r in range(self.TRACE_ROUNDS):
            plain.append(self.trace_op(2 * r))
            with tracer.installed(trace_targets()):
                t0 = now()
                traced.append(tracer.wrap(self.trace_op, "bench.op")(2 * r + 1))
                wall += now() - t0
        res = {"plain_s": statistics.median(plain), "traced_s": statistics.median(traced),
               "traced_wall_s": wall, "traced_ops": self.TRACE_ROUNDS, "cells": self.net.total_cells,
               "checks": [self.check(k) for k in range(2 * self.TRACE_ROUNDS)]}
        self.trace_extra(res)
        return res

    def trace_extra(self, res: dict) -> None:
        """Add workload-specific figures and checks to a traced run's summary."""

    def named(self, op_s: float, ops: list) -> dict:
        """The workload's own end-to-end figures, printed for information."""
        return {}

    def info(self) -> dict:
        return {}


class GridSimulate(Workload):
    """One solver.run of an 8 x 8 signalized grid per operation.

    Operations 2j and 2j + 1 simulate the configuration drawn by
    signals.sample_config from a generator seeded by (seed, 2j), so every
    rerun can be compared bit for bit.
    """

    name = "grid-simulate"
    min_ops = 2
    GRID_N = 8
    INIT_SPEED_MPS = 8.0

    def setup(self) -> dict:
        phases = {}
        t0 = now()
        self.net = gridnet.build_grid(self.GRID_N)
        phases["load_network_s"] = now() - t0
        t0 = now()
        problems = network.validate(self.net)
        phases["validate_s"] = now() - t0
        if problems:
            raise SetupError(f"grid does not validate: {problems[:3]}")
        if not solver.check_cfl(self.net, DT_S).ok:
            raise SetupError("grid violates the CFL condition")
        t0 = now()
        self.params = solver.SimParams(dt_s=DT_S, seed=self.seed)
        self.state0 = solver.initialize(self.net, {}, self.params, default_speed=self.INIT_SPEED_MPS)
        phases["initialize_s"] = now() - t0
        self.results = {}
        return phases

    def cell_steps(self) -> int:
        return self.net.total_cells * math.ceil(HORIZON_S / DT_S)

    def _config(self, k: int) -> dict:
        return signals.sample_config(self.net, np.random.default_rng([self.seed, k - k % 2]))

    def op(self, k: int) -> float:
        config = self._config(k)
        t0 = now()
        self.results[k] = solver.run(self.net, self.state0, config, self.params, horizon=HORIZON_S, warmup=WARMUP_S)
        return now() - t0

    def check(self, k: int) -> list[str]:
        result = self.results[k]
        problems = check_run(self.net, self.params, result)
        if k % 2:
            problems += self._same_run(self.results[k - 1], result)
            for done in (k - 1, k):
                if done:  # the first result stays for info()
                    del self.results[done]
        return problems

    @staticmethod
    def _same_run(a: solver.RunResult, b: solver.RunResult) -> list[str]:
        if a.metrics == b.metrics and np.array_equal(a.final_state.rho, b.final_state.rho) \
                and np.array_equal(a.final_state.v, b.final_state.v):
            return []
        return [f"rerun of one configuration differs: {a.metrics} vs {b.metrics}"]

    def named(self, op_s: float, ops: list) -> dict:
        return {"sim_cell_steps_per_s": (self.cell_steps() / op_s, "cell-steps/s")}

    def info(self) -> dict:
        m = self.results[0].metrics
        return {"avg_speed_mps": m.avg_speed, "queue_length": m.queue_length}


class TwolightsDataset(Workload):
    """One dataset.generate batch of BATCH rows on twolights with 2 workers per operation.

    Every operation regenerates the same table (master seed = benchmark
    seed), so its digest must repeat. After the timed loop, the first
    PREFIX rows are generated again with one worker and must match; a traced
    run compares whole tables made with one worker and with the pool.
    """

    name = "twolights-dataset"
    pool_workers = 2
    BATCH = 8
    PREFIX = 4

    def setup(self) -> dict:
        phases = {}
        self._load_twolights(phases)
        self.tables = {}
        self.digests = {}
        self.failed_rows = 0
        return phases

    def _generate(self, n_runs: int, workers: int):
        return dataset.generate(self.net, self.state0, self.params, n_runs=n_runs, seed=self.seed,
                                workers=workers, horizon=HORIZON_S, warmup=WARMUP_S)

    def op(self, k: int, workers: int = pool_workers) -> float:
        t0 = now()
        self.tables[k] = self._generate(self.BATCH, workers)
        return now() - t0

    def digest(self, rows) -> str:
        """SHA-256 of the table as dataset.write_csv writes it."""
        path = self.out_dir / f"table-{os.getpid()}.csv"
        try:
            dataset.write_csv(rows, path)
            return hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            path.unlink(missing_ok=True)

    def check(self, k: int) -> list[str]:
        rows = self.tables[k]
        problems = [f"run {r.run_id}: {r.status}" for r in rows if not r.ok]
        self.failed_rows += len(problems)
        if len(rows) != self.BATCH:
            problems.append(f"{len(rows)} rows instead of {self.BATCH}")
        self.digests[k] = self.digest(rows)
        if self.digests[k] != self.digests[0]:
            problems.append(f"table digest {self.digests[k]} differs from the first batch's {self.digests[0]}")
        if k > 0:
            del self.tables[k]
        return problems

    def finish(self) -> tuple[int, list[str]]:
        single = self._generate(self.PREFIX, 1)
        if self.digest(single) != self.digest(self.tables[0][: self.PREFIX]):
            return 1, [f"first {self.PREFIX} rows differ between workers=1 and workers={self.pool_workers}"]
        return 1, []

    def trace_op(self, k: int) -> float:
        """Pool workers keep their spans to themselves, so traced batches run with workers=1."""
        return self.op(k, workers=1)

    def trace_extra(self, res: dict) -> None:
        pool = []
        for k in range(2 * self.TRACE_ROUNDS, 3 * self.TRACE_ROUNDS):
            pool.append(self.op(k))
            res["checks"].append(self.check(k))
        res["pool_overhead_frac"] = 1.0 - res["plain_s"] / (self.pool_workers * statistics.median(pool))
        res["failed_rows"] = self.failed_rows

    def named(self, op_s: float, ops: list) -> dict:
        return {"dataset_runs_per_s": (self.BATCH / op_s, "runs/s")}

    def info(self) -> dict:
        return {"table_sha256": self.digests.get(0)}


class TwolightsSurrogate(Workload):
    """One train-surrogate plus optimize cycle on the committed training table per operation.

    Training follows `train-surrogate --target both`: the linear model with
    k-fold RMSE, and the MLP with the hyperparameter grid, k-fold RMSE and a
    final fit. Every MLP fit trains exactly MLP_EPOCHS epochs (patience equal
    to the epoch cap), because early stopping would make the amount of work
    depend on the seed. Optimizing follows `optimize` without --validate:
    optimize_config for speed and queue under both models, seeded by the
    best training rows, with the default DE settings. Cycle k uses
    child_seed(seed, k) for folds, initial weights and DE.
    """

    name = "twolights-surrogate"
    FOLDS = 5
    MLP_EPOCHS = 30
    TARGETS = ("avg_speed", "queue_length")
    LINEAR_TOL = 1e-9  # relative gap allowed between DE's linear optimum and the analytic corner

    def setup(self) -> dict:
        phases = {}
        self._load_twolights(phases)
        t0 = now()
        self.rows = dataset.read_csv(pathlib.Path(__file__).resolve().parent / "data" / "twolights_train.csv")
        phases["read_table_s"] = now() - t0
        bad = [r.run_id for r in self.rows if not r.ok]
        if bad or len(self.rows) != 100:
            raise SetupError(f"training table: {len(self.rows)} rows, not ok: {bad}")
        self.cycles = {}
        self.times = {}
        self.de_counts = {}
        self.epochs = {}
        return phases

    def op(self, k: int, seed_index: int | None = None) -> float:
        s = child_seed(self.seed, k if seed_index is None else seed_index)
        t0 = now()
        X, Y, ids = dataset.feature_matrix(self.rows)

        def fit_linear(Xt, Yt):
            return surrogate.fit_linear(Xt, Yt, targets=self.TARGETS, feature_ids=ids)

        linear_rmse, _ = surrogate.kfold_rmse(fit_linear, X, Y, k=self.FOLDS, seed=s)
        linear = fit_linear(X, Y)

        base = surrogate.MlpHyper(max_epochs=self.MLP_EPOCHS, patience=self.MLP_EPOCHS)
        hyper, _ = surrogate.grid_search_mlp(X, Y, seed=s, k=self.FOLDS, base=base)

        def fit_mlp(Xt, Yt):
            return surrogate.fit_mlp(Xt, Yt, hyper, seed=s, targets=self.TARGETS, feature_ids=ids)

        mlp_rmse, _ = surrogate.kfold_rmse(fit_mlp, X, Y, k=self.FOLDS, seed=s)
        mlp = fit_mlp(X, Y)
        t1 = now()

        searches = []
        for model in (linear, mlp):
            for target in ("speed", "queue"):
                objective = optimizer.surrogate_objective(model, target)
                result = optimizer.optimize_config(self.net, objective, optimizer.DeConfig(seed=s),
                                                   training_rows=self.rows)
                searches.append((model, target, objective, result))
        t2 = now()
        self.cycles[k] = (linear, linear_rmse, mlp_rmse, searches)
        self.times[k] = (t1 - t0, t2 - t1)
        return t2 - t0

    def check(self, k: int) -> list[str]:
        linear, linear_rmse, mlp_rmse, searches = self.cycles.pop(k)
        problems = []
        if not (np.all(np.isfinite(linear_rmse)) and np.all(np.isfinite(mlp_rmse))):
            problems.append(f"non-finite k-fold RMSE: linear {linear_rmse}, mlp {mlp_rmse}")
        for model, target, objective, result in searches:
            col = optimizer.TARGET_COLUMNS[target]
            if model is linear:
                w = linear.weights[:, col]
                best = np.maximum(w, 0.0) if target == "speed" else np.minimum(w, 0.0)
                corner = float(linear.intercept[col] + best.sum())
                found = float(optimizer.predict(linear, result.de.best)[col])
                for label, value in (("DE optimum", found), ("snapped optimum", result.predicted)):
                    if abs(value - corner) > self.LINEAR_TOL * max(1.0, abs(corner)):
                        problems.append(f"linear {target}: {label} {value!r} != analytic corner {corner!r}")
            seed_value = objective.evaluate(signals.encode(result.seed_config, self.net))
            worse = result.predicted < seed_value if target == "speed" else result.predicted > seed_value
            if worse:
                problems.append(f"{target} search ({type(model).__name__}) worse than its seed row: "
                                f"{result.predicted!r} vs {seed_value!r}")
        self.rmse = (linear_rmse.tolist(), mlp_rmse.tolist())
        self.de_counts[k] = [(r.de.evaluations, r.de.generations) for *_, r in searches]
        return problems

    def trace_op(self, k: int) -> float:
        """Cycle k with the seed of cycle k // 2, counting the epochs of every MLP fit."""
        epochs = self.epochs[k] = []
        fit = surrogate.fit_mlp

        def counted(*args, **kwargs):
            model = fit(*args, **kwargs)
            epochs.append(model.epochs_trained)
            return model

        with mock.patch.object(surrogate, "fit_mlp", counted):
            return self.op(k, seed_index=k // 2)

    def trace_extra(self, res: dict) -> None:
        traced = range(1, 2 * self.TRACE_ROUNDS, 2)
        for k in traced:
            if self.de_counts[k] != self.de_counts[k - 1]:
                res["checks"][k].append(f"traced searches differ from untraced ones: "
                                        f"{self.de_counts[k]} vs {self.de_counts[k - 1]}")
        res["fit_mlp_epochs"] = sum(sum(self.epochs[k]) for k in traced)
        res["evaluations"] = sum(e for k in traced for e, _ in self.de_counts[k])
        res["generations"] = sum(g for k in traced for _, g in self.de_counts[k])

    def named(self, op_s: float, ops: list) -> dict:
        train = [self.times[k][0] for k in ops]
        optimize = [self.times[k][1] for k in ops]
        return {"train_surrogate_s": (float(np.median(train)), "s"),
                "optimize_s": (float(np.median(optimize)), "s")}

    def info(self) -> dict:
        return {"kfold_rmse_linear": self.rmse[0], "kfold_rmse_mlp": self.rmse[1]}


WORKLOADS = {w.name: w for w in (GridSimulate, TwolightsDataset, TwolightsSurrogate)}
