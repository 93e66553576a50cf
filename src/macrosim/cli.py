"""Command-line interface for the traffic simulator pipeline.

Subcommands cover the full workflow: calibrate-fd fits the speed-density
curve to counter data, simulate runs one signal configuration, gen-dataset
samples many random configurations into a CSV table, train-surrogate fits a
predictive model on such a table, optimize searches for good timings against
a surrogate (or the simulator directly). validate is simulate under a
second name, for re-simulating an optimized configuration file.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import dataset, fundamental, optimizer, signals, solver, surrogate
from ._files import naming, write_json
from .network import load_network

# the least value of every integer flag, which main checks before any command reads a file
FLAG_FLOORS = {"runs": 1, "jobs": 1, "folds": 2, "generations": 0, "pop": 4, "seed": 0}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrosim",
        description="Macroscopic road-traffic simulation and signal-timing optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate-fd", help="fit the speed-density curve to counter data")
    p.set_defaults(handler=_cmd_calibrate_fd)
    p.add_argument("--counters", required=True, help="CSV with header interval_s,count,avg_speed_mps")
    p.add_argument("--fix-vmax", type=float, default=None, help="hold the free-flow speed fixed")
    p.add_argument("--out", required=True, help="output JSON with the fitted parameters")

    p = sub.add_parser("simulate", aliases=["validate"], help="run one simulation and report congestion metrics")
    p.set_defaults(handler=_cmd_simulate)
    _add_protocol_args(p)
    p.add_argument("--lights", default=None, help="signal configuration JSON")
    p.add_argument("--heatmap", default=None, help="path prefix for per-probe density exports")
    p.add_argument("--probes", default=None, help="comma-separated snapshot times in seconds")
    p.add_argument("--out", required=True, help="output JSON with the aggregated metrics")

    p = sub.add_parser("gen-dataset", help="simulate many random signal configurations")
    p.set_defaults(handler=_cmd_gen_dataset)
    _add_protocol_args(p)
    p.add_argument("--runs", type=int, required=True, help="number of configurations to sample")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (results are identical for any count)")
    p.add_argument("--out", required=True, help="output CSV table")

    p = sub.add_parser("train-surrogate", help="fit a surrogate model on a dataset table")
    p.set_defaults(handler=_cmd_train_surrogate)
    p.add_argument("--data", required=True, help="dataset CSV from gen-dataset")
    p.add_argument("--model", choices=["linear", "mlp"], required=True)
    p.add_argument("--target", choices=[*optimizer.TARGETS, "both"], default="both")
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", action="store_true", help="mlp only: search the small training grid first")
    p.add_argument("--out", required=True, help="output JSON model file")

    p = sub.add_parser("optimize", help="search for good signal timings")
    p.set_defaults(handler=_cmd_optimize)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="surrogate model file to optimize against")
    group.add_argument("--direct", action="store_true", help="evaluate candidates by full simulation")
    p.add_argument("--objective", choices=list(optimizer.TARGETS), required=True)
    p.add_argument("--data", required=True, help="training dataset CSV; best row seeds the search")
    _add_protocol_args(p, init_required=False)
    p.add_argument("--generations", type=int, default=300)
    p.add_argument("--pop", type=int, default=None, help="population size (default 15 x dim, max 150)")
    p.add_argument("--jobs", type=int, default=None,
                   help="--direct only: worker processes (default 1; results are identical for any count)")
    p.add_argument("--validate", action="store_true", help="re-simulate the optimized configuration")
    p.add_argument("--out", required=True, help="output JSON signal configuration")
    p.add_argument("--report", default=None, help="optional JSON run report")

    return parser


def _add_protocol_args(p: argparse.ArgumentParser, init_required: bool = True) -> None:
    """The network, initial state and protocol of every simulating command; defaults from SimParams and the solver."""
    needed = "" if init_required else "; required for --direct or --validate"
    p.add_argument("--network", required=True, help="road network JSON")
    p.add_argument("--init", required=init_required,
                   help=f"initial speeds CSV (edge_id,speed_mps; * = default{needed})")
    p.add_argument("--horizon", type=float, default=solver.HORIZON_S)
    p.add_argument("--warmup", type=float, default=solver.WARMUP_S)
    p.add_argument("--dt", type=float, default=solver.SimParams.dt_s)
    p.add_argument("--init-noise", type=float, default=solver.SimParams.init_noise)
    p.add_argument("--seed", type=int, default=0, help="seed of the initial-state noise and the command's draws")


def _initial_state(args, net):
    """(state0, params) from --init, --dt, --init-noise and --seed; state0 is None without --init."""
    params = solver.SimParams(dt_s=args.dt, seed=args.seed, init_noise=args.init_noise)
    if args.init is None:
        return None, params
    speeds, default = solver.read_speeds_csv(args.init)
    with naming(args.init):
        return solver.initialize(net, speeds, params, default_speed=default), params


def _cmd_calibrate_fd(args) -> int:
    if args.fix_vmax is not None and not (math.isfinite(args.fix_vmax) and args.fix_vmax > 0):
        raise ValueError(f"--fix-vmax must be finite and > 0, got {args.fix_vmax}")
    samples = fundamental.read_counters(args.counters)
    with naming(args.counters):  # too few samples, or too few distinct densities, to fit
        fit = fundamental.fit_fd(samples, fixed_v_max=args.fix_vmax)
    fundamental.save_fit(fit, args.out)
    status = "converged" if fit.converged else "NOT converged (iteration cap hit)"
    print(
        f"fitted v_max={fit.params.v_max:.4f} m/s rho_cr={fit.params.rho_cr:.5f} cars/m "
        f"a={fit.params.a:.4f} sse={fit.sse:.6g} [{status}] -> {args.out}"
    )
    return 0


def _cmd_simulate(args) -> int:
    net = load_network(args.network)
    state0, params = _initial_state(args, net)
    config = signals.load_config(args.lights) if args.lights else None
    if args.lights:
        with naming(args.lights):
            signals.signal_groups(net, config)
    with naming("--probes"):
        probes = [float(t) for t in args.probes.split(",")] if args.probes else None
    result = solver.run(net, state0, config, params, horizon=args.horizon, warmup=args.warmup, probes=probes)
    heatmaps = {}  # file prefix -> state; probes that one state answers share its file pair
    for snap in {snap.k: snap for snap in result.snapshots}.values() if args.heatmap else ():
        base = f"{args.heatmap}_t{snap.t:g}"
        if base in heatmaps:  # :g keeps 6 significant digits, so two clocks can share a name
            raise ValueError(f"--heatmap: the states at t = {heatmaps[base].t!r} s and t = {snap.t!r} s "
                             f"would both be written to {base}.csv/.pgm")
        heatmaps[base] = snap
    solver.write_metrics_json(result, args.out)
    for base, snap in heatmaps.items():
        solver.write_heatmap_csv(net, snap, base + ".csv")
        solver.write_heatmap_pgm(net, snap, base + ".pgm")
    if heatmaps:
        print(f"wrote {len(heatmaps)} heatmap snapshot(s) to {args.heatmap}_t*.csv/.pgm")
    print(
        f"avg_speed={result.metrics.avg_speed:.4f} m/s queue_length={result.metrics.queue_length:.4f} "
        f"({result.metrics.samples} samples) -> {args.out}"
    )
    return 0


def _cmd_gen_dataset(args) -> int:
    net = load_network(args.network)
    with naming(args.network):
        signals.varied_ids(net)
    state0, params = _initial_state(args, net)
    rows = dataset.generate(
        net, state0, params, n_runs=args.runs, seed=args.seed, workers=args.jobs,
        horizon=args.horizon, warmup=args.warmup,
    )
    dataset.write_csv(rows, args.out)
    failed = sum(1 for r in rows if not r.ok)
    print(f"wrote {len(rows)} runs ({failed} failed) -> {args.out}")
    return 0


def _cmd_train_surrogate(args) -> int:
    if args.grid and args.model != "mlp":
        raise ValueError("--grid applies to --model mlp only")
    rows = dataset.read_csv(args.data)
    with naming(args.data):
        X, Y, ids = dataset.feature_matrix(rows)
    names = list(optimizer.TARGETS) if args.target == "both" else [args.target]
    targets = tuple(optimizer.TARGETS[name].metric for name in names)
    Yt = Y[:, [optimizer.TARGET_COLUMNS[name] for name in names]]

    with naming(args.data):  # a table too small for its folds, or with targets too large to fit, is at fault
        if args.model == "linear":
            def fit(Xt, Yf):
                return surrogate.fit_linear(Xt, Yf, targets=targets, feature_ids=ids)
        else:
            hyper = surrogate.MlpHyper()
            if args.grid:  # the grid has cross-validated its choice already
                hyper, results = surrogate.grid_search_mlp(X, Yt, seed=args.seed, k=args.folds)
                per_target, mean_rmse = {h: scores for h, *scores in results}[hyper]
                print(
                    f"grid best: activation={hyper.activation} alpha={hyper.alpha} "
                    f"learning_rate={hyper.learning_rate}"
                )

            def fit(Xt, Yf):
                return surrogate.fit_mlp(Xt, Yf, hyper, seed=args.seed, targets=targets, feature_ids=ids)

        if not args.grid:
            per_target, mean_rmse = surrogate.kfold_rmse(fit, X, Yt, k=args.folds, seed=args.seed)
        model = fit(X, Yt)
    surrogate.save_model(model, args.out)
    named = ", ".join(f"{t}={r:.6g}" for t, r in zip(targets, per_target))
    print(f"{args.folds}-fold RMSE: {named} (mean {mean_rmse:.6g}) -> {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    net = load_network(args.network)
    with naming(args.network):
        ids = signals.varied_ids(net)
    rows = dataset.read_csv(args.data)
    de = optimizer.DeConfig(pop_size=args.pop, max_generations=args.generations, seed=args.seed)

    state0, params = _initial_state(args, net)
    for flag, wanted in (("--direct", args.direct), ("--validate", args.validate)):
        if wanted and state0 is None:
            raise ValueError(f"{flag} needs --init to build the shared initial state")
    if args.jobs is not None and not args.direct:
        raise ValueError("--jobs applies to --direct only")
    workers = 1 if args.jobs is None else args.jobs
    # checks the protocol and start clock before the search, not after it; --direct and --validate simulate through it
    with dataset.BatchRunner(net, state0, params, workers, args.horizon, args.warmup) as runner:
        if rows and sorted(rows[0].config) != list(ids):  # a row seeds the search, so the rows must fit the network
            raise ValueError(f"{args.data}: table rows are intersections {sorted(rows[0].config)}, "
                             f"but {args.network} signalizes {list(ids)}")
        if args.direct:
            objective = optimizer.simulation_objective(runner, args.objective)
        else:
            objective = _surrogate_objective(args, ids)
        result = optimizer.optimize_config(net, objective, de, training_rows=rows)
        if not abs(result.predicted) <= surrogate.TARGET_MAX:  # inf, nan, or a value no trained model predicts
            raise ValueError(f"{args.model or args.network}: {objective.name} evaluates to {result.predicted} "
                             f"at the optimized configuration")
        metrics = optimizer.simulate(runner, [result.config])[0] if args.validate else None

    signals.save_config(result.config, args.out)  # only once --validate has passed
    report = {
        "objective": objective.name,
        "direction": objective.direction,
        "predicted": result.predicted,
        "simulated": None if metrics is None else metrics.document(),
        "generations": result.de.generations,
        "evaluations": result.de.evaluations,
        "converged": result.de.converged,
        "history": result.de.history,
    }
    if args.report:
        write_json(report, args.report)
    verb = "max" if objective.direction == "maximize" else "min"
    line = f"optimized {objective.name} ({verb}): predicted={result.predicted:.4f}"
    if metrics is not None:
        line += f" simulated avg_speed={metrics.avg_speed:.4f} queue={metrics.queue_length:.4f}"
    print(line + f" after {result.de.evaluations} evaluations -> {args.out}")
    return 0


def _surrogate_objective(args, ids) -> optimizer.Objective:
    """The objective of ``optimize --model``: the model's prediction, once its inputs fit the network's ``ids``."""
    model = surrogate.load_model(args.model)
    if model.feature_ids and model.feature_ids != ids:
        raise ValueError(
            f"{args.model}: model features are intersections {list(model.feature_ids)}, "
            f"but {args.network} signalizes {list(ids)}"
        )
    width = model.layers[0][0].shape[0]
    if width != 3 * len(ids):
        raise ValueError(
            f"{args.model}: model takes {width} inputs, but {args.network} needs {3 * len(ids)} "
            f"(3 per signalized intersection)"
        )
    with naming(args.model):  # a model trained for other targets
        return optimizer.surrogate_objective(model, args.objective)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for dest, floor in FLAG_FLOORS.items():
            value = getattr(args, dest, None)
            if value is not None and value < floor:
                raise ValueError(f"--{dest} must be >= {floor}, got {value}")
        return args.handler(args)
    except (solver.SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
