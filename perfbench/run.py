"""Run one workload of the macrosim benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload grid-simulate --seed 1 --seconds 35 --trace 0

With --trace 0 it sets the workload up, then runs operations for about
--seconds seconds with no wrapper installed, and reports the end-to-end
metrics listed in BENCHMARK.json. With --trace 1 it runs a fixed amount of
work untraced and then traced (see workloads.py) and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric by name and unit, the workload's own figures and the environment.
A record of the run is written to perfbench/out/, and with --trace 1 also
every span.

The library is imported from src/ next to this directory and nowhere else;
without it the benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 11        # fresh processes timed for setup_s; the median is reported
UNACCOUNTED_MAX = 0.02   # share of the traced wall time that no layer span may cover


def import_library():
    """Import macrosim from this checkout's src/, or exit with an error."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import macrosim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import macrosim from {src}: {exc}")
    if not pathlib.Path(macrosim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: macrosim was imported from {macrosim.__file__}, not from {src}")


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
    }


def probe_setup(workload: str, seed: int) -> tuple[float, dict]:
    """Seconds from starting a fresh process until its set-up is done, and its phase times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited with code {code}")
    return ready, json.loads(line)


def time_setup(workload: str, seed: int, record: dict) -> tuple[float, dict]:
    """Median set-up time over SETUP_PROBES fresh processes, and the median of each phase.

    Both are also stored in ``record``.
    """
    probes = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    samples = [ready for ready, _ in probes]
    phases = {key: statistics.median(p[key] for _, p in probes) for key in probes[0][1]}
    record.update(setup_s_samples=samples, setup_phases_s=phases)
    return statistics.median(samples), phases


def peak_rss_mb(pool_workers: int) -> float:
    """Peak resident memory of this process plus, for a pool, its workers.

    Each pool worker is counted at the largest peak of any finished child
    process, which bounds the workers' concurrent total from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def timed_run(w, seconds: float) -> dict:
    """Operations in a closed loop for about ``seconds``; a new one starts while half the last fits.

    An operation's time is the one ``op`` returns: its library calls, not its checks.
    """
    times, problems = [], []
    failed = 0
    start = time.perf_counter()
    k = 0
    while k < w.min_ops or (time.perf_counter() - start) + 0.5 * times[-1] <= seconds:
        t0 = time.perf_counter()
        try:
            op_time = w.op(k)
            found = w.check(k)
        except Exception:
            traceback.print_exc()
            op_time = time.perf_counter() - t0
            found = [f"operation {k} raised"]
        times.append(op_time)
        if found:
            failed += 1
            problems += [f"op {k}: {p}" for p in found]
        k += 1
    try:
        extra, found = w.finish()
    except Exception:
        traceback.print_exc()
        extra, found = 1, ["final check raised"]
    if found:
        failed += 1
        problems += found
    return {"attempted": k + extra, "failed": failed, "problems": problems, "op_times": times}


def per_layer(summary: dict, res: dict, phases: dict) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``_us`` figures are self time per call, except optimizer.objective_us,
    which includes the predict call inside it. ``surrogate.*_s`` and
    ``*_ms`` totals are inclusive wall time per traced operation. Counts are
    totals over the traced work. A layer the workload does not reach reads 0.
    """
    import numpy as np

    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": np.zeros(0)}

    def get(name):
        return summary.get(name, empty)

    def self_us(name):
        s = get(name)
        return s["self_ns"] / s["calls"] / 1e3 if s["calls"] else 0.0

    def per_op_s(name):
        return get(name)["total_ns"] / res["traced_ops"] / 1e9

    steps = get("solver.step")["calls"]
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    run_s = get("dataset.run")["durations_ns"] / 1e9
    objective = get("optimizer.objective")
    generations = res.get("generations", 0)
    return {
        "solver.step_us": self_us("solver.step"),
        "solver.virtual_boundaries_us": self_us("solver.virtual_boundaries"),
        "solver.run_self_us_per_step": per_step((get("solver.run")["self_ns"] + get("dataset.run")["self_ns"]) / 1e3),
        "solver.cell_steps": steps * res["cells"],
        "fundamental.ideal_speed_us": self_us("fundamental.ideal_speed"),
        "fundamental.ideal_speed_calls_per_step": per_step(get("fundamental.ideal_speed")["calls"]),
        "network.fd_for_us": self_us("network.fd_for"),
        "network.fd_for_calls_per_step": per_step(get("network.fd_for")["calls"]),
        "signals.edge_phases_us": self_us("signals.edge_phases"),
        "metrics.step_metrics_us": self_us("metrics.step_metrics"),
        "signals.sample_config_us": self_us("signals.sample_config"),
        "dataset.run_s_p50": float(np.percentile(run_s, 50)) if run_s.size else 0.0,
        "dataset.run_s_p90": float(np.percentile(run_s, 90)) if run_s.size else 0.0,
        "dataset.pool_overhead_frac": res.get("pool_overhead_frac", 0.0),
        "dataset.failed_rows": res.get("failed_rows", 0),
        "surrogate.grid_search_mlp_s": per_op_s("surrogate.grid_search_mlp"),
        "surrogate.kfold_rmse_s": per_op_s("surrogate.kfold_rmse"),
        "surrogate.fit_mlp_s": per_op_s("surrogate.fit_mlp"),
        "surrogate.fit_mlp_epochs": res.get("fit_mlp_epochs", 0),
        "surrogate.fit_linear_ms": per_op_s("surrogate.fit_linear") * 1e3,
        "surrogate.predict_us": self_us("surrogate.predict"),
        "surrogate.predict_calls": get("surrogate.predict")["calls"],
        "optimizer.de_generation_self_ms": (
            get("optimizer.differential_evolution")["self_ns"] / generations / 1e6 if generations else 0.0),
        "optimizer.objective_us": objective["total_ns"] / objective["calls"] / 1e3 if objective["calls"] else 0.0,
        "optimizer.evaluations": res.get("evaluations", 0),
        "optimizer.generations": generations,
        "network.load_network_ms": phases["load_network_s"] * 1e3,
        "network.validate_ms": phases["validate_s"] * 1e3,
        "solver.initialize_ms": phases["initialize_s"] * 1e3,
        "trace.overhead_frac": res["traced_s"] / res["plain_s"] - 1.0,
        "trace.unaccounted_frac": res["unaccounted_frac"],
    }


def traced_run(w, tracer) -> tuple[dict, dict]:
    """The workload's fixed traced work; returns (run summary, span summary)."""
    res = w.trace(tracer)
    problems = [f"op {k}: {p}" for k, found in enumerate(res["checks"]) for p in found]
    failed = sum(1 for found in res["checks"] if found)
    summary = tracer.summary()
    _, parent, _, self_ns = tracer.arrays()
    # The root spans ("bench.op", one per traced operation) cover the whole
    # traced wall time, so their self time is what the layer spans leave out.
    unaccounted = 1.0 - int(self_ns[parent >= 0].sum()) / 1e9 / res["traced_wall_s"]
    res["unaccounted_frac"] = unaccounted
    if (self_ns < 0).any() or not (0.0 <= unaccounted <= UNACCOUNTED_MAX):
        failed += 1
        problems.append(f"span self times leave {unaccounted:.2%} of the traced wall time unaccounted "
                        f"(allowed {UNACCOUNTED_MAX:.0%}) or are negative")
    res.update(attempted=len(res["checks"]), failed=failed, problems=problems)
    return res, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload](ROOT, args.seed, OUT_DIR)
    if args.setup_probe:
        print(json.dumps(w.setup()), flush=True)
        return 0

    env = environment()
    w.setup()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        tracer = Tracer()
        res, summary = traced_run(w, tracer)
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        _, phases = time_setup(args.workload, args.seed, record)
        values = per_layer(summary, res, phases)
        wanted = spec["per_layer"]
        record["spans"] = {name: {k: v for k, v in s.items() if k != "durations_ns"} for name, s in summary.items()}
        named = {}
    else:
        res = timed_run(w, args.seconds or spec["run_seconds"])
        rss_mb = peak_rss_mb(w.pool_workers)  # before the set-up probes, so the pool workers are the only children
        setup_s, _ = time_setup(args.workload, args.seed, record)
        op_s = statistics.median(res["op_times"])
        values = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": rss_mb}
        wanted = spec["end_to_end"]
        named = w.named(op_s, range(len(res["op_times"])))
        record["op_times_s"] = res["op_times"]
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = res["failed"] == 0
    record.update(metrics=metrics, named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                  info=w.info(), attempted=res["attempted"], failed=res["failed"], problems=res["problems"])
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
        fh.write("\n")

    for p in res["problems"]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {res['attempted']} operations, {res['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in named.items():
        print(f"  {name:42s} {value:.6g} {unit}  (workload figure, not judged)")
    print(f"  info {json.dumps(record['info'])}")
    print(f"  env {json.dumps(env)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
