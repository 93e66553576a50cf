import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import macrosim
from macrosim import _pool, dataset, solver, surrogate
from macrosim.cli import FLAG_FLOORS, _build_parser, main
from macrosim.dataset import feature_matrix, read_csv
from macrosim.signals import load_config, save_config
from macrosim.optimizer import DeConfig
from macrosim.solver import HORIZON_S, WARMUP_S, SimParams, SimState, SimulationError, initialize
from macrosim.surrogate import load_model


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory, fixtures_dir):
    """Small dataset generated through the CLI, shared by the training tests."""
    out = tmp_path_factory.mktemp("cli") / "data.csv"
    rc = main(
        [
            "gen-dataset",
            "--network", str(fixtures_dir / "cross.json"),
            "--init", str(fixtures_dir / "cross_init.csv"),
            "--runs", "6",
            "--horizon", "20",
            "--warmup", "5",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_calibrate_fd_command(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "fd.json"
    rc = main(["calibrate-fd", "--counters", str(fixtures_dir / "counters.csv"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"v_max", "rho_cr", "a", "sse", "converged"}
    assert doc["converged"] is True
    assert 12.0 < doc["v_max"] < 15.0
    assert 0.03 < doc["rho_cr"] < 0.07
    assert "fitted v_max" in capsys.readouterr().out


def test_calibrate_fd_with_fixed_vmax(fixtures_dir, tmp_path):
    out = tmp_path / "fd.json"
    rc = main(
        ["calibrate-fd", "--counters", str(fixtures_dir / "counters.csv"), "--fix-vmax", "13.68", "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["v_max"] == 13.68


@pytest.mark.parametrize("v_max, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0")])
def test_calibrate_fd_refuses_fix_vmax_by_name_before_reading(tmp_path, capsys, v_max, shown):
    out = tmp_path / "fd.json"
    rc = main(["calibrate-fd", "--counters", str(tmp_path / "absent.csv"), "--fix-vmax", v_max, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --fix-vmax must be finite and > 0, got {shown}\n"
    assert not out.exists()


def test_simulate_command_with_probes_and_heatmaps(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    rc = main(
        [
            "simulate",
            "--network", str(fixtures_dir / "cross.json"),
            "--init", str(fixtures_dir / "cross_init.csv"),
            "--lights", str(fixtures_dir / "cross_lights.json"),
            "--horizon", "30",
            "--warmup", "10",
            "--probes", "0,30",
            "--heatmap", str(tmp_path / "hm"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["steps"] == 60
    assert doc["warmup_steps"] == 20
    assert doc["avg_speed_mps"] > 0
    for suffix in ("hm_t0.csv", "hm_t0.pgm", "hm_t30.csv", "hm_t30.pgm"):
        assert (tmp_path / suffix).exists()
    assert "avg_speed=" in capsys.readouterr().out


def test_simulate_writes_each_probed_state_once(fixtures_dir, tmp_path, capsys):
    # both probes are answered by the first state whose clock reaches them, t = 0.5 s: one file pair, counted once
    rc = main(["simulate", "--network", str(fixtures_dir / "cross.json"),
               "--init", str(fixtures_dir / "cross_init.csv"), "--lights", str(fixtures_dir / "cross_lights.json"),
               "--horizon", "10", "--warmup", "0", "--probes", "0.1,0.2", "--heatmap", str(tmp_path / "hm"),
               "--out", str(tmp_path / "x.json")])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.glob("hm*")) == ["hm_t0.5.csv", "hm_t0.5.pgm"]
    assert f"wrote 1 heatmap snapshot(s) to {tmp_path / 'hm'}_t*.csv/.pgm\n" in capsys.readouterr().out


def test_simulate_refuses_two_states_that_would_share_a_heatmap_name(fixtures_dir, tmp_path, capsys, monkeypatch):
    # the file name keeps 6 significant digits of the clock, so the states at 100000.0 s and 100000.5 s would both
    # be written as hm_t100000: refused by both clocks before any file, the metrics included, is written
    def run(net, state0, config, params, **kwargs):
        states = [SimState(state0.rho, state0.v, t=t) for t in (100000.0, 100000.5)]
        return types.SimpleNamespace(snapshots=states)

    monkeypatch.setattr(solver, "run", run)
    rc = main(["simulate", "--network", str(fixtures_dir / "ring.json"), "--init", str(fixtures_dir / "ring_init.csv"),
               "--heatmap", str(tmp_path / "hm"), "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: --heatmap: the states at t = 100000.0 s and t = 100000.5 s would "
                                       f"both be written to {tmp_path / 'hm'}_t100000.csv/.pgm\n")
    assert list(tmp_path.iterdir()) == []


def test_gen_dataset_output_is_readable(cli_dataset):
    rows = read_csv(cli_dataset)
    assert len(rows) == 6
    assert [r.run_id for r in rows] == list(range(6))
    assert all(r.ok for r in rows)
    assert all(set(r.config) == {"X"} for r in rows)


def test_gen_dataset_worker_count_invariance(fixtures_dir, tmp_path):
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"data_{jobs}.csv"
        rc = main(
            [
                "gen-dataset",
                "--network", str(fixtures_dir / "cross.json"),
                "--init", str(fixtures_dir / "cross_init.csv"),
                "--runs", "4",
                "--jobs", jobs,
                "--horizon", "15",
                "--warmup", "5",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_train_surrogate_linear(cli_dataset, tmp_path, capsys):
    model_path = tmp_path / "lin.json"
    rc = main(
        ["train-surrogate", "--data", str(cli_dataset), "--model", "linear", "--folds", "3", "--out", str(model_path)]
    )
    assert rc == 0
    assert "3-fold RMSE" in capsys.readouterr().out
    model = load_model(model_path)
    assert model.hidden == ()
    assert model.targets == ("avg_speed", "queue_length")
    assert model.feature_ids == ("X",)
    assert model.weights.shape == (3, 2)


def test_train_surrogate_single_target_mlp(cli_dataset, tmp_path):
    model_path = tmp_path / "mlp.json"
    rc = main(
        [
            "train-surrogate",
            "--data", str(cli_dataset),
            "--model", "mlp",
            "--target", "queue",
            "--folds", "3",
            "--seed", "1",
            "--out", str(model_path),
        ]
    )
    assert rc == 0
    model = load_model(model_path)
    assert [W.shape for W, _ in model.hidden] == [(3, 100), (100, 50)]
    assert model.targets == ("queue_length",)


def test_train_surrogate_grid_reports_the_grid_score_of_its_choice(cli_dataset, tmp_path, capsys, monkeypatch):
    # the grid trains k folds x 2 activation stacks and has scored its choice; only the final model is left
    calls = []
    fit_stack = surrogate._fit_stack

    def counted(X, Y, hypers, *args, **kwargs):
        calls.append(len(hypers))
        return fit_stack(X, Y, hypers, *args, **kwargs)

    monkeypatch.setattr(surrogate, "_fit_stack", counted)
    monkeypatch.setattr(_pool, "forked_cpus", lambda: 1)  # every stack trains in this process, where it is counted
    model_path = tmp_path / "mlp.json"
    rc = main(["train-surrogate", "--data", str(cli_dataset), "--model", "mlp", "--grid", "--folds", "3", "--seed", "1",
               "--out", str(model_path)])
    assert rc == 0
    assert calls == [4] * (2 * 3) + [1]

    out = capsys.readouterr().out.splitlines()
    chosen = dict(field.split("=") for field in out[0].removeprefix("grid best: ").split())
    hyper = surrogate.MlpHyper(activation=chosen["activation"], alpha=float(chosen["alpha"]),
                               learning_rate=float(chosen["learning_rate"]))
    X, Y, _ = feature_matrix(read_csv(cli_dataset))
    per_target, mean = surrogate.kfold_rmse(lambda Xt, Yt: surrogate.fit_mlp(Xt, Yt, hyper, seed=1), X, Y, k=3, seed=1)
    assert out[1] == (f"3-fold RMSE: avg_speed={per_target[0]:.6g}, queue_length={per_target[1]:.6g} "
                      f"(mean {mean:.6g}) -> {model_path}")


def test_optimize_against_surrogate(cli_dataset, fixtures_dir, tmp_path):
    model_path = tmp_path / "lin.json"
    assert main(
        ["train-surrogate", "--data", str(cli_dataset), "--model", "linear", "--folds", "3", "--out", str(model_path)]
    ) == 0

    cfg_path = tmp_path / "best.json"
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "optimize",
            "--network", str(fixtures_dir / "cross.json"),
            "--model", str(model_path),
            "--objective", "queue",
            "--data", str(cli_dataset),
            "--generations", "40",
            "--pop", "12",
            "--out", str(cfg_path),
            "--report", str(report_path),
        ]
    )
    assert rc == 0
    config = load_config(cfg_path)
    assert set(config) == {"X"}
    report = json.loads(report_path.read_text())
    assert report["objective"] == "queue"
    assert report["direction"] == "minimize"
    assert report["simulated"] is None
    assert report["evaluations"] > 0
    # best-so-far value per generation, starting with the initial population
    history = report["history"]
    assert len(history) == report["generations"] + 1
    assert all(b <= a for a, b in zip(history, history[1:]))  # queue is minimized


def test_optimize_direct_with_validation(cli_dataset, fixtures_dir, tmp_path, capsys):
    cfg_path = tmp_path / "best.json"
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "optimize",
            "--network", str(fixtures_dir / "cross.json"),
            "--direct",
            "--objective", "speed",
            "--data", str(cli_dataset),
            "--init", str(fixtures_dir / "cross_init.csv"),
            "--horizon", "15",
            "--warmup", "5",
            "--generations", "2",
            "--pop", "6",
            "--validate",
            "--out", str(cfg_path),
            "--report", str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["direction"] == "maximize"
    # direct search re-simulates the winner; both numbers come from the same protocol
    assert report["simulated"]["avg_speed_mps"] == pytest.approx(report["predicted"])
    assert "simulated avg_speed=" in capsys.readouterr().out


def test_optimize_direct_output_does_not_depend_on_jobs(cli_dataset, fixtures_dir, tmp_path, monkeypatch):
    # every generation runs on the pool, which the search starts once; answer and history are those of one process
    started = []

    class Pool(_pool.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(_pool, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    monkeypatch.setattr(dataset, "WORKER_CELLS", 0)
    outputs = []
    for jobs in ("1", "2"):
        out, report = tmp_path / f"best_{jobs}.json", tmp_path / f"report_{jobs}.json"
        assert main(["optimize", "--network", str(fixtures_dir / "cross.json"), "--init", str(fixtures_dir / "cross_init.csv"),
                     "--direct", "--objective", "queue", "--data", str(cli_dataset), "--horizon", "15", "--warmup", "5",
                     "--generations", "3", "--pop", "8", "--jobs", jobs, "--out", str(out), "--report", str(report)]) == 0
        outputs.append((out.read_bytes(), report.read_bytes()))
    assert started == [2]
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0][1])["history"]) == 4


def test_jobs_below_one_is_refused_by_name(cli_dataset, fixtures_dir, tmp_path, capsys):
    protocol = ["--network", str(fixtures_dir / "cross.json"), "--init", str(fixtures_dir / "cross_init.csv"),
                "--horizon", "15", "--warmup", "5"]
    out = tmp_path / "out"
    for argv in (["gen-dataset", *protocol, "--runs", "2"],
                 ["optimize", *protocol, "--direct", "--objective", "speed", "--data", str(cli_dataset)]):
        assert main([*argv, "--jobs", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --jobs must be >= 1, got 0\n"
        assert not out.exists()
    # the pipeline hands its --jobs to gen-dataset
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
    done = subprocess.run([sys.executable, str(script), "--jobs", "0", "--out-dir", str(tmp_path / "pipeline")],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "error: --jobs must be >= 1, got 0\n")
    # --jobs sizes the direct search's pool; against a surrogate it would do nothing, so it is refused
    assert main(["optimize", *protocol, "--model", str(tmp_path / "model.json"), "--objective", "speed",
                 "--data", str(cli_dataset), "--jobs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --jobs applies to --direct only\n"


def test_optimize_validate_without_init_fails_before_the_search(cli_dataset, fixtures_dir, tmp_path, capsys):
    model_path = tmp_path / "lin.json"
    assert main(
        ["train-surrogate", "--data", str(cli_dataset), "--model", "linear", "--folds", "3", "--out", str(model_path)]
    ) == 0
    cfg_path = tmp_path / "best.json"
    rc = main(
        [
            "optimize",
            "--network", str(fixtures_dir / "cross.json"),
            "--model", str(model_path),
            "--objective", "speed",
            "--data", str(cli_dataset),
            "--generations", "2",
            "--pop", "6",
            "--validate",
            "--out", str(cfg_path),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: --validate needs --init to build the shared initial state\n"
    assert not cfg_path.exists()


def test_optimize_validate_reports_a_failed_run_as_direct_does(cli_dataset, fixtures_dir, tmp_path, capsys,
                                                               monkeypatch):
    # --validate simulates through the runner of --direct, so a failed run stops the command with its diagnostic
    model_path = tmp_path / "lin.json"
    assert main(
        ["train-surrogate", "--data", str(cli_dataset), "--model", "linear", "--folds", "3", "--out", str(model_path)]
    ) == 0

    def blow_up(*args, **kwargs):
        raise SimulationError("non-finite state on edge n_in cell 1\n  at step 3")

    monkeypatch.setattr(dataset, "run", blow_up)
    protocol = ["--network", str(fixtures_dir / "cross.json"), "--init", str(fixtures_dir / "cross_init.csv")]
    rc = main(["optimize", *protocol, "--model", str(model_path), "--objective", "speed", "--data", str(cli_dataset),
               "--generations", "2", "--pop", "6", "--validate", "--out", str(tmp_path / "best.json"),
               "--report", str(tmp_path / "report.json")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: a candidate's run failed: SimulationError: non-finite state on edge "
                                       "n_in cell 1 at step 3\n")
    # nothing is written until the validation run has passed
    assert not (tmp_path / "best.json").exists() and not (tmp_path / "report.json").exists()


def test_validate_command(fixtures_dir, tmp_path, capsys):
    # validate is simulate under a second name: same flags, same metrics document
    docs = []
    for command in ("simulate", "validate"):
        out = tmp_path / f"{command}.json"
        rc = main(
            [
                command,
                "--network", str(fixtures_dir / "cross.json"),
                "--init", str(fixtures_dir / "cross_init.csv"),
                "--lights", str(fixtures_dir / "cross_lights.json"),
                "--horizon", "20",
                "--warmup", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "(30 samples)" in capsys.readouterr().out
        docs.append(json.loads(out.read_text()))
    assert docs[0] == docs[1]
    doc = docs[1]
    assert list(doc) == ["avg_speed_mps", "queue_length", "samples", "steps", "warmup_steps"]
    assert (doc["samples"], doc["steps"], doc["warmup_steps"]) == (30, 40, 10)
    assert doc["avg_speed_mps"] > 0
    assert doc["queue_length"] >= 0


def test_protocol_defaults_come_from_sim_params():
    parser = _build_parser()
    for argv in (
        ["simulate", "--network", "n.json", "--init", "i.csv", "--out", "o.json"],
        ["validate", "--network", "n.json", "--init", "i.csv", "--out", "o.json"],
        ["gen-dataset", "--network", "n.json", "--init", "i.csv", "--runs", "1", "--out", "o.csv"],
        ["optimize", "--network", "n.json", "--direct", "--objective", "speed", "--data", "d.csv", "--out", "o.json"],
    ):
        args = parser.parse_args(argv)
        assert (args.dt, args.init_noise) == (SimParams.dt_s, SimParams.init_noise)
        assert (args.horizon, args.warmup) == (HORIZON_S, WARMUP_S)


PROTOCOL = ("--network", "--init", "--horizon", "--warmup", "--dt", "--init-noise", "--seed")
SIMULATING = ("simulate", "validate", "gen-dataset", "optimize")


def test_simulating_commands_share_one_protocol():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    declared = []
    for name in SIMULATING:
        defaults = {option: a.default for a in commands[name]._actions for option in a.option_strings}
        assert set(PROTOCOL) <= set(defaults), name
        declared.append({option: defaults[option] for option in PROTOCOL})
    assert all(d == declared[0] for d in declared)
    assert declared[0]["--seed"] == 0


def test_one_seed_gives_the_dataset_and_validation_one_initial_state(fixtures_dir, tmp_path):
    protocol = ["--network", str(fixtures_dir / "cross.json"), "--init", str(fixtures_dir / "cross_init.csv"),
                "--horizon", "20", "--warmup", "5"]
    data = tmp_path / "data.csv"
    assert main(["gen-dataset", *protocol, "--runs", "2", "--seed", "7", "--out", str(data)]) == 0
    row = read_csv(data)[0]
    save_config(row.config, tmp_path / "row0.json")
    metrics = {}
    for seed in ("7", "0"):
        out = tmp_path / f"validate_{seed}.json"
        assert main(["validate", *protocol, "--lights", str(tmp_path / "row0.json"), "--seed", seed,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        metrics[seed] = (doc["avg_speed_mps"], doc["queue_length"])
    assert metrics["7"] == (row.avg_speed, row.queue_length)
    assert metrics["0"] != metrics["7"]  # the seed reaches the initial state, so the match above is not luck


def test_optimize_validates_from_the_state_of_its_seed(cli_dataset, fixtures_dir, tmp_path):
    protocol = ["--network", str(fixtures_dir / "cross.json"), "--init", str(fixtures_dir / "cross_init.csv"),
                "--horizon", "15", "--warmup", "5", "--seed", "7"]
    cfg_path, report_path, out = tmp_path / "best.json", tmp_path / "report.json", tmp_path / "metrics.json"
    assert main(["optimize", *protocol, "--direct", "--objective", "speed", "--data", str(cli_dataset),
                 "--generations", "2", "--pop", "6", "--validate", "--out", str(cfg_path),
                 "--report", str(report_path)]) == 0
    assert main(["simulate", *protocol, "--lights", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert json.loads(report_path.read_text())["simulated"] == {
        "avg_speed_mps": doc["avg_speed_mps"], "queue_length": doc["queue_length"],
    }


def test_state_seed_is_refused(fixtures_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--network", str(fixtures_dir / "cross.json"), "--direct", "--objective", "speed",
              "--data", "d.csv", "--state-seed", "0", "--out", "o.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --state-seed" in capsys.readouterr().err


@pytest.mark.parametrize("flags, wanted", [
    (["--dt", "5"], "error: time step 5.0s violates the stability condition"),
    (["--horizon", "-1"], "error: horizon must be finite and > 0, got -1.0"),
    (["--horizon", "inf"], "error: horizon must be finite and > 0, got inf"),
    (["--dt", "nan"], "error: SimParams.dt_s must be finite and > 0, got nan"),
    (["--horizon", "10", "--warmup", "9.8"], "error: warmup 9.8 s is later than the last step's start at 9.5 s"),
])
def test_protocol_errors_exit_before_any_output(cli_dataset, fixtures_dir, tmp_path, capsys, flags, wanted):
    # an error that every run would hit alike stops the command: no table of failed rows, no traceback
    net, init = ["--network", str(fixtures_dir / "twolights.json")], ["--init", str(fixtures_dir / "twolights_init.csv")]
    model = tmp_path / "model.json"  # six inputs: three per signalized intersection of twolights
    model.write_text(json.dumps({"weights": [[[0.0]] * 6], "biases": [[0.0]], "activation": "relu", "target_mean": [0.0],
                                 "target_scale": [1.0], "targets": ["avg_speed"], "feature_ids": []}))
    commands = {
        "gen-dataset": ["gen-dataset", *net, *init, "--runs", "2"],
        "simulate": ["simulate", *net, *init, "--lights", str(fixtures_dir / "twolights_lights.json")],
        "optimize": ["optimize", *net, *init, "--direct", "--objective", "speed", "--data", str(cli_dataset)],
        # no --init: the search needs no initial state, but the protocol flags are still checked
        "optimize --model": ["optimize", *net, "--model", str(model), "--objective", "speed", "--data", str(cli_dataset)],
    }
    for name, argv in commands.items():
        out = tmp_path / f"{name}.out"
        assert main([*argv, *flags, "--out", str(out)]) == 1, name
        assert capsys.readouterr().err.startswith(wanted), name
        assert not out.exists(), name


def test_errors_exit_nonzero(cli_dataset, fixtures_dir, tmp_path, capsys):
    # unreadable network file
    rc = main(
        [
            "simulate",
            "--network", str(fixtures_dir / "missing.json"),
            "--init", str(fixtures_dir / "cross_init.csv"),
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # signalized network without a lights file
    rc = main(
        [
            "simulate",
            "--network", str(fixtures_dir / "cross.json"),
            "--init", str(fixtures_dir / "cross_init.csv"),
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 1
    assert "configuration" in capsys.readouterr().err

    # malformed lights files: each error names the file and, for a bad entry, the intersection
    malformed = [
        (json.dumps({"X": {"red": 30, "offset": 0}}), "missing key 'X.green'"),
        (json.dumps([{"red": 30, "green": 30, "offset": 0}]), "expected a JSON object"),
        (json.dumps({"X": {"red": 30.7, "green": 30, "offset": 0}}), "X.red: expected int, got 30.7"),
        (json.dumps({"X": {"red": 60, "green": 30, "offset": 0}}), "intersection X: red must be in [20, 54], got 60"),
        ('{"X": {"red": 30,\n', "cannot parse JSON"),
    ]
    for text, wanted in malformed:
        lights = tmp_path / "lights.json"
        lights.write_text(text)
        rc = main(
            [
                "simulate",
                "--network", str(fixtures_dir / "cross.json"),
                "--init", str(fixtures_dir / "cross_init.csv"),
                "--lights", str(lights),
                "--horizon", "5",
                "--warmup", "0",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and str(lights) in err and wanted in err

    # speeds CSV errors name the file
    init = tmp_path / "init.csv"
    init.write_text("edge_id,speed_mps\nn_in,fast\n")
    rc = main(
        [
            "simulate",
            "--network", str(fixtures_dir / "cross.json"),
            "--init", str(init),
            "--lights", str(fixtures_dir / "cross_lights.json"),
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 1
    assert f"error: {init}: line 2" in capsys.readouterr().err

    # a probe the run's clock never reaches: after the horizon, not a number, or before the start
    for probe, shown in (("11", "11.0"), ("nan", "nan"), ("-5", "-5.0")):
        rc = main(["simulate", "--network", str(fixtures_dir / "cross.json"), "--init", str(fixtures_dir / "cross_init.csv"),
                   "--lights", str(fixtures_dir / "cross_lights.json"), "--horizon", "10", "--warmup", "0",
                   "--probes", f"0,{probe}", "--heatmap", str(tmp_path / "hm"), "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: probe {shown} s is outside the run's clock span [0.0, 10.0] s\n"
        assert not list(tmp_path.glob("hm*")) and not (tmp_path / "x.json").exists()

    # nothing to vary on an unsignalized network
    rc = main(
        [
            "gen-dataset",
            "--network", str(fixtures_dir / "ring.json"),
            "--init", str(fixtures_dir / "ring_init.csv"),
            "--runs", "2",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 1

    # a model file missing a key names the file and the key
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "linear"}))
    rc = main(
        [
            "optimize",
            "--network", str(fixtures_dir / "cross.json"),
            "--model", str(model),
            "--objective", "speed",
            "--data", str(cli_dataset),
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 1
    assert f"error: {model}: missing key 'weights'" in capsys.readouterr().err

    # a model whose shapes do not chain, that holds a number that is not finite, whose features are other
    # intersections, whose input width does not fit the network (3 per signalized intersection), or whose targets
    # lack the objective names the file
    linear = {"weights": [[[1.0]]], "biases": [[0.0]], "activation": "relu", "target_mean": [0.0],
              "target_scale": [1.0], "targets": ["avg_speed"], "feature_ids": ["J1"]}
    fits = {**linear, "weights": [[[1.0]] * 3], "feature_ids": ["X"]}  # a model cross can be optimized against
    for doc, wanted in (
        ({**linear, "biases": [[0.0, 0.0]]}, "layer 0"),
        ({**fits, "weights": [[[float("nan")]] * 3]}, "weights: expected finite numbers"),
        ({**fits, "target_scale": [float("inf")]}, "target_scale: expected finite numbers"),
        (linear, "intersections ['J1']"),
        ({**linear, "feature_ids": []}, f"model takes 1 inputs, but {fixtures_dir / 'cross.json'} needs 3 "),
        ({**fits, "targets": ["queue_length"]}, "model predicts ['queue_length'], not avg_speed; retrain with that target"),
        # target scaling no trainer writes, whose predictions would overflow or mean nothing, is refused on load
        ({**fits, "target_scale": [1e308]}, "target_scale: expected values in (0, 1e+150], got 1e+308"),
        ({**fits, "target_scale": [0.0]}, "target_scale: expected values in (0, 1e+150], got 0"),
        ({**fits, "target_scale": [-1.0]}, "target_scale: expected values in (0, 1e+150], got -1"),
        ({**fits, "target_mean": [1e300]}, "target_mean: expected values at most 1e+150 in magnitude, got 1e+300"),
        # so are weights and biases above TARGET_MAX, whose predictions overflow or mean nothing
        ({**fits, "weights": [[[1e308], [0.0], [0.0]]]},
         "weights: expected values at most 1e+150 in magnitude, got 1e+308"),
        ({**fits, "weights": [[[1e308]] * 3]}, "weights: expected values at most 1e+150 in magnitude, got 1e+308"),
        ({**fits, "biases": [[-1e200]]}, "biases: expected values at most 1e+150 in magnitude, got -1e+200"),
        # a model within the bounds may still predict beyond them: a finite value no trainer's target reaches, or
        # an overflow inside the search (three layers of 1e150 weights), is refused at the answer, with no warning
        ({**fits, "weights": [[[1e150]] * 3]}, "e+150 at the optimized configuration"),
        ({**fits, "weights": [[[1e150] * 2] * 3, [[1e150] * 2] * 2, [[1e150]] * 2],
          "biases": [[0.0] * 2, [0.0] * 2, [0.0]]},
         "speed evaluates to inf at the optimized configuration"),
    ):
        model.write_text(json.dumps(doc))
        rc = main(
            [
                "optimize",
                "--network", str(fixtures_dir / "cross.json"),
                "--model", str(model),
                "--objective", "speed",
                "--data", str(cli_dataset),
                "--generations", "3",
                "--pop", "4",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {model}: ") and wanted in err
        assert not (tmp_path / "x.json").exists()

    # a negative generation count is refused by name before the search starts
    rc = main(
        [
            "optimize",
            "--network", str(fixtures_dir / "cross.json"),
            "--direct",
            "--objective", "speed",
            "--data", str(cli_dataset),
            "--init", str(fixtures_dir / "cross_init.csv"),
            "--generations", "-3",
            "--out", str(tmp_path / "best.json"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: --generations must be >= 0, got -3\n"
    assert not (tmp_path / "best.json").exists()

    # so is every numeric flag below its least value, before any work: these files are missing and never read
    network, data = str(fixtures_dir / "missing.json"), str(fixtures_dir / "missing.csv")
    search = ["optimize", "--network", network, "--model", str(tmp_path / "m.json"), "--objective", "speed",
              "--data", data]
    for argv, wanted in (
        (["gen-dataset", "--network", network, "--init", data, "--runs", "0"], "--runs must be >= 1, got 0"),
        ([*search, "--pop", "3"], "--pop must be >= 4, got 3"),
        ([*search, "--generations", "-1"], "--generations must be >= 0, got -1"),
        (["train-surrogate", "--data", data, "--model", "linear", "--folds", "1"], "--folds must be >= 2, got 1"),
    ):
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == f"error: {wanted}\n"
        assert not (tmp_path / "x.json").exists()
    # more folds than the table has rows is the table's fault
    rc = main(["train-surrogate", "--data", str(cli_dataset), "--model", "linear", "--folds", "7",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cli_dataset}: k must be in [2, 6]\n"
    assert not (tmp_path / "x.json").exists()
    # and a table too small for any fold names its row count, not the empty range [2, 1]
    one = tmp_path / "one.csv"
    one.write_text("".join(cli_dataset.read_text().splitlines(keepends=True)[:2]))
    assert main(["train-surrogate", "--data", str(one), "--model", "linear", "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"error: {one}: k-fold CV needs at least 2 rows, got 1\n"
    assert not (tmp_path / "x.json").exists()

    # --grid searches MLP hyperparameters; a linear model has none, so the flag is refused, not ignored
    rc = main(
        [
            "train-surrogate",
            "--data", str(cli_dataset),
            "--model", "linear",
            "--grid",
            "--out", str(tmp_path / "lin.json"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: --grid applies to --model mlp only\n"
    assert not (tmp_path / "lin.json").exists()

    # direct optimization requires an initial state
    rc = main(
        [
            "optimize",
            "--network", str(fixtures_dir / "cross.json"),
            "--direct",
            "--objective", "speed",
            "--data", str(fixtures_dir / "missing.csv"),
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("grid", [[], ["--grid"]])
def test_a_fold_too_small_for_the_mlp_names_the_fold(grid, tmp_path, capsys):
    # the table has 4 rows; each of 2 folds trains on 2, fewer than the MLP's validation split needs
    table = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "data" / "twolights_train.csv"
    four = tmp_path / "four.csv"
    four.write_text("".join(table.read_text().splitlines(keepends=True)[:5]))
    out = tmp_path / "model.json"
    assert main(["train-surrogate", "--data", str(four), "--model", "mlp", "--folds", "2", *grid,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {four}: fold 1 of 2 trains on 2 rows: "
                                       "need at least 3 rows to train with a validation split\n")
    assert not out.exists()
    # a linear model trains on each fold's 2 rows
    assert main(["train-surrogate", "--data", str(four), "--model", "linear", "--folds", "2", "--out", str(out)]) == 0
    assert out.exists()


def test_seed_below_zero_is_refused_before_any_file_is_read(tmp_path, capsys):
    # numpy refused it deep inside each command, blamed on whichever file was open; these files are missing
    network, data, model = (str(tmp_path / name) for name in ("net.json", "data.csv", "model.json"))
    for argv in (["simulate", "--network", network, "--init", data],
                 ["validate", "--network", network, "--init", data],
                 ["gen-dataset", "--network", network, "--init", data, "--runs", "2"],
                 ["train-surrogate", "--data", data, "--model", "linear"],
                 ["optimize", "--network", network, "--model", model, "--objective", "speed", "--data", data]):
        assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1, argv[0]
        assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n"), argv[0]
    assert list(tmp_path.iterdir()) == []
    # every floor is checked before the command's own checks
    assert main(["train-surrogate", "--data", data, "--model", "linear", "--grid", "--folds", "1", "--out", model]) == 1
    assert capsys.readouterr().err == "error: --folds must be >= 2, got 1\n"


def test_every_integer_flag_has_the_floor_its_library_call_refuses_below(cross_net):
    # the CLI states each floor once, in FLAG_FLOORS; the library call each flag reaches refuses floor - 1 itself
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    int_flags = {a.dest for p in commands.values() for a in p._actions if a.type is int}
    assert int_flags == set(FLAG_FLOORS)
    params = SimParams()
    state0 = initialize(cross_net, {}, params, default_speed=8.0)
    library = {
        "runs": lambda n: dataset.generate(cross_net, state0, params, n_runs=n, seed=0, horizon=1.0, warmup=0.0),
        "jobs": lambda n: dataset.BatchRunner(cross_net, state0, params, workers=n),
        "folds": lambda n: surrogate._folds(10, n, 0),
        "generations": lambda n: DeConfig(max_generations=n),
        "pop": lambda n: DeConfig(pop_size=n).resolved_pop_size(6),
        "seed": lambda n: np.random.default_rng(n),
    }
    assert set(library) == set(FLAG_FLOORS)
    for dest, floor in FLAG_FLOORS.items():
        with pytest.raises(ValueError):
            library[dest](floor - 1)
        library[dest](floor)


def test_cross_file_errors_name_the_file_or_flag(fixtures_dir, tmp_path, capsys):
    # a lights file that does not fit the network, or an initial speed the network refuses, names that file
    lights = tmp_path / "lights.json"
    lights.write_text(json.dumps({"J2": {"red": 30, "green": 30, "offset": 0}}))
    init = tmp_path / "init.csv"
    init.write_text((fixtures_dir / "twolights_init.csv").read_text().replace("e_j2,8.0", "e_j2,nan"))
    twolights = ["--network", str(fixtures_dir / "twolights.json"), "--init", str(fixtures_dir / "twolights_init.csv")]
    for argv, wanted in (
        ([*twolights, "--lights", str(lights)],
         f"{lights}: signal configuration does not match network: missing ['J1']"),
        (["--network", str(fixtures_dir / "ring.json"), "--init", str(fixtures_dir / "ring_init.csv"),
          "--lights", str(fixtures_dir / "cross_lights.json")],
         f"{fixtures_dir / 'cross_lights.json'}: network has no signalized intersections "
         "but a configuration was given"),
        ([*twolights[:3], str(init), "--lights", str(fixtures_dir / "twolights_lights.json")],
         f"{init}: observed speed for edge e_j2 must be in (0, 13.68], got nan"),
        ([*twolights, "--lights", str(fixtures_dir / "twolights_lights.json"), "--probes", "1,a"],
         "--probes: could not convert string to float: 'a'"),
    ):
        rc = main(["simulate", *argv, "--horizon", "5", "--warmup", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {wanted}\n"
        assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("case", ["gen-dataset on ring", "optimize on ring", "table of other intersections",
                                  "counters with two moving rows", "counters of one density"])
def test_inputs_that_do_not_fit_the_command_name_their_file(cli_dataset, fixtures_dir, tmp_path, capsys, case):
    # a network with nothing to vary, a table of other intersections, or counters too few or too alike to fit
    ring, twolights = fixtures_dir / "ring.json", fixtures_dir / "twolights.json"
    direct = ["optimize", "--direct", "--objective", "speed", "--data", str(cli_dataset)]
    counters = tmp_path / "counters.csv"
    counters.write_text("interval_s,count,avg_speed_mps\n" + {
        "counters with two moving rows": "60,10,0\n60,12,0\n60,8,10\n",  # a row at rest gives no sample
        "counters of one density": "60,10,10\n60,10,10\n60,10,10\n",
    }.get(case, ""))
    argv, wanted = {
        "gen-dataset on ring": (["gen-dataset", "--network", str(ring), "--init", str(fixtures_dir / "ring_init.csv"),
                                 "--runs", "2"], f"{ring}: network has no signalized intersections; nothing to vary"),
        "optimize on ring": ([*direct, "--network", str(ring), "--init", str(fixtures_dir / "ring_init.csv")],
                             f"{ring}: network has no signalized intersections; nothing to vary"),
        "table of other intersections": (
            [*direct, "--network", str(twolights), "--init", str(fixtures_dir / "twolights_init.csv")],
            f"{cli_dataset}: table rows are intersections ['X'], but {twolights} signalizes ['J1', 'J2']"),
        "counters with two moving rows": (["calibrate-fd", "--counters", str(counters)],
                                          f"{counters}: need at least 3 samples to fit 3 parameters"),
        "counters of one density": (["calibrate-fd", "--counters", str(counters)],
                                    f"{counters}: need at least 3 distinct densities"),
    }[case]
    assert main([*argv, "--out", str(tmp_path / "x.out")]) == 1
    assert capsys.readouterr() == ("", f"error: {wanted}\n")
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("length", ["NaN", "Infinity", "0", "-5"])
def test_a_bad_edge_length_is_an_error_naming_the_file_and_edge(fixtures_dir, tmp_path, capsys, length):
    path = tmp_path / "net.json"
    path.write_text('{"nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 100, "y": 0}], "edges": '
                    f'[{{"id": "r", "from": "A", "to": "B", "length_m": {length}, "lanes": 1, "free_flow_speed_mps": 10}}]}}')
    rc = main(["simulate", "--network", str(path), "--init", str(fixtures_dir / "ring_init.csv"),
               "--out", str(tmp_path / "x.json")])
    got = {"NaN": "nan", "Infinity": "inf", "0": "0.0", "-5": "-5.0"}[length]
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: edge r: length must be finite and > 0, got {got}\n"


def test_argparse_usage_errors():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["optimize", "--network", "x.json"])  # missing required arguments


def test_console_entry_point_installed():
    exe = shutil.which("macrosim")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("calibrate-fd", "simulate", "gen-dataset", "train-surrogate", "optimize", "validate"):
        assert command in proc.stdout


def test_module_entry_point_help():
    # works without the console script on PATH, from the package being tested
    src = str(pathlib.Path(macrosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "macrosim.cli", "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for command in ("calibrate-fd", "simulate", "gen-dataset", "train-surrogate", "optimize", "validate"):
        assert command in proc.stdout
