"""Every field of every input file, set to a bad value or deleted, either runs or fails with a named error.

Each mutant is run through ``cli.main``: the outcome must be exit 0, or exit 1
with an ``error:`` line naming the file, an edge or an intersection. A
traceback fails the test. The list of values is fixed, so the sweep is
deterministic and costs a few seconds.
"""
import copy
import json
import math
import os
import re
import warnings

import pytest

from macrosim import dataset
from macrosim.cli import main
from macrosim.fundamental import read_counters
from macrosim.network import MAX_LANES, load_network
from macrosim.signals import load_config
from macrosim.solver import read_speeds_csv
from macrosim.surrogate import load_model

BAD = [None, True, "x", 1.5, -1, 0, math.nan, math.inf, -math.inf, 1e308, 10**30, [], {}]
DELETE = object()
# the same values as cell text; the empty cell stands for a deleted one
BAD_CELLS = ["null", "true", "x", "1.5", "-1", "0", "nan", "inf", "-inf", "1e308", str(10**30), "[]", "{}", ""]

# a model that fits cross.json (3 inputs for its one signalized intersection X), with one hidden layer
MODEL = {"targets": ["avg_speed", "queue_length"], "feature_ids": ["X"], "activation": "relu",
         "weights": [[[0.5, -0.5], [0.25, 0.5], [-0.25, 0.5]], [[1.0, 0.5], [0.5, 1.0]]],
         "biases": [[0.0, 0.1], [6.0, 0.3]], "target_mean": [0.0, 0.0], "target_scale": [1.0, 1.0],
         "epochs_trained": 3}
DATASET = ["run_id,seed,X_red,X_green,X_offset,avg_speed,queue_length,status",
           "0,11,30,20,10,6.5,0.4,ok", "1,12,40,25,3,6.1,0.45,ok", "2,13,22,50,60,7.0,0.3,ok",
           "3,14,54,54,100,5.5,0.5,ok", "4,15,20,33,0,6.8,0.35,ok"]


def _json_mutants(doc):
    """(label, document) per key of the top level and of each first record, set to each bad value or deleted.

    A record is the first object of a top-level list, or an object at the top level.
    """
    records = [((), doc)]
    for key, value in doc.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            records.append(((key, 0), value[0]))
        elif isinstance(value, dict):
            records.append(((key,), value))
    for where, record in records:
        for key in record:
            for bad in [*BAD, DELETE]:
                mutant = copy.deepcopy(doc)
                target = mutant
                for step in where:
                    target = target[step]
                if bad is DELETE:
                    del target[key]
                else:
                    target[key] = bad
                yield f"{where}{key}={'deleted' if bad is DELETE else repr(bad)}", json.dumps(mutant)


def _table_mutants(lines):
    """(label, table) per cell of the first data row, set to each bad cell text."""
    cells = lines[1].split(",")
    for j in range(len(cells)):
        for bad in BAD_CELLS:
            row = ",".join(bad if i == j else cell for i, cell in enumerate(cells))
            yield f"column {j}={bad!r}", "\n".join([lines[0], row, *lines[2:]]) + "\n"


def _sweep(tmp_path, capsys, mutants, name, argv):
    """Run argv ({path} is the mutant's file) on every mutant; return the outcomes that break the rule.

    An error must name one of the command's files, an edge or an intersection.
    """
    path = tmp_path / name
    out = tmp_path / "out.json"
    broken = []
    for label, text in mutants:
        path.write_text(text)
        args = [arg.format(path=path, out=out) for arg in argv]
        rc = main(args)
        err = capsys.readouterr().err
        named = any(arg in err for arg in args if os.sep in arg) or "edge " in err or "intersection " in err
        if not (rc == 0 or (rc == 1 and err.startswith("error:") and named)):
            broken.append((label, rc, err))
    return broken


def _simulate(fixtures_dir, mutated):
    """simulate on cross.json with its initial speeds and lights, the flag ``mutated`` reading the mutant instead."""
    files = {"--network": "cross.json", "--init": "cross_init.csv", "--lights": "cross_lights.json"}
    argv = [arg for flag, name in files.items()
            for arg in (flag, "{path}" if flag == mutated else str(fixtures_dir / name))]
    return ["simulate", *argv, "--horizon", "2", "--warmup", "0", "--out", "{out}"]


def test_every_network_field(fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "cross.json").read_text())
    mutants = list(_json_mutants(doc))
    assert len(mutants) == 14 * (3 + 3 + 6 + 8)  # top level, first node, first edge, first intersection
    assert _sweep(tmp_path, capsys, mutants, "net.json", _simulate(fixtures_dir, "--network")) == []


@pytest.mark.parametrize("lanes, rc", [(MAX_LANES, 0), (MAX_LANES + 1, 1), (10**30, 1), (1e308, 1)])
def test_lanes_above_the_cap_are_refused(fixtures_dir, tmp_path, capsys, lanes, rc):
    """A huge lane count multiplies an edge's flux into its junction; it used to exit 0 with meaningless metrics."""
    doc = json.loads((fixtures_dir / "cross.json").read_text())
    doc["edges"][0]["lanes"] = lanes
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    argv = [arg.format(path=path, out=tmp_path / "out.json") for arg in _simulate(fixtures_dir, "--network")]
    assert main(argv) == rc
    err = capsys.readouterr().err
    if rc:
        assert err == (f"error: invalid network {path}:\n  edge {doc['edges'][0]['id']}: "
                       f"lanes must be in [1, {MAX_LANES}], got {int(lanes)}\n")


def test_every_lights_field(fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "cross_lights.json").read_text())
    mutants = list(_json_mutants(doc))
    assert len(mutants) == 14 * (1 + 3)
    argv = _simulate(fixtures_dir, "--lights")
    assert _sweep(tmp_path, capsys, mutants, "lights.json", argv) == []


def test_every_model_field(fixtures_dir, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(DATASET) + "\n")
    mutants = list(_json_mutants(MODEL))
    assert len(mutants) == 14 * 8
    argv = ["optimize", "--network", str(fixtures_dir / "cross.json"), "--model", "{path}", "--objective", "speed",
            "--data", str(data), "--generations", "1", "--pop", "4", "--out", "{out}"]
    assert _sweep(tmp_path, capsys, mutants, "model.json", argv) == []


def test_every_initial_speeds_cell(fixtures_dir, tmp_path, capsys):
    lines = (fixtures_dir / "cross_init.csv").read_text().splitlines()
    argv = _simulate(fixtures_dir, "--init")
    assert _sweep(tmp_path, capsys, _table_mutants(lines), "init.csv", argv) == []


def test_every_counters_cell(fixtures_dir, tmp_path, capsys):
    lines = (fixtures_dir / "counters.csv").read_text().splitlines()[:8]
    argv = ["calibrate-fd", "--counters", "{path}", "--out", "{out}"]
    assert _sweep(tmp_path, capsys, _table_mutants(lines), "counters.csv", argv) == []


def test_every_dataset_cell(tmp_path, capsys):
    argv = ["train-surrogate", "--data", "{path}", "--model", "linear", "--folds", "2", "--out", "{out}"]
    assert _sweep(tmp_path, capsys, _table_mutants(DATASET), "data.csv", argv) == []


@pytest.mark.parametrize("model", [["linear"], ["mlp"], ["mlp", "--grid"]])
def test_a_huge_metric_is_refused_before_any_model_is_written(tmp_path, capsys, model):
    """An ok row with avg_speed 1e308 used to give a model of NaN and -Infinity, after an overflow warning."""
    path, out = tmp_path / "data.csv", tmp_path / "model.json"
    rows = [DATASET[1].replace(",6.5,", ",1e308,"), *DATASET[2:],  # 8 rows, so every fold has 3 to train on
            "5,16,35,30,12,6.3,0.42,ok", "6,17,25,45,50,6.6,0.38,ok", "7,18,50,22,70,5.9,0.47,ok"]
    path.write_text("\n".join([DATASET[0], *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train-surrogate", "--data", str(path), "--model", *model, "--folds", "2", "--out", str(out)])
    wanted = f"error: {path}: targets must be at most 1e+150 in magnitude, got 1e+308\n"
    assert (rc, capsys.readouterr()) == (1, ("", wanted))
    assert not out.exists()


# (reader, file name, a file of the reader's dialect with one field of the wrong type, the error after the path)
READERS = [
    (load_network, "net.json", '{"nodes": [{"id": "A", "x": "east", "y": 0}], "edges": []}',
     "nodes[0].x: expected float, got 'east'"),
    (load_config, "lights.json", '{"X": {"red": "thirty", "green": 20, "offset": 10}}',
     "X.red: expected int, got 'thirty'"),
    (dataset.read_csv, "data.csv", "\n".join([DATASET[0], DATASET[1].replace("0,11,30,", "0,11,thirty,")]),
     "line 2: X_red: expected int, got 'thirty'"),
    (load_model, "model.json", json.dumps({**MODEL, "activation": 3}), "activation: expected str, got 3"),
    (read_counters, "counters.csv", "interval_s,count,avg_speed_mps\n300.0,many,13.2\n",
     "line 2: count: expected float, got 'many'"),
    (read_speeds_csv, "init.csv", "edge_id,speed_mps\n*,fast\n", "line 2: speed_mps: expected float, got 'fast'"),
]


@pytest.mark.parametrize("reader, name, wrong_type, wanted", READERS, ids=[r[0].__name__ for r in READERS])
def test_every_reader_refuses_with_a_value_error_that_starts_with_its_path(tmp_path, reader, name, wrong_type, wanted):
    path = tmp_path / name
    other = "edge_id,speed_mps\n*,8.0\n" if name.endswith(".json") else json.dumps(MODEL)  # the other dialect
    for data in (b"\xff\xfe\x00 not text", other.encode()):  # unparseable: undecodable bytes, or not its dialect
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            reader(path)
    path.write_text(wrong_type)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {wanted}')}$"):
        reader(path)
