"""Tests of the benchmark's own pieces: the grid generator, the training table,
the span recorder and the refusal to run without the library.

From the repository root:  python3 -m pytest perfbench -q
"""
import json
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import gridnet  # noqa: E402
import make_table  # noqa: E402
import run  # noqa: E402
from macrosim import dataset, network, solver  # noqa: E402
from spans import Tracer  # noqa: E402


def test_grid_counts_at_8x8():
    net = gridnet.build_grid(8)
    assert len(net.edges) == 288
    assert net.total_cells == 4320
    assert len(net.signalized_ids()) == 64
    assert network.validate(net) == []
    assert solver.check_cfl(net, 0.5).ok


def test_grid_is_deterministic():
    assert gridnet.build_grid(3) == gridnet.build_grid(3)


def test_grid_turns_and_groups():
    net = gridnet.build_grid(3)
    for ix in net.intersections.values():
        assert len(ix.incoming) == len(ix.outgoing) == 4
        assert sorted(ix.turn_weights.values()) == [0.2] * 8 + [0.6] * 4
        for (e_in, e_out), w in ix.turn_weights.items():
            angle = network.turn_angle(net, e_in, e_out)
            assert angle == pytest.approx(180.0 if w == 0.6 else 90.0)
        for e_in in ix.group_a:  # east-west approaches
            edge = net.edges[e_in]
            assert net.nodes[edge.from_node].y == net.nodes[edge.to_node].y
        for e_in in ix.group_b:  # north-south approaches
            edge = net.edges[e_in]
            assert net.nodes[edge.from_node].x == net.nodes[edge.to_node].x


def test_training_table_reads_back_ok():
    rows = dataset.read_csv(make_table.TABLE)
    assert len(rows) == make_table.RECIPE["n_runs"]
    assert all(r.ok for r in rows)
    recipe = json.loads(make_table.TABLE.with_suffix(".recipe.json").read_text())
    assert recipe == make_table.RECIPE


def _leaf(x):
    time.sleep(0.01)
    return x


class _Owner:
    @staticmethod
    def outer(x):
        time.sleep(0.02)
        return _Owner.leaf(x) + _Owner.leaf(x)

    leaf = staticmethod(_leaf)


def test_spans_self_time_and_restore():
    tracer = Tracer()
    originals = dict(_Owner.__dict__)
    targets = [(_Owner, "outer", "outer"), (_Owner, "leaf", "leaf")]
    with tracer.installed(targets):
        assert _Owner.outer(2) == 4
    assert _Owner.__dict__["outer"] is originals["outer"]
    assert _Owner.__dict__["leaf"] is originals["leaf"]
    _Owner.outer(1)  # not recorded: no wrapper outside the block

    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["leaf"]["calls"] == 2
    assert summary["outer"]["self_ns"] == summary["outer"]["total_ns"] - summary["leaf"]["total_ns"]
    assert 0.015 < summary["outer"]["self_ns"] / 1e9 < 0.2
    _, parent, dur, self_ns = tracer.arrays()
    assert list(parent) == [-1, 0, 0]
    assert self_ns.sum() == dur[0]


class _OneOp:
    """A traced operation that spends ``untraced_s`` outside every layer span."""

    def __init__(self, untraced_s):
        self.untraced_s = untraced_s

    def trace(self, tracer):
        def op():
            time.sleep(self.untraced_s)
            return _Owner.leaf(1)

        with tracer.installed([(_Owner, "leaf", "leaf")]):
            t0 = time.perf_counter()
            tracer.wrap(op, "bench.op")()
            wall = time.perf_counter() - t0
        return {"checks": [[]], "traced_wall_s": wall}


@pytest.mark.parametrize("untraced_s, failed", [(0.0, 0), (0.03, 1)])
def test_time_outside_layer_spans_fails_the_traced_run(untraced_s, failed):
    res, _ = run.traced_run(_OneOp(untraced_s), Tracer())
    assert res["failed"] == failed
    assert (res["unaccounted_frac"] > 0.5) == bool(failed)


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twolights-surrogate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_surrogate_workload_runs_correctly(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twolights-surrogate", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
