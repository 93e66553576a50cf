"""Names the benchmark under perfbench/ patches or reads in the library.

The tier-1 suite runs no traced benchmark, so a renamed or deleted name
would otherwise break ``perfbench/run.py`` unseen.
"""
import pathlib

import numpy as np

from macrosim import optimizer
from macrosim.dataset import generate
from macrosim.optimizer import surrogate_objective
from macrosim.solver import SimParams, initialize, read_speeds_csv
from macrosim.surrogate import MlpHyper, fit_linear, grid_search_mlp

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_are_attributes_of_their_owners(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    targets = workloads.trace_targets()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_surrogate_workload_checks_pass(monkeypatch, tmp_path):
    # one cycle of the benchmark's surrogate workload with its own checks: the linear searches land on the
    # analytic corner read from the read-out layer, and every search beats its seed row
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.TwolightsSurrogate(PERFBENCH.parent, seed=1, out_dir=tmp_path)
    workload.setup()
    workload.op(0)
    assert workload.check(0) == []


def test_values_the_benchmark_reads():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = fit_linear(X, np.column_stack([X.sum(axis=1), 2.0 - X[:, 0]]))
    value = surrogate_objective(model, "queue").evaluate(np.array([1.0, 0.0]))
    assert type(value) is float and abs(value - 1.0) < 1e-9

    params = SimParams(seed=3)
    assert (params.jam_density, params.density_floor) == (0.2, 1e-4)

    # the surrogate workload's analytic corner reads one target's column of a two-target linear model
    assert optimizer.TARGET_COLUMNS == {"speed": 0, "queue": 1}
    col = optimizer.TARGET_COLUMNS["queue"]
    np.testing.assert_allclose(model.weights[:, col], [-1.0, 0.0], atol=1e-6)  # up to the ridge term
    assert abs(model.intercept[col] - 2.0) < 1e-6
    assert abs(optimizer.predict(model, np.array([1.0, 0.0]))[col] - 1.0) < 1e-9


def test_keywords_the_benchmark_passes(cross_net, fixtures_dir):
    X = np.random.default_rng(0).random((8, 2))
    base = MlpHyper(hidden=(2,), max_epochs=1, patience=1)
    best, results = grid_search_mlp(X, X.sum(axis=1), seed=0, k=2, base=base)
    assert all((h.hidden, h.max_epochs, h.patience) == ((2,), 1, 1) for h, _ in results)

    speeds, default = read_speeds_csv(fixtures_dir / "cross_init.csv")
    params = SimParams(seed=0)
    state0 = initialize(cross_net, speeds, params, default_speed=default)
    rows = generate(cross_net, state0, params, n_runs=2, seed=1, workers=1, horizon=2.0, warmup=0.0)
    assert [r.ok for r in rows] == [True, True]
