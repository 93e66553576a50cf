"""Names the benchmark under perfbench/ patches or reads in the library.

The tier-1 suite runs no traced benchmark, so a renamed or deleted name
would otherwise break ``perfbench/run.py`` unseen.
"""
import pathlib

import numpy as np

from macrosim.optimizer import surrogate_objective
from macrosim.solver import SimParams
from macrosim.surrogate import fit_linear

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_are_attributes_of_their_owners(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    targets = workloads.trace_targets()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_values_the_benchmark_reads():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = fit_linear(X, np.column_stack([X.sum(axis=1), 2.0 - X[:, 0]]))
    value = surrogate_objective(model, "queue").evaluate(np.array([1.0, 0.0]))
    assert type(value) is float and abs(value - 1.0) < 1e-9

    params = SimParams(seed=3)
    assert (params.jam_density, params.density_floor) == (0.2, 1e-4)
