import pathlib
import re

import numpy as np
import pytest

from macrosim import dataset
from macrosim.dataset import BatchRunner, DatasetRow
from macrosim.optimizer import (
    DeConfig,
    Objective,
    best_training_row,
    differential_evolution,
    draw_donors,
    optimize_config,
    simulation_objective,
    surrogate_objective,
)
from macrosim.signals import IntersectionSignal, encode
from macrosim.solver import SimParams, SimulationError, initialize, run
from macrosim.surrogate import MlpHyper, fit_linear, fit_mlp


def _quadratic(center):
    center = np.asarray(center)

    def evaluate(x):
        return float(np.sum((x - center) ** 2))

    return Objective(name="queue", direction="minimize", evaluate_batch=lambda X: [evaluate(x) for x in X])


def test_de_finds_quadratic_minimum_in_ten_dims():
    center = np.full(10, 0.3)
    result = differential_evolution(_quadratic(center), dim=10, de=DeConfig(seed=3))
    assert result.best_value <= 1e-6
    np.testing.assert_allclose(result.best, center, atol=1e-3)


def test_de_history_is_monotone_and_starts_at_initial_best():
    result = differential_evolution(_quadratic(np.full(4, 0.7)), dim=4, de=DeConfig(seed=0, max_generations=50))
    hist = result.history
    assert len(hist) == result.generations + 1
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] == result.best_value


def test_de_maximization_flips_orientation():
    center = np.full(3, 0.5)

    def evaluate(x):
        return -float(np.sum((x - center) ** 2))  # peak at the center

    obj = Objective(name="speed", direction="maximize", evaluate_batch=lambda X: [evaluate(x) for x in X])
    result = differential_evolution(obj, dim=3, de=DeConfig(seed=1, max_generations=150))
    assert result.best_value == pytest.approx(0.0, abs=1e-6)
    hist = result.history
    assert all(b >= a for a, b in zip(hist, hist[1:]))  # climbing, not descending


def test_de_respects_box_constraints():
    # optimum outside the box: best feasible point is the corner
    result = differential_evolution(_quadratic(np.array([1.5, -0.5])), dim=2, de=DeConfig(seed=2))
    assert np.all(result.best >= 0.0) and np.all(result.best <= 1.0)
    np.testing.assert_allclose(result.best, [1.0, 0.0], atol=1e-6)


def test_de_seed_point_guarantees_floor():
    # a constant objective never improves; the planted member must survive
    obj = Objective(name="queue", direction="minimize", evaluate_batch=lambda X: [5.0 for x in X])
    seed_point = np.full(6, 0.25)
    result = differential_evolution(obj, dim=6, de=DeConfig(seed=0, max_generations=5), seed_point=seed_point)
    assert result.best_value == 5.0
    assert result.converged  # zero spread converges immediately


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
def test_de_refuses_seed_point_outside_the_box(bad):
    """A seed outside [0, 1] is refused before any evaluation, where a clipped nan seed came back as the best."""
    batches = []
    obj = Objective(name="queue", direction="minimize", evaluate_batch=lambda X: batches.append(X) or [0.0] * len(X))
    wanted = re.escape(f"seed_point must have shape (2,) and lie in [0, 1], got [{bad}, 0.5]")
    with pytest.raises(ValueError, match=f"^{wanted}$"):
        differential_evolution(obj, dim=2, de=DeConfig(), seed_point=[bad, 0.5])
    assert batches == []


def test_de_plants_a_seed_on_the_box_edge_as_given():
    obj = Objective(name="queue", direction="minimize", evaluate_batch=lambda X: [5.0 for x in X])
    seed_point = np.array([0.0, 1.0, 0.5])
    result = differential_evolution(obj, dim=3, de=DeConfig(seed=0, max_generations=2), seed_point=seed_point)
    assert result.best.tolist() == seed_point.tolist()


def test_de_seeded_start_beats_cold_start_early():
    center = np.full(6, 0.42)
    obj = _quadratic(center)
    cold = differential_evolution(obj, dim=6, de=DeConfig(seed=4, max_generations=1))
    warm = differential_evolution(obj, dim=6, de=DeConfig(seed=4, max_generations=1), seed_point=center)
    assert warm.best_value <= cold.best_value
    assert warm.best_value == pytest.approx(0.0, abs=1e-12)


def test_de_default_population_sizing():
    assert DeConfig().resolved_pop_size(6) == 90
    assert DeConfig().resolved_pop_size(12) == 150  # capped
    assert DeConfig(pop_size=40).resolved_pop_size(6) == 40
    with pytest.raises(ValueError):
        DeConfig(pop_size=3).resolved_pop_size(6)
    DeConfig(max_generations=0)  # score the initial population only
    with pytest.raises(ValueError, match="^max_generations must be >= 0, got -3$"):
        DeConfig(max_generations=-3)


@pytest.mark.parametrize("field, value, message", [
    ("pop_size", 10.5, "pop_size must be an integer, got 10.5"),
    ("pop_size", True, "pop_size must be an integer, got True"),
    ("max_generations", 2.5, "max_generations must be an integer, got 2.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", -1, "seed must be >= 0, got -1"),
])
def test_de_config_refuses_each_field_by_name(field, value, message):
    """Refused when built, before DE or numpy's SeedSequence sees the value."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DeConfig(**{field: value})


def test_de_config_takes_numpy_integers():
    de = DeConfig(pop_size=np.int64(8), max_generations=np.int32(2), seed=np.uint64(5))
    assert de.resolved_pop_size(2) == 8
    assert differential_evolution(_quadratic([0.5, 0.5]), dim=2, de=de).generations <= 2


def test_de_is_deterministic():
    obj = _quadratic(np.full(5, 0.6))
    r1 = differential_evolution(obj, dim=5, de=DeConfig(seed=7, max_generations=40))
    r2 = differential_evolution(obj, dim=5, de=DeConfig(seed=7, max_generations=40))
    assert np.array_equal(r1.best, r2.best)
    assert r1.history == r2.history
    assert r1.evaluations == r2.evaluations


# optimize_config's answers (seed 0) on the benchmark's committed twolights table, under the linear model and the
# default MLP: every search lands on the shortest red and longest green, offset 0, at both junctions. Recorded with
# numpy 2.4.6 and its bundled OpenBLAS (SkylakeX kernel) on x86-64. The MLP's float32 training takes the order of
# the BLAS kernel: under OPENBLAS_CORETYPE=Haswell, Zen or Sandybridge its searched prediction moved by up to rel
# 7.5e-5 (speed) and 3.0e-5 (queue), and no configuration moved. So the configurations are pinned exactly, a linear
# prediction to rel 1e-12 and an MLP prediction to rel 8e-4, 10x the largest kernel spread rounded up.
_PREDICTED_RTOL = {"linear": 1e-12, "mlp": 8e-4}
_CORNER = {"J1": IntersectionSignal(red=20, green=54, offset=0), "J2": IntersectionSignal(red=20, green=54, offset=0)}
_PINNED_ANSWERS = {
    ("linear", "speed"): (_CORNER, 6.546035344931586),
    ("linear", "queue"): (_CORNER, 94.36393098666414),
    ("mlp", "speed"): (_CORNER, 6.570511137851912),
    ("mlp", "queue"): (_CORNER, 88.68641405281096),
}


@pytest.fixture(scope="module")
def benchmark_table(twolights_net):
    """The rows of the benchmark's twolights table (read only) and a linear and a default MLP model trained on it."""
    rows = dataset.read_csv(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "data" / "twolights_train.csv")
    X, Y, ids = dataset.feature_matrix(rows)
    return rows, {"linear": fit_linear(X, Y, feature_ids=ids), "mlp": fit_mlp(X, Y, feature_ids=ids)}


@pytest.mark.parametrize("kind, target", list(_PINNED_ANSWERS))
def test_search_answers_are_pinned(benchmark_table, twolights_net, kind, target):
    rows, models = benchmark_table
    result = optimize_config(twolights_net, surrogate_objective(models[kind], target), DeConfig(seed=0),
                             training_rows=rows)
    config, predicted = _PINNED_ANSWERS[kind, target]
    assert result.config == config
    assert result.predicted == pytest.approx(predicted, rel=_PREDICTED_RTOL[kind])


def test_de_input_validation():
    with pytest.raises(ValueError):
        differential_evolution(_quadratic([0.5]), dim=0, de=DeConfig())
    with pytest.raises(ValueError, match=r"^pop_size must be >= 4 for rand/1/bin$"):
        differential_evolution(_quadratic([0.5, 0.5]), dim=2, de=DeConfig(pop_size=3))
    with pytest.raises(ValueError):
        differential_evolution(_quadratic([0.5, 0.5]), dim=2, de=DeConfig(), seed_point=np.zeros(3))
    with pytest.raises(ValueError):
        Objective(name="x", direction="sideways", evaluate_batch=lambda X: [0.0 for x in X])


@pytest.mark.parametrize("dim", [2.5, True, "2"])
def test_de_refuses_a_dimension_that_is_not_an_integer(dim):
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        differential_evolution(_quadratic([0.5, 0.5]), dim=dim, de=DeConfig())


def test_surrogate_objective_reads_named_target_column():
    # plant a linear model: avg_speed = 2 + x0, queue_length = 10 - 3*x1
    model = fit_linear(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([[2.0, 10.0], [3.0, 10.0], [2.0, 7.0], [3.0, 7.0]]),
    )
    speed_obj = surrogate_objective(model, "speed")
    assert speed_obj.direction == "maximize"
    assert speed_obj.evaluate(np.array([1.0, 0.0])) == pytest.approx(3.0, abs=1e-6)

    queue_obj = surrogate_objective(model, "queue")
    assert queue_obj.direction == "minimize"
    assert queue_obj.evaluate(np.array([0.0, 1.0])) == pytest.approx(7.0, abs=1e-6)

    with pytest.raises(ValueError, match="target"):
        surrogate_objective(model, "throughput")

    speed_only = fit_linear(np.zeros((4, 2)), np.zeros(4), targets=("avg_speed",))
    with pytest.raises(ValueError, match="queue_length"):
        surrogate_objective(speed_only, "queue")


def test_de_on_linear_surrogate_reaches_box_optimum():
    model = fit_linear(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([[2.0, 10.0], [3.0, 10.0], [2.0, 7.0], [3.0, 7.0]]),
    )
    result = differential_evolution(surrogate_objective(model, "queue"), dim=2, de=DeConfig(seed=0))
    # queue = 10 - 3*x1 is minimized at x1 = 1
    assert result.best_value == pytest.approx(7.0, abs=1e-6)
    assert result.best[1] == pytest.approx(1.0, abs=1e-6)


def _fake_rows():
    rows = []
    for i, (red, green, offset, speed, queue) in enumerate(
        [(30, 30, 0, 6.0, 40.0), (20, 54, 0, 7.5, 25.0), (54, 20, 10, 5.0, 60.0)]
    ):
        rows.append(
            DatasetRow(i, i, {"X": IntersectionSignal(red, green, offset)}, speed, queue, "ok")
        )
    rows.append(DatasetRow(3, 3, {"X": IntersectionSignal(20, 20, 0)}, 99.0, 0.0, "failed: x"))
    return rows


def test_best_training_row_per_direction():
    rows = _fake_rows()
    assert best_training_row(rows, "speed").run_id == 1
    assert best_training_row(rows, "queue").run_id == 1
    assert best_training_row([rows[3]], "speed") is None
    with pytest.raises(ValueError, match="target must be one of"):
        best_training_row(rows, "throughput")


def test_optimize_config_never_worse_than_training_seed(cross_net):
    rows = _fake_rows()

    # adversarial evaluator: scores the training seed best everywhere else
    seed_vec = encode(rows[1].config, cross_net)

    def evaluate(x):
        return 25.0 if np.allclose(x, seed_vec) else 50.0

    obj = Objective(name="queue", direction="minimize", evaluate_batch=lambda X: [evaluate(x) for x in X])
    result = optimize_config(cross_net, obj, DeConfig(seed=0, max_generations=3), training_rows=rows)
    assert result.config == rows[1].config
    assert result.predicted == 25.0
    assert result.seed_config == rows[1].config


def test_optimize_config_snaps_to_integer_lattice(cross_net):
    model = fit_linear(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([4.0, 6.0, 5.0, 4.5]),
        targets=("avg_speed",),
    )
    obj = surrogate_objective(model, "speed")
    result = optimize_config(cross_net, obj, DeConfig(seed=0, max_generations=100))
    sig = result.config["X"]
    assert isinstance(sig.red, int) and isinstance(sig.green, int) and isinstance(sig.offset, int)
    # speed = 4 + 2*red' + skew grows with red: pushed to the top of the range
    assert sig.red == 54
    # predicted value is the evaluator's score of the snapped config
    assert result.predicted == pytest.approx(obj.evaluate(encode(result.config, cross_net)))


def test_optimize_config_requires_signals(ring_net):
    obj = Objective(name="queue", direction="minimize", evaluate_batch=lambda X: [0.0 for x in X])
    with pytest.raises(ValueError, match="^network has no signalized intersections; nothing to vary$"):
        optimize_config(ring_net, obj, DeConfig())


def test_simulation_objective_and_validate_agree(cross_net):
    params = SimParams(seed=4)
    state0 = initialize(cross_net, {}, params, default_speed=8.0)
    runner = BatchRunner(cross_net, state0, params, horizon=30.0, warmup=10.0)
    obj = simulation_objective(runner, "speed")
    config = {"X": IntersectionSignal(red=30, green=30, offset=0)}
    value = obj.evaluate(encode(config, cross_net))
    metrics = run(cross_net, state0, config, params, horizon=30.0, warmup=10.0).metrics
    assert value == metrics.avg_speed

    with pytest.raises(ValueError):
        simulation_objective(runner, "delay")


def test_simulation_objective_raises_a_failed_run(cross_net, monkeypatch):
    # a failed candidate has no value to rank, so the search stops with the run's diagnostic
    def blow_up(*args, **kwargs):
        raise SimulationError("non-finite state on edge n_in cell 1\n  at step 3")

    monkeypatch.setattr(dataset, "run", blow_up)
    params = SimParams(seed=4)
    runner = BatchRunner(cross_net, initialize(cross_net, {}, params, default_speed=8.0), params, horizon=30.0,
                         warmup=10.0)
    with pytest.raises(SimulationError, match="^a candidate's run failed: SimulationError: non-finite state on "
                                              "edge n_in cell 1 at step 3$"):
        simulation_objective(runner, "speed").evaluate_batch(np.full((2, 3), 0.5))


def test_simulation_batch_evaluator_matches_scalar_evaluate(cross_net):
    params = SimParams(seed=4)
    state0 = initialize(cross_net, {}, params, default_speed=8.0)
    X = np.random.default_rng(6).uniform(0.0, 1.0, (7, 3))
    for target in ("speed", "queue"):
        obj = simulation_objective(BatchRunner(cross_net, state0, params, horizon=30.0, warmup=10.0), target)
        assert list(obj.evaluate_batch(X)) == [obj.evaluate(x) for x in X]


@pytest.mark.parametrize("n", [4, 5, 150])
def test_draw_donors_gives_three_distinct_other_members(n):
    rng = np.random.default_rng(0)
    for _ in range(200 if n < 150 else 20):
        donors = draw_donors(rng, n)
        assert donors.shape == (n, 3)
        assert donors.min() >= 0 and donors.max() < n
        own = np.arange(n)[:, None]
        assert np.all(donors != own)
        assert np.all(donors[:, 0] != donors[:, 1])
        assert np.all(donors[:, 0] != donors[:, 2])
        assert np.all(donors[:, 1] != donors[:, 2])


def test_draw_donors_covers_every_ordered_triple():
    # at n = 4 each member has exactly 3 others, so 3! = 6 ordered draws per member
    rng = np.random.default_rng(1)
    seen = {(i, *row) for _ in range(300) for i, row in enumerate(draw_donors(rng, 4).tolist())}
    assert len(seen) == 4 * 6
    assert {s[1:] for s in seen if s[0] == 0} == {(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("target", ["speed", "queue"])
def test_surrogate_batch_evaluator_matches_scalar_evaluate(kind, target):
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, (40, 6))
    Y = np.column_stack([X @ rng.normal(size=6) + 5.0, np.sin(3.0 * X[:, 0]) - X[:, 1]])
    if kind == "linear":
        model = fit_linear(X, Y)
    else:
        model = fit_mlp(X, Y, MlpHyper(hidden=(12, 6), max_epochs=20, patience=20), seed=0)
    obj = surrogate_objective(model, target)
    X = np.random.default_rng(4).uniform(0.0, 1.0, (90, 6))
    batch = obj.evaluate_batch(X)
    assert batch.shape == (90,)
    np.testing.assert_allclose(batch, [obj.evaluate(x) for x in X], rtol=1e-12, atol=0.0)


def test_de_with_smallest_population_is_deterministic():
    obj = _quadratic(np.full(3, 0.8))
    de = DeConfig(pop_size=4, seed=2, max_generations=80)
    r1 = differential_evolution(obj, dim=3, de=de)
    r2 = differential_evolution(obj, dim=3, de=de)
    assert np.array_equal(r1.best, r2.best)
    assert r1.history == r2.history
    assert r1.evaluations == r2.evaluations == 4 * (r1.generations + 1)
    assert all(b <= a for a, b in zip(r1.history, r1.history[1:]))
