"""Signal-timing optimization by differential evolution over [0, 1]^d.

The search runs on the continuous configuration encoding; candidate timings
are decoded back onto the integer lattice before anything is simulated. A
known good configuration (typically the best row of the training dataset)
can be planted as population member 0, which guarantees the result is never
worse than that seed under the same evaluator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import signals
from .metrics import METRICS
from .solver import SimulationError
from .surrogate import predict


class Target(NamedTuple):
    metric: str     # field of CongestionMetrics and DatasetRow, and the surrogate target name
    direction: str  # "maximize" or "minimize"


TARGETS = {"speed": Target("avg_speed", "maximize"), "queue": Target("queue_length", "minimize")}
TARGET_COLUMNS = {name: METRICS.index(target.metric) for name, target in TARGETS.items()}  # in feature_matrix's Y

MUTATION = 0.7          # scale of the donor difference
CROSSOVER = 0.9         # probability that a coordinate comes from the mutant
CONVERGENCE_TOL = 1e-8  # relative population value spread at which a search stops


@dataclass(frozen=True)
class DeConfig:
    """Differential evolution settings (rand/1/bin, synchronous selection)."""

    pop_size: int | None = None   # default: 15 * dim, capped at 150
    max_generations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.max_generations < 0:
            raise ValueError(f"max_generations must be >= 0, got {self.max_generations!r}")

    def resolved_pop_size(self, dim: int) -> int:
        if self.pop_size is not None:
            if self.pop_size < 4:
                raise ValueError("pop_size must be >= 4 for rand/1/bin")
            return self.pop_size
        return min(150, 15 * dim)


@dataclass(frozen=True)
class Objective:
    """What to optimize: a batch evaluator over encoded vectors, (n, d) -> (n,), and a direction."""

    name: str
    direction: str  # "maximize" or "minimize"
    evaluate_batch: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.direction not in ("maximize", "minimize"):
            raise ValueError("direction must be 'maximize' or 'minimize'")

    def evaluate(self, x: np.ndarray) -> float:
        """Value of one encoded vector: the one-row case of evaluate_batch."""
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[None])[0])

    def internal(self, x: np.ndarray) -> float:
        """Internal value of one encoded vector: the one-row case of internal_batch."""
        return float(self.internal_batch(np.asarray(x, dtype=float)[None])[0])

    def internal_batch(self, X: np.ndarray) -> np.ndarray:
        """Internal values of every row of X in one evaluate_batch call."""
        values = np.asarray(self.evaluate_batch(X), dtype=float)
        return -values if self.direction == "maximize" else values

    def external(self, internal_value: float) -> float:
        return -internal_value if self.direction == "maximize" else internal_value


@dataclass
class DeResult:
    best: np.ndarray
    best_value: float        # in the objective's own orientation
    history: list[float]     # best-so-far per generation, same orientation
    evaluations: int
    generations: int
    converged: bool


def draw_donors(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) donor indices: row i holds three distinct members other than i.

    Drawn for all rows at once: pick j comes from the n - 1 - j slots left, shifted past earlier picks in
    ascending order, then past i.
    """
    picks = rng.integers(0, [n - 1, n - 2, n - 3], size=(n, 3))
    first, second, third = picks.T  # views: the shifts write into picks
    second += second >= first
    third += third >= np.minimum(first, second)
    third += third >= np.maximum(first, second)
    return picks + (picks >= np.arange(n)[:, None])


def differential_evolution(objective: Objective, dim: int, de: DeConfig, seed_point=None) -> DeResult:
    """Minimize (or maximize) over the unit box with rand/1/bin.

    One generation builds a trial for every member from three distinct other
    members (donor + scaled difference), crosses it binomially with the member
    (one forced coordinate) and clips it to the box, all as whole arrays, and
    scores the trials in one ``internal_batch`` call. Selection is synchronous:
    each trial replaces its pre-generation member if it scores no worse. The
    best-so-far history is monotone by construction. Stops early when the
    population's value spread falls below CONVERGENCE_TOL relative to the best value.
    A ``seed_point`` becomes member 0 as given; one outside the box is refused.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(de.seed)
    np_size = de.resolved_pop_size(dim)

    pop = rng.uniform(0.0, 1.0, (np_size, dim))
    if seed_point is not None:
        seed_point = np.asarray(seed_point, dtype=float)
        if seed_point.shape != (dim,) or not np.all((0 <= seed_point) & (seed_point <= 1)):
            raise ValueError(f"seed_point must have shape ({dim},) and lie in [0, 1], got {seed_point.tolist()}")
        pop[0] = seed_point

    values = objective.internal_batch(pop)
    evaluations = np_size
    best_idx = int(np.argmin(values))
    best = pop[best_idx].copy()
    best_value = float(values[best_idx])
    history = [objective.external(best_value)]

    converged = False
    generations = 0
    for generations in range(1, de.max_generations + 1):
        a, b, c = draw_donors(rng, np_size).T
        mutants = pop[a] + MUTATION * (pop[b] - pop[c])
        cross = rng.random((np_size, dim)) < CROSSOVER
        cross[np.arange(np_size), rng.integers(dim, size=np_size)] = True
        trials = np.clip(np.where(cross, mutants, pop), 0.0, 1.0)

        trial_values = objective.internal_batch(trials)
        evaluations += np_size
        better = trial_values <= values
        pop[better] = trials[better]
        values[better] = trial_values[better]

        gen_best = int(np.argmin(values))
        if values[gen_best] < best_value:
            best_value = float(values[gen_best])
            best = pop[gen_best].copy()
        history.append(objective.external(best_value))

        spread = float(values.max()) - float(values.min())  # Python floats: inf - inf is nan without a warning
        if spread <= CONVERGENCE_TOL * max(abs(best_value), 1e-12):
            converged = True
            break

    return DeResult(
        best=best,
        best_value=objective.external(best_value),
        history=history,
        evaluations=evaluations,
        generations=generations,
        converged=converged,
    )


def _lookup(target: str) -> Target:
    if target not in TARGETS:
        raise ValueError(f"target must be one of {sorted(TARGETS)}, got {target!r}")
    return TARGETS[target]


def surrogate_objective(model, target: str) -> Objective:
    """Objective that reads one target's prediction from a surrogate model."""
    metric, direction = _lookup(target)
    names = list(model.targets)
    if metric not in names:
        raise ValueError(f"model predicts {names}, not {metric}; retrain with that target")
    column = names.index(metric)

    def evaluate_batch(X: np.ndarray) -> np.ndarray:
        # a model whose numbers overflow predicts inf or nan, which DE ranks as it does any value and optimize refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return predict(model, X)[:, column]

    return Objective(name=target, direction=direction, evaluate_batch=evaluate_batch)


def simulate(runner, configs: list) -> list:
    """CongestionMetrics of each configuration, run through one call of ``runner``, a ``dataset.BatchRunner``.

    A run that fails raises SimulationError with the run's diagnostic.
    """
    outcomes = runner(configs)
    failed = [outcome for outcome in outcomes if isinstance(outcome, str)]
    if failed:
        raise SimulationError(f"a candidate's run failed: {failed[0]}")
    return outcomes


def simulation_objective(runner, target: str) -> Objective:
    """Objective that decodes vectors to integer timings and simulates them.

    Its batch evaluator runs every row of a population through ``simulate``.
    """
    metric, direction = _lookup(target)

    def evaluate_batch(X: np.ndarray) -> list[float]:
        outcomes = simulate(runner, [signals.decode(x, runner.net) for x in np.asarray(X, dtype=float)])
        return [getattr(metrics, metric) for metrics in outcomes]

    return Objective(name=target, direction=direction, evaluate_batch=evaluate_batch)


def best_training_row(rows, target: str):
    """Best successful dataset row under a target's direction, or None."""
    metric, direction = _lookup(target)
    ok = [r for r in rows if r.ok]
    if not ok:
        return None
    best = max if direction == "maximize" else min
    return best(ok, key=lambda r: getattr(r, metric))


@dataclass
class OptimizationResult:
    config: dict
    predicted: float          # evaluator value of the returned configuration
    objective: str
    direction: str
    de: DeResult
    seed_config: dict | None


def optimize_config(net, objective: Objective, de: DeConfig, training_rows=None) -> OptimizationResult:
    """Run DE over a network's encoded configurations and snap to the lattice.

    When training rows are given, the best row for the objective seeds the
    population, its encoding planted as given. The continuous optimum is
    decoded to integer timings and re-evaluated; if a seed was planted and
    still scores better than the snapped optimum, the seed is returned, so
    the result is never worse than the seed under the same evaluator.
    """
    dim = 3 * len(signals.varied_ids(net))

    seed_config = None
    seed_point = None
    if training_rows:
        row = best_training_row(training_rows, objective.name)
        if row is not None:
            seed_config = row.config
            seed_point = signals.encode(seed_config, net)

    de_result = differential_evolution(objective, dim, de, seed_point=seed_point)

    snapped = signals.decode(de_result.best, net)
    candidates = [snapped]
    if seed_config is not None:
        candidates.append(seed_config)
    scored = [(objective.internal(signals.encode(c, net)), c) for c in candidates]
    scored.sort(key=lambda item: item[0])
    best_internal, best_config = scored[0]

    return OptimizationResult(
        config=best_config,
        predicted=objective.external(best_internal),
        objective=objective.name,
        direction=objective.direction,
        de=de_result,
        seed_config=seed_config,
    )
