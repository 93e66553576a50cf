"""Surrogate models predicting congestion metrics from encoded signal timings.

One model type, two trainers. A ``Model`` is hidden layers, then a linear
read-out, then de-standardized targets. ``fit_linear`` solves least squares
through the normal equations (with a tiny ridge term for rank safety) and
returns the read-out alone; ``fit_mlp`` trains two hidden layers by default, by
mini-batch Adam on standardized targets. Features are the [0, 1] configuration
encoding. Model quality is the k-fold CV RMSE pooled over all held-out rows.

The MLP trainer trains a stack of models that differ only in ``alpha`` and
``learning_rate`` at once, each bit for bit as it would train alone; ``fit_mlp``
is the stack of one. One fold loop, ``_cross_validate``, serves ``kfold_rmse``
(one model, in this process) and ``grid_search_mlp``, which on each fold trains
the four (alpha, learning rate) candidates of an activation as one stack, so
the grid costs 2k trainings of 4 models rather than 8k of one. Those 2k stacks
are independent and deterministic, so where worker processes fork they run on
every usable CPU, and they score the same for any worker count.

The MLP trainer runs in float32, the usual precision for training neural
networks, and returns its models in float64, so ``predict``, model files and
the optimizer see one dtype. Its predictions lie within 1e-6 of a float64
trainer's at a fixed epoch count; early stopping may stop at another epoch.

Both trainers refuse, with a ValueError, targets above ``TARGET_MAX`` in
magnitude: squared, finite but huge targets overflow into a model that is not
finite. The MLP trainer also refuses features that are not finite or are above
``FEATURE_MAX`` in magnitude, which its float32 arithmetic could overflow on.
Both refuse a ``targets`` tuple that names fewer than Y's columns, since
``load_model`` refuses the file of such a model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _pool
from ._files import Fields, read_json, write_json
from .metrics import METRICS

RIDGE = 1e-8               # ridge term of the linear fit's normal equations
BATCH_SIZE = 32            # MLP mini-batch rows
VALIDATION_FRACTION = 0.1  # share of rows the MLP holds out for early stopping
TARGET_MAX = 1e150         # largest target magnitude a fit takes: fits and scores square errors of that size
FEATURE_MAX = 1e6          # largest feature magnitude the MLP trainer takes: its float32 Adam squares gradients


class SurrogateError(Exception):
    pass


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class MlpHyper:
    """Training hyperparameters for the neural surrogate."""

    hidden: tuple[int, ...] = (100, 50)
    activation: str = "relu"
    learning_rate: float = 0.001
    alpha: float = 0.0001       # L2 penalty on the weight matrices
    max_epochs: int = 500
    patience: int = 10          # epochs without validation improvement before stopping
    tol: float = 1e-4           # minimum improvement that resets patience

    def __post_init__(self):
        if self.activation not in ("relu", "tanh"):
            raise ValueError("activation must be 'relu' or 'tanh'")
        sizes = self.hidden if isinstance(self.hidden, tuple | list) else ()
        for name, ok, rule in (
            ("hidden", sizes and all(_is_int(h) and h >= 1 for h in sizes), "a non-empty sequence of integers >= 1"),
            ("max_epochs", _is_int(self.max_epochs) and self.max_epochs >= 1, "an integer >= 1"),
            ("patience", _is_int(self.patience) and self.patience >= 1, "an integer >= 1"),
            ("learning_rate", self.learning_rate > 0, "> 0"),
            ("alpha", self.alpha >= 0, ">= 0"),
            ("tol", self.tol >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Model:
    """Hidden layers, a linear read-out, then ``* target_scale + target_mean``; a linear model has no hidden layers."""

    weights: np.ndarray       # read-out matrix (inputs, n_targets)
    intercept: np.ndarray     # read-out bias (n_targets,)
    target_mean: np.ndarray   # (n_targets,)
    target_scale: np.ndarray  # (n_targets,)
    hidden: tuple[tuple[np.ndarray, np.ndarray], ...] = ()  # (W, b) of each hidden layer
    activation: str = "relu"
    targets: tuple[str, ...] = METRICS
    feature_ids: tuple[str, ...] = ()
    epochs_trained: int = 0

    @property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(W, b) of every layer, the read-out last."""
        return (*self.hidden, (self.weights, self.intercept))


def _as_2d(Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    return Y[:, None] if Y.ndim == 1 else Y


def _check_magnitude(values, bound: float, name: str) -> None:
    """Raise ValueError unless every value is finite and at most ``bound`` in magnitude."""
    largest = np.abs(values).max()
    if not largest <= bound:
        raise ValueError(f"{name} must be at most {bound:g} in magnitude, got {largest:.6g}")


def _target_names(targets, Y: np.ndarray) -> tuple[str, ...]:
    """The names of Y's columns: the first Y.shape[1] of ``targets``, which must name every column."""
    names = tuple(targets)
    if len(names) < Y.shape[1]:
        raise ValueError(f"targets {list(names)} name {len(names)} of Y's {Y.shape[1]} columns")
    return names[: Y.shape[1]]


def fit_linear(X, Y, targets=METRICS, feature_ids=()) -> Model:
    """Least squares with intercept through the normal equations.

    Solving one system with a multi-column right-hand side decouples across
    targets, so joint and per-target fits agree. The RIDGE term is small
    enough to be invisible at any sane conditioning but keeps degenerate
    designs solvable.
    """
    X = np.asarray(X, dtype=float)
    Y = _as_2d(Y)
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X must be 2-d with one row per target row")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty design matrix")
    _check_magnitude(Y, TARGET_MAX, "targets")
    names = _target_names(targets, Y)
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    gram = A.T @ A + RIDGE * np.eye(A.shape[1])
    theta = np.linalg.solve(gram, A.T @ Y)
    return Model(
        weights=theta[:-1, :], intercept=theta[-1, :], target_mean=np.zeros(Y.shape[1]),
        target_scale=np.ones(Y.shape[1]), targets=names, feature_ids=tuple(feature_ids),
    )


def _forward(weights, biases, X, activation):
    """Activations per layer, the input first; each hidden layer is activated in place.

    Layers may be stacked: (S, fan_in, fan_out) weights and (S, 1, fan_out) biases run S models on one X.
    """
    acts = [X]
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = acts[-1] @ W
        h += b
        if i < last and activation == "relu":
            np.maximum(h, 0.0, out=h)
        elif i < last:
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def _backprop(weights, biases, X, Y, activation, alpha, grads_w, grads_b):
    """Writes the gradients of loss_and_gradients' loss into grads_w and grads_b; returns pred - Y.

    The activation's derivative comes from the stored activation a: a > 0 for relu, 1 - a^2 for tanh.
    A bias gradient keeps the summed row axis: (1, fan_out), or (S, 1, fan_out) for stacked layers (see
    ``_forward``), whose ``alpha`` may hold one value per model, shaped (S, 1, 1).
    """
    m = X.shape[0]
    acts = _forward(weights, biases, X, activation)
    resid = acts[-1]
    resid -= Y
    delta = resid / m
    penalty = alpha / m
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=grads_w[i])
        grads_w[i] += penalty * weights[i]
        np.add.reduce(delta, axis=-2, keepdims=True, out=grads_b[i])
        if i > 0:
            a = acts[i]
            delta = delta @ weights[i].swapaxes(-1, -2)
            delta *= (a > 0) if activation == "relu" else 1.0 - a * a
    return resid


def loss_and_gradients(weights, biases, X, Y, activation, alpha):
    """Mean squared error plus L2 weight penalty, and its exact gradients.

    loss = ||pred - Y||^2 / (2m) + alpha * sum(W^2) / (2m) with m = len(X).
    Biases are not penalized. Training uses the gradients only, through the
    same ``_backprop``; the finite-difference gradient check uses both.
    """
    m = X.shape[0]
    grads_w = [np.empty_like(W) for W in weights]
    grads_b = [np.empty((1, *b.shape)) for b in biases]
    resid = _backprop(weights, biases, X, Y, activation, alpha, grads_w, grads_b)
    loss = float(np.sum(resid**2)) / (2 * m)
    loss += alpha * sum(float(np.sum(W**2)) for W in weights) / (2 * m)
    return loss, grads_w, [g[0] for g in grads_b]


def _layer_views(buffer, sizes, stack: int):
    """(stack, fan_in, fan_out) weight and (stack, 1, fan_out) bias views of each layer into a flat buffer.

    The buffer holds each layer's ``stack`` weight matrices, then their bias rows, then the next layer's,
    so a stack of one is laid out W0, b0, W1, b1, ... and every stacked view is contiguous.
    """
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        for views, shape in ((weights, (stack, fan_in, fan_out)), (biases, (stack, 1, fan_out))):
            views.append(buffer[at : at + math.prod(shape)].reshape(shape))
            at += math.prod(shape)
    return weights, biases


def fit_mlp(X, Y, hyper: MlpHyper = MlpHyper(), seed: int = 0, targets=METRICS, feature_ids=()) -> Model:
    """Train the neural surrogate in float32 and return it in float64; deterministic for a fixed seed.

    Targets are standardized internally. A seeded shuffle sets aside
    VALIDATION_FRACTION of the rows; training stops when the validation
    MSE has not improved by more than ``tol`` for ``patience`` consecutive
    epochs (or at ``max_epochs``), and the weights of the best validation
    epoch are kept.
    """
    return _fit_stack(X, Y, [hyper], seed, targets, feature_ids)[0]


def _fit_stack(X, Y, hypers, seed: int = 0, targets=METRICS, feature_ids=()) -> list[Model]:
    """One model per hyperparameter set, each bit for bit the model ``fit_mlp`` trains with that set alone.

    The sets may differ in ``alpha`` and ``learning_rate`` only. Nothing the
    seeded generator draws depends on those two (the validation split, the
    initial weights, every epoch's shuffle), so the S models train in
    lockstep: parameters, gradients and Adam moments are buffers of S models,
    each layer is a contiguous (S, fan_in, fan_out) view, and its matmul is one
    stacked call whose slices are the 2-D products of a lone fit. Early
    stopping and the best-epoch snapshot are per model; a model that has
    stopped keeps stepping until all have, its snapshot final.

    Targets are standardized in float64; training then runs in float32 (rows,
    parameters, gradients, Adam moments and rates), and the models' arrays are
    float64 copies of the best float32 parameters.
    """
    X = np.asarray(X, dtype=float)
    Y = _as_2d(Y)
    if X.shape[0] != Y.shape[0] or X.ndim != 2:
        raise ValueError("X and Y must have matching row counts")
    n = X.shape[0]
    if n < 3:
        raise ValueError("need at least 3 rows to train with a validation split")
    hyper = hypers[0]
    if any(replace(h, alpha=hyper.alpha, learning_rate=hyper.learning_rate) != hyper for h in hypers):
        raise ValueError("stacked fits may differ in alpha and learning_rate only")
    _check_magnitude(Y, TARGET_MAX, "targets")
    _check_magnitude(X, FEATURE_MAX, "features")
    names = _target_names(targets, Y)

    mean = Y.mean(axis=0)
    scale = Y.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    Ys = ((Y - mean) / scale).astype(np.float32)
    X = X.astype(np.float32)

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(VALIDATION_FRACTION * n)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split leaves no training rows")
    X_train, Y_train = X[train_idx], Ys[train_idx]
    X_val, Y_val = X[val_idx], Ys[val_idx]

    # weights and biases are views into theta, their gradients views into grad laid out alike: Adam and the
    # snapshot act on whole preallocated buffers, so a step allocates only inside backprop. Every array of
    # the step loop is float32 and every scalar a Python float, which numpy applies in float32.
    stack = len(hypers)
    sizes = [X.shape[1], *hyper.hidden, Y.shape[1]]
    theta = np.zeros(stack * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:])),
                     dtype=np.float32)
    grad = np.empty_like(theta)
    views = _layer_views(theta, sizes, stack)
    for W in views[0]:
        limit = np.sqrt(6.0 / (W.shape[1] + W.shape[2]))
        W[...] = rng.uniform(-limit, limit, W.shape[1:])
    best_theta = theta.copy()
    (weights, biases), (grads_w, grads_b) = views, _layer_views(grad, sizes, stack)
    alpha = np.array([h.alpha for h in hypers], dtype=np.float32)[:, None, None]
    rates = np.array([h.learning_rate for h in hypers])[:, None, None]
    learning_rate = np.empty_like(theta)  # each parameter's own model's rate
    for view in sum(_layer_views(learning_rate, sizes, stack), []):
        view[...] = rates
    # (snapshot, current) pairs of every layer's arrays, indexed by model
    snapshot = list(zip(sum(_layer_views(best_theta, sizes, stack), []), sum(views, [])))

    m, v, step = np.zeros((3, *theta.shape), dtype=np.float32)
    denom = grad  # backprop rewrites grad before it is read again, so it can hold Adam's denominator
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    adam_t = 0

    best_val = [np.inf] * stack
    stall = [0] * stack
    epochs_done = [hyper.max_epochs] * stack  # unless a model stops early
    training = list(range(stack))

    n_train = X_train.shape[0]
    for epoch in range(hyper.max_epochs):
        perm = rng.permutation(n_train)
        X_perm, Y_perm = X_train[perm], Y_train[perm]
        for start in range(0, n_train, BATCH_SIZE):
            batch = slice(start, start + BATCH_SIZE)
            _backprop(weights, biases, X_perm[batch], Y_perm[batch], hyper.activation, alpha, grads_w, grads_b)
            adam_t += 1
            # theta -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps), one operation at a time
            m *= beta1
            m += np.multiply(grad, 1 - beta1, out=step)
            v *= beta2
            v += np.multiply(np.square(grad, out=step), 1 - beta2, out=step)
            np.sqrt(np.divide(v, 1.0 - beta2**adam_t, out=denom), out=denom)
            denom += eps
            np.divide(m, 1.0 - beta1**adam_t, out=step)
            step *= learning_rate
            step /= denom
            theta -= step

        squared = ((_forward(weights, biases, X_val, hyper.activation)[-1] - Y_val) ** 2).reshape(stack, -1)
        for s in list(training):
            val_mse = float(np.mean(squared[s]))
            if val_mse < best_val[s] - hyper.tol:
                best_val[s] = val_mse
                for best, now in snapshot:
                    best[s] = now[s]
                stall[s] = 0
            else:
                stall[s] += 1
                if stall[s] >= hyper.patience:
                    epochs_done[s] = epoch + 1
                    training.remove(s)
        if not training:
            break

    weights, biases = _layer_views(best_theta.astype(float), sizes, stack)
    return [
        Model(
            weights=weights[-1][s],
            intercept=biases[-1][s, 0],
            target_mean=mean,
            target_scale=scale,
            hidden=tuple((W[s], b[s, 0]) for W, b in zip(weights[:-1], biases[:-1])),
            activation=hyper.activation,
            targets=names,
            feature_ids=tuple(feature_ids),
            epochs_trained=epochs_done[s],
        )
        for s in range(stack)
    ]


def predict(model: Model, X) -> np.ndarray:
    """Per-target predictions; accepts a single feature vector or a matrix."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    weights, biases = zip(*model.layers)
    out = _forward(weights, biases, X, model.activation)[-1] * model.target_scale + model.target_mean
    return out[0] if single else out


def _folds(n: int, k: int, seed: int):
    """(train, held_out) rows of each of k folds of one seeded shuffle; a fold trains on the others in order."""
    if not (2 <= k <= n):
        raise ValueError(f"k must be in [2, {n}]")
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    return [(np.concatenate(folds[:j] + folds[j + 1 :]), held_out) for j, held_out in enumerate(folds)]


def _pooled_rmse(pooled, Y):
    """(per_target_rmse, mean_over_targets) of the pooled held-out predictions."""
    per_target = np.sqrt(np.mean((pooled - Y) ** 2, axis=0))
    return per_target, float(np.mean(per_target))


def _held_out_predictions(context, task) -> np.ndarray:
    """(models, held-out rows, targets) predictions of the models one fit trains on one fold's other rows."""
    X, Y, fits = context
    train, held_out, j = task
    return np.stack([predict(model, X[held_out]) for model in fits[j](X[train], Y[train])])


def _cross_validate(fits, X, Y, k: int, seed: int, workers: int):
    """(per_target_rmse, mean_over_targets) of every model the fits train, pooled over all held-out rows.

    ``fits[j](X_train, Y_train)`` returns a list of models; the scores follow the fits, then each fit's models.
    """
    X = np.asarray(X, dtype=float)
    Y = _as_2d(Y)
    tasks = [(train, held_out, j) for train, held_out in _folds(X.shape[0], k, seed) for j in range(len(fits))]
    pooled = {}
    for (_, held_out, j), predictions in zip(tasks, _pool.run(_held_out_predictions, (X, Y, fits), tasks, workers)):
        pooled.setdefault(j, np.empty((len(predictions), *Y.shape)))[:, held_out] = predictions
    return [_pooled_rmse(p, Y) for j in range(len(fits)) for p in pooled[j]]


def kfold_rmse(fit, X, Y, k: int = 5, seed: int = 0):
    """Cross-validated RMSE pooled over all held-out rows.

    ``fit`` is any callable (X_train, Y_train) -> model usable by
    :func:`predict`. Rows are shuffled once with the given seed and split
    into k folds; each row is predicted by the model trained without it, and
    the RMSE is computed per target over the pooled predictions. Returns
    (per_target_rmse, mean_over_targets). The folds train in this process:
    a linear fit takes microseconds, far less than starting a worker.
    """
    return _cross_validate([lambda Xt, Yt: [fit(Xt, Yt)]], X, Y, k, seed, workers=1)[0]


def grid_search_mlp(X, Y, seed: int = 0, k: int = 5, base: MlpHyper = MlpHyper()):
    """Small exhaustive search over the neural surrogate's training grid.

    Tries activation {relu, tanh} x alpha {1e-4, 1e-3} x learning rate
    {1e-3, 1e-2}, scores each by k-fold pooled RMSE, and returns
    (best_hyper, results) with results as (hyper, per_target_rmse, mean)
    triples; the best has the first lowest mean. Each score is ``kfold_rmse``
    over ``fit_mlp`` with that candidate; on each fold, the four candidates
    of an activation train together as one stack. The 2k (fold, activation)
    stacks run on every usable CPU where worker processes fork, else in this
    process; the results are the same either way.
    """
    grid = [[replace(base, activation=activation, alpha=alpha, learning_rate=lr)
             for alpha in (0.0001, 0.001) for lr in (0.001, 0.01)] for activation in ("relu", "tanh")]
    fits = [partial(_fit_stack, hypers=stack, seed=seed) for stack in grid]
    scores = _cross_validate(fits, X, Y, k, seed, _pool.forked_cpus())
    results = [(hyper, *score) for hyper, score in zip(sum(grid, []), scores)]
    best = min(results, key=lambda item: item[2])
    return best[0], results


def save_model(model: Model, path) -> None:
    """Persist a surrogate as a structured text document; ``weights`` and ``biases`` list every layer."""
    write_json({
        "targets": list(model.targets),
        "feature_ids": list(model.feature_ids),
        "activation": model.activation,
        "weights": [W.tolist() for W, _ in model.layers],
        "biases": [b.tolist() for _, b in model.layers],
        "target_mean": model.target_mean.tolist(),
        "target_scale": model.target_scale.tolist(),
        "epochs_trained": model.epochs_trained,
    }, path)


def load_model(path) -> Model:
    """Read a model as written by save_model; a bad document raises SurrogateError naming the file and key.

    Every number must be finite, the layers must chain from the inputs to one output per target, weights,
    biases and target means must be at most TARGET_MAX in magnitude, and target scales in (0, TARGET_MAX].
    """
    doc = read_json(path, SurrogateError)
    fields = Fields(path, SurrogateError)
    weights, biases = fields(doc, "weights", [[[float]]]), fields(doc, "biases", [[float]])
    for i, W in enumerate(weights):
        if len(set(map(len, W))) > 1:
            raise SurrogateError(f"{path}: weights[{i}]: expected rows of one length")
    if not weights or len(weights) != len(biases):
        raise SurrogateError(f"{path}: {len(weights)} weight matrices for {len(biases)} bias vectors")
    activation = fields(doc, "activation", str)
    if activation not in ("relu", "tanh"):
        raise SurrogateError(f"{path}: activation: expected 'relu' or 'tanh', got {activation!r}")
    layers = [(np.array(W), np.array(b)) for W, b in zip(weights, biases)]
    mean, scale = np.array(fields(doc, "target_mean", [float])), np.array(fields(doc, "target_scale", [float]))
    numbers = dict(zip(("weights", "biases", "target_mean", "target_scale"),
                       (np.concatenate([np.ravel(a) for a in arrays]) for arrays in (*zip(*layers), [mean], [scale]))))
    for key, value in numbers.items():
        if not np.isfinite(value).all():
            raise SurrogateError(f"{path}: {key}: expected finite numbers")
    for key, ok, rule in (
        *((key, np.abs(numbers[key]) <= TARGET_MAX, f"at most {TARGET_MAX:g} in magnitude")
          for key in ("weights", "biases", "target_mean")),
        ("target_scale", (scale > 0) & (scale <= TARGET_MAX), f"in (0, {TARGET_MAX:g}]"),
    ):
        if not ok.all():
            raise SurrogateError(f"{path}: {key}: expected values {rule}, got {numbers[key][~ok][0]:g}")
    targets = tuple(fields(doc, "targets", [str]))
    width = layers[0][0].shape[0]
    for i, (W, b) in enumerate(layers):
        if W.ndim != 2 or W.shape[0] != width or b.shape != W.shape[1:]:
            raise SurrogateError(f"{path}: layer {i}: weights of shape {W.shape} and bias of shape {b.shape}, "
                                 f"expected ({width}, n) and (n,)")
        width = W.shape[1]
    if width != len(targets):
        raise SurrogateError(f"{path}: {width} model outputs for {len(targets)} targets {list(targets)}")
    for key, value in (("target_mean", mean), ("target_scale", scale)):
        if value.shape != (width,):
            raise SurrogateError(f"{path}: {key}: expected {width} values, got shape {value.shape}")
    return Model(weights=layers[-1][0], intercept=layers[-1][1], target_mean=mean, target_scale=scale,
                 hidden=tuple(layers[:-1]), activation=activation, targets=targets,
                 feature_ids=tuple(fields(doc, "feature_ids", [str])),
                 epochs_trained=fields(doc, "epochs_trained", int, default=0))
