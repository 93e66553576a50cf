"""Surrogate models predicting congestion metrics from encoded signal timings.

One model type, two trainers. A ``Model`` is hidden layers, then a linear
read-out, then de-standardized targets. ``fit_linear`` solves least squares
through the normal equations (with a tiny ridge term for rank safety) and
returns the read-out alone; ``fit_mlp`` trains two hidden layers by default, by
mini-batch Adam on standardized targets. Features are the [0, 1] configuration
encoding. Model quality is the k-fold CV RMSE pooled over all held-out rows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._files import Fields, read_json, write_json

RIDGE = 1e-8               # ridge term of the linear fit's normal equations
BATCH_SIZE = 32            # MLP mini-batch rows
VALIDATION_FRACTION = 0.1  # share of rows the MLP holds out for early stopping


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
    targets: tuple[str, ...] = ("avg_speed", "queue_length")
    feature_ids: tuple[str, ...] = ()
    epochs_trained: int = 0

    @property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(W, b) of every layer, the read-out last."""
        return (*self.hidden, (self.weights, self.intercept))


def _as_2d(Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    return Y[:, None] if Y.ndim == 1 else Y


def fit_linear(X, Y, targets=("avg_speed", "queue_length"), feature_ids=()) -> Model:
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
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    gram = A.T @ A + RIDGE * np.eye(A.shape[1])
    theta = np.linalg.solve(gram, A.T @ Y)
    return Model(
        weights=theta[:-1, :], intercept=theta[-1, :], target_mean=np.zeros(Y.shape[1]),
        target_scale=np.ones(Y.shape[1]), targets=tuple(targets)[: Y.shape[1]], feature_ids=tuple(feature_ids),
    )


def _forward(weights, biases, X, activation):
    """Activations per layer, the input first; each hidden layer is activated in place."""
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
    """
    m = X.shape[0]
    acts = _forward(weights, biases, X, activation)
    resid = acts[-1]
    resid -= Y
    delta = resid / m
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        grads_w[i] += (alpha / m) * weights[i]
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            a = acts[i]
            delta = delta @ weights[i].T
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
    grads_b = [np.empty_like(b) for b in biases]
    resid = _backprop(weights, biases, X, Y, activation, alpha, grads_w, grads_b)
    loss = float(np.sum(resid**2)) / (2 * m)
    loss += alpha * sum(float(np.sum(W**2)) for W in weights) / (2 * m)
    return loss, grads_w, grads_b


def _layer_views(flat, sizes):
    """Weight and bias views of each layer into a flat buffer laid out W0, b0, W1, b1, ..."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        biases.append(flat[at + fan_in * fan_out : at + (fan_in + 1) * fan_out])
        at += (fan_in + 1) * fan_out
    return weights, biases


def fit_mlp(X, Y, hyper: MlpHyper = MlpHyper(), seed: int = 0,
            targets=("avg_speed", "queue_length"), feature_ids=()) -> Model:
    """Train the neural surrogate; deterministic for a fixed seed.

    Targets are standardized internally. A seeded shuffle sets aside
    VALIDATION_FRACTION of the rows; training stops when the validation
    MSE has not improved by more than ``tol`` for ``patience`` consecutive
    epochs (or at ``max_epochs``), and the weights of the best validation
    epoch are kept.
    """
    X = np.asarray(X, dtype=float)
    Y = _as_2d(Y)
    if X.shape[0] != Y.shape[0] or X.ndim != 2:
        raise ValueError("X and Y must have matching row counts")
    n = X.shape[0]
    if n < 3:
        raise ValueError("need at least 3 rows to train with a validation split")

    mean = Y.mean(axis=0)
    scale = Y.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    Ys = (Y - mean) / scale

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(VALIDATION_FRACTION * n)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split leaves no training rows")
    X_train, Y_train = X[train_idx], Ys[train_idx]
    X_val, Y_val = X[val_idx], Ys[val_idx]

    # weights and biases are views into one flat theta, their gradients views into grad laid out alike:
    # Adam and the snapshot act on whole preallocated buffers, so a step allocates only inside backprop
    sizes = [X.shape[1], *hyper.hidden, Y.shape[1]]
    theta = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:])))
    weights, biases = _layer_views(theta, sizes)
    for W in weights:
        limit = np.sqrt(6.0 / (W.shape[0] + W.shape[1]))
        W[...] = rng.uniform(-limit, limit, W.shape)
    grad = np.empty_like(theta)
    grads_w, grads_b = _layer_views(grad, sizes)

    m, v, step, denom = np.zeros((4, theta.size))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    adam_t = 0

    best_val = np.inf
    best_theta = theta.copy()
    stall = 0
    epochs_done = 0

    n_train = X_train.shape[0]
    for epoch in range(hyper.max_epochs):
        epochs_done = epoch + 1
        perm = rng.permutation(n_train)
        X_perm, Y_perm = X_train[perm], Y_train[perm]
        for start in range(0, n_train, BATCH_SIZE):
            batch = slice(start, start + BATCH_SIZE)
            _backprop(weights, biases, X_perm[batch], Y_perm[batch], hyper.activation, hyper.alpha, grads_w, grads_b)
            adam_t += 1
            # theta -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps), one operation at a time
            m *= beta1
            m += np.multiply(grad, 1 - beta1, out=step)
            v *= beta2
            v += np.multiply(np.square(grad, out=step), 1 - beta2, out=step)
            np.sqrt(np.divide(v, 1.0 - beta2**adam_t, out=denom), out=denom)
            denom += eps
            np.divide(m, 1.0 - beta1**adam_t, out=step)
            step *= hyper.learning_rate
            step /= denom
            theta -= step

        val_pred = _forward(weights, biases, X_val, hyper.activation)[-1]
        val_mse = float(np.mean((val_pred - Y_val) ** 2))
        if val_mse < best_val - hyper.tol:
            best_val = val_mse
            best_theta[...] = theta
            stall = 0
        else:
            stall += 1
            if stall >= hyper.patience:
                break

    theta[...] = best_theta
    return Model(
        weights=weights[-1],
        intercept=biases[-1],
        target_mean=mean,
        target_scale=scale,
        hidden=tuple(zip(weights[:-1], biases[:-1])),
        activation=hyper.activation,
        targets=tuple(targets)[: Y.shape[1]],
        feature_ids=tuple(feature_ids),
        epochs_trained=epochs_done,
    )


def predict(model: Model, X) -> np.ndarray:
    """Per-target predictions; accepts a single feature vector or a matrix."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    weights, biases = zip(*model.layers)
    out = _forward(weights, biases, X, model.activation)[-1] * model.target_scale + model.target_mean
    return out[0] if single else out


def kfold_rmse(fit, X, Y, k: int = 5, seed: int = 0):
    """Cross-validated RMSE pooled over all held-out rows.

    ``fit`` is any callable (X_train, Y_train) -> model usable by
    :func:`predict`. Rows are shuffled once with the given seed and split
    into k folds; each row is predicted by the model trained without it, and
    the RMSE is computed per target over the pooled predictions. Returns
    (per_target_rmse, mean_over_targets).
    """
    X = np.asarray(X, dtype=float)
    Y = _as_2d(Y)
    n = X.shape[0]
    if not (2 <= k <= n):
        raise ValueError(f"k must be in [2, {n}]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    pooled = np.empty_like(Y)
    for j, held_out in enumerate(folds):
        train = np.concatenate(folds[:j] + folds[j + 1 :])  # order without held_out, in order
        model = fit(X[train], Y[train])
        pooled[held_out] = np.atleast_2d(predict(model, X[held_out]))
    per_target = np.sqrt(np.mean((pooled - Y) ** 2, axis=0))
    return per_target, float(np.mean(per_target))


def grid_search_mlp(X, Y, seed: int = 0, k: int = 5, base: MlpHyper = MlpHyper()):
    """Small exhaustive search over the neural surrogate's training grid.

    Tries activation {relu, tanh} x alpha {1e-4, 1e-3} x learning rate
    {1e-3, 1e-2}, scores each by k-fold pooled RMSE (mean over targets), and
    returns (best_hyper, results) with results as (hyper, score) pairs.
    """
    results = []
    for activation in ("relu", "tanh"):
        for alpha in (0.0001, 0.001):
            for lr in (0.001, 0.01):
                hyper = replace(base, activation=activation, alpha=alpha, learning_rate=lr)
                _, score = kfold_rmse(lambda Xt, Yt: fit_mlp(Xt, Yt, hyper, seed=seed), X, Y, k=k, seed=seed)
                results.append((hyper, score))
    best = min(results, key=lambda item: item[1])
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

    Every number must be finite, and the layers must chain from the inputs to one output per target.
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
    for key, arrays in zip(("weights", "biases", "target_mean", "target_scale"), (*zip(*layers), [mean], [scale])):
        if not all(np.isfinite(a).all() for a in arrays):
            raise SurrogateError(f"{path}: {key}: expected finite numbers")
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
