import json
import multiprocessing
import os
import pathlib
import platform
import re
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from macrosim import _pool, surrogate
from macrosim.surrogate import (
    MlpHyper,
    fit_linear,
    fit_mlp,
    grid_search_mlp,
    kfold_rmse,
    load_model,
    loss_and_gradients,
    predict,
    save_model,
)


def _planted_linear(seed=0, n=200, d=6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, d))
    W = rng.normal(size=(d, 2))
    b = np.array([3.0, -1.5])
    Y = X @ W + b
    return X, Y, W, b


def test_linear_recovers_planted_coefficients():
    X, Y, W, b = _planted_linear()
    model = fit_linear(X, Y)
    np.testing.assert_allclose(model.weights, W, atol=1e-6)
    np.testing.assert_allclose(model.intercept, b, atol=1e-6)
    np.testing.assert_allclose(predict(model, X), Y, atol=1e-6)


def test_linear_joint_fit_matches_per_target_fits():
    X, Y, _, _ = _planted_linear(seed=1)
    rng = np.random.default_rng(2)
    Y = Y + 0.1 * rng.standard_normal(Y.shape)
    joint = fit_linear(X, Y)
    solo0 = fit_linear(X, Y[:, 0])
    solo1 = fit_linear(X, Y[:, 1])
    np.testing.assert_allclose(joint.weights[:, 0], solo0.weights[:, 0], atol=1e-10)
    np.testing.assert_allclose(joint.weights[:, 1], solo1.weights[:, 0], atol=1e-10)


def test_linear_handles_degenerate_design():
    # constant column would make plain normal equations singular
    X = np.ones((10, 2))
    Y = np.full((10, 1), 4.0)
    model = fit_linear(X, Y)
    assert predict(model, X)[0, 0] == pytest.approx(4.0, abs=1e-6)


def test_a_model_without_hidden_layers_predicts_its_read_out_bit_for_bit():
    X, Y, _, _ = _planted_linear(seed=4)
    model = fit_linear(X, Y)
    assert model.hidden == ()
    np.testing.assert_array_equal(predict(model, X), X @ model.weights + model.intercept)
    np.testing.assert_array_equal(predict(model, X[7]), X[7] @ model.weights + model.intercept)


def test_linear_single_target_predict_shape():
    X, Y, _, _ = _planted_linear(seed=3)
    model = fit_linear(X, Y[:, 0])
    out = predict(model, X[0])
    assert out.shape == (1,)
    assert model.targets == ("avg_speed",)


def test_fit_linear_input_validation():
    # both trainers share these refusals and their wording; test_mlp_input_validation holds the MLP's
    with pytest.raises(ValueError, match="^cannot fit on an empty design matrix$"):
        fit_linear(np.zeros((0, 3)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="^X must be 2-d with one row per target row$"):
        fit_linear(np.zeros((5, 3)), np.zeros((4, 2)))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_backprop_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, (12, 3))
    Y = rng.standard_normal((12, 2))
    sizes = [3, 5, 4, 2]
    weights = [rng.standard_normal((a, b)) * 0.5 for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(b) * 0.1 for b in sizes[1:]]
    alpha = 0.01

    _, gw, gb = loss_and_gradients(weights, biases, X, Y, activation, alpha)

    def loss_of(ws, bs):
        return loss_and_gradients(ws, bs, X, Y, activation, alpha)[0]

    h = 1e-6
    worst = 0.0
    for li in range(len(weights)):
        flat_idx = [(0, 0), (weights[li].shape[0] - 1, weights[li].shape[1] - 1), (0, weights[li].shape[1] - 1)]
        for i, j in flat_idx:
            bumped = [W.copy() for W in weights]
            bumped[li][i, j] += h
            up = loss_of(bumped, biases)
            bumped[li][i, j] -= 2 * h
            down = loss_of(bumped, biases)
            numeric = (up - down) / (2 * h)
            worst = max(worst, abs(numeric - gw[li][i, j]) / max(1.0, abs(numeric)))
        bumped_b = [b.copy() for b in biases]
        bumped_b[li][0] += h
        up = loss_of(weights, bumped_b)
        bumped_b[li][0] -= 2 * h
        down = loss_of(weights, bumped_b)
        numeric = (up - down) / (2 * h)
        worst = max(worst, abs(numeric - gb[li][0]) / max(1.0, abs(numeric)))
    assert worst < 1e-4


def _xor_clusters(seed=0, per_corner=60, jitter=0.05):
    """Four jittered corner clusters with XOR labels: linearly inseparable."""
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0.0, 1.0, 1.0, 0.0])
    X = np.vstack([c + jitter * rng.standard_normal((per_corner, 2)) for c in corners])
    Y = np.repeat(labels, per_corner)
    return np.clip(X, -0.2, 1.2), Y


def test_mlp_learns_xor_where_linear_cannot():
    X, Y = _xor_clusters()
    hyper = MlpHyper(hidden=(16, 8), learning_rate=0.01, max_epochs=300, patience=30)
    mlp = fit_mlp(X, Y, hyper, seed=0)
    resid_mlp = predict(mlp, X)[:, 0] - Y
    rmse_mlp = float(np.sqrt(np.mean(resid_mlp**2)))

    lin = fit_linear(X, Y)
    resid_lin = predict(lin, X)[:, 0] - Y
    rmse_lin = float(np.sqrt(np.mean(resid_lin**2)))

    assert rmse_mlp < 0.1
    assert rmse_lin > 0.4  # best a hyperplane can do on balanced XOR is ~0.5


def test_mlp_is_deterministic_for_fixed_seed():
    X, Y = _xor_clusters(seed=5, per_corner=20)
    hyper = MlpHyper(hidden=(8,), max_epochs=30, patience=5)
    m1 = fit_mlp(X, Y, hyper, seed=9)
    m2 = fit_mlp(X, Y, hyper, seed=9)
    assert len(m1.layers) == len(m2.layers) == 2
    for (W1, b1), (W2, b2) in zip(m1.layers, m2.layers):
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)
    m3 = fit_mlp(X, Y, hyper, seed=10)
    assert any(not np.array_equal(W1, W3) for (W1, _), (W3, _) in zip(m1.layers, m3.layers))


def test_fit_mlp_trains_through_backprop_once_per_mini_batch(monkeypatch):
    # the finite-difference check above runs the same _backprop that every training step runs, here in
    # float32 throughout: rows, parameters, alpha and the gradient buffers; the model comes back in float64
    calls, dtypes = [], set()
    backprop = surrogate._backprop

    def spy(weights, biases, X, Y, activation, alpha, grads_w, grads_b):
        calls.append(X.shape[0])
        dtypes.update(a.dtype for a in (*weights, *biases, X, Y, alpha, *grads_w, *grads_b))
        return backprop(weights, biases, X, Y, activation, alpha, grads_w, grads_b)

    monkeypatch.setattr(surrogate, "_backprop", spy)
    X, Y = _xor_clusters(seed=3, per_corner=20)  # 80 rows: 72 train in batches of 32, 32 and 8
    model = fit_mlp(X, Y, MlpHyper(hidden=(8,), max_epochs=4, patience=4), seed=0)
    assert model.epochs_trained == 4
    assert calls == [32, 32, 8] * 4
    assert dtypes == {np.dtype(np.float32)}
    assert {a.dtype for layer in model.layers for a in layer} == {np.dtype(np.float64)}


def test_mlp_early_stopping_and_best_weights():
    X, Y = _xor_clusters(seed=6, per_corner=15)
    hyper = MlpHyper(hidden=(8,), max_epochs=500, patience=3, learning_rate=0.01)
    model = fit_mlp(X, Y, hyper, seed=0)
    assert model.epochs_trained < 500  # patience kicked in


def test_mlp_standardizes_targets():
    X, Y = _xor_clusters(seed=7, per_corner=15)
    shifted = 1000.0 + 50.0 * Y
    model = fit_mlp(X, shifted, MlpHyper(hidden=(8,), max_epochs=100, patience=10, learning_rate=0.01), seed=0)
    pred = predict(model, X)[:, 0]
    assert abs(float(np.mean(pred)) - float(np.mean(shifted))) < 30.0
    assert model.target_mean[0] == pytest.approx(float(np.mean(shifted)))


def test_mlp_input_validation():
    with pytest.raises(ValueError):
        MlpHyper(activation="sigmoid")
    with pytest.raises(ValueError):
        MlpHyper(hidden=())
    with pytest.raises(ValueError, match="^need at least 3 rows to train with a validation split$"):
        fit_mlp(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="^cannot fit on an empty design matrix$"):
        fit_mlp(np.zeros((0, 3)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="^X must be 2-d with one row per target row$"):
        fit_mlp(np.zeros((5, 3)), np.zeros((4, 2)))
    # no epochs, no patience, a step that is not finite and positive, a penalty or tolerance that is not finite
    # and >= 0: refused by name
    bad = [("max_epochs", 0), ("patience", 0), ("learning_rate", 0.0), ("learning_rate", -1.0),
           ("alpha", -1e-4), ("tol", -1e-4), ("tol", float("nan"))]
    # with an infinite step, penalty or tolerance no epoch improves, and fit_mlp would return untrained weights
    bad += [("learning_rate", float("inf")), ("alpha", float("inf")), ("tol", float("inf"))]
    # sizes and epoch counts that are not integers (floats, bools, a bare size): refused by name too
    bad += [("hidden", (2.5,)), ("hidden", (8, True)), ("hidden", 8), ("hidden", (0,)),
            ("max_epochs", 2.5), ("max_epochs", True), ("patience", 1.5), ("patience", True)]
    for field, value in bad:
        with pytest.raises(ValueError, match=f"^{field} must be "):
            MlpHyper(**{field: value})
    MlpHyper(max_epochs=1, patience=1, alpha=0.0, tol=0.0)  # the smallest accepted values
    MlpHyper(hidden=[np.int64(3)], max_epochs=np.int64(2))  # numpy integers and a list of sizes are fine


@pytest.mark.parametrize("field, value, rule", [
    ("learning_rate", "x", "finite and > 0"), ("learning_rate", True, "finite and > 0"),
    ("alpha", None, "finite and >= 0"), ("alpha", False, "finite and >= 0"), ("tol", "1", "finite and >= 0"),
])
def test_mlp_hyper_takes_real_numbers_only(field, value, rule):
    """A string, None or a bool is refused by name as a ValueError, the field's wording for a bad number."""
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {re.escape(repr(value))}$"):
        MlpHyper(**{field: value})
    assert MlpHyper(**{field: np.float32(0.5)})  # a numpy float is a number


def test_kfold_rmse_near_zero_on_noiseless_linear_data():
    X, Y, _, _ = _planted_linear(seed=8, n=100)
    per_target, mean = kfold_rmse(fit_linear, X, Y, k=5, seed=0)
    assert per_target.shape == (2,)
    assert mean < 1e-6


def test_kfold_rmse_reflects_noise_level():
    X, Y, _, _ = _planted_linear(seed=9, n=300)
    rng = np.random.default_rng(10)
    Y = Y + 0.2 * rng.standard_normal(Y.shape)
    _, mean = kfold_rmse(fit_linear, X, Y, k=5, seed=0)
    assert 0.1 < mean < 0.4


def test_kfold_rmse_trains_each_fold_on_the_other_rows_in_shuffled_order():
    # uneven folds (23 rows into 5); feature 0 is the row index, so each fit sees which rows it trains on
    n, k, seed = 23, 5, 4
    X = np.column_stack([np.arange(n, dtype=float), np.linspace(0.0, 1.0, n)])
    Y = X @ np.array([0.5, -2.0]) + 1.0
    seen = []

    def fit(Xt, Yt):
        seen.append(Xt[:, 0].astype(int))
        return fit_linear(Xt, Yt)

    kfold_rmse(fit, X, Y, k=k, seed=seed)
    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, k)
    assert sorted(len(f) for f in folds) == [4, 4, 5, 5, 5]
    assert len(seen) == k
    for rows, held_out in zip(seen, folds):
        np.testing.assert_array_equal(rows, np.setdiff1d(order, held_out, assume_unique=True))


def test_kfold_rmse_validates_k():
    X, Y, _, _ = _planted_linear(n=10)
    with pytest.raises(ValueError, match=r"^k must be in \[2, 10\]$"):
        kfold_rmse(fit_linear, X, Y, k=1)
    with pytest.raises(ValueError, match=r"^k must be in \[2, 10\]$"):
        kfold_rmse(fit_linear, X, Y, k=11)
    # a table too small for any fold names its row count, not the empty range [2, 1]
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"^k-fold CV needs at least 2 rows, got {n}$"):
            kfold_rmse(fit_linear, X[:n], Y[:n], k=2)


@pytest.mark.parametrize("call, wanted", [
    (lambda X, Y: kfold_rmse(fit_linear, X, Y, k=2.5), r"k must be in \[2, 10\]"),
    (lambda X, Y: kfold_rmse(fit_linear, X, Y, k=np.float64(3.0)), r"k must be in \[2, 10\]"),
    (lambda X, Y: kfold_rmse(fit_linear, X, Y, seed=True), "seed must be an integer >= 0, got True"),
    (lambda X, Y: grid_search_mlp(X, Y, k=2.5), r"k must be in \[2, 10\]"),
    (lambda X, Y: fit_mlp(X, Y, seed=1.5), r"seed must be an integer >= 0, got 1\.5"),
    (lambda X, Y: fit_mlp(X, Y, seed=True), "seed must be an integer >= 0, got True"),
], ids=["kfold-k-fraction", "kfold-k-numpy-float", "kfold-seed-bool", "grid-k-fraction", "fit-seed-fraction",
        "fit-seed-bool"])
def test_fold_counts_and_seeds_refuse_fractions_and_bools(call, wanted):
    X, Y, _, _ = _planted_linear(n=10)
    with pytest.raises(ValueError, match=f"^{wanted}$"):
        call(X, Y)


def test_grid_search_returns_best_scored_candidate():
    X, Y = _xor_clusters(seed=11, per_corner=10)
    base = MlpHyper(hidden=(6,), max_epochs=15, patience=3)
    best, results = grid_search_mlp(X, Y, seed=0, k=3, base=base)
    assert len(results) == 8
    scores = [s for _, _, s in results]
    assert min(scores) == dict((h, s) for h, _, s in results)[best]
    for _, per_target, mean in results:
        assert per_target.shape == (1,) and mean == float(np.mean(per_target))  # one target
    assert {h.activation for h, _, _ in results} == {"relu", "tanh"}
    assert {h.alpha for h, _, _ in results} == {0.0001, 0.001}
    assert {h.learning_rate for h, _, _ in results} == {0.001, 0.01}


def test_model_json_round_trip(tmp_path):
    X, Y, _, _ = _planted_linear(seed=12, n=50)
    lin = fit_linear(X, Y, feature_ids=("J1", "J2"))
    lin_path = tmp_path / "lin.json"
    save_model(lin, lin_path)
    lin2 = load_model(lin_path)
    assert lin2.hidden == ()
    assert lin2.targets == lin.targets
    assert lin2.feature_ids == ("J1", "J2")
    np.testing.assert_array_equal(lin2.weights, lin.weights)
    np.testing.assert_array_equal(predict(lin2, X), predict(lin, X))

    Xc, Yc = _xor_clusters(seed=13, per_corner=10)
    mlp = fit_mlp(Xc, Yc, MlpHyper(hidden=(6,), max_epochs=10, patience=3), seed=0, targets=("avg_speed",))
    mlp_path = tmp_path / "mlp.json"
    save_model(mlp, mlp_path)
    mlp2 = load_model(mlp_path)
    assert len(mlp2.hidden) == 1
    assert mlp2.activation == mlp.activation
    assert mlp2.epochs_trained == mlp.epochs_trained
    np.testing.assert_array_equal(predict(mlp2, Xc), predict(mlp, Xc))


def test_load_model_rejects_unknown_kind(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"kind": "forest"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing key 'weights'$"):
        load_model(path)


_LINEAR = {"weights": [[[1.0]]], "biases": [[0.0]], "activation": "relu", "target_mean": [0.0], "target_scale": [1.0],
           "targets": ["avg_speed"], "feature_ids": ["J"]}
# files of earlier versions: a linear one is refused, an MLP one loads ("kind" and "feature_bounds" are unread)
_OLD_LINEAR = {"kind": "linear", "weights": [[1.0]], "intercept": [0.0], "targets": ["avg_speed"], "feature_ids": ["J"]}
_MLP = {"kind": "mlp", "feature_bounds": [[0.0, 1.0]], "weights": [[[1.0, 2.0]], [[1.0], [1.0]]],
        "biases": [[0.0, 0.0], [0.0]], "activation": "relu", "target_mean": [0.0], "target_scale": [1.0],
        "targets": ["avg_speed"], "feature_ids": []}


@pytest.mark.parametrize(
    "text, wanted",
    [
        (json.dumps({"kind": "linear"}), "missing key 'weights'"),
        (json.dumps({**_OLD_LINEAR, "weights": "abc"}), "weights: expected list of list of list of float, got 'abc'"),
        (json.dumps(_OLD_LINEAR), "weights[0][0]: expected list of float, got 1.0"),
        (json.dumps({**_LINEAR, "targets": "avg_speed"}), "targets: expected list of str, got 'avg_speed'"),
        (json.dumps({"kind": "mlp", "weights": [[[1.0]]], "biases": [[None]]}),
         "biases[0][0]: expected float, got None"),
        (json.dumps({"kind": "mlp", "weights": [[[1.0]]], "biases": [[0.0]], "activation": 3}),
         "activation: expected str, got 3"),
        (json.dumps({**_LINEAR, "activation": "sigmoid"}), "activation: expected 'relu' or 'tanh', got 'sigmoid'"),
        (json.dumps({**_MLP, "weights": [[[1.0, 2.0], [1.0]], [[1.0], [1.0]]]}),
         "weights[0]: expected rows of one length"),
        (json.dumps({**_LINEAR, "epochs_trained": 1.5}), "epochs_trained: expected int, got 1.5"),
        (json.dumps({**_LINEAR, "epochs_trained": "5"}), "epochs_trained: expected int, got '5'"),
        (json.dumps({**_LINEAR, "epochs_trained": True}), "epochs_trained: expected int, got True"),
        (json.dumps({**_LINEAR, "epochs_trained": float("inf")}), "epochs_trained: expected int, got inf"),
        (json.dumps(["kind", "linear"]), "expected a JSON object"),
        ('{"kind": "linear",', "cannot parse JSON"),
        (json.dumps({**_LINEAR, "biases": [[0.0, 1.0]]}), "layer 0: weights of shape (1, 1) and bias of shape (2,)"),
        (json.dumps({**_LINEAR, "targets": ["avg_speed", "queue_length"]}), "1 model outputs for 2 targets"),
        (json.dumps({**_MLP, "weights": [[[1.0, 2.0]], [[1.0]]]}), "layer 1: weights of shape (1, 1)"),
        (json.dumps({**_MLP, "biases": [[0.0, 0.0]]}), "2 weight matrices for 1 bias vectors"),
        (json.dumps({**_MLP, "target_scale": [1.0, 1.0]}), "target_scale: expected 1 values"),
        (json.dumps({**_LINEAR, "weights": [[[float("nan")]]]}), "weights: expected finite numbers"),
        (json.dumps({**_MLP, "biases": [[0.0, float("inf")], [0.0]]}), "biases: expected finite numbers"),
        (json.dumps({**_MLP, "target_mean": [-float("inf")]}), "target_mean: expected finite numbers"),
        (json.dumps({**_MLP, "target_scale": [float("inf")]}), "target_scale: expected finite numbers"),
        (json.dumps({**_MLP, "weights": [[[1.0, -3e150]], [[1.0], [1.0]]]}),
         "weights: expected values at most 1e+150 in magnitude, got -3e+150"),
        (json.dumps({**_MLP, "biases": [[0.0, 0.0], [1e151]]}),
         "biases: expected values at most 1e+150 in magnitude, got 1e+151"),
        (json.dumps({**_MLP, "target_mean": [-2e150]}), "target_mean: expected values at most 1e+150 in magnitude"),
        (json.dumps({**_MLP, "target_scale": [2e150]}), "target_scale: expected values in (0, 1e+150], got 2e+150"),
        (json.dumps({**_MLP, "target_scale": [-0.0]}), "target_scale: expected values in (0, 1e+150], got -0"),
    ],
)
def test_load_model_names_the_file_and_bad_key(tmp_path, text, wanted):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(wanted)}"):
        load_model(path)
    path.write_text(json.dumps(_LINEAR))
    assert load_model(path).feature_ids == ("J",)
    path.write_text(json.dumps(_MLP))
    assert load_model(path).activation == "relu"


def _smooth_design(n, d, seed=21):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, d))
    return X, np.column_stack([np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2], (X[:, 0] - 0.5) ** 2 - X[:, 2]])


def test_stacked_training_equals_each_lone_fit():
    # patience 3 stops the members at different epochs; a stopped member's snapshot must stay its own
    X, Y = _smooth_design(40, 3)
    base = MlpHyper(hidden=(8, 6), max_epochs=100, patience=3)
    _, results = grid_search_mlp(X, Y, seed=1, k=3, base=base)
    epochs = []
    for activation in ("relu", "tanh"):
        stack = [h for h, _, _ in results if h.activation == activation]
        assert len(stack) == 4
        for hyper, stacked in zip(stack, surrogate._fit_stack(X, Y, stack, seed=1)):
            alone = fit_mlp(X, Y, hyper, seed=1)
            assert stacked.epochs_trained == alone.epochs_trained
            epochs.append(stacked.epochs_trained)
            for (W, b), (W1, b1) in zip(stacked.layers, alone.layers):
                assert np.array_equal(W, W1) and np.array_equal(b, b1)
    assert epochs == [4, 4, 4, 27, 100, 26, 100, 26]
    for hyper, per_target, mean in results:
        alone, alone_mean = kfold_rmse(lambda Xt, Yt: fit_mlp(Xt, Yt, hyper, seed=1), X, Y, k=3, seed=1)
        assert np.array_equal(per_target, alone) and mean == alone_mean


@pytest.mark.parametrize("n, d, k, base", [
    (100, 6, 5, MlpHyper(max_epochs=10, patience=10)),  # the benchmark's table and model: five folds of 20 rows
    (40, 3, 3, MlpHyper(hidden=(8, 6), max_epochs=100, patience=3)),  # folds of 14, 13 and 13; members stop apart
])
def test_grid_results_do_not_depend_on_workers(n, d, k, base, monkeypatch):
    X, Y = _smooth_design(n, d)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_pool, "forked_cpus", lambda: workers)
        best, scores = grid_search_mlp(X, Y, seed=1, k=k, base=base)
        results.append((best, [(hyper, per_target.tolist(), mean) for hyper, per_target, mean in scores]))
    assert results[0] == results[1] == results[2]


def test_a_worker_raises_the_error_the_serial_grid_raises(monkeypatch):
    X, Y = _smooth_design(4, 3)  # k = 2 leaves each fold 2 training rows, fewer than a validation split needs
    errors = []
    for workers in (1, 2):
        monkeypatch.setattr(_pool, "forked_cpus", lambda: workers)
        with pytest.raises(ValueError) as raised:
            grid_search_mlp(X, Y, k=2, base=MlpHyper(hidden=(4,)))
        errors.append((type(raised.value), str(raised.value)))
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1] == (
        ValueError, "fold 1 of 2 trains on 2 rows: need at least 3 rows to train with a validation split")


@pytest.mark.parametrize("method, workers", [("fork", 3), ("forkserver", 1), ("spawn", 1)])
def test_the_grid_starts_workers_only_where_they_fork(method, workers, monkeypatch):
    started = []

    class Pool(_pool.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(_pool, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 3)
    monkeypatch.setattr(_pool.multiprocessing, "get_start_method", lambda allow_none=False: method)
    X, Y = _smooth_design(40, 3)
    grid_search_mlp(X, Y, seed=1, k=2, base=MlpHyper(hidden=(4,), max_epochs=3))
    assert started == ([workers] if workers > 1 else [])


def test_neither_the_grid_nor_a_pool_fixes_the_start_method():
    # the host may set its start method after the library ran, whether the grid trained in process or on workers
    src = str(pathlib.Path(surrogate.__file__).resolve().parents[1])
    code = """if True:
        import multiprocessing
        import numpy as np
        from macrosim import _pool
        from macrosim.surrogate import MlpHyper, grid_search_mlp
        X = np.random.default_rng(0).random((12, 2))
        base = MlpHyper(hidden=(2,), max_epochs=1, patience=1)
        for cpus in (1, 2):
            _pool.usable_cpus = lambda: cpus
            grid_search_mlp(X, X.sum(axis=1), seed=0, k=2, base=base)
        with _pool.Pool(max, 1) as pool:
            assert pool.map([0, 2], 2) == [1, 2]
        multiprocessing.set_start_method("spawn")
        assert multiprocessing.get_start_method() == "spawn"
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("fit", [fit_linear, fit_mlp])
def test_targets_too_large_to_square_are_refused(fit):
    X, Y = _smooth_design(12, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes either
        for huge in (1e308, -1e160, np.nan):
            Y[0, 0] = huge
            wanted = f"targets must be at most 1e+150 in magnitude, got {abs(huge):g}"
            with pytest.raises(ValueError, match=re.escape(wanted)):
                fit(X, Y)
        Y[0, 0] = -surrogate.TARGET_MAX
        assert all(np.isfinite(a).all() for layer in fit(X, Y).layers for a in layer)


@pytest.mark.parametrize("fit", [fit_linear, fit_mlp])
def test_fewer_target_names_than_columns_are_refused(fit):
    # such a model would save, and load_model would then refuse its file: "2 model outputs for 1 targets"
    X, Y = _smooth_design(12, 3)
    with pytest.raises(ValueError, match=re.escape("targets ['avg_speed'] name 1 of Y's 2 columns")):
        fit(X, Y, targets=("avg_speed",))
    assert fit(X, Y[:, 0]).targets == ("avg_speed",)  # a one-column Y still takes the first default name


@pytest.mark.parametrize(
    "fit", [fit_linear, partial(fit_mlp, hyper=MlpHyper(learning_rate=0.01, max_epochs=30, patience=30))],
    ids=["fit_linear", "fit_mlp"],
)
def test_features_the_float32_trainer_cannot_take_are_refused(fit):
    # both trainers take one training set: the normal equations turn such features into non-finite weights
    X, Y = _smooth_design(40, 3)
    for bad in (np.nan, -np.inf, 1.5 * surrogate.FEATURE_MAX, 1e200):
        X_bad = X.copy()
        X_bad[3, 1] = bad
        wanted = f"features must be at most 1e+06 in magnitude, got {abs(bad):g}"
        with pytest.raises(ValueError, match=re.escape(wanted)):
            fit(X_bad, Y)
    # [0, 1] features scaled to the bound train the default architecture with no overflow; the first
    # overflow warning, in Adam's squared gradients, came at 1e10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(X * -surrogate.FEATURE_MAX, Y)
    assert all(np.isfinite(a).all() for layer in model.layers for a in layer)


def test_a_stack_may_differ_in_alpha_and_learning_rate_only():
    X, Y = _xor_clusters(seed=13, per_corner=5)
    with pytest.raises(ValueError, match="alpha and learning_rate only$"):
        surrogate._fit_stack(X, Y, [MlpHyper(hidden=(4,)), MlpHyper(hidden=(4,), patience=4)])


# Predictions of ``fit_mlp`` on a fixed design, recorded from the float32 trainer, so any change to its
# arithmetic or RNG use shows up here. Recorded with numpy 2.4.6 and its bundled OpenBLAS (SkylakeX kernel) on
# x86-64. The float32 sums take the order of the BLAS kernel: under OPENBLAS_CORETYPE=Haswell or Zen these
# predictions moved by up to rel 1.6e-16, under Sandybridge by up to rel 6.8e-6, and no stopping epoch moved.
# So the epochs are pinned exactly and the predictions to rel MLP_PIN_RTOL, 10x the largest kernel spread.
MLP_PIN_RTOL = 7e-5
_PINNED_QUERY = np.array([[0.1, 0.2, 0.3], [0.9, 0.5, 0.1], [0.4, 0.8, 0.7]])
_PINNED_MLP = {
    ("relu", "early"): (140, [[0.3577133937625887, -0.16596842832063383],
                              [0.48379600176557214, 0.06405257807621995],
                              [1.463970674006893, -0.7064956449426827]]),
    ("relu", "fixed"): (12, [[0.7599671690047692, -0.35194795755359515],
                             [0.7669967290161225, 0.08734380988762441],
                             [1.033354889113964, -0.7247530755004115]]),
    ("tanh", "early"): (51, [[0.6165464935845433, -0.19561565867436362],
                             [0.72054784350469, 0.0023002491239362266],
                             [1.1209605778141631, -0.6925002527521569]]),
    ("tanh", "fixed"): (12, [[0.6766834963885267, -0.20812796658430988],
                             [0.7186681762473668, -0.0019821985347856508],
                             [1.0733249769028816, -0.6957108694525325]]),
}


def _pinned_fit(activation, stopping):
    rng = np.random.default_rng(21)
    X = rng.uniform(0.0, 1.0, (120, 3))
    Y = np.column_stack([np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2], (X[:, 0] - 0.5) ** 2 - X[:, 2]])
    if stopping == "early":
        hyper = MlpHyper(hidden=(8, 6), activation=activation, learning_rate=0.003,
                         max_epochs=400, patience=6, tol=1e-5)
    else:  # patience never runs out: exactly max_epochs epochs
        hyper = MlpHyper(hidden=(8, 6), activation=activation, learning_rate=0.01,
                         max_epochs=12, patience=1000)
    return fit_mlp(X, Y, hyper, seed=3)


@pytest.mark.parametrize("activation,stopping", sorted(_PINNED_MLP))
def test_fit_mlp_reproduces_pinned_predictions(activation, stopping):
    model = _pinned_fit(activation, stopping)
    epochs, expected = _PINNED_MLP[(activation, stopping)]
    assert model.epochs_trained == epochs
    np.testing.assert_allclose(predict(model, _PINNED_QUERY), np.array(expected), rtol=MLP_PIN_RTOL, atol=0)


# Predictions of ``fit_mlp`` with the default architecture, hidden=(100, 50), recorded from the float32
# trainer. 80 rows leave 72 training rows, in mini-batches of 32, 32 and 8 as in the benchmark's folds,
# so the matmuls run at the benchmark's BLAS shapes. Recorded with numpy 2.4.6 and its bundled OpenBLAS
# (SkylakeX kernel) on x86-64. Under the Haswell and Zen kernels they moved by up to rel 1.8e-7, under
# Sandybridge by up to rel 2.9e-7; DEFAULT_MLP_PIN_RTOL is 10x the largest.
DEFAULT_MLP_PIN_RTOL = 3e-6
_PINNED_QUERY_6 = np.array([[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0.9, 0.5, 0.1, 0.7, 0.3, 0.2],
                            [0.4, 0.8, 0.7, 0.0, 1.0, 0.5]])
_PINNED_DEFAULT_MLP = {
    "relu": [[0.08211163503634256, -0.5629422499626787],
             [0.5325940739593318, -0.2914045875283292],
             [0.6275260514723432, -0.7478478638016122]],
    "tanh": [[-0.028568178544137623, -0.5423442433524281],
             [0.6758933516538654, -0.24791627188000162],
             [0.6073944780593117, -0.9060534032786753]],
}


def _default_fit(activation):
    rng = np.random.default_rng(31)
    X = rng.uniform(0.0, 1.0, (80, 6))
    Y = np.column_stack([np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2] - X[:, 5], (X[:, 3] - 0.5) ** 2 - X[:, 4]])
    return fit_mlp(X, Y, MlpHyper(activation=activation, max_epochs=30, patience=30), seed=5)


@pytest.mark.parametrize("activation", sorted(_PINNED_DEFAULT_MLP))
def test_fit_mlp_default_architecture_reproduces_pinned_predictions(activation):
    model = _default_fit(activation)
    assert [W.shape for W, _ in model.layers] == [(6, 100), (100, 50), (50, 2)]
    assert model.epochs_trained == 30
    np.testing.assert_allclose(predict(model, _PINNED_QUERY_6), np.array(_PINNED_DEFAULT_MLP[activation]),
                               rtol=DEFAULT_MLP_PIN_RTOL, atol=0)


_MLP_PINS = [f"tests/test_surrogate.py::test_fit_mlp_reproduces_pinned_predictions[{a}-{s}]"
             for a, s in sorted(_PINNED_MLP)]
_MLP_PINS += [f"tests/test_surrogate.py::test_fit_mlp_default_architecture_reproduces_pinned_predictions[{a}]"
              for a in sorted(_PINNED_DEFAULT_MLP)]
_MLP_PINS += [f"tests/test_optimizer.py::test_search_answers_are_pinned[mlp-{t}]" for t in ("speed", "queue")]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="Sandybridge is an x86-64 OpenBLAS kernel")
def test_mlp_pins_hold_on_another_blas_kernel():
    # the MLP pins rerun in a process whose OpenBLAS takes its Sandybridge kernel, the one that moved them most; the
    # child reports its kernel through scripts/pin_outputs.py, so the rerun cannot pass on this process's kernel
    root = pathlib.Path(__file__).resolve().parent.parent
    code = """if True:
        import json, runpy, sys
        import pytest
        print(json.dumps(runpy.run_path("scripts/pin_outputs.py")["provenance"]()["openblas_core"]), flush=True)
        sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
    """
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *_MLP_PINS], capture_output=True, text=True, env=env,
                          cwd=root, timeout=300)
    core = json.loads(done.stdout.partition("\n")[0] or "null")
    if core is None and done.returncode == 0:
        pytest.skip("numpy bundles no OpenBLAS that reports its kernel")
    assert core == "Sandybridge", done.stdout + done.stderr
    assert done.returncode == 0, done.stdout + done.stderr


# The fixed-epoch predictions above as the float64 trainer gave them, the float32 trainer's declared
# reference: training in float32 moves each by at most FLOAT32_TOLERANCE (1.6e-7 measured). Recorded
# with numpy 2.4.6 and its bundled OpenBLAS on x86-64. Early stopping is left out: its epoch count
# flips on differences that small (relu-early stops at 140 epochs in float32, 115 in float64).
FLOAT32_TOLERANCE = 1e-6
_FLOAT64_FIXED = {
    ("relu", "fixed"): [[0.7599670625840582, -0.3519478009498808],
                        [0.7669966514200502, 0.08734392066122892],
                        [1.033354803620838, -0.7247530715179975]],
    ("relu", "default"): [[0.0821115886303645, -0.5629422408228693],
                          [0.5325940842970392, -0.2914045758191728],
                          [0.6275260309664292, -0.7478480008567945]],
    ("tanh", "fixed"): [[0.6766834800438334, -0.20812787384902787],
                        [0.7186681544893314, -0.001982296042796483],
                        [1.0733250059646204, -0.6957108780832657]],
    ("tanh", "default"): [[-0.028568206740804125, -0.54234421493055],
                          [0.6758933602674044, -0.24791623440853078],
                          [0.6073944995795488, -0.9060534842327572]],
}


@pytest.mark.parametrize("activation,case", sorted(_FLOAT64_FIXED))
def test_float32_training_stays_within_tolerance_of_the_float64_trainer(activation, case):
    if case == "default":
        model, query = _default_fit(activation), _PINNED_QUERY_6
    else:
        model, query = _pinned_fit(activation, case), _PINNED_QUERY
    np.testing.assert_allclose(predict(model, query), _FLOAT64_FIXED[(activation, case)],
                               rtol=0, atol=FLOAT32_TOLERANCE)
