"""Acceptance suite: one test per shipped guarantee, one [PASS]/[FAIL] line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The heavyweight pieces (the 100-run training table) are built once per module
and shared; everything is seeded, so reruns are bit-identical.
"""
import contextlib
import math

import numpy as np
import pytest

from macrosim.dataset import feature_matrix, generate, write_csv
from macrosim.fundamental import FdParams, fit_fd, ideal_speed, invert_speed
from macrosim.metrics import congestion_weight
from macrosim.optimizer import (
    DeConfig,
    Objective,
    best_training_row,
    differential_evolution,
    optimize_config,
    surrogate_objective,
)
from macrosim.signals import IntersectionSignal, Phase, edge_phases, sample_config
from macrosim.solver import (
    CflError,
    SimParams,
    SimState,
    check_cfl,
    initialize,
    read_speeds_csv,
    run,
    step,
    virtual_boundaries,
)
from macrosim.surrogate import fit_linear, kfold_rmse, loss_and_gradients

from test_solver import _random_state, _reference_boundaries


@contextlib.contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num:2d}: {text}")
        raise
    print(f"\n[PASS] criterion {num:2d}: {text}")


@pytest.fixture(scope="module")
def training(twolights_net, twolights_speeds):
    """Shared 100-run training table on the two-intersection arterial."""
    speeds, default = twolights_speeds
    params = SimParams(seed=0)
    state0 = initialize(twolights_net, speeds, params, default_speed=default)
    rows = generate(twolights_net, state0, params, n_runs=100, seed=2024, workers=4)
    return state0, params, rows


def test_c01_fundamental_diagram_constants():
    with criterion(1, "speed-density curve constants and inversion round-trip"):
        p = FdParams()
        assert (p.v_max, p.rho_cr, p.a) == (13.68, 0.05, 1.24)
        assert ideal_speed(p, 0.0) == 13.68
        assert ideal_speed(p, 0.05) == pytest.approx(13.68 * math.exp(-1.0 / 1.24), abs=1e-9)
        assert ideal_speed(p, 0.05) == pytest.approx(6.107290975253165, abs=1e-9)
        for v in np.linspace(0.5, 13.5, 27):
            assert ideal_speed(p, invert_speed(p, float(v))) == pytest.approx(float(v), abs=1e-9)


def test_c02_calibration_recovery():
    with criterion(2, "curve fit recovers parameters (noiseless 1%, 5% noise 15%)"):
        true = FdParams()
        rho = np.linspace(0.001, 0.15, 50)
        clean = ideal_speed(true, rho)
        init = FdParams(10.0, 0.03, 1.0)

        fit = fit_fd(list(zip(rho, clean)), init=init)
        assert fit.converged
        for got, want in ((fit.params.v_max, 13.68), (fit.params.rho_cr, 0.05), (fit.params.a, 1.24)):
            assert abs(got - want) / want < 0.01

        errors = []
        for seed in range(25):
            rng = np.random.default_rng(seed)
            noisy = clean * (1.0 + 0.05 * rng.standard_normal(50))
            f = fit_fd(list(zip(rho, noisy)), init=init)
            errors.append(
                [
                    abs(f.params.v_max - 13.68) / 13.68,
                    abs(f.params.rho_cr - 0.05) / 0.05,
                    abs(f.params.a - 1.24) / 1.24,
                ]
            )
        errors = np.array(errors)
        assert np.all(errors.mean(axis=0) < 0.15)
        assert float(np.mean(np.all(errors <= 0.15, axis=1))) >= 0.8


def test_c03_stability_gate(ring_net):
    with criterion(3, "time-step gate accepts ratio 0.684 and rejects dt=1.0"):
        report = check_cfl(ring_net, 0.5)
        assert report.ok
        assert report.ratios["re0"] == pytest.approx(0.684, rel=1e-12)

        assert not check_cfl(ring_net, 1.0).ok
        params = SimParams(dt_s=1.0, init_noise=0.0)
        state = initialize(ring_net, {}, params, default_speed=6.0)
        with pytest.raises(CflError):
            run(ring_net, state, None, params, horizon=10.0, warmup=0.0)


def test_c04_conservation(ring_net):
    with criterion(4, "closed ring conserves the car count over 1000 steps (<1e-9)"):
        params = SimParams()
        rng = np.random.default_rng(42)
        fd = ring_net.fd_for("re0")
        rho = np.clip(0.05 * (1.0 + 0.3 * rng.standard_normal(ring_net.total_cells)), 0.01, 0.15)
        state = SimState(rho=rho, v=ideal_speed(fd, rho))
        before = sum(
            float(np.sum(state.rho[ring_net.cell_slice(e)])) * ring_net.edges[e].cell_length * ring_net.edges[e].lanes
            for e in ring_net.edge_order
        )
        for _ in range(1000):
            state = step(ring_net, state, {}, params)
        after = sum(
            float(np.sum(state.rho[ring_net.cell_slice(e)])) * ring_net.edges[e].cell_length * ring_net.edges[e].lanes
            for e in ring_net.edge_order
        )
        assert abs(after - before) / before < 1e-9


def test_c05_equilibrium_stationarity(ring_net):
    with criterion(5, "uniform equilibrium state is stationary to 1e-12 per step"):
        params = SimParams()
        fd = ring_net.fd_for("re0")
        rho0, v0 = 0.05, ideal_speed(fd, 0.05)
        state = SimState(rho=np.full(ring_net.total_cells, rho0), v=np.full(ring_net.total_cells, v0))
        for _ in range(200):
            nxt = step(ring_net, state, {}, params)
            assert float(np.max(np.abs(nxt.rho - state.rho))) < 1e-12
            assert float(np.max(np.abs(nxt.v - state.v))) < 1e-12
            state = nxt


def test_c06_signal_queue_dynamics(cross_net):
    with criterion(6, "red pins the stop line; queue grows under red, drains on green"):
        config = {"X": IntersectionSignal(red=30, green=30, offset=59)}
        params = SimParams(seed=1)
        state = initialize(cross_net, {}, params, default_speed=8.0)
        sl = cross_net.cell_slice("n_in")

        series = []
        for _ in range(240):  # 120 s: red [0, 59), green [59, 89), red again
            phases = edge_phases(cross_net, config, state.t)
            state = step(cross_net, state, phases, params)
            qmass = float(np.sum(congestion_weight(state.v[sl])))
            series.append((state.t, float(state.v[sl.stop - 1]), qmass))

        for t, v_stop, _ in series:
            if t <= 59.0 + 1e-9:
                assert v_stop == 0.0

        first_30s = [q for t, _, q in series if t <= 30.0 + 1e-9]
        assert all(b > a for a, b in zip(first_30s, first_30s[1:]))

        onset = next(q for t, _, q in series if t == 59.0)
        within_60s = [q for t, _, q in series if 59.0 < t <= 119.0 + 1e-9]
        assert min(within_60s) < onset


def test_c07_turn_speed_limits(cross_net):
    with criterion(7, "90-degree inflow speed capped at half v_max; straight uncapped"):
        params = SimParams()
        phases = {e: Phase.RED for e in ("s_in", "e_in", "w_in")}  # only n_in feeds
        for seed in range(50):
            state = _random_state(cross_net, seed)
            vb = virtual_boundaries(cross_net, state, phases, params)
            assert vb.v_in["e_out"] <= 0.5 * 13.68 + 1e-12
            assert vb.v_in["w_out"] <= 0.5 * 13.68 + 1e-12

        state = _random_state(cross_net, 0)
        sl = cross_net.cell_slice("n_in")
        state.rho[sl.stop - 1] = 0.05
        state.v[sl.stop - 1] = 13.68
        vb = virtual_boundaries(cross_net, state, phases, params)
        assert vb.v_in["s_out"] == pytest.approx(13.68)  # straight through at full v_max
        assert vb.v_in["e_out"] == pytest.approx(0.5 * 13.68)


def test_c08_coupling_oracle(ring_net, cross_net, twolights_net, roadcats_net):
    with criterion(8, "ghost values equal brute-force evaluation on all fixtures (1e-12)"):
        params = SimParams()
        for net in (ring_net, cross_net, twolights_net, roadcats_net):
            for seed in range(3):
                state = _random_state(net, seed)
                if net.signalized_ids():
                    config = sample_config(net, np.random.default_rng(seed))
                    phase_sets = [edge_phases(net, config, 0.0), edge_phases(net, config, 37.0)]
                else:
                    phase_sets = [{}]
                for phases in phase_sets:
                    vb = virtual_boundaries(net, state, phases, params)
                    q_ref, v_ref, r_ref = _reference_boundaries(net, state, phases, params)
                    assert vb.q_in == pytest.approx(q_ref, abs=1e-12)
                    assert vb.v_in == pytest.approx(v_ref, abs=1e-12)
                    assert vb.rho_out == pytest.approx(r_ref, abs=1e-12)


def test_c09_fundamental_diagram_consistency(roadcats_net, fixtures_dir):
    with criterion(9, "after 180 s, >=90% of cells sit within 30% of V(rho)"):
        speeds, default = read_speeds_csv(fixtures_dir / "roadcats_init.csv")
        params = SimParams(seed=0)
        state0 = initialize(roadcats_net, speeds, params, default_speed=default)
        final = run(roadcats_net, state0, None, params, horizon=180.0, warmup=0.0).final_state

        within = total = 0
        for eid in roadcats_net.edge_order:
            sl = roadcats_net.cell_slice(eid)
            v_eq = ideal_speed(roadcats_net.fd_for(eid), final.rho[sl])
            within += int(np.sum(np.abs(final.v[sl] - v_eq) <= 0.3 * v_eq))
            total += sl.stop - sl.start
        assert within / total >= 0.9


def test_c10_metrics_and_correlation(training):
    with criterion(10, "F(5)=0.5 exactly; speed/queue correlation negative on 100 runs"):
        assert congestion_weight(5.0) == 0.5
        _, _, rows = training
        ok = [r for r in rows if r.ok]
        assert len(ok) >= 90
        speeds = np.array([r.avg_speed for r in ok])
        queues = np.array([r.queue_length for r in ok])
        assert float(np.corrcoef(speeds, queues)[0, 1]) < 0.0


def test_c11_dataset_determinism(training, twolights_net, tmp_path):
    with criterion(11, "tables identical for 1 and 4 workers and row-wise reproducible"):
        state0, params, rows100 = training
        serial = generate(twolights_net, state0, params, n_runs=12, seed=2024, workers=1)
        parallel = generate(twolights_net, state0, params, n_runs=12, seed=2024, workers=4)
        assert serial == parallel
        assert serial == rows100[:12]  # any prefix regenerates bit-identically

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(serial, a)
        write_csv(parallel, b)
        assert a.read_bytes() == b.read_bytes()


def test_c12_surrogate_guarantees():
    with criterion(12, "linear recovery and cross-validation 1e-6; gradients 1e-4"):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (200, 6))
        W = rng.normal(size=(6, 2))
        b = np.array([3.0, -1.5])
        Y = X @ W + b
        model = fit_linear(X, Y)
        assert float(np.max(np.abs(model.weights - W))) < 1e-6
        assert float(np.max(np.abs(model.intercept - b))) < 1e-6
        _, mean_rmse = kfold_rmse(fit_linear, X, Y, k=5, seed=0)
        assert mean_rmse < 1e-6

        for activation in ("relu", "tanh"):
            g = np.random.default_rng(1)
            Xg = g.uniform(-1, 1, (10, 3))
            Yg = g.standard_normal((10, 2))
            sizes = [3, 5, 4, 2]
            weights = [g.standard_normal((m, n)) * 0.5 for m, n in zip(sizes[:-1], sizes[1:])]
            biases = [g.standard_normal(n) * 0.1 for n in sizes[1:]]
            _, gw, _ = loss_and_gradients(weights, biases, Xg, Yg, activation, 0.01)
            h = 1e-6
            for li in range(len(weights)):
                for i, j in ((0, 0), (weights[li].shape[0] - 1, weights[li].shape[1] - 1)):
                    bumped = [w.copy() for w in weights]
                    bumped[li][i, j] += h
                    up = loss_and_gradients(bumped, biases, Xg, Yg, activation, 0.01)[0]
                    bumped[li][i, j] -= 2 * h
                    down = loss_and_gradients(bumped, biases, Xg, Yg, activation, 0.01)[0]
                    numeric = (up - down) / (2 * h)
                    assert abs(numeric - gw[li][i, j]) / max(1.0, abs(numeric)) < 1e-4


def test_c13_differential_evolution_guarantees():
    with criterion(13, "10-d quadratic to 1e-6; monotone history; seeding is a floor"):
        center = np.full(10, 0.3)

        def quad(x):
            return float(np.sum((x - center) ** 2))

        obj = Objective(name="queue", direction="minimize", evaluate_batch=lambda X: [quad(x) for x in X])
        result = differential_evolution(obj, dim=10, de=DeConfig(seed=3))
        assert result.generations <= 300
        assert result.best_value <= 1e-6
        assert all(b <= a for a, b in zip(result.history, result.history[1:]))

        seed_point = np.full(10, 0.9)
        seeded = differential_evolution(obj, dim=10, de=DeConfig(seed=3, max_generations=2), seed_point=seed_point)
        assert seeded.best_value <= quad(seed_point)

        flat = Objective(name="queue", direction="minimize", evaluate_batch=lambda X: [7.0 for x in X])
        never_worse = differential_evolution(flat, dim=10, de=DeConfig(seed=0, max_generations=5), seed_point=seed_point)
        assert never_worse.best_value == 7.0


def test_c14_end_to_end_optimization(training, twolights_net):
    with criterion(14, "optimized timings beat the training set on >=1 objective"):
        state0, params, rows = training
        X, Y, ids = feature_matrix(rows)
        model = fit_linear(X, Y, feature_ids=ids)

        train_best_speed = best_training_row(rows, "speed").avg_speed
        train_min_queue = best_training_row(rows, "queue").queue_length

        simulated = {}
        for target in ("speed", "queue"):
            opt = optimize_config(twolights_net, surrogate_objective(model, target), DeConfig(seed=0), training_rows=rows)
            simulated[target] = run(twolights_net, state0, opt.config, params).metrics

        beat_speed = simulated["speed"].avg_speed >= train_best_speed
        beat_queue = simulated["queue"].queue_length <= train_min_queue
        print(
            f"\n    speed: optimized {simulated['speed'].avg_speed:.4f} vs training best {train_best_speed:.4f} "
            f"({'beat' if beat_speed else 'missed'}); "
            f"queue: optimized {simulated['queue'].queue_length:.4f} vs training best {train_min_queue:.4f} "
            f"({'beat' if beat_queue else 'missed'})"
        )
        assert beat_speed or beat_queue
