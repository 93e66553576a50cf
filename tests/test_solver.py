"""Solver tests.

The boundary-mixing and update rules are checked two ways: against a
plain-Python reference implementation written independently from the
vectorized solver (scalar loops, weights renormalized from the raw
intersection tables, angles recomputed from node coordinates), and against
behavioral invariants (conservation on a closed network, stationarity of an
equilibrium state, queue growth at a red light).
"""
import json
import math
import re
import warnings

import numpy as np
import pytest

from macrosim.fundamental import ideal_speed, invert_speed
from macrosim.metrics import CongestionMetrics, step_metrics
from macrosim import dataset, network, solver
from macrosim.network import RoadNetwork, turn_angle
from macrosim.signals import IntersectionSignal, edge_phases, load_config, sample_config
from macrosim.solver import (
    CflError,
    SimParams,
    SimState,
    SimulationError,
    check_cfl,
    check_protocol,
    initialize,
    read_speeds_csv,
    run,
    step,
    virtual_boundaries,
    write_heatmap_csv,
    write_heatmap_pgm,
    write_metrics_json,
)

# ---------------------------------------------------------------- reference


def _reference_boundaries(net, state, red, params):
    """Scalar re-derivation of the ghost values, kept independent of solver.py."""
    q_in, v_in, rho_out = {}, {}, {}

    for eid in net.edge_order:
        sl = net.cell_slice(eid)
        e = net.edges[eid]
        if eid not in net.upstream_of:
            q_in[eid] = float(state.rho[sl.start]) * float(state.v[sl.start]) * e.lanes
            v_in[eid] = float(state.v[sl.start])
        if eid not in net.downstream_of:
            rho_out[eid] = float(state.rho[sl.stop - 1])

    for ix in net.intersections.values():
        def row_total(e_in):
            return sum(w for (a, _), w in ix.turn_weights.items() if a == e_in and w > 0)

        for e_out in ix.outgoing:
            q0 = speed_flux = cap_flux = 0.0
            for e_in in ix.incoming:
                if e_in in red:
                    continue
                w = ix.turn_weights.get((e_in, e_out), 0.0)
                if w <= 0:
                    continue
                sl_in = net.cell_slice(e_in)
                q_end = float(state.rho[sl_in.stop - 1]) * float(state.v[sl_in.stop - 1]) * net.edges[e_in].lanes
                part = q_end * (w / row_total(e_in))
                angle = turn_angle(net, e_in, e_out)
                cap = net.edges[e_in].free_flow_speed * (1.0 - math.cos(math.radians(angle))) / 2.0
                q0 += part
                speed_flux += float(state.v[sl_in.stop - 1]) * part
                cap_flux += cap * part
            if q0 > 0.0:
                v0 = min(speed_flux, cap_flux) / q0
            else:
                v0 = float(state.v[net.cell_slice(e_out).start])
            q_in[e_out] = q0
            v_in[e_out] = min(max(v0, 0.0), net.edges[e_out].free_flow_speed)

        for e_in in ix.incoming:
            sl = net.cell_slice(e_in)
            if e_in in red:
                rho_out[e_in] = params.jam_density
                continue
            num = den = 0.0
            for e_out in ix.outgoing:
                w = ix.turn_weights.get((e_in, e_out), 0.0)
                if w <= 0:
                    continue
                first = float(state.rho[net.cell_slice(e_out).start])
                num += first * first * w
                den += first * w
            rho_out[e_in] = num / den if den > 0.0 else float(state.rho[sl.stop - 1])

    return q_in, v_in, rho_out


def _reference_step(net, state, vb, red, params):
    """Scalar re-derivation of one update, cell by cell."""
    rho_new = np.empty_like(state.rho)
    v_new = np.empty_like(state.v)
    dt = params.dt_s
    for eid in net.edge_order:
        e = net.edges[eid]
        sl = net.cell_slice(eid)
        n = sl.stop - sl.start
        dx = e.cell_length
        fd = net.fd_for(eid)
        for i in range(n):
            g = sl.start + i
            rho_i = float(state.rho[g])
            v_i = float(state.v[g])
            if i == 0:
                q_up, v_up = vb.q_in[eid], vb.v_in[eid]
            else:
                q_up = float(state.rho[g - 1]) * float(state.v[g - 1]) * e.lanes
                v_up = float(state.v[g - 1])
            rho_dn = float(state.rho[g + 1]) if i < n - 1 else vb.rho_out[eid]

            r = rho_i - dt / (e.lanes * dx) * (rho_i * v_i * e.lanes - q_up)
            v_eq = fd.v_max * math.exp(-(1.0 / fd.a) * (rho_dn / fd.rho_cr) ** fd.a)
            u = (
                v_i
                - dt / (2.0 * dx) * (v_i * v_i - v_up * v_up)
                + dt / params.relaxation_s * (v_eq - v_i)
                - dt * params.anticipation / (rho_i + params.density_guard) * (rho_dn - rho_i) / dx
            )
            if i == n - 1 and eid in red:
                u = 0.0
            rho_new[g] = min(max(r, params.density_floor), params.jam_density)
            v_new[g] = min(max(u, 0.0), e.free_flow_speed)
    return rho_new, v_new


def _random_state(net, seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.005, 0.18, net.total_cells)
    v = np.empty(net.total_cells)
    for eid in net.edge_order:
        sl = net.cell_slice(eid)
        v[sl] = rng.uniform(0.0, net.edges[eid].free_flow_speed, sl.stop - sl.start)
    return SimState(rho=rho, v=v, t=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("t", [0.0, 15.0])  # group A red, then group B red
def test_boundaries_match_reference_on_cross(cross_net, seed, t):
    config = {"X": IntersectionSignal(red=30, green=30, offset=10)}
    state = _random_state(cross_net, seed)
    phases = edge_phases(cross_net, config, t)
    params = SimParams()
    vb = virtual_boundaries(cross_net, state, phases, params)
    q_ref, v_ref, r_ref = _reference_boundaries(cross_net, state, phases, params)
    assert vb.q_in == pytest.approx(q_ref, abs=1e-12)
    assert vb.v_in == pytest.approx(v_ref, abs=1e-12)
    assert vb.rho_out == pytest.approx(r_ref, abs=1e-12)


@pytest.mark.parametrize("seed", [3, 4])
def test_boundaries_match_reference_on_twolights(twolights_net, fixtures_dir, seed):
    config = load_config(fixtures_dir / "twolights_lights.json")
    state = _random_state(twolights_net, seed)
    for t in (0.0, 31.0):
        phases = edge_phases(twolights_net, config, t)
        params = SimParams()
        vb = virtual_boundaries(twolights_net, state, phases, params)
        q_ref, v_ref, r_ref = _reference_boundaries(twolights_net, state, phases, params)
        assert vb.q_in == pytest.approx(q_ref, abs=1e-12)
        assert vb.v_in == pytest.approx(v_ref, abs=1e-12)
        assert vb.rho_out == pytest.approx(r_ref, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 5])
def test_step_matches_reference(cross_net, ring_net, seed):
    config = {"X": IntersectionSignal(red=30, green=30, offset=10)}
    # with a = 2.0 numpy squares rather than calls pow, so the scalar-exponent kernel is checked on that path too
    steep = RoadNetwork(cross_net.nodes.values(), cross_net.edges.values(), cross_net.intersections.values(), a=2.0)
    for net, cfg in ((cross_net, config), (ring_net, None), (steep, config)):
        state = _random_state(net, seed)
        phases = edge_phases(net, cfg, 0.0)
        params = SimParams()
        out = step(net, state, phases, params)
        rho_ref, v_ref = _reference_step(net, state, virtual_boundaries(net, state, phases, params), phases, params)
        np.testing.assert_allclose(out.rho, rho_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.v, v_ref, rtol=0, atol=1e-12)
        assert out.t == state.t + params.dt_s
        # input state untouched
        assert state.t == 0.0


def test_single_cell_update_by_hand(cross_net):
    """One interior cell of one edge, all terms written out with literals."""
    params = SimParams()
    state = _random_state(cross_net, 9)
    sl = cross_net.cell_slice("n_in")
    state.rho[sl.start:sl.start + 3] = [0.05, 0.04, 0.06]
    state.v[sl.start:sl.start + 3] = [10.0, 8.0, 6.0]
    phases = edge_phases(cross_net, {"X": IntersectionSignal(30, 30, 10)}, 0.0)
    out = step(cross_net, state, phases, params)

    # density: 0.04 - (0.5 / 10) * (0.04*8 - 0.05*10) = 0.049
    assert out.rho[sl.start + 1] == pytest.approx(0.049, abs=1e-15)
    # speed: convection + relaxation toward V(0.06) + anticipation on (0.06 - 0.04)
    v_eq = 13.68 * math.exp(-(1 / 1.24) * (0.06 / 0.05) ** 1.24)
    expected = (
        8.0
        - (0.5 / 20.0) * (64.0 - 100.0)
        + 0.5 * (v_eq - 8.0)
        - (0.5 * 7.0 / (0.04 + 0.008)) * (0.06 - 0.04) / 10.0
    )
    assert out.v[sl.start + 1] == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------- ghost values


def test_turn_share_and_speed_cap(cross_net):
    """Only n_in green: its end flux splits 0.6/0.25/0.15 and turns are slowed."""
    params = SimParams()
    state = _random_state(cross_net, 2)
    sl = cross_net.cell_slice("n_in")
    state.rho[sl.stop - 1] = 0.05
    state.v[sl.stop - 1] = 10.0
    phases = {"s_in", "e_in", "w_in"}
    vb = virtual_boundaries(cross_net, state, phases, params)

    q_end = 0.05 * 10.0
    assert vb.q_in["s_out"] == pytest.approx(q_end * 0.6)
    assert vb.q_in["e_out"] == pytest.approx(q_end * 0.15)
    assert vb.q_in["w_out"] == pytest.approx(q_end * 0.25)
    # straight through keeps the approach speed; a 90 degree turn is capped
    # at half the approach's free-flow speed
    assert vb.v_in["s_out"] == pytest.approx(10.0)
    assert vb.v_in["e_out"] == pytest.approx(13.68 / 2)
    assert vb.v_in["w_out"] == pytest.approx(13.68 / 2)


def test_all_red_outgoing_falls_back_to_first_cell_speed(cross_net):
    params = SimParams()
    state = _random_state(cross_net, 3)
    phases = {"n_in", "s_in", "e_in", "w_in"}
    vb = virtual_boundaries(cross_net, state, phases, params)
    for e_out in ("n_out", "s_out", "e_out", "w_out"):
        sl = cross_net.cell_slice(e_out)
        assert vb.q_in[e_out] == 0.0
        assert vb.v_in[e_out] == pytest.approx(float(state.v[sl.start]))
    for e_in in ("n_in", "s_in", "e_in", "w_in"):
        assert vb.rho_out[e_in] == params.jam_density


def test_downstream_ghost_density_quadratic_mean(cross_net):
    state = _random_state(cross_net, 5)
    firsts = {}
    for e_out in ("e_out", "s_out", "w_out"):
        firsts[e_out] = float(state.rho[cross_net.cell_slice(e_out).start])
    vb = virtual_boundaries(cross_net, state, set(), SimParams())
    w = {"e_out": 0.15, "s_out": 0.6, "w_out": 0.25}
    num = sum(firsts[e] ** 2 * w[e] for e in w)
    den = sum(firsts[e] * w[e] for e in w)
    assert vb.rho_out["n_in"] == pytest.approx(num / den, abs=1e-15)


# ---------------------------------------------------------------- stability


def test_cfl_ratio_of_ring(ring_net):
    report = check_cfl(ring_net, 0.5)
    assert report.ok
    assert report.ratios["re0"] == pytest.approx(13.68 * 0.5 / 10.0)  # 0.684

    report = check_cfl(ring_net, 1.0)
    assert not report.ok
    assert any(eid == "re0" and ratio == pytest.approx(1.368) for eid, ratio in report.violations)

    for dt in (0.0, math.nan):
        with pytest.raises(ValueError, match=f"^dt must be finite and > 0, got {dt!r}$"):
            check_cfl(ring_net, dt)


def test_run_refuses_unstable_time_step(ring_net):
    params = SimParams(dt_s=1.0)
    state = initialize(ring_net, {}, params, default_speed=6.0)
    with pytest.raises(CflError, match="stability"):
        run(ring_net, state, None, params, horizon=10.0, warmup=0.0)


def test_step_reports_non_finite_cells(cross_net):
    params = SimParams()
    state = _random_state(cross_net, 7)
    state.v[cross_net.cell_slice("n_in").start] = np.inf
    with pytest.raises(SimulationError, match="edge n_in"):
        step(cross_net, state, set(), params)


def test_step_survives_an_overflowing_finiteness_reduction(ring_net):
    """Every cell stays finite although their sum of products overflows; the exact check lets it pass, silently."""
    params = SimParams()
    n = ring_net.total_cells
    state = SimState(rho=np.full(n, 1e153), v=np.full(n, 1e154))  # q = 1e307 and v * v = 1e308 stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = step(ring_net, state, set(), params)
        ran = run(ring_net, state, None, params, horizon=params.dt_s, warmup=0.0).final_state
    for s in (out, ran):
        assert np.all((s.rho >= params.density_floor) & (s.rho <= params.jam_density))
        assert np.all(np.isfinite(s.v)) and s.t == params.dt_s


# ----------------------------------------------------------- initialization


def test_initialize_is_seeded_and_noise_bounded(ring_net):
    params = SimParams(seed=11, init_noise=0.05)
    s1 = initialize(ring_net, {}, params, default_speed=8.0)
    s2 = initialize(ring_net, {}, params, default_speed=8.0)
    assert np.array_equal(s1.rho, s2.rho) and np.array_equal(s1.v, s2.v)

    s3 = initialize(ring_net, {}, SimParams(seed=12, init_noise=0.05), default_speed=8.0)
    assert not np.array_equal(s1.v, s3.v)

    assert np.all(s1.v >= 8.0 * 0.95 - 1e-12)
    assert np.all(s1.v <= 8.0 * 1.05 + 1e-12)
    # density is the fundamental-diagram inverse of the noisy speed
    fd = ring_net.fd_for("re0")
    np.testing.assert_allclose(ideal_speed(fd, s1.rho), s1.v, rtol=1e-9)


def test_initialize_without_noise_is_exact(ring_net):
    params = SimParams(init_noise=0.0)
    state = initialize(ring_net, {}, params, default_speed=6.0)
    np.testing.assert_allclose(state.v, 6.0, rtol=1e-9)
    fd = ring_net.fd_for("re0")
    np.testing.assert_allclose(state.rho, invert_speed(fd, 6.0), rtol=1e-9)


def test_initialize_at_free_flow_speed_clips_before_inverting(ring_net):
    """About half the noisy speeds exceed v_max; initialize clips them to it first, so the inversion never refuses."""
    params = SimParams(init_noise=0.05)
    v_max = ring_net.fd_for("re0").v_max
    assert {e.free_flow_speed for e in ring_net.edges.values()} == {v_max} == {13.68}
    state = initialize(ring_net, {}, params, default_speed=v_max)
    at_v_max = state.v == v_max
    assert np.all(state.v <= v_max)
    assert 0.3 < at_v_max.mean() < 0.7  # about half the noise is upward
    assert np.all((params.density_floor <= state.rho) & (state.rho <= params.jam_density))
    assert np.all(state.rho[at_v_max] == params.density_floor)


def test_initialize_per_edge_speeds_and_errors(twolights_net, twolights_speeds):
    speeds, default = twolights_speeds
    params = SimParams(init_noise=0.0)
    state = initialize(twolights_net, speeds, params, default_speed=default)
    for eid in twolights_net.edge_order:
        sl = twolights_net.cell_slice(eid)
        expected = speeds.get(eid, default)
        np.testing.assert_allclose(state.v[sl], expected, rtol=1e-9)

    with pytest.raises(ValueError, match="no observed speed"):
        initialize(twolights_net, {}, params)
    with pytest.raises(ValueError, match="must be in"):
        initialize(twolights_net, {}, params, default_speed=99.0)
    with pytest.raises(ValueError, match="edges not in the network: n_inn$"):
        initialize(twolights_net, {**speeds, "n_inn": 7.0}, params, default_speed=default)


# -------------------------------------------------- conservation and rest


def _total_cars(net, state):
    """Vehicles on the network: per-lane density * cell length * lanes, summed per edge in edge order."""
    total = 0.0
    for eid in net.edge_order:
        e = net.edges[eid]
        total += float(np.sum(state.rho[net.cell_slice(eid)])) * e.cell_length * e.lanes
    return total


def test_closed_ring_conserves_mass_exactly_uniform(ring_net):
    params = SimParams(init_noise=0.0)
    fd = ring_net.fd_for("re0")
    rho0 = 0.05
    state = SimState(
        rho=np.full(ring_net.total_cells, rho0),
        v=np.full(ring_net.total_cells, ideal_speed(fd, rho0)),
    )
    before = _total_cars(ring_net, state)
    assert before == pytest.approx(0.05 * 8 * 120.0)
    for _ in range(100):
        state = step(ring_net, state, set(), params)
    assert _total_cars(ring_net, state) == pytest.approx(before, abs=1e-12)


def test_closed_ring_conserves_mass_with_perturbation(ring_net):
    params = SimParams()
    rng = np.random.default_rng(21)
    fd = ring_net.fd_for("re0")
    rho = 0.05 * (1.0 + 0.3 * rng.standard_normal(ring_net.total_cells))
    rho = np.clip(rho, 0.01, 0.15)
    state = SimState(rho=rho, v=ideal_speed(fd, rho))
    before = _total_cars(ring_net, state)
    for _ in range(500):
        state = step(ring_net, state, set(), params)
    drift = abs(_total_cars(ring_net, state) - before) / before
    assert drift < 1e-9


def test_uniform_equilibrium_is_stationary(ring_net):
    params = SimParams()
    fd = ring_net.fd_for("re0")
    rho0, v0 = 0.05, ideal_speed(fd, 0.05)
    state = SimState(rho=np.full(ring_net.total_cells, rho0), v=np.full(ring_net.total_cells, v0))
    for _ in range(50):
        state = step(ring_net, state, set(), params)
        assert float(np.max(np.abs(state.rho - rho0))) < 1e-12
        assert float(np.max(np.abs(state.v - v0))) < 1e-12


def test_closed_ring_converges_at_first_order(fixtures_dir, monkeypatch):
    """A smooth density wave on the ring, refined from 20 m to 1.25 m cells at a fixed CFL ratio.

    Each solution at T = 30 s is averaged onto 20 m cells; the L1 difference between successive cell
    sizes must shrink at an observed order of at least 0.8 (the upwind update is first order).
    """
    solutions = []
    for h in (20.0, 10.0, 5.0, 2.5, 1.25):
        monkeypatch.setattr(network, "CELL_TARGET_M", h)
        monkeypatch.setattr(network, "CELL_MIN_M", h / 2)
        net = network.load_network(fixtures_dir / "ring.json")
        length = sum(edge.length_m for edge in net.edges.values())
        x = np.concatenate([i * net.edges[eid].length_m + (np.arange(net.edges[eid].cell_count) + 0.5) * h
                            for i, eid in enumerate(net.edge_order)])  # the ring's edges run re0, re1, ... in order
        rho = 0.04 * (1.0 + 0.3 * np.sin(2.0 * np.pi * x / length))
        state = SimState(rho=rho, v=ideal_speed(net.fd_for("re0"), rho))
        params = SimParams(dt_s=0.05 * h, init_noise=0.0)
        final = run(net, state, None, params, horizon=30.0, warmup=0.0).final_state
        coarse = int(round(20.0 / h))
        solutions.append([u.reshape(-1, coarse).mean(axis=1) for u in (final.rho, final.v)])
    for var in (0, 1):
        errors = [np.sum(np.abs(fine[var] - coarse[var])) * 20.0 for coarse, fine in zip(solutions, solutions[1:])]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.8), ("rho", "v")[var]


def test_red_light_pins_stop_line_and_grows_queue(cross_net):
    """Group A held red for 59 s: its approaches fill up, then drain on green."""
    config = {"X": IntersectionSignal(red=30, green=30, offset=59)}
    params = SimParams(seed=1)
    state = initialize(cross_net, {}, params, default_speed=8.0)
    sl = cross_net.cell_slice("n_in")

    records = []
    for _ in range(240):  # 120 s
        phases = edge_phases(cross_net, config, state.t)
        state = step(cross_net, state, phases, params)
        records.append((state.t, float(state.v[sl.stop - 1]), float(np.sum(state.rho[sl])) * 10.0))

    by_time = {round(t, 3): (v_stop, mass) for t, v_stop, mass in records}

    # stop line exactly at rest through the whole red interval
    for t, v_stop, _ in records:
        if t <= 59.0 + 1e-9:
            assert v_stop == 0.0

    # vehicles pile up behind the stop line while red, strictly per step
    masses_red = [mass for t, _, mass in records if t <= 30.0 + 1e-9]
    assert all(b > a for a, b in zip(masses_red, masses_red[1:]))

    # green onset at t=59: stop line moves again and the queue drains
    assert by_time[70.0][0] > 1.0
    assert by_time[119.0][1] < by_time[59.0][1]

    # the queue metric sees the same story
    q_red = step_metrics(np.array([0.0]))[1]
    assert q_red == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------------- run()


def test_run_sampling_contract(twolights_net, twolights_speeds, fixtures_dir):
    speeds, default = twolights_speeds
    config = load_config(fixtures_dir / "twolights_lights.json")
    params = SimParams(seed=5)
    state = initialize(twolights_net, speeds, params, default_speed=default)
    result = run(twolights_net, state, config, params, horizon=340.0, warmup=100.0)
    assert result.steps == 680
    assert result.warmup_steps == 200
    assert result.metrics.samples == 480
    assert math.isfinite(result.metrics.avg_speed)
    assert result.final_state.t == pytest.approx(340.0)


_MANUAL_STEPS = 120  # 60 s at dt = 0.5 s


@pytest.fixture(scope="module")
def manual_runs():
    """Manual trajectories by (fixture, batch row); no warm-up changes them, so each is stepped once."""
    return {}


def _manual_run(runs, net, name, row, config, state0, params):
    """(clock, mean speed, queue) and phases before each of the first _MANUAL_STEPS steps, and the state after
    them, from the public per-step definitions."""
    if (name, row) not in runs:
        state, samples, seen_phases = SimState(state0.rho.copy(), state0.v.copy(), state0.t), [], []
        for _ in range(_MANUAL_STEPS):
            phases = edge_phases(net, config, state.t)
            samples.append((state.t, *step_metrics(state.v)))
            seen_phases.append(phases)
            state = step(net, state, phases, params)
        runs[name, row] = samples, seen_phases, state
    return runs[name, row]


@pytest.mark.parametrize("name", ["ring", "cross", "twolights", "roadcats"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("samples", ["one", "block - 1", "block", "block + 1", "every step"])
def test_run_metrics_match_manual_stepping(request, fixtures_dir, manual_runs, name, batch, samples):
    """run's loop equals stepping the public per-step definitions one by one, wherever the warm-up leaves
    the end of run's last metric block: one sample, one short of a block, a full block, one more, every step."""
    net = request.getfixturevalue(f"{name}_net")
    speeds, default = read_speeds_csv(fixtures_dir / f"{name}_init.csv")
    lights = fixtures_dir / f"{name}_lights.json"
    configs = [load_config(lights)] + [sample_config(net, np.random.default_rng(row)) for row in (1, 2)] \
        if lights.exists() else [None] * 3
    configs = configs[:batch]
    params = SimParams(seed=8)
    state0 = initialize(net, speeds, params, default_speed=default)
    block = solver._BLOCK_VALUES // (batch * net.total_cells)  # the samples of one step_metrics call
    assert 2 <= block < _MANUAL_STEPS - 1
    n_samples = {"one": 1, "block - 1": block - 1, "block": block, "block + 1": block + 1}.get(samples, _MANUAL_STEPS)
    warmup = (_MANUAL_STEPS - n_samples) * params.dt_s

    results = run(net, state0, configs, params, horizon=_MANUAL_STEPS * params.dt_s, warmup=warmup)

    for row, (config, result) in enumerate(zip(configs, results)):
        trajectory, seen_phases, state = _manual_run(manual_runs, net, name, row, config, state0, params)
        if config is not None:
            assert any(p != seen_phases[0] for p in seen_phases), "no signal switched within the horizon"
        sampled = [(avg, queue) for t, avg, queue in trajectory if t >= warmup - 1e-9]
        avgs, queues = zip(*sampled)
        assert result.metrics == CongestionMetrics(float(np.mean(avgs)), float(np.mean(queues)), len(sampled))
        assert result.metrics.samples == len(sampled) == n_samples
        assert result.warmup_steps == _MANUAL_STEPS - n_samples
        assert result.final_state.t == state.t
        assert np.array_equal(result.final_state.rho, state.rho)
        assert np.array_equal(result.final_state.v, state.v)


# Metrics of each fixture under the paper's protocol (340 s, 100 s warm-up),
# as computed by a scalar per-edge formulation of the same update rules.
PINNED_METRICS = {
    "ring": (6.022965641451009, 4.279295924829194),
    "cross": (6.794794461441721, 47.931020975444625),
    "twolights": (5.909105681532877, 116.49568653506876),
    "roadcats": (7.888417193045212, 30.99792948619597),
}


@pytest.mark.parametrize("name", sorted(PINNED_METRICS))
def test_run_reproduces_pinned_metrics(request, fixtures_dir, name):
    net = request.getfixturevalue(f"{name}_net")
    speeds, default = read_speeds_csv(fixtures_dir / f"{name}_init.csv")
    lights = fixtures_dir / f"{name}_lights.json"
    config = load_config(lights) if lights.exists() else None
    params = SimParams(seed=0)
    state0 = initialize(net, speeds, params, default_speed=default)
    metrics = run(net, state0, config, params, horizon=340.0, warmup=100.0).metrics
    assert (metrics.avg_speed, metrics.queue_length) == pytest.approx(PINNED_METRICS[name], rel=1e-12)


def test_run_reports_non_finite_initial_density(twolights_net, twolights_speeds, fixtures_dir):
    speeds, default = twolights_speeds
    params = SimParams(seed=0)
    state0 = initialize(twolights_net, speeds, params, default_speed=default)
    entry = next(e for e in twolights_net.edge_order if e not in twolights_net.upstream_of)
    state0.rho[twolights_net.cell_slice(entry).start + 2] = np.nan
    config = load_config(fixtures_dir / "twolights_lights.json")
    # cell 2 reads cell 3's density as its downstream neighbour, so it goes non-finite first
    with pytest.raises(SimulationError, match=f"edge {entry} cell 2 at step 1 "):
        run(twolights_net, state0, config, params, horizon=10.0, warmup=0.0)


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(PINNED_METRICS))
def test_batched_run_equals_unbatched_runs(request, fixtures_dir, name, batch):
    """Row b of a batched run is bit-identical to the run of configuration b alone."""
    net = request.getfixturevalue(f"{name}_net")
    speeds, default = read_speeds_csv(fixtures_dir / f"{name}_init.csv")
    params = SimParams(seed=batch)
    state0 = initialize(net, speeds, params, default_speed=default)
    rng = np.random.default_rng([batch, 7])
    configs = [sample_config(net, rng) if net.signalized_ids() else None for _ in range(batch)]
    kwargs = dict(horizon=340.0, warmup=100.0, probes=[0.0, 150.5, 340.0])
    results = run(net, state0, configs, params, **kwargs)
    assert len(results) == batch
    for config, got in zip(configs, results):
        want = run(net, state0, config, params, **kwargs)
        assert got.metrics == want.metrics
        assert (got.steps, got.warmup_steps) == (want.steps, want.warmup_steps)
        assert got.final_state.t == want.final_state.t
        assert np.array_equal(got.final_state.rho, want.final_state.rho)
        assert np.array_equal(got.final_state.v, want.final_state.v)
        assert [s.t for s in got.snapshots] == [s.t for s in want.snapshots] and len(want.snapshots) == 3
        for a, b in zip(got.snapshots, want.snapshots):
            assert np.array_equal(a.rho, b.rho) and np.array_equal(a.v, b.v)


def test_batched_run_names_the_batch_row_of_a_non_finite_state(cross_net):
    params = SimParams(seed=1)
    state0 = initialize(cross_net, {}, params, default_speed=8.0)
    state0.rho[cross_net.cell_slice(cross_net.edge_order[0]).start + 2] = np.nan
    config = {"X": IntersectionSignal(red=30, green=30, offset=0)}
    with pytest.raises(SimulationError, match=r"at step 1 \(t=0.5 s\)$"):
        run(cross_net, state0, [config], params, horizon=10.0, warmup=0.0)
    with pytest.raises(SimulationError, match=r"at step 1 \(t=0.5 s\) in batch row 0$"):
        run(cross_net, state0, [config, config], params, horizon=10.0, warmup=0.0)


def test_run_is_deterministic(cross_net):
    config = {"X": IntersectionSignal(red=20, green=20, offset=5)}
    params = SimParams(seed=13)
    state = initialize(cross_net, {}, params, default_speed=8.0)
    r1 = run(cross_net, state, config, params, horizon=50.0, warmup=20.0)
    r2 = run(cross_net, state, config, params, horizon=50.0, warmup=20.0)
    assert r1.metrics == r2.metrics
    assert np.array_equal(r1.final_state.v, r2.final_state.v)


def test_run_probe_snapshots(ring_net):
    params = SimParams(init_noise=0.0)
    state = initialize(ring_net, {}, params, default_speed=6.0)
    result = run(ring_net, state, None, params, horizon=20.0, warmup=0.0, probes=[0.0, 10.0, 20.0])
    assert [s.t for s in result.snapshots] == [0.0, 10.0, 20.0]
    assert all(isinstance(s, SimState) for s in result.snapshots)
    np.testing.assert_array_equal(result.snapshots[0].v, state.v)
    np.testing.assert_array_equal(result.snapshots[-1].v, result.final_state.v)
    # an array of probes is read like the list of them
    from_array = run(ring_net, state, None, params, horizon=20.0, warmup=0.0, probes=np.array([0.0, 10.0, 20.0]))
    for a, b in zip(from_array.snapshots, result.snapshots, strict=True):
        assert a.t == b.t and np.array_equal(a.rho, b.rho) and np.array_equal(a.v, b.v)

    # a probe the clock never reaches is refused by name; one at exactly the horizon is reached by the last clock
    later = SimState(rho=state.rho, v=state.v, t=5.0)
    for start, bad in ((state, 20.5), (state, math.nan), (state, -5.0), (state, math.inf), (later, 0.0)):
        span = f"[{start.t!r}, {start.t + 20.0!r}]"
        with pytest.raises(ValueError, match=f"^probe {bad!r} s is outside the run's clock span {re.escape(span)} s$"):
            run(ring_net, start, None, params, horizon=20.0, warmup=0.0, probes=[0.0, bad])
    assert [s.t for s in run(ring_net, later, None, params, horizon=20.0, warmup=0.0, probes=[25.0]).snapshots] == [25.0]


@pytest.mark.parametrize("t0, warmup, samples", [(5.0, 9.0, 2), (50.0, 5.0, 10)])
def test_warmup_counts_from_the_start_clock(ring_net, t0, warmup, samples):
    # the warm-up, like the horizon, is seconds of the run: sampling starts warmup seconds after state0.t; the
    # ring has no signals, so the start clock moves nothing else
    params = SimParams(init_noise=0.0)
    state = initialize(ring_net, {}, params, default_speed=6.0)
    later = SimState(rho=state.rho, v=state.v, t=t0)
    assert check_protocol(ring_net, later, params, 10.0, warmup) == (20, 20 - samples)
    got, want = (run(ring_net, s, None, params, horizon=10.0, warmup=warmup) for s in (later, state))
    assert (got.steps, got.warmup_steps, got.metrics.samples) == (20, 20 - samples, samples)
    assert got.metrics == want.metrics
    assert got.final_state.t == t0 + 10.0


@pytest.mark.parametrize("late, reached", [(0.5, 4), (1.5, 5)])
def test_warmup_and_probes_share_the_clock_tolerance(ring_net, late, reached):
    # a time within CLOCK_TOL_S after step 4's clock, 2.0 s, reaches step 4 both as the warm-up's end and as a
    # probe; one further after it reaches step 5 in both uses
    params = SimParams(seed=3)
    state = initialize(ring_net, {}, params, default_speed=6.0)
    time = 2.0 + late * solver.CLOCK_TOL_S
    result = run(ring_net, state, None, params, horizon=5.0, warmup=time, probes=[time])
    exact = run(ring_net, state, None, params, horizon=5.0, warmup=reached * params.dt_s)
    assert (result.warmup_steps, result.metrics.samples) == (reached, 10 - reached)
    assert result.metrics == exact.metrics
    at = run(ring_net, state, None, params, horizon=reached * params.dt_s, warmup=0.0).final_state
    (snapshot,) = result.snapshots
    assert snapshot.t == at.t
    assert np.array_equal(snapshot.rho, at.rho) and np.array_equal(snapshot.v, at.v)


def test_step_returns_arrays_of_its_own(cross_net):
    # each step call owns its result: it shares no memory with the state it read or with another call's result
    params = SimParams()
    state = _random_state(cross_net, 2)
    before = SimState(state.rho.copy(), state.v.copy(), state.t)
    phases = {"n_in"}
    first, second = (step(cross_net, state, phases, params) for _ in range(2))
    arrays = [state.rho, state.v, first.rho, first.v, second.rho, second.v]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(state.rho, before.rho) and np.array_equal(state.v, before.v)
    assert np.array_equal(first.rho, second.rho) and np.array_equal(first.v, second.v)


def test_run_probe_snapshots_are_not_overwritten(cross_net):
    # run steps on two state buffers in turn; a snapshot must keep the state of its own time to the end
    params = SimParams(seed=4)
    state0 = initialize(cross_net, {}, params, default_speed=8.0)
    configs = [sample_config(cross_net, np.random.default_rng(row)) for row in range(2)]
    probes = [0.0, 0.5, 1.0, 7.5, 20.0]
    results = run(cross_net, state0, configs, params, horizon=20.0, warmup=0.0, probes=probes)
    for t, *snapshots in zip(probes, *(r.snapshots for r in results)):
        alone = run(cross_net, state0, configs, params, horizon=t, warmup=0.0) if t else None
        for row, snapshot in enumerate(snapshots):
            wanted = alone[row].final_state if alone else state0
            assert snapshot.t == t and np.array_equal(snapshot.rho, wanted.rho) and np.array_equal(snapshot.v, wanted.v)
    for r in results:
        arrays = [r.final_state.rho, r.final_state.v] + [a for s in r.snapshots for a in (s.rho, s.v)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


def test_run_names_a_non_finite_cell_that_appears_inside_a_metric_block(cross_net, monkeypatch):
    # the guard still stops the run at the step that makes the cell, with a half-filled block of samples pending
    params = SimParams(seed=1)
    state0 = initialize(cross_net, {}, params, default_speed=8.0)
    configs = [sample_config(cross_net, np.random.default_rng(row)) for row in range(3)]
    block = solver._BLOCK_VALUES // (3 * cross_net.total_cells)
    warmup_steps, bad_step, row = 10, 10 + block + block // 2, 2
    eid = cross_net.edge_order[1]
    cell = row * cross_net.total_cells + cross_net.cell_slice(eid).start + 2
    curve, metric_calls = solver._curve, []

    def poisoned_curve(*args):  # called once per step, by the step that makes state k on its k-th call
        out = curve(*args)
        poisoned_curve.calls += 1
        if poisoned_curve.calls == bad_step:
            out[cell] = np.nan
        return out

    poisoned_curve.calls = 0
    monkeypatch.setattr(solver, "_curve", poisoned_curve)
    monkeypatch.setattr(solver, "step_metrics", lambda v: metric_calls.append(len(v)) or step_metrics(v))
    wanted = rf"^non-finite state on edge {eid} cell 3 at step {bad_step} \(t={bad_step * params.dt_s:g} s\) in batch row {row}$"
    with pytest.raises(SimulationError, match=wanted):
        run(cross_net, state0, configs, params, horizon=60.0, warmup=warmup_steps * params.dt_s)
    assert metric_calls == [block]  # one full block measured; the bad state fell inside the second


def test_run_argument_validation(ring_net):
    params = SimParams()
    state = initialize(ring_net, {}, params, default_speed=6.0)
    with pytest.raises(ValueError):
        run(ring_net, state, None, params, horizon=0.0)
    with pytest.raises(ValueError):
        run(ring_net, state, None, params, horizon=10.0, warmup=10.0)
    assert run(ring_net, state, None, params, horizon=10.0, warmup=9.5).metrics.samples == 1  # the last step's start
    with pytest.raises(ValueError, match="config list is empty"):
        run(ring_net, state, [], params)


@pytest.mark.parametrize("horizon, warmup, wanted", [
    (math.inf, 0.0, "horizon must be finite and > 0, got inf"),
    (math.nan, 0.0, "horizon must be finite and > 0, got nan"),
    (-1.0, 0.0, "horizon must be finite and > 0, got -1.0"),
    (10.0, math.nan, "warmup must be in [0, horizon) = [0, 10.0), got nan"),
    (10.0, math.inf, "warmup must be in [0, horizon) = [0, 10.0), got inf"),
    (10.0, 9.8, "warmup 9.8 s is later than the last step's start at 9.5 s; no metric would be sampled"),
])
def test_protocol_values_are_refused_by_name(ring_net, horizon, warmup, wanted):
    params = SimParams()
    state = initialize(ring_net, {}, params, default_speed=6.0)
    with pytest.raises(ValueError, match=f"^{re.escape(wanted)}$"):
        check_protocol(ring_net, state, params, horizon, warmup)
    with pytest.raises(ValueError, match=f"^{re.escape(wanted)}$"):
        run(ring_net, state, None, params, horizon=horizon, warmup=warmup)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_run_refuses_a_start_clock_that_is_not_a_time_from_zero(twolights_net, ring_net, twolights_speeds,
                                                                  monkeypatch, t):
    # the signals count from t = 0, so a start clock that is not finite and >= 0 is refused by name before any
    # work, with or without signals; a NaN clock used to run with every group A held green. A dataset and its
    # runner refuse it up front too, before any row runs
    speeds, default = twolights_speeds
    params = SimParams()
    cases = ((twolights_net, speeds, default, sample_config(twolights_net, np.random.default_rng(0))),
             (ring_net, {}, 6.0, None))
    monkeypatch.setattr(solver, "_Plan", None)  # compiling a plan is the first work
    wanted = f"^{re.escape(f'state0.t must be finite and >= 0, got {t!r}')}$"
    for net, observed, default_speed, config in cases:
        state = initialize(net, observed, params, default_speed=default_speed)
        state.t = t
        with pytest.raises(ValueError, match=wanted):
            run(net, state, config, params)
    state = initialize(twolights_net, speeds, params, default_speed=default)
    state.t = t
    with pytest.raises(ValueError, match=wanted):
        dataset.generate(twolights_net, state, params, n_runs=3, seed=0, workers=2)
    with pytest.raises(ValueError, match=wanted):
        dataset.BatchRunner(twolights_net, state, params)


# --------------------------------------------------------------------- I/O


def test_read_speeds_csv(tmp_path):
    path = tmp_path / "init.csv"
    path.write_text("edge_id,speed_mps\na,8.5\n*,6.0\nb,7.25\n")
    speeds, default = read_speeds_csv(path)
    assert speeds == {"a": 8.5, "b": 7.25}
    assert default == 6.0

    # errors name the physical line, also after a quoted field that spans two lines
    bad = tmp_path / "bad.csv"
    bad.write_text('edge_id,speed_mps\n"a\nb",5\nc,fast\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 4: speed_mps: expected float, got 'fast'$"):
        read_speeds_csv(bad)

    bad.write_text("edge,speed\na,8\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: .*header"):
        read_speeds_csv(bad)

    bad.write_text("edge_id,speed_mps\na,fast\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 2"):
        read_speeds_csv(bad)

    bad.write_text("edge_id,speed_mps\na,8,9\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 2: expected 2 columns, got 3$"):
        read_speeds_csv(bad)

    # a repeated edge or a second default row would silently override the first
    bad.write_text("edge_id,speed_mps\nn_in,5\n*,6\nn_in,12\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 4: edge_id 'n_in' already given on line 2$"):
        read_speeds_csv(bad)

    bad.write_text("edge_id,speed_mps\n*,6\nn_in,5\n * ,7\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 4: edge_id '\\*' already given on line 2$"):
        read_speeds_csv(bad)


def test_heatmap_and_metrics_outputs(tmp_path, ring_net):
    params = SimParams(init_noise=0.0)
    state = initialize(ring_net, {}, params, default_speed=6.0)
    result = run(ring_net, state, None, params, horizon=5.0, warmup=0.0, probes=[5.0])
    snap = result.snapshots[0]

    csv_path = tmp_path / "heat.csv"
    write_heatmap_csv(ring_net, snap, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "edge_id,cell_index,rho,v"
    assert len(lines) == 1 + ring_net.total_cells
    first = lines[1].split(",")
    assert first[0] == "re0" and first[1] == "1"
    assert float(first[2]) == pytest.approx(float(snap.rho[0]))

    pgm_path = tmp_path / "heat.pgm"
    write_heatmap_pgm(ring_net, snap, pgm_path)
    pgm = pgm_path.read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == "12 8"
    assert pgm[2] == "255"
    grays = [int(x) for row in pgm[3:] for x in row.split()]
    assert all(0 <= g <= 255 for g in grays)
    assert grays[0] == round(float(snap.rho[0]) / 0.2 * 255)

    json_path = tmp_path / "metrics.json"
    write_metrics_json(result, json_path)
    doc = json.loads(json_path.read_text())
    assert doc == {"avg_speed_mps": result.metrics.avg_speed, "queue_length": result.metrics.queue_length,
                   "samples": 10, "steps": 10, "warmup_steps": 0}


def test_sim_params_validation():
    with pytest.raises(ValueError):
        SimParams(dt_s=0.0)
    with pytest.raises(ValueError):
        SimParams(init_noise=1.0)
    for dt in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match=f"^SimParams.dt_s must be finite and > 0, got {dt!r}$"):
            SimParams(dt_s=dt)
    for seed in (1.5, -1, True):  # each would reach numpy's SeedSequence, which refuses the first two unnamed
        with pytest.raises(ValueError, match=f"^SimParams.seed must be an integer >= 0, got {seed!r}$"):
            SimParams(seed=seed)
    assert SimParams(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("call, wanted", [
    (lambda net, state: SimParams(dt_s="0.5"), "SimParams.dt_s must be finite and > 0, got '0.5'"),
    (lambda net, state: SimParams(dt_s=True), "SimParams.dt_s must be finite and > 0, got True"),
    (lambda net, state: SimParams(init_noise="0.1"), "init_noise must be in [0, 1)"),
    (lambda net, state: SimParams(init_noise=False), "init_noise must be in [0, 1)"),
    (lambda net, state: check_cfl(net, "0.5"), "dt must be finite and > 0, got '0.5'"),
    (lambda net, state: check_protocol(net, None, SimParams(), "10", 0.0), "horizon must be finite and > 0, got '10'"),
    (lambda net, state: check_protocol(net, None, SimParams(), 10.0, "1"),
     "warmup must be in [0, horizon) = [0, 10.0), got '1'"),
    (lambda net, state: check_protocol(net, None, SimParams(), 10.0, False),
     "warmup must be in [0, horizon) = [0, 10.0), got False"),
    (lambda net, state: run(net, SimState(state.rho, state.v, t="0"), None, SimParams(), horizon=10.0, warmup=0.0),
     "state0.t must be finite and >= 0, got '0'"),
])
def test_protocol_numbers_are_real_numbers(ring_net, call, wanted):
    """A string or a bool where the solver takes a number is refused as a ValueError in the field's wording."""
    state = initialize(ring_net, {}, SimParams(), default_speed=6.0)
    with pytest.raises(ValueError, match=f"^{re.escape(wanted)}$"):
        call(ring_net, state)
    assert check_protocol(ring_net, SimState(state.rho, state.v, t=np.float32(1.0)), SimParams(np.float32(0.5)),
                          np.float32(10.0), np.int64(0)) == (20, 0)
