"""The solver against Payne-Whitham's linear theory on the closed ring.

Around a uniform state (rho0, v0 = V(rho0)) on equal cells of length h, with
no turn cap binding, the update ``_advance`` computes is, to first order in
the perturbation (r, u),

    r'_j = r_j - lam * (v0 * (r_j - r_{j-1}) + rho0 * (u_j - u_{j-1}))
    u'_j = u_j - lam * v0 * (u_j - u_{j-1}) + k * (V'(rho0) * r_{j+1} - u_j)
               - lam * c * (r_{j+1} - r_j)

with lam = dt / h, k = dt / relaxation_s and c = anticipation / (rho0 + density_guard):
relaxation reads V at the downstream cell. Each Fourier mode e^{ij theta} is
therefore multiplied per step by the 2x2 matrix G(theta) of ``_amplification``.
``_reference_step`` restates the scheme itself, so a wrong neighbour or sign
would pass it; G ties the scheme to the PDE instead.
"""
import numpy as np
import pytest

from macrosim import network
from macrosim.fundamental import ideal_speed
from macrosim.solver import SimParams, SimState, run

DENSITIES = (0.02, 0.05, 0.10, 0.16)  # per lane; from 0.02 up the ring's equilibrium speed is below its 45° turn cap
AMPLITUDE = 1e-4
# the window of the measured growth: terms of second order in the amplitude stay below rel 1.1e-4 of it here
PROBES = (50.0, 150.0)


def _ring(fixtures_dir, monkeypatch, h):
    monkeypatch.setattr(network, "CELL_TARGET_M", h)
    monkeypatch.setattr(network, "CELL_MIN_M", h / 2)
    net = network.load_network(fixtures_dir / "ring.json")
    assert {edge.cell_length for edge in net.edges.values()} == {h}
    return net


def _amplification(thetas, h, dt, rho0, fd):
    """G(theta) of each theta, shape (len(thetas), 2, 2): the mode's (r, u) after one step from (r, u) before it."""
    theta = np.asarray(thetas, dtype=float)
    v0 = ideal_speed(fd, rho0)
    dv = -v0 * (rho0 / fd.rho_cr) ** (fd.a - 1) / fd.rho_cr  # V'(rho0) of v_max * exp(-(rho/rho_cr)**a / a)
    lam, k, c = dt / h, dt / SimParams.relaxation_s, SimParams.anticipation / (rho0 + SimParams.density_guard)
    up, dn = 1 - np.exp(-1j * theta), np.exp(1j * theta)  # the upwind difference and the downstream shift
    G = np.array([[1 - lam * v0 * up, -lam * rho0 * up],
                  [k * dv * dn - lam * c * (dn - 1), 1 - lam * v0 * up - k]])
    return np.moveaxis(G, -1, 0)


def _growth(thetas, h, dt, rho0, fd):
    """max |eig G(theta)| of each theta: the factor per step of the mode's faster-growing part."""
    return np.abs(np.linalg.eigvals(_amplification(thetas, h, dt, rho0, fd))).max(axis=-1)


@pytest.mark.parametrize("rho0", DENSITIES)
@pytest.mark.parametrize("h", [10.0, 2.5])
def test_the_longest_mode_grows_as_the_linearised_update_predicts(fixtures_dir, monkeypatch, h, rho0):
    net = _ring(fixtures_dir, monkeypatch, h)
    n, fd, dt = net.total_cells, net.fd_for("re0"), 0.05 * h  # dt is 0.5 s, the default, at 10 m
    j, theta = np.arange(n), 2 * np.pi / n  # the ring's edges run re0, re1, ... in order
    state = SimState(rho=rho0 + AMPLITUDE * np.sin(theta * (j + 0.5)), v=np.full(n, ideal_speed(fd, rho0)))
    result = run(net, state, None, SimParams(dt_s=dt, init_noise=0.0), horizon=PROBES[1], warmup=0.0, probes=PROBES)
    early, late = (abs(np.sum((snap.rho - rho0) * np.exp(-1j * theta * j))) for snap in result.snapshots)
    steps = round((PROBES[1] - PROBES[0]) / dt)
    assert late / early == pytest.approx(_growth([theta], h, dt, rho0, fd)[0] ** steps, rel=1e-3)


@pytest.mark.parametrize("rho0", DENSITIES)
def test_every_mode_decays_at_the_default_cells(ring_net, rho0):
    """At 10 m cells and dt = 0.5 s the scheme damps Payne-Whitham's stop-and-go instability on every wavelength.

    The longest ring mode decays slowest, by 3.1e-4 to 1.1e-3 per step over these densities.
    """
    assert {edge.cell_length for edge in ring_net.edges.values()} == {10.0}
    thetas = np.linspace(2 * np.pi / ring_net.total_cells, np.pi, 2001)
    assert _growth(thetas, 10.0, SimParams.dt_s, rho0, ring_net.fd_for("re0")).max() < 1
