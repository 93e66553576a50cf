"""Finite-difference traffic solver on a road network.

State is a per-lane density rho and a speed v for every cell of every edge.
With q = rho * v * lanes the cell flux and dx the cell length, a step of dt
updates cell j from its upstream neighbour j - 1 and downstream one j + 1:

    rho_j' = rho_j - dt / (lanes * dx) * (q_j - q_{j-1})
    v_j'   = v_j - dt / (2 * dx) * (v_j**2 - v_{j-1}**2)
               + dt / relaxation_s * (V(rho_{j+1}) - v_j)
               - dt * anticipation / (rho_j + density_guard) * (rho_{j+1} - rho_j) / dx

an upwind flux balance, then convection, relaxation toward the equilibrium
speed V of the downstream cell's density, and anticipation of the downstream
density. At an edge's first cell q_{j-1} and v_{j-1} are the inflow ghosts,
and at its last cell rho_{j+1} is the downstream ghost. Red stop lines are
then pinned to zero speed, and both fields clamped.

Linearised around a uniform state, this update multiplies each Fourier mode
by a 2x2 matrix per step. At the default 10 m cells and 0.5 s steps every
mode decays: the upwind scheme's numerical diffusion removes Payne-Whitham's
stop-and-go instability, so the pipeline's runs show no such waves. Below
about 5 m cells the instability returns, at wavelengths the grid sets.

The ghosts are virtual boundary values, and one rule closes every edge end:
a junction mixes the fluxes of its incoming edges' last cells onto its
outgoing edges according to turn weights, and an incoming edge sees a
quadratic mean of the densities its weights lead to. A red signal cuts its
edge out of that mixing, shows it jam density and pins its stop-line speed to
zero. An end that no junction couples is a junction of one, which gives
zero-gradient values: an entry edge takes its inflow from its own first cell,
and an edge whose end feeds no cell sees its own last cell's density.

Stability requires v_max * dt / dx <= 1 on every edge; ``run`` refuses to
start otherwise.

``run`` compiles the network once per call into a private plan: per-cell
constants, each edge's first and last cell, and the junction rule's
movements and downstream rows as flat arrays, summed by np.bincount. It takes
its per-step red-light mask from ``signals.red_schedule`` and advances each
step with one function, ``_step``, the update above as numpy expressions over
``rho`` and ``v``; one dot product guards finiteness, and only if it is not
finite are the cells checked one by one. The plan folds the constants into
per-cell factors (dt / dx, dt / (2 * dx), dt * anticipation / dx, v_relax =
v_max * dt / relaxation_s) and curve_c = -(1/a) * rho_cr**-a, so
``_relaxation`` takes no power; the flux is per lane, rho * v, with the lanes
in each movement's share and in q_in. Results move by rounding only:
``tests/test_solver.py`` holds the folded curve to ``fundamental._curve`` at
rel 1e-14. From the first sampled step on,
every step is sampled; ``run`` copies the speeds into a block of a few steps
and computes their metrics in one call. A list of signal configurations runs
as one plan of disjoint network copies, one per configuration, each row
bit-identical to its run alone. ``virtual_boundaries`` and ``step`` are
one-step views of the same functions, each compiling one plan per call and
taking the red stop lines as edge ids, one row of that schedule
(``edge_phases``). Results are held to ``tests/pinned_outputs.json`` at rel
1e-12 and to the scalar reference of ``tests/test_solver.py`` at abs 1e-12,
not to the bits of an earlier version.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Collection, Mapping

import numpy as np

from ._files import Fields, is_int, is_real, read_table, write_json, write_table
from .fundamental import ideal_speed, invert_speed  # noqa: F401 (ideal_speed: perfbench traces it here)
from .metrics import CongestionMetrics, step_metrics
from .network import RoadNetwork, turn_angle, turn_speed_factor
from .signals import edge_phases, red_schedule  # noqa: F401 (edge_phases: as above)

HORIZON_S = 340.0  # the paper's protocol: simulated seconds per run
WARMUP_S = 100.0   # and the seconds before metrics are sampled
CLOCK_TOL_S = 1e-9  # a time within this of a step's start reaches that step, as the warm-up's end and as a probe
# speeds per step_metrics call in run: 80 KB, two samples of an 8 x 8 grid, so no temporary of the call reaches
# malloc's 128 KB mmap threshold, above which every call maps and faults in fresh pages
_BLOCK_VALUES = 10 << 10


class SimulationError(RuntimeError):
    """Raised when a run cannot start or produces non-finite values."""


class CflError(SimulationError):
    """Raised when the time step violates the stability condition."""


@dataclass(frozen=True)
class SimParams:
    """Solver settings: the time step, and the amplitude and seed of the initial-state noise.

    The model constants are fixed: relaxation_s pulls speeds toward the
    equilibrium curve, anticipation (m^2/s) scales the reaction to downstream
    density, and density_guard (cars/m) bounds that reaction in nearly empty
    cells. Densities live in [density_floor, jam_density] per lane.
    """

    relaxation_s: ClassVar[float] = 1.0
    anticipation: ClassVar[float] = 7.0
    density_guard: ClassVar[float] = 0.008
    jam_density: ClassVar[float] = 0.2
    density_floor: ClassVar[float] = 1e-4

    dt_s: float = 0.5
    init_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (is_real(self.dt_s) and math.isfinite(self.dt_s) and self.dt_s > 0):
            raise ValueError(f"SimParams.dt_s must be finite and > 0, got {self.dt_s!r}")
        if not (is_real(self.init_noise) and 0 <= self.init_noise < 1):
            raise ValueError("init_noise must be in [0, 1)")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"SimParams.seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class SimState:
    """Density and speed per cell, flat over all edges (see RoadNetwork.cell_slice), at the clock ``t`` in s."""

    rho: np.ndarray
    v: np.ndarray
    t: float = 0.0


@dataclass
class VirtualBoundary:
    """Ghost values closing each edge: inflow flux/speed upstream, density downstream."""

    q_in: dict[str, float]
    v_in: dict[str, float]
    rho_out: dict[str, float]


@dataclass(frozen=True)
class CflReport:
    ok: bool
    ratios: dict[str, float]
    violations: tuple[tuple[str, float], ...]


@dataclass
class RunResult:
    metrics: CongestionMetrics
    final_state: SimState
    steps: int
    warmup_steps: int
    snapshots: list[SimState] = field(default_factory=list)


def check_cfl(net: RoadNetwork, dt: float) -> CflReport:
    """Stability ratios v_max * dt / dx per edge; ok iff none exceeds 1."""
    if not (is_real(dt) and math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    ratios = {eid: net.edges[eid].free_flow_speed * dt / net.edges[eid].cell_length for eid in net.edge_order}
    violations = tuple((eid, ratio) for eid, ratio in ratios.items() if ratio > 1.0 + 1e-12)
    return CflReport(ok=not violations, ratios=ratios, violations=violations)


def check_protocol(net: RoadNetwork, state0: SimState | None, params: SimParams, horizon: float,
                   warmup: float) -> tuple[int, int]:
    """The checks ``run`` makes before it starts, which every run from ``state0`` under this protocol fails alike.

    The CFL condition, a finite horizon > 0, a warmup that some step samples, a start clock ``state0.t`` that is
    finite and >= 0, as the signals' clock starts at 0, and ``state0.rho`` and ``state0.v`` 1-D with one value
    per cell; with ``state0`` None the state is not checked. Returns
    the run's step plan, both counted from ``state0.t``: its steps, ``ceil(horizon / dt)``, and the warm-up steps
    before the first sampled one, ``ceil((warmup - CLOCK_TOL_S) / dt)``.
    """
    report = check_cfl(net, params.dt_s)
    if not report.ok:
        worst = ", ".join(f"edge {eid} (ratio {ratio:.3f})" for eid, ratio in report.violations)
        raise CflError(
            f"time step {params.dt_s}s violates the stability condition v_max*dt/dx <= 1 "
            f"on {worst}; reduce dt or use longer cells"
        )
    if not (is_real(horizon) and math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if not (is_real(warmup) and 0 <= warmup < horizon):
        raise ValueError(f"warmup must be in [0, horizon) = [0, {horizon!r}), got {warmup!r}")
    n_steps = math.ceil(horizon / params.dt_s)
    warmup_steps = math.ceil((warmup - CLOCK_TOL_S) / params.dt_s)
    if warmup_steps >= n_steps:
        raise ValueError(f"warmup {warmup!r} s is later than the last step's start at "
                         f"{(n_steps - 1) * params.dt_s!r} s; no metric would be sampled")
    if state0 is not None:
        if not (is_real(state0.t) and math.isfinite(state0.t) and state0.t >= 0):
            raise ValueError(f"state0.t must be finite and >= 0, got {state0.t!r}")
        _check_cells(net, state0, "state0")
    return n_steps, warmup_steps


def _columns(rows, *dtypes) -> list[np.ndarray]:  # empty arrays when there are no rows
    return [np.array([row[j] for row in rows], dtype=dtype) for j, dtype in enumerate(dtypes)]


class _Plan:
    """A network compiled for one SimParams, kept as ``params``, into flat per-cell, per-edge and per-movement arrays.

    Cells are laid out as in SimState. Per cell: ``v_max`` and the update's folded factors (the module
    docstring); per edge: its ``first`` and ``last`` cell, ``edge_speed``, its v_max, and ``edge_lanes``. The
    module docstring's junction rule is two tables. A movement (``mv_cell``, ``mv_edge``, ``mv_out``,
    ``mv_flow``, ``mv_cap``) adds its share of its source edge's flux, ``mv_flow`` times the per-lane flux of
    its source cell, to a receiving edge's inflow, at a speed of at most its cap; a downstream row (``dn_in``,
    ``dn_cell``, ``dn_w``) weighs its cell's density in its edge's downstream ghost. Each positive turn weight
    gives one of each. An entry edge adds one movement from its own first cell, with share 1 and cap v_max,
    and an edge whose end feeds no cell one row from its own last cell, with weight 1. Movements are ordered
    by receiving edge and then by the feeding edge's place in its intersection's ``incoming`` tuple, rows by
    each intersection's turn-weight order, and np.bincount adds in input order, so every junction sum rounds
    as a scalar loop in that order.

    With ``batch`` > 1 the arrays hold that many disjoint copies of the network back to back: copy b's
    cell indices are shifted by b * total_cells and its edge indices by b * len(edges). No two copies share
    a bincount bin, and every other operation is elementwise, so each copy rounds exactly as a plan of its
    own. ``set_red`` keeps what the red flags decide until they change. A plan is private to one call of
    ``run``, ``step`` or ``virtual_boundaries``.
    """

    def __init__(self, net: RoadNetwork, params: SimParams, batch: int = 1):
        self.edges, self.params = net.edge_order, params
        index = {eid: i for i, eid in enumerate(self.edges)}
        edges = [net.edges[eid] for eid in self.edges]

        def per_cell(values):
            return np.repeat(np.array(values, dtype=float), [e.cell_count for e in edges])

        self.v_max = per_cell([e.free_flow_speed for e in edges])
        # the update's per-cell factors of f - f_up, of v**2 - v_up**2 and of (rho_dn - rho) / (rho + density_guard)
        dx = per_cell([e.cell_length for e in edges])
        dt, tau = params.dt_s, params.relaxation_s
        self.flux_factor = dt / dx
        self.convection_factor = dt / (2.0 * dx)
        self.anticipation_factor = dt * params.anticipation / dx
        # the relaxation dt / tau * (V(rho_dn) - v) as v_relax * exp(curve_c * rho_dn**a) - (1 - v_keep) * v
        self.v_keep, self.v_relax = 1.0 - dt / tau, self.v_max * (dt / tau)
        self.a, self.curve_c = net.a, -(1.0 / net.a) * net.rho_cr ** -net.a
        first = {eid: net.cell_slice(eid).start for eid in self.edges}
        last = {eid: net.cell_slice(eid).stop - 1 for eid in self.edges}
        self.first, self.last = (np.array(list(cells.values()), dtype=np.intp) for cells in (first, last))
        self.edge_speed, self.edge_lanes = self.v_max[self.first], np.array([e.lanes for e in edges], dtype=float)

        movements, rows_dn = [], []
        for ix in net.intersections.values():
            rows, row_sum = {}, {}  # positive weights and their sum, per incoming edge
            for (e_in, e_out), w in ix.turn_weights.items():
                if w > 0:
                    rows.setdefault(e_in, {})[e_out] = w
                    row_sum[e_in] = row_sum.get(e_in, 0.0) + w
                    rows_dn.append((index[e_in], first[e_out], w))
            for e_out in ix.outgoing:
                for e_in in ix.incoming:
                    w = rows.get(e_in, {}).get(e_out)
                    if w is not None:
                        cap = net.edges[e_in].free_flow_speed * turn_speed_factor(turn_angle(net, e_in, e_out))
                        flow = w / row_sum[e_in] * net.edges[e_in].lanes
                        movements.append((last[e_in], index[e_in], index[e_out], flow, cap))
        fed = {row[0] for row in rows_dn}
        for i, e in enumerate(edges):  # the junctions of one
            if e.id not in net.upstream_of:
                movements.append((first[e.id], i, i, float(e.lanes), e.free_flow_speed))
            if i not in fed:
                rows_dn.append((i, last[e.id], 1.0))
        self.mv_cell, self.mv_edge, self.mv_out, self.mv_flow, self.mv_cap = _columns(
            movements, np.intp, np.intp, np.intp, float, float)
        self.dn_in, self.dn_cell, self.dn_w = _columns(rows_dn, np.intp, np.intp, float)

        shift = dict.fromkeys(("first", "last", "mv_cell", "dn_cell"), net.total_cells)
        shift.update(dict.fromkeys(("mv_edge", "mv_out", "dn_in"), len(self.edges)))
        for name, a in list(vars(self).items()):
            if name in shift:
                setattr(self, name, (a + shift[name] * np.arange(batch)[:, None]).ravel())
            elif isinstance(a, np.ndarray):
                setattr(self, name, np.tile(a, batch))
        # a movement's bin while its source edge is red: the dropped bin n from a stop line, its own from a first cell
        self.mv_drop = np.where(self.mv_cell == self.last[self.mv_edge], len(self.first), self.mv_out)

    def set_red(self, red: np.ndarray) -> None:
        """Take one red flag per edge for the steps to come, until the next call.

        Kept: the flags, whose edges see jam density downstream; the stop-line cells, held at zero speed; and
        the bin each movement adds into, ``mv_drop`` where its source edge is red. An entry edge's own movement
        leaves its first cell, never a stop line, as every edge has at least two cells.
        """
        self.red, self.pinned = red, self.last[red]
        self.dest = np.where(red[self.mv_edge], self.mv_drop, self.mv_out)


def _ghosts(plan: _Plan, rho: np.ndarray, v: np.ndarray, f: np.ndarray):
    """(q_in, v_in, rho_out) per edge from the state and its per-lane cell fluxes f; see virtual_boundaries.

    Every movement is summed, but a red one into a spare bin n that is dropped, so each edge still sums
    exactly its green terms in order.
    """
    n, dest = len(plan.first), plan.dest
    part = f[plan.mv_cell] * plan.mv_flow
    q_in = np.bincount(dest, part, n + 1)[:n]
    speed_flux = np.bincount(dest, v[plan.mv_cell] * part, n + 1)[:n]
    cap_flux = np.bincount(dest, plan.mv_cap * part, n + 1)[:n]
    # the flux-weighted mean speed, capped; an edge that nothing flows into keeps its first cell's speed
    v_in = np.divide(np.minimum(speed_flux, cap_flux, out=cap_flux), q_in, out=v[plan.first], where=q_in > 0.0)
    v_in = np.minimum(np.maximum(v_in, 0.0, out=v_in), plan.edge_speed, out=v_in)
    r = rho[plan.dn_cell]
    w = r * plan.dn_w
    rho_out = np.bincount(plan.dn_in, r * w, n)
    rho_out /= np.bincount(plan.dn_in, w, n)
    rho_out[plan.red] = plan.params.jam_density
    return q_in, v_in, rho_out


def _upwind(x: np.ndarray, ghost: np.ndarray, first: np.ndarray) -> np.ndarray:
    """x_j - x_{j-1} per cell, with the ghost in place of x_{j-1} at each edge's first cell."""
    up = np.empty_like(x)
    up[1:], up[first] = x[:-1], ghost
    return np.subtract(x, up, out=up)


def _relaxation(plan: _Plan, rho_dn: np.ndarray) -> np.ndarray:
    """dt / relaxation_s * V(rho_dn) per cell, fundamental._curve as v_relax * exp(curve_c * exp(a * log(rho_dn)))."""
    r = np.log(rho_dn)
    r *= plan.a
    np.exp(r, out=r)
    r *= plan.curve_c
    np.exp(r, out=r)
    r *= plan.v_relax
    return r


def _step(plan: _Plan, rho: np.ndarray, v: np.ndarray, k: int, t: float):
    """The module docstring's update of every cell from (rho, v) at clock t, the caller's step k counted from 0:
    the new (rho, v), in new arrays. A non-finite cell is named at step k + 1."""
    p, first, last = plan.params, plan.first, plan.last
    f = rho * v
    q_in, v_in, rho_out = _ghosts(plan, rho, v, f)
    # rho - dt / dx * (f - f_up), the edge's inflow q_in shared among its lanes
    new_rho = _upwind(f, q_in / plan.edge_lanes, first)
    new_rho *= plan.flux_factor
    np.subtract(rho, new_rho, out=new_rho)
    # v * (1 - dt / relaxation_s) - dt / (2 * dx) * (v**2 - v_up**2)
    new_v = _upwind(v * v, v_in * v_in, first)
    new_v *= plan.convection_factor
    np.subtract(v * plan.v_keep, new_v, out=new_v)
    # + dt / relaxation_s * V(rho_dn), rho_dn being the next cell's density or at an edge's last cell the ghost
    rho_dn = np.empty_like(rho)
    rho_dn[:-1], rho_dn[last] = rho[1:], rho_out
    new_v += _relaxation(plan, rho_dn)
    # - dt * anticipation / (rho + density_guard) * (rho_dn - rho) / dx
    rho_dn -= rho
    rho_dn *= plan.anticipation_factor
    rho_dn /= rho + p.density_guard
    new_v -= rho_dn
    new_v[plan.pinned] = 0.0

    # one reduction is non-finite whenever a cell is; if it only overflowed, the exact mask passes
    if not math.isfinite(np.dot(new_rho, new_v)):
        finite = np.isfinite(new_rho) & np.isfinite(new_v)
        if not finite.all():
            bad = int(np.argmin(finite))
            e = int(np.searchsorted(first, bad, side="right")) - 1
            row, edge = divmod(e, len(plan.edges))
            in_row = f" in batch row {row}" if len(first) > len(plan.edges) else ""
            raise SimulationError(
                f"non-finite state on edge {plan.edges[edge]} cell {bad - first[e] + 1} "
                f"at step {k + 1} (t={t + p.dt_s:g} s){in_row}"
            )
    # cheaper than np.clip, and the same on finite values other than -0.0, which the update never makes
    return (np.minimum(np.maximum(new_rho, p.density_floor, out=new_rho), p.jam_density, out=new_rho),
            np.minimum(np.maximum(new_v, 0.0, out=new_v), plan.v_max, out=new_v))


def _check_cells(net: RoadNetwork, state: SimState, name: str) -> None:
    """Refuse a state whose ``rho`` or ``v`` is not 1-D with one value per cell of ``net``, naming it ``name``."""
    for key in ("rho", "v"):
        shape = np.shape(getattr(state, key))
        if shape != (net.total_cells,):
            raise ValueError(f"{name}.{key} must have shape ({net.total_cells},), one value per cell of the "
                             f"network, got shape {shape}")


def _view(net: RoadNetwork, state: SimState, red: Collection[str], params: SimParams) -> _Plan:
    """Both views' setup: the state checked, and a plan with the red stop lines ``red``."""
    _check_cells(net, state, "state")
    plan = _Plan(net, params)
    plan.set_red(np.array([eid in red for eid in plan.edges], dtype=bool))
    return plan


def virtual_boundaries(net: RoadNetwork, state: SimState, red: Collection[str], params: SimParams) -> VirtualBoundary:
    """Ghost values for every edge end from intersection mixing.

    For an outgoing edge, the inflow flux is the turn-weight share of every
    green incoming edge's end flux, and the inflow speed is the flux-weighted
    mean of their end speeds, capped by the turn-geometry speed limit (a
    straight movement passes at most v_max, a 90 degree turn at most half of
    it, a U-turn nothing) and clipped into [0, v_max] of the edge. For an
    incoming edge, the downstream ghost density is a flux-consistent
    quadratic mean over the receiving edges' first cells; a red incoming edge
    instead sees jam density. An end that no junction couples is a junction
    of one, which gives zero-gradient values: an entry edge's inflow is its
    own first cell's flux and speed, and an edge whose end feeds no cell sees
    its own last cell's density. An entry edge's inflow speed is clipped as
    every edge's is, which changes nothing for a state of ``initialize`` or
    ``run`` but clips a hand-built one outside [0, v_max]. ``red`` holds the ids
    of the red stop lines, as ``edge_phases`` gives them. A dict view of the
    ghosts of the step that ``run`` executes.
    """
    plan = _view(net, state, red, params)
    ghosts = _ghosts(plan, state.rho, state.v, state.rho * state.v)
    return VirtualBoundary(*(dict(zip(plan.edges, g.tolist())) for g in ghosts))


def step(net: RoadNetwork, state: SimState, red: Collection[str], params: SimParams) -> SimState:
    """Advance one time step from the ghosts ``virtual_boundaries`` gives; does not mutate ``state``.

    Order within the step: densities from the flux balance, speeds from
    convection + relaxation + anticipation, then red stop lines are pinned to
    zero speed, then both fields are clamped (density into
    [density_floor, jam_density], speed into [0, v_max]). Non-finite values
    abort with the offending edge and cell. A view of the step that ``run``
    executes.
    """
    plan = _view(net, state, red, params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in run
        rho, v = _step(plan, state.rho, state.v, 0, state.t)
    return SimState(rho=rho, v=v, t=state.t + params.dt_s)


def initialize(
    net: RoadNetwork,
    observed: Mapping[str, float],
    params: SimParams,
    default_speed: float | None = None,
) -> SimState:
    """Initial state from per-edge observed speeds.

    Every cell gets the edge's observed speed with multiplicative uniform
    noise of amplitude params.init_noise (seeded by params.seed, drawn in
    edge-id order, so equal seeds give bit-identical states), clipped into
    [1e-9, free-flow speed]. Densities are the fundamental-diagram inverse of
    those speeds, clamped into the admissible range. A speed for an edge the
    network does not have is an error.
    """
    unknown = sorted(set(observed) - set(net.edges))
    if unknown:
        raise ValueError(f"observed speeds for edges not in the network: {', '.join(unknown)}")
    rng = np.random.default_rng(params.seed)
    rho = np.empty(net.total_cells)
    v = np.empty(net.total_cells)
    for eid in net.edge_order:
        e = net.edges[eid]
        speed = observed.get(eid, default_speed)
        if speed is None:
            raise ValueError(f"no observed speed for edge {eid} and no default_speed given")
        if not (0.0 < speed <= e.free_flow_speed):
            raise ValueError(
                f"observed speed for edge {eid} must be in (0, {e.free_flow_speed}], got {speed}"
            )
        noise = rng.uniform(-params.init_noise, params.init_noise, e.cell_count)
        cells = np.clip(speed * (1.0 + noise), 1e-9, e.free_flow_speed)
        sl = net.cell_slice(eid)
        v[sl] = cells
        rho[sl] = np.clip(invert_speed(net.fd_for(eid), cells), params.density_floor, params.jam_density)
    return SimState(rho=rho, v=v, t=0.0)


def run(
    net: RoadNetwork,
    state0: SimState,
    config: dict | None | list,
    params: SimParams,
    horizon: float = HORIZON_S,
    warmup: float = WARMUP_S,
    probes=None,
) -> RunResult | list[RunResult]:
    """Simulate for ``horizon`` seconds and time-average the congestion metrics.

    The clock starts at ``state0.t``, which ``check_protocol`` checks with
    the rest of the protocol first, and steps are counted from 1 there. Metrics
    are sampled on the state before each step from ``warmup`` seconds after
    ``state0.t`` on, as that check plans, and each is the mean of its samples.
    ``probes`` is an optional list of times at which the full state is
    recorded as a SimState, taken at the first state whose clock reaches each
    probe within ``CLOCK_TOL_S``; a probe outside the run's clock span
    [state0.t, state0.t + horizon] is refused. Deterministic: no randomness is
    drawn here, so equal inputs give bit-identical results.

    ``config`` may also be a list of configurations, all started from
    ``state0``: they are simulated in one pass as disjoint copies of the
    network, and the result is a list with one RunResult per entry, each
    bit-identical to the run of that configuration alone.
    """
    n_steps, first = check_protocol(net, state0, params, horizon, warmup)
    configs = config if isinstance(config, list) else [config]
    if not configs:
        raise ValueError("config list is empty")

    batch = len(configs)
    probe_times = [] if probes is None else sorted(float(p) for p in probes)
    for p in probe_times:
        if not state0.t <= p <= state0.t + horizon:  # also nan, which sorted leaves anywhere
            raise ValueError(f"probe {p!r} s is outside the run's clock span [{state0.t!r}, {state0.t + horizon!r}] s")
    probe_idx = 0
    snapshots: list[SimState] = []

    plan = _Plan(net, params, batch)
    # the clock before each step and after the last: add.accumulate sums left to right, as t += dt would
    clock = np.cumsum(np.r_[state0.t, np.full(n_steps, params.dt_s)])
    red = np.concatenate([red_schedule(net, c, clock[:-1]) for c in configs], axis=1)
    switches = np.r_[True, (red[1:] != red[:-1]).any(axis=1)].tolist()  # steps whose red flags differ from the last
    # every step from the first after the warm-up on is sampled; the speeds of up to len(block) samples are
    # gathered and measured by one step_metrics call, whose per-row sums are as alone
    series = np.empty((2, n_steps - first, batch))  # mean speed and queue length per sample and row
    block = np.empty((max(1, min(n_steps - first, _BLOCK_VALUES // len(plan.v_max))), batch, net.total_cells))

    rho, v = np.tile(state0.rho, batch), np.tile(state0.v, batch)
    # overflows only reach _step's finiteness guard, which raises on a non-finite cell; its one dot product can
    # also overflow on finite cells, so the warnings say nothing the guard does not; log(0) gives V(0) = v_max
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, t in enumerate(clock.tolist()):
            while probe_idx < len(probe_times) and t >= probe_times[probe_idx] - CLOCK_TOL_S:
                snapshots.append(SimState(rho.reshape(batch, -1).copy(), v.reshape(batch, -1).copy(), t=t))
                probe_idx += 1
            if k == n_steps:
                break
            if k >= first:
                i = (k - first) % len(block)
                block[i] = v.reshape(batch, -1)
                if i == len(block) - 1 or k == n_steps - 1:
                    lo = k - first - i
                    series[:, lo:lo + i + 1] = step_metrics(block[:i + 1])
            if switches[k]:
                plan.set_red(red[k])
            rho, v = _step(plan, rho, v, k, t)

    # one contiguous series per row, so each row's time average sums exactly as an unbatched run's
    speeds, queues = series.transpose(0, 2, 1).copy()
    rho, v = rho.reshape(batch, -1), v.reshape(batch, -1)
    results = [
        RunResult(
            metrics=CongestionMetrics(float(np.mean(speeds[b])), float(np.mean(queues[b])), n_steps - first),
            final_state=SimState(rho=rho[b], v=v[b], t=t),
            steps=n_steps,
            warmup_steps=first,
            snapshots=[SimState(rho=p.rho[b], v=p.v[b], t=p.t) for p in snapshots],
        )
        for b in range(batch)
    ]
    return results if isinstance(config, list) else results[0]


def read_speeds_csv(path) -> tuple[dict[str, float], float | None]:
    """Per-edge observed speeds from a CSV with header edge_id,speed_mps.

    A row with edge_id ``*`` sets the default speed for unlisted edges. Each
    edge_id, ``*`` included, may appear once.
    """
    speeds: dict[str, float] = {}
    first_line: dict[str, int] = {}
    _, rows = read_table(path, ["edge_id", "speed_mps"])
    fields = Fields(path)
    for line_no, (edge_id, speed) in rows:
        edge_id = edge_id.strip()
        first = first_line.setdefault(edge_id, line_no)
        if first != line_no:
            raise ValueError(f"{path}: line {line_no}: edge_id {edge_id!r} already given on line {first}")
        speeds[edge_id] = fields.cell(speed, float, line_no, "speed_mps")
    return speeds, speeds.pop("*", None)


def write_heatmap_csv(net: RoadNetwork, snapshot: SimState, path) -> None:
    """Per-cell density and speed of one snapshot as edge_id,cell_index,rho,v rows."""
    records = []
    for eid in net.edge_order:
        sl = net.cell_slice(eid)  # tolist gives Python floats, which the CSV writer writes at full precision
        records += ([eid, i, rho, v] for i, (rho, v) in enumerate(zip(snapshot.rho[sl].tolist(), snapshot.v[sl].tolist()), 1))
    write_table(["edge_id", "cell_index", "rho", "v"], records, path)


def write_heatmap_pgm(net: RoadNetwork, snapshot: SimState, path) -> None:
    """Density snapshot as an ASCII graymap: one row per edge, 255 = jam density."""
    width = max(net.edges[eid].cell_count for eid in net.edge_order)
    lines = [f"P2", f"{width} {len(net.edge_order)}", "255"]
    for eid in net.edge_order:
        sl = net.cell_slice(eid)
        gray = np.rint(np.clip(snapshot.rho[sl] / SimParams.jam_density, 0.0, 1.0) * 255).astype(int)
        row = list(gray) + [0] * (width - (sl.stop - sl.start))
        lines.append(" ".join(str(g) for g in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_json(result: RunResult, path) -> None:
    """The one metrics document of simulate and validate: the metrics, their sample count, the step counts."""
    write_json({**result.metrics.document(), "samples": result.metrics.samples, "steps": result.steps,
                "warmup_steps": result.warmup_steps}, path)
