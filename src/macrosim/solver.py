"""Finite-difference traffic solver on a road network.

State is a per-lane density and a speed for every cell of every edge. Each
step advances density by an upwind flux balance and speed by a convection
term, relaxation toward the equilibrium speed of the local fundamental
diagram, and an anticipation term reacting to downstream density. Edge ends
are closed by virtual boundary values: intersections mix the fluxes of their
incoming edges onto their outgoing edges according to turn weights, red
signals cut an edge out of that mixing and pin its stop-line speed to zero,
and uncoupled ends fall back to zero-gradient extrapolation.

Stability requires v_max * dt / dx <= 1 on every edge; ``run`` refuses to
start otherwise.

``run`` compiles the network once per call into a private plan of flat
per-cell, per-edge and per-movement arrays and gather indices, takes its
per-step red-light mask from ``signals.red_schedule``, recomputes the mask's
consequences only at the steps where it changes, and advances each step
with two whole-array kernels that share one cell-flux array: the boundary
kernel (every movement summed by np.bincount, red ones into a dropped bin)
and the cell update (one dot product guards finiteness; only if it is not
finite are the cells checked one by one). On small networks a step costs tens of numpy calls
rather than arithmetic, so the kernels keep that count low, and they write
their per-cell results into work arrays the plan owns rather than into new
temporaries, one ufunc at a time in the order the update's expressions
evaluate, so every value rounds as they would. The state is double-buffered:
each step writes the plan's spare pair of arrays and hands back the pair it
read. From the first sampled step on, every step is sampled; ``run`` copies
the speeds into a block of a few steps and computes their metrics in one
call. A list of signal configurations runs as one plan of disjoint network
copies, one per configuration. ``virtual_boundaries`` and ``step`` are
one-step views of the same two kernels, each compiling one plan per call
and taking the red stop lines as edge ids, one row of that schedule
(``edge_phases``); ``step`` derives its ghosts on that plan, and its state
is its caller's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Collection, Mapping

import numpy as np

from ._files import Fields, read_table, write_json, write_table
from .fundamental import _curve, ideal_speed, invert_speed  # noqa: F401 (ideal_speed: perfbench traces it here)
from .metrics import CongestionMetrics, aggregate, step_metrics
from .network import RoadNetwork, turn_angle, turn_speed_factor
from .signals import edge_phases, red_schedule  # noqa: F401 (edge_phases: as above)

HORIZON_S = 340.0  # the paper's protocol: simulated seconds per run
WARMUP_S = 100.0   # and the seconds before metrics are sampled
# speeds per step_metrics call in run: 64 KB, so no temporary of the call reaches malloc's 128 KB mmap threshold,
# above which every call maps and faults in fresh pages
_BLOCK_VALUES = 1 << 13


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
        if not (math.isfinite(self.dt_s) and self.dt_s > 0):
            raise ValueError(f"SimParams.dt_s must be finite and > 0, got {self.dt_s!r}")
        if not (0 <= self.init_noise < 1):
            raise ValueError("init_noise must be in [0, 1)")


@dataclass
class SimState:
    """Flat per-cell arrays over all edges (see RoadNetwork.cell_slice), plus clock."""

    rho: np.ndarray
    v: np.ndarray
    t: float = 0.0
    k: int = 0

    def copy(self) -> "SimState":
        return SimState(rho=self.rho.copy(), v=self.v.copy(), t=self.t, k=self.k)


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
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    ratios = {eid: net.edges[eid].free_flow_speed * dt / net.edges[eid].cell_length for eid in net.edge_order}
    violations = tuple((eid, ratio) for eid, ratio in ratios.items() if ratio > 1.0 + 1e-12)
    return CflReport(ok=not violations, ratios=ratios, violations=violations)


def check_protocol(net: RoadNetwork, state0: SimState | None, params: SimParams, horizon: float,
                   warmup: float) -> tuple[int, int]:
    """The checks ``run`` makes before it starts, which every run from ``state0`` under this protocol fails alike.

    The CFL condition, a finite horizon > 0, a warmup that some step samples, and a start clock ``state0.t`` that
    is finite and >= 0, as the signals' clock starts at 0; with ``state0`` None the clock is not checked. Returns
    the run's step plan, both counted from ``state0.t``: its steps, ``ceil(horizon / dt)``, and the warm-up steps
    before the first sampled one, ``ceil((warmup - 1e-9) / dt)``.
    """
    report = check_cfl(net, params.dt_s)
    if not report.ok:
        worst = ", ".join(f"edge {eid} (ratio {ratio:.3f})" for eid, ratio in report.violations)
        raise CflError(
            f"time step {params.dt_s}s violates the stability condition v_max*dt/dx <= 1 "
            f"on {worst}; reduce dt or use longer cells"
        )
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if not (0 <= warmup < horizon):
        raise ValueError(f"warmup must be in [0, horizon) = [0, {horizon!r}), got {warmup!r}")
    n_steps = math.ceil(horizon / params.dt_s)
    warmup_steps = math.ceil((warmup - 1e-9) / params.dt_s)
    if warmup_steps >= n_steps:
        raise ValueError(f"warmup {warmup!r} s is later than the last step's start at "
                         f"{(n_steps - 1) * params.dt_s!r} s; no metric would be sampled")
    if state0 is not None and not (math.isfinite(state0.t) and state0.t >= 0):
        raise ValueError(f"state0.t must be finite and >= 0, got {state0.t!r}")
    return n_steps, warmup_steps


def _columns(rows, *dtypes) -> list[np.ndarray]:  # empty arrays when there are no rows
    return [np.array([row[j] for row in rows], dtype=dtype) for j, dtype in enumerate(dtypes)]


class _Plan:
    """A network compiled for one SimParams into flat per-edge, per-cell and per-movement arrays.

    Cells are laid out as in SimState. Movements are the positive turn
    weights, ordered by receiving edge and then by the feeding edge's place
    in its intersection's ``incoming`` tuple; downstream-density rows follow
    each intersection's turn-weight order. np.bincount adds in input order,
    so every junction sum rounds exactly as a scalar loop in that order.

    With ``batch`` > 1 the arrays hold that many disjoint copies of the
    network back to back: copy b's cell indices are shifted by
    b * total_cells and its edge indices by b * len(edges). No two copies
    share a bincount bin, so each copy rounds exactly as a plan of its own.

    The kernels hold a state as one (2, cells) pair (rho, v), so an operation
    that both fields take is one numpy call. The plan owns the work arrays a
    step refills: ``x`` = (q, v*v), ``d`` = (rho_dn, V(rho_dn)), a per-cell
    and a per-movement temporary, and the ``spare`` state pair that the next
    step writes; ``set_red`` keeps what the red flags decide until they
    change. A plan is private to one call of ``run``, ``step`` or
    ``virtual_boundaries``.
    """

    def __init__(self, net: RoadNetwork, params: SimParams, batch: int = 1):
        self.edges = net.edge_order
        index = {eid: i for i, eid in enumerate(self.edges)}
        edges = [net.edges[eid] for eid in self.edges]
        dt = params.dt_s

        def per_cell(values):
            return np.repeat(np.array(values, dtype=float), [e.cell_count for e in edges])

        self.lanes = per_cell([e.lanes for e in edges])
        self.dx = per_cell([e.cell_length for e in edges])
        self.speed_cap = per_cell([e.free_flow_speed for e in edges])  # also each cell's v_max
        self.rho_cr, self.a = net.rho_cr, net.a
        # the upstream-difference coefficients of density and of speed: flux and convection
        self.coef = np.stack([per_cell([dt / (e.lanes * e.cell_length) for e in edges]),
                              per_cell([dt / (2.0 * e.cell_length) for e in edges])])

        self.first = np.array([net.cell_slice(eid).start for eid in self.edges], dtype=np.intp)
        self.last = np.array([net.cell_slice(eid).stop - 1 for eid in self.edges], dtype=np.intp)
        self.edge_speed = self.speed_cap[self.first]
        self.is_entry = np.array([eid not in net.upstream_of for eid in self.edges], dtype=bool)
        self.has_dn = np.array([eid in net.downstream_of for eid in self.edges], dtype=bool)

        movements, rows_dn = [], []
        for ix in net.intersections.values():
            rows, row_sum = {}, {}  # positive weights and their sum, per incoming edge
            for (e_in, e_out), w in ix.turn_weights.items():
                if w > 0:
                    rows.setdefault(e_in, {})[e_out] = w
                    row_sum[e_in] = row_sum.get(e_in, 0.0) + w
                    rows_dn.append((index[e_in], index[e_out], w))
            for e_out in ix.outgoing:
                for e_in in ix.incoming:
                    w = rows.get(e_in, {}).get(e_out)
                    if w is not None:
                        cap = net.edges[e_in].free_flow_speed * turn_speed_factor(turn_angle(net, e_in, e_out))
                        movements.append((index[e_in], index[e_out], w / row_sum[e_in], cap))
        self.mv_in, self.mv_out, self.mv_share, self.mv_cap = _columns(movements, np.intp, np.intp, float, float)
        self.dn_in, self.dn_out, self.dn_w = _columns(rows_dn, np.intp, np.intp, float)

        shift = dict.fromkeys(("first", "last"), net.total_cells)
        shift.update(dict.fromkeys(("mv_in", "mv_out", "dn_in", "dn_out"), len(self.edges)))
        for name, a in list(vars(self).items()):
            if name in shift:
                setattr(self, name, (a + shift[name] * np.arange(batch)[:, None]).ravel())
            elif isinstance(a, np.ndarray):
                setattr(self, name, np.tile(a, batch))
        self.mv_last, self.dn_first = self.last[self.mv_in], self.first[self.dn_out]
        cells = len(self.lanes)
        # the bounds a state pair (rho, v) is clamped into
        self.lower = np.stack([np.full(cells, params.density_floor), np.zeros(cells)])
        self.upper = np.stack([np.full(cells, params.jam_density), self.speed_cap])
        # work arrays that every step refills: the pairs (q, v*v) and (rho_dn, V(rho_dn)), a temporary, the spare
        # state pair that _advance writes its result into, and the downstream-density weights
        self.x, self.d, self.spare = (np.empty((2, cells)) for _ in range(3))
        self.tmp, self.dn_tmp = np.empty(cells), np.empty(len(self.dn_in))

    def set_red(self, red: np.ndarray) -> None:
        """Take one red flag per edge for the steps to come, until the next call.

        Kept: the bin each movement adds into (a red movement's is the dropped bin n), the edges whose
        downstream ghost is jam density, and the stop-line cells pinned to zero speed.
        """
        self.dest = np.where(red[self.mv_in], len(self.first), self.mv_out)
        self.jammed = red & self.has_dn
        self.pinned = self.last[red]


def _fluxes(plan: _Plan, s: np.ndarray) -> np.ndarray:
    """(q, v*v) of the state pair s = (rho, v) into plan.x, q being the cell flux rho * v * lanes; returns q."""
    x = np.multiply(s, s[1], out=plan.x)
    x[0] *= plan.lanes
    return x[0]


def _boundaries(plan: _Plan, q: np.ndarray, rho: np.ndarray, v: np.ndarray, params: SimParams):
    """Boundary kernel: (q_in, v_in, rho_out) per edge from the cell fluxes q; see virtual_boundaries.

    Every movement is summed, but a red one into a spare bin n that is dropped, so each edge
    still sums exactly its green terms in order.
    """
    n, dest = len(plan.first), plan.dest
    part = q[plan.mv_last]  # each gather makes a new array, which is cheaper than np.take into a kept one
    part *= plan.mv_share
    q0 = np.bincount(dest, part, n + 1)[:n]
    terms = v[plan.mv_last]
    terms *= part
    speed_flux = np.bincount(dest, terms, n + 1)[:n]
    cap_flux = np.bincount(dest, np.multiply(plan.mv_cap, part, out=terms), n + 1)[:n]
    # an entry edge has no movements, so q0 is 0 there and v0 keeps its first-cell speed
    v0 = np.divide(np.minimum(speed_flux, cap_flux, out=speed_flux), q0, out=v[plan.first], where=q0 > 0.0)

    q_in = np.where(plan.is_entry, q[plan.first], q0)
    v_in = np.where(plan.is_entry, v0, np.minimum(np.maximum(v0, 0.0), plan.edge_speed))

    r = rho[plan.dn_first]
    den = np.bincount(plan.dn_in, np.multiply(r, plan.dn_w, out=plan.dn_tmp), n)
    r *= r
    r *= plan.dn_w
    num = np.bincount(plan.dn_in, r, n)
    rho_out = np.divide(num, den, out=rho[plan.last], where=den > 0.0)
    rho_out[plan.jammed] = params.jam_density
    return q_in, v_in, rho_out


def _advance(plan: _Plan, s: np.ndarray, q_in, v_in, rho_out, params: SimParams, k: int, t: float) -> np.ndarray:
    """Cell-update kernel: step k of every cell, at clock t, from the state pair s = (rho, v), its (q, v*v) in
    plan.x, and the ghosts; see step.

    The new pair is written into plan.spare, and s becomes the next spare: s itself is never written, but
    a caller that steps on must not keep it.
    """
    x, d, tmp, new, first = plan.x, plan.d, plan.tmp, plan.spare, plan.first
    rho, r_next, u_next, dt = s[0], new[0], new[1], params.dt_s  # rows by index: unpacking an array is slower

    # new = (rho - flux_coef * (q - q_up), v - conv_coef * (v*v - v_up*v_up)), then
    # new[1] += (dt/relaxation) * (V(rho_dn) - v) and new[1] -= (dt*anticipation / (rho + guard)) * (rho_dn - rho) / dx,
    # one operation at a time in that order, so each value rounds as the expressions would. A cell's upstream
    # q_up and v_up are the previous cell's, or at an edge's first cell the ghosts; its downstream rho_dn is the
    # next cell's density, or at an edge's last cell the ghost.
    np.subtract(x[:, 1:], x[:, :-1], out=new[:, 1:])
    r_next[first] = x[0][first] - q_in
    u_next[first] = x[1][first] - v_in * v_in
    new *= plan.coef
    np.subtract(s, new, out=new)
    rho_dn = d[0]
    rho_dn[:-1], rho_dn[plan.last] = rho[1:], rho_out
    _curve(plan.speed_cap, plan.rho_cr, plan.a, rho_dn, d[1])
    d -= s
    d[1] *= dt / params.relaxation_s
    u_next += d[1]
    np.add(rho, params.density_guard, out=tmp)
    np.divide(dt * params.anticipation, tmp, out=tmp)
    tmp *= d[0]
    tmp /= plan.dx
    u_next -= tmp
    u_next[plan.pinned] = 0.0

    # one reduction is non-finite whenever a cell is; if it only overflowed, the exact mask passes
    if not math.isfinite(np.dot(r_next, u_next)):
        finite = np.isfinite(r_next) & np.isfinite(u_next)
        if not finite.all():
            bad = int(np.argmin(finite))
            e = int(np.searchsorted(plan.first, bad, side="right")) - 1
            row, edge = divmod(e, len(plan.edges))
            in_row = f" in batch row {row}" if len(plan.first) > len(plan.edges) else ""
            raise SimulationError(
                f"non-finite state on edge {plan.edges[edge]} cell {bad - plan.first[e] + 1} "
                f"at step {k + 1} (t={t + dt:g} s){in_row}"
            )
    # cheaper than np.clip, and the same bits on finite values other than -0.0, which the update never makes
    np.minimum(np.maximum(new, plan.lower, out=new), plan.upper, out=new)
    plan.spare = s
    return new


def _view(net: RoadNetwork, state: SimState, red: Collection[str], params: SimParams):
    """Both views' setup: a plan with the red stop lines ``red``, the pair (rho, v), its (q, v*v) in plan.x, the ghosts."""
    plan = _Plan(net, params)
    plan.set_red(np.array([eid in red for eid in plan.edges], dtype=bool))
    s = np.stack([state.rho, state.v])
    return plan, s, _boundaries(plan, _fluxes(plan, s), s[0], s[1], params)


def virtual_boundaries(net: RoadNetwork, state: SimState, red: Collection[str], params: SimParams) -> VirtualBoundary:
    """Ghost values for every edge end from intersection mixing and boundary rules.

    For an outgoing edge, the inflow flux is the turn-weight share of every
    green incoming edge's end flux, and the inflow speed is the flux-weighted
    mean of their end speeds, capped by the turn-geometry speed limit (a
    straight movement passes at most v_max, a 90 degree turn at most half of
    it, a U-turn nothing). For an incoming edge, the downstream ghost density
    is a flux-consistent quadratic mean over the receiving edges' first
    cells; a red incoming edge instead sees jam density. Uncoupled ends use
    zero-gradient values. ``red`` holds the ids of the red stop lines, as
    ``edge_phases`` gives them. A dict view of the boundary kernel that
    ``run`` executes.
    """
    plan, _, ghosts = _view(net, state, red, params)
    return VirtualBoundary(*(dict(zip(plan.edges, g.tolist())) for g in ghosts))


def step(net: RoadNetwork, state: SimState, red: Collection[str], params: SimParams) -> SimState:
    """Advance one time step from the ghosts ``virtual_boundaries`` gives; does not mutate ``state``.

    Order within the step: densities from the flux balance, speeds from
    convection + relaxation + anticipation, then red stop lines are pinned to
    zero speed, then both fields are clamped (density into
    [density_floor, jam_density], speed into [0, v_max]). Non-finite values
    abort with the offending edge and cell. A view of both kernels that
    ``run`` executes.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # as in run
        plan, s, ghosts = _view(net, state, red, params)
        rho, v = _advance(plan, s, *ghosts, params, state.k, state.t)
    return SimState(rho=rho, v=v, t=state.t + params.dt_s, k=state.k + 1)


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
    return SimState(rho=rho, v=v, t=0.0, k=0)


def total_cars(net: RoadNetwork, state: SimState) -> float:
    """Vehicles on the network: per-lane density * cell length * lanes, summed."""
    total = 0.0
    for eid in net.edge_order:
        e = net.edges[eid]
        sl = net.cell_slice(eid)
        total += float(np.sum(state.rho[sl])) * e.cell_length * e.lanes
    return total


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
    the rest of the protocol first. Metrics are sampled on the state before each
    step from ``warmup`` seconds after ``state0.t`` on, as that check plans.
    ``probes`` is an optional list of times at which the full state is
    recorded as a SimState, taken at the first state whose clock reaches each
    probe; a probe outside the run's clock span [state0.t, state0.t + horizon]
    is refused. Deterministic: no randomness is drawn here, so equal inputs
    give bit-identical results.

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
    block = np.empty((max(1, min(n_steps - first, _BLOCK_VALUES // plan.tmp.size)), batch, net.total_cells))

    s = np.stack([np.tile(state0.rho, batch), np.tile(state0.v, batch)])  # the pair (rho, v)
    # overflows only reach _advance's finiteness guard, which raises on a non-finite cell; its one dot
    # product can also overflow on finite cells, so the warnings say nothing the guard does not
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(clock.tolist()):
            while probe_idx < len(probe_times) and t >= probe_times[probe_idx] - 1e-9:
                snapshots.append(SimState(*s.reshape(2, batch, -1).copy(), t=t, k=state0.k + k))
                probe_idx += 1
            if k == n_steps:
                break
            if k >= first:
                i = (k - first) % len(block)
                block[i] = s[1].reshape(batch, -1)
                if i == len(block) - 1 or k == n_steps - 1:
                    lo = k - first - i
                    series[:, lo:lo + i + 1] = step_metrics(block[:i + 1])
            if switches[k]:
                plan.set_red(red[k])
            q = _fluxes(plan, s)
            s = _advance(plan, s, *_boundaries(plan, q, s[0], s[1], params), params, state0.k + k, t)

    # one contiguous series per row, so each row's time average sums exactly as an unbatched run's
    speeds, queues = series.transpose(0, 2, 1).copy()
    rho, v = s.reshape(2, batch, -1)
    results = [
        RunResult(
            metrics=aggregate(speeds[b], queues[b]),
            final_state=SimState(rho=rho[b], v=v[b], t=t, k=state0.k + n_steps),
            steps=n_steps,
            warmup_steps=first,
            snapshots=[SimState(rho=p.rho[b], v=p.v[b], t=p.t, k=p.k) for p in snapshots],
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
