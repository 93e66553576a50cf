"""Fundamental diagram of traffic flow: evaluation, inversion, calibration.

The speed-density relationship used throughout the simulator is

    V(rho) = v_max * exp(-(1/a) * (rho / rho_cr) ** a)

with a free-flow speed ``v_max``, a critical density ``rho_cr`` and a decay
exponent ``a``. The default constants were calibrated against stationary
counter data aggregated over 5-minute intervals. Inputs the curve cannot take
are refused, never clamped: a negative density, or a speed outside (0, v_max].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import Fields, is_real, read_table, write_json

DEFAULT_V_MAX = 13.68  # m/s
DEFAULT_RHO_CR = 0.05  # cars/m per lane
DEFAULT_A = 1.24
FIT_REL_TOL = 1e-10  # relative simplex value spread at which a calibration stops
FIT_MAX_ITER = 2000  # simplex iterations after which a calibration gives up unconverged


@dataclass(frozen=True)
class FdParams:
    """Parameters of the speed-density curve.

    v_max : free-flow speed in m/s, the speed of an empty road.
    rho_cr: critical density in cars/m per lane where the curve bends down.
    a     : dimensionless decay exponent; larger values drop speed more
            abruptly past the critical density.
    """

    v_max: float = DEFAULT_V_MAX
    rho_cr: float = DEFAULT_RHO_CR
    a: float = DEFAULT_A

    def __post_init__(self):
        for name in ("v_max", "rho_cr", "a"):
            value = getattr(self, name)
            if not (is_real(value) and math.isfinite(value) and value > 0):
                raise ValueError(f"FdParams.{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class FdFit:
    """Result of a fundamental-diagram calibration."""

    params: FdParams
    sse: float
    converged: bool
    iterations: int


def _curve(v_max, rho_cr, a, rho):
    """V(rho) elementwise, the one expression of the curve that every caller evaluates."""
    return v_max * np.exp(-(1.0 / a) * (rho / rho_cr) ** a)


def ideal_speed(params: FdParams, rho):
    """Equilibrium speed at density ``rho`` (cars/m per lane).

    Accepts a scalar or an array; negative densities are rejected. The value
    at zero density is exactly ``v_max``.
    """
    arr = np.asarray(rho, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("density must be finite and non-negative")
    v = _curve(params.v_max, params.rho_cr, params.a, arr)
    if np.ndim(rho) == 0:
        return float(v)
    return v


def invert_speed(params: FdParams, v):
    """Density at which the equilibrium speed equals ``v``.

    Analytic inverse of :func:`ideal_speed`. A speed outside (0, v_max] is
    refused, since the curve never reaches it; ``v_max`` gives density 0.
    """
    arr = np.asarray(v, dtype=float)
    bad = arr[~((0 < arr) & (arr <= params.v_max))]  # nan fails both comparisons
    if bad.size:
        raise ValueError(f"speed must be finite and in (0, {params.v_max}], got {bad[0]}")
    rho = params.rho_cr * (-params.a * np.log(arr / params.v_max)) ** (1.0 / params.a)
    if np.ndim(v) == 0:
        return float(rho)
    return rho


def _nelder_mead(func, x0, max_iter):
    """Minimal Nelder-Mead simplex descent.

    Returns (best_x, best_f, converged, iterations). The starting point is a
    simplex vertex, so the final best value never exceeds func(x0).
    Convergence fires when the simplex value spread falls below
    FIT_REL_TOL * max(|best|, 1e-12); the absolute floor keeps the criterion
    meaningful when the objective approaches zero.
    """
    alpha, gamma, beta, sigma = 1.0, 2.0, 0.5, 0.5
    n = len(x0)
    simplex = [np.array(x0, dtype=float)]
    for i in range(n):
        vertex = np.array(x0, dtype=float)
        vertex[i] += 0.25
        simplex.append(vertex)
    values = [func(v) for v in simplex]

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        spread = values[-1] - values[0]
        if spread <= FIT_REL_TOL * max(abs(values[0]), 1e-12):
            converged = True
            break

        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        f_reflected = func(reflected)
        if values[0] <= f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_expanded = func(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + beta * (reflected - centroid)
            f_contracted = func(contracted)
            if f_contracted <= f_reflected:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = centroid + beta * (simplex[-1] - centroid)
            f_contracted = func(contracted)
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        for i in range(1, n + 1):
            simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
            values[i] = func(simplex[i])

    best = int(np.argmin(values))
    return simplex[best], values[best], converged, iterations


def fit_fd(
    samples,
    init: FdParams | None = None,
    fixed_v_max: float | None = None,
) -> FdFit:
    """Calibrate the speed-density curve against (density, speed) samples.

    ``samples`` is a sequence of (rho, v) pairs. Minimizes the sum of squared
    speed residuals with a simplex descent in log-parameter space, which
    keeps every candidate strictly positive by construction. When
    ``fixed_v_max`` is given only ``rho_cr`` and ``a`` are free.

    Returns an :class:`FdFit`; if FIT_MAX_ITER is hit first, the best
    parameters so far are returned with ``converged=False``. The final SSE
    never exceeds the SSE of ``init``.
    """
    pairs = [(float(r), float(v)) for r, v in samples]
    if len(pairs) < 3:
        raise ValueError("need at least 3 samples to fit 3 parameters")
    rho = np.array([p[0] for p in pairs])
    spd = np.array([p[1] for p in pairs])
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(spd))):
        raise ValueError("samples contain non-finite values")
    if np.any(rho < 0):
        raise ValueError("sample densities must be non-negative")
    if np.unique(rho).size < 3:
        raise ValueError("need at least 3 distinct densities")

    if init is None:
        init = FdParams()
    if fixed_v_max is not None and not (is_real(fixed_v_max) and math.isfinite(fixed_v_max) and fixed_v_max > 0):
        raise ValueError(f"fixed_v_max must be finite and > 0, got {fixed_v_max!r}")

    def sse_of(v_max, rho_cr, a):
        with np.errstate(over="ignore", invalid="ignore"):
            err = float(np.sum((spd - _curve(v_max, rho_cr, a, rho)) ** 2))
        return err if math.isfinite(err) else float("inf")

    fixed = [] if fixed_v_max is None else [fixed_v_max]

    def params_of(x):  # the fixed v_max, if any, then the exponentiated free log-parameters
        return (*fixed, *(math.exp(xi) for xi in x))

    x0 = np.log([init.v_max, init.rho_cr, init.a][len(fixed):])
    x, sse, converged, iterations = _nelder_mead(lambda x: sse_of(*params_of(x)), x0, FIT_MAX_ITER)
    return FdFit(params=FdParams(*params_of(x)), sse=sse, converged=converged, iterations=iterations)


def read_counters(path) -> list[tuple[float, float]]:
    """(density, speed) samples from a counter CSV with header interval_s,count,avg_speed_mps.

    Each row is one aggregated reading of a stationary counter. Vehicles
    passing at speed v during T seconds cover v*T meters, so the row's density
    is count / (interval_s * avg_speed_mps) in cars/m. Every value must be
    finite, counts non-negative and intervals positive; a row whose speed is
    not positive gives no sample.
    """
    header, rows = read_table(path, ["interval_s", "count", "avg_speed_mps"])
    fields = Fields(path)
    samples = []
    for line_no, cells in rows:
        interval_s, count, avg_speed = (fields.cell(c, float, line_no, column) for c, column in zip(cells, header))
        for bad, rule in (
            (not all(map(math.isfinite, (interval_s, count, avg_speed))), "values must be finite"),
            (count < 0, "count must be >= 0"),
            (interval_s <= 0, "interval_s must be > 0"),
        ):
            if bad:
                raise ValueError(f"{path}: line {line_no}: {rule}, got {','.join(cells)}")
        if avg_speed > 0:
            samples.append((count / (interval_s * avg_speed), avg_speed))
    return samples


def save_fit(fit: FdFit, path) -> None:
    p = fit.params
    write_json({"v_max": p.v_max, "rho_cr": p.rho_cr, "a": p.a, "sse": fit.sse, "converged": fit.converged}, path)
