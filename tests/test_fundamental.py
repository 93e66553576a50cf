import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from macrosim import fundamental
from macrosim.fundamental import (
    FdParams,
    fit_fd,
    ideal_speed,
    invert_speed,
    read_counters,
)

# frozen independently at 30 digits: 13.68 * exp(-(1/1.24) * 1**1.24)
V_AT_CRITICAL = 6.107290975253165


def test_empty_road_speed_is_exactly_v_max():
    assert ideal_speed(FdParams(), 0.0) == 13.68


def test_speed_at_critical_density_matches_frozen_value():
    assert ideal_speed(FdParams(), 0.05) == pytest.approx(V_AT_CRITICAL, abs=1e-9)


def test_speed_formula_against_direct_evaluation():
    p = FdParams(v_max=16.0, rho_cr=0.04, a=2.0)
    rho = 0.08
    expected = 16.0 * math.exp(-(1 / 2.0) * (0.08 / 0.04) ** 2.0)
    assert ideal_speed(p, rho) == pytest.approx(expected, rel=1e-15)


# Densities this far apart, relative to the larger, always give distinct speeds: near 1e-6 the curve
# falls by about 1.5e-6 of itself per unit relative density, so 1e-9 is about 11 ulps of the speed.
# Over 10^6 log-uniform densities in [1e-6, 0.3], a gap of 3e-10 already left no tie; at one ulp apart
# the speeds tie in most pairs, and the curve can only be asked not to rise.
STRICT_GAP = 1e-9


@given(
    st.floats(min_value=1e-6, max_value=0.3),
    st.floats(min_value=1e-6, max_value=0.3),
)
@example(1e-6, float(np.nextafter(1e-6, 1.0)))  # one ulp apart: both give 13.679983558503443
@example(1e-6, 1e-6 * (1.0 + 2 * STRICT_GAP))  # just past the gap, at the curve's flattest
def test_speed_strictly_decreasing_in_density(r1, r2):
    p = FdParams()
    lo, hi = sorted((r1, r2))
    assert ideal_speed(p, lo) >= ideal_speed(p, hi)
    if hi - lo > STRICT_GAP * hi:
        assert ideal_speed(p, lo) > ideal_speed(p, hi)


def test_speed_accepts_arrays():
    p = FdParams()
    rho = np.array([0.0, 0.05, 0.2])
    v = ideal_speed(p, rho)
    assert v.shape == (3,)
    assert v[0] == 13.68
    assert np.all(np.diff(v) < 0)


def test_negative_density_rejected():
    with pytest.raises(ValueError):
        ideal_speed(FdParams(), -0.01)


@given(st.floats(min_value=0.01, max_value=13.67))
def test_inversion_round_trips(v):
    p = FdParams()
    assert ideal_speed(p, invert_speed(p, v)) == pytest.approx(v, rel=1e-9)


def test_inversion_at_v_max_gives_zero_density():
    assert invert_speed(FdParams(), 13.68) == 0.0


@pytest.mark.parametrize("v, shown", [
    (20.0, "20.0"), (float("nan"), "nan"), (float("inf"), "inf"), ([5.0, 13.69], "13.69"),
])
def test_inversion_refuses_speed_above_v_max_or_not_finite(v, shown):
    """The curve never reaches such a speed, so no density is made up for it."""
    with pytest.raises(ValueError, match=rf"^speed must be finite and in \(0, 13\.68\], got {re.escape(shown)}$"):
        invert_speed(FdParams(), v)


def test_inversion_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        invert_speed(FdParams(), 0.0)
    with pytest.raises(ValueError):
        invert_speed(FdParams(), -1.0)


def test_fd_params_must_be_positive():
    with pytest.raises(ValueError):
        FdParams(v_max=0.0)
    with pytest.raises(ValueError):
        FdParams(rho_cr=-0.05)
    with pytest.raises(ValueError):
        FdParams(a=float("nan"))


def _curve_samples(params, noise=0.0, seed=0, n=50):
    rho = np.linspace(0.001, 0.15, n)
    v = ideal_speed(params, rho)
    if noise:
        rng = np.random.default_rng(seed)
        v = v * (1.0 + noise * rng.standard_normal(n))
    return list(zip(rho, v))


def test_fit_recovers_noiseless_parameters():
    true = FdParams()
    fit = fit_fd(_curve_samples(true), init=FdParams(10.0, 0.03, 1.0))
    assert fit.converged
    assert fit.params.v_max == pytest.approx(true.v_max, rel=1e-6)
    assert fit.params.rho_cr == pytest.approx(true.rho_cr, rel=1e-6)
    assert fit.params.a == pytest.approx(true.a, rel=1e-6)


def test_fit_with_noise_stays_close():
    true = FdParams()
    fit = fit_fd(_curve_samples(true, noise=0.05, seed=7), init=FdParams(10.0, 0.03, 1.0))
    assert fit.params.v_max == pytest.approx(true.v_max, rel=0.15)
    assert fit.params.rho_cr == pytest.approx(true.rho_cr, rel=0.15)
    assert fit.params.a == pytest.approx(true.a, rel=0.15)


def test_fit_never_worse_than_init():
    true = FdParams()
    samples = _curve_samples(true, noise=0.1, seed=3)
    init = FdParams(9.0, 0.08, 2.0)
    rho = np.array([s[0] for s in samples])
    v = np.array([s[1] for s in samples])
    sse_init = float(np.sum((v - ideal_speed(init, rho)) ** 2))
    fit = fit_fd(samples, init=init)
    assert fit.sse <= sse_init


def test_fit_with_fixed_v_max():
    true = FdParams()
    fit = fit_fd(_curve_samples(true), init=FdParams(13.68, 0.02, 0.8), fixed_v_max=13.68)
    assert fit.params.v_max == 13.68
    assert fit.params.rho_cr == pytest.approx(0.05, rel=1e-6)
    assert fit.params.a == pytest.approx(1.24, rel=1e-6)


@pytest.mark.parametrize("v_max", [math.nan, math.inf, 0.0, -1.0])
def test_fit_refuses_a_fixed_v_max_that_is_not_finite_and_positive(v_max):
    with pytest.raises(ValueError, match=f"^{re.escape(f'fixed_v_max must be finite and > 0, got {v_max!r}')}$"):
        fit_fd(_curve_samples(FdParams()), fixed_v_max=v_max)


def test_fit_flags_non_convergence_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(fundamental, "FIT_MAX_ITER", 3)
    fit = fit_fd(_curve_samples(FdParams(), noise=0.05, seed=1), init=FdParams(1.0, 0.002, 0.3))
    assert not fit.converged
    assert fit.iterations == 3


def test_fit_input_validation():
    good = _curve_samples(FdParams())
    with pytest.raises(ValueError):
        fit_fd(good[:2])
    with pytest.raises(ValueError):
        fit_fd([(0.05, 6.0), (0.05, 6.1), (0.05, 5.9)])
    bad = good[:]
    bad[0] = (float("nan"), 5.0)
    with pytest.raises(ValueError):
        fit_fd(bad)
    bad[0] = (-0.01, 5.0)  # finite, but no road holds fewer than no cars
    with pytest.raises(ValueError, match="^sample densities must be non-negative$"):
        fit_fd(bad)


def test_counter_csv_gives_density_speed_samples(tmp_path):
    # 150 cars in 300 s at 10 m/s cover 3000 m of road: 0.05 cars/m; a row without a positive speed gives no sample
    path = tmp_path / "counters.csv"
    path.write_text("interval_s,count,avg_speed_mps\n300.0,150.0,10.0\n\n300.0,30.0,13.0\n300,4,0\n300,4,-2\n")
    assert read_counters(path) == [(150.0 / (300.0 * 10.0), 10.0), (30.0 / (300.0 * 13.0), 13.0)]
    assert read_counters(path)[0][0] == pytest.approx(0.05)


def test_counter_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("interval,count,speed\n300,1,2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*header"):
        read_counters(path)


def test_counter_csv_reports_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("interval_s,count,avg_speed_mps\n300,x,2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2"):
        read_counters(path)

    path.write_text("interval_s,count,avg_speed_mps\n300,2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: expected 3 columns, got 2$"):
        read_counters(path)

    # a negative count, a non-positive interval or a non-finite value names the line and the rule
    good = "300,150,10\n"
    for row, rule in [("300,-1,10", "count must be >= 0"), ("0,150,10", "interval_s must be > 0"),
                      ("-300,150,10", "interval_s must be > 0"), ("300,nan,10", "values must be finite"),
                      ("300,150,inf", "values must be finite"), ("inf,150,10", "values must be finite")]:
        path.write_text(f"interval_s,count,avg_speed_mps\n{good}{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: {rule}, got {re.escape(row)}$"):
            read_counters(path)
