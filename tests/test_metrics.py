import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macrosim.metrics import (
    QUEUE_STEEPNESS,
    QUEUE_THRESHOLD_MPS,
    CongestionMetrics,
    aggregate,
    congestion_weight,
    step_metrics,
)

# frozen independently: 1 / (1 + exp(3 * (4 - 5)))
WEIGHT_AT_4_MPS = 0.9525741268224334


def test_weight_at_threshold_is_half():
    assert congestion_weight(5.0) == pytest.approx(0.5, abs=1e-15)


def test_weight_one_below_threshold_matches_frozen_value():
    assert congestion_weight(4.0) == pytest.approx(WEIGHT_AT_4_MPS, abs=1e-12)


def test_weight_extremes_do_not_overflow():
    assert congestion_weight(1e6) == 0.0
    assert congestion_weight(-1e6) == 1.0
    arr = congestion_weight(np.array([-1e6, 5.0, 1e6]))
    assert np.all(np.isfinite(arr))
    assert arr[0] == 1.0 and arr[2] == 0.0


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
def test_weight_decreases_with_speed(v1, v2):
    lo, hi = sorted((v1, v2))
    assert congestion_weight(lo) >= congestion_weight(hi)


def test_weight_array_matches_scalar():
    vs = np.linspace(-3, 20, 17)
    arr = congestion_weight(vs)
    for v, w in zip(vs, arr):
        assert w == pytest.approx(congestion_weight(float(v)), abs=1e-15)


def _split_weight(v):
    """Reference: the boolean-mask split form that congestion_weight used to compute."""
    x = QUEUE_STEEPNESS * (np.asarray(v, dtype=float) - QUEUE_THRESHOLD_MPS)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    return out


def test_weight_equals_split_form_exactly():
    t = QUEUE_THRESHOLD_MPS
    edges = [-1e6, 1e6, t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
    v = np.concatenate([edges, np.linspace(-30.0, 40.0, 701)])
    np.testing.assert_array_equal(congestion_weight(v), _split_weight(v))
    rows = v.reshape(2, -1)
    np.testing.assert_array_equal(congestion_weight(rows), _split_weight(rows))
    for x in edges:
        assert congestion_weight(x) == float(_split_weight(x))


def test_step_metrics_unweighted_mean_and_queue():
    avg, queue = step_metrics(np.array([12.0, 1.0, 8.0]))
    assert avg == pytest.approx((12.0 + 1.0 + 8.0) / 3)
    expected_queue = sum(congestion_weight(v) for v in (12.0, 1.0, 8.0))
    assert queue == pytest.approx(expected_queue, abs=1e-12)


def test_jammed_cells_count_fully_toward_queue():
    _, queue = step_metrics(np.zeros(5))
    assert queue == pytest.approx(5.0, abs=1e-5)


def test_aggregate_time_averages():
    m = aggregate([10.0, 12.0, 14.0], [3.0, 4.0, 5.0])
    assert m == CongestionMetrics(avg_speed=12.0, queue_length=4.0, samples=3)


def test_aggregate_input_validation():
    with pytest.raises(ValueError):
        aggregate([], [])
    with pytest.raises(ValueError):
        aggregate([1.0, 2.0], [1.0])
