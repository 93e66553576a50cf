import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macrosim.metrics import (
    QUEUE_STEEPNESS,
    QUEUE_THRESHOLD_MPS,
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
    # exp overflows above about 240 m/s; the weight is then exactly 0, and no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v, wanted in ((1e6, 0.0), (1e308, 0.0), (np.inf, 0.0), (-1e6, 1.0), (-1e308, 1.0), (-np.inf, 1.0),
                          (QUEUE_THRESHOLD_MPS, 0.5)):
            assert congestion_weight(v) == wanted
            assert congestion_weight(np.array([v, v])).tolist() == [wanted, wanted]


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
    """Reference: the boolean-mask split form, which never overflows."""
    x = QUEUE_STEEPNESS * (np.asarray(v, dtype=float) - QUEUE_THRESHOLD_MPS)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    return out


def test_weight_matches_the_split_form_to_rounding():
    # congestion_weight computes 1 / (1 + exp(3 * v - 15)); the two forms differ by the rounding of exp's argument
    # only, at most 7.4e-15 relative on this grid (measured), and agree exactly at the threshold and the extremes
    t = QUEUE_THRESHOLD_MPS
    edges = [-1e6, 1e6, t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
    v = np.concatenate([edges, np.linspace(-30.0, 40.0, 70001)])
    np.testing.assert_allclose(congestion_weight(v), _split_weight(v), rtol=1e-14, atol=0)
    rows = v.reshape(2, -1)
    np.testing.assert_array_equal(congestion_weight(rows), congestion_weight(v).reshape(2, -1))
    for x in (-1e6, 1e6, t):
        assert congestion_weight(x) == float(_split_weight(x))


def test_step_metrics_unweighted_mean_and_queue():
    avg, queue = step_metrics(np.array([12.0, 1.0, 8.0]))
    assert avg == pytest.approx((12.0 + 1.0 + 8.0) / 3)
    expected_queue = sum(congestion_weight(v) for v in (12.0, 1.0, 8.0))
    assert queue == pytest.approx(expected_queue, abs=1e-12)
    block = np.linspace(0.0, 20.0, 3 * 401).reshape(3, 401)  # and the queue sums the public weight exactly
    np.testing.assert_array_equal(step_metrics(block)[1], np.add.reduce(congestion_weight(block), axis=-1))


def test_jammed_cells_count_fully_toward_queue():
    _, queue = step_metrics(np.zeros(5))
    assert queue == pytest.approx(5.0, abs=1e-5)
