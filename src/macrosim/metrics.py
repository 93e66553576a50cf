"""Network-level congestion metrics.

Two summary quantities per simulation: the mean cell speed, and a queue
length that counts cells by how congested they are. The queue contribution
of one cell is a logistic weight in its speed, close to 1 when nearly
stopped and close to 0 when moving freely. ``solver.run`` averages the
``step_metrics`` of its sampled steps into one ``CongestionMetrics``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUEUE_STEEPNESS = 3.0      # 1/(m/s); a larger value makes the weight switch more sharply
QUEUE_THRESHOLD_MPS = 5.0  # speed at which a cell's weight is 0.5

# the two metrics, in the order of table columns and model outputs, each with its key in a metrics document
DOCUMENT_KEYS = {"avg_speed": "avg_speed_mps", "queue_length": "queue_length"}
METRICS = tuple(DOCUMENT_KEYS)


@dataclass(frozen=True)
class CongestionMetrics:
    avg_speed: float     # m/s, time-averaged mean cell speed
    queue_length: float  # time-averaged sum of logistic congestion weights
    samples: int         # number of sampled steps averaged

    def document(self) -> dict:
        """Both metrics under their metrics-document keys, in METRICS order."""
        return {key: getattr(self, metric) for metric, key in DOCUMENT_KEYS.items()}


def _weight(v: np.ndarray) -> np.ndarray:
    """congestion_weight of an array of speeds, in a new array; exp overflows, with a warning, above ~240 m/s."""
    w = np.multiply(v, QUEUE_STEEPNESS)
    w -= QUEUE_STEEPNESS * QUEUE_THRESHOLD_MPS
    np.exp(w, out=w)
    w += 1.0
    return np.reciprocal(w, out=w)


def congestion_weight(v):
    """Logistic congestion weight of a speed; scalar or array.

    The weight is 1 / (1 + exp(QUEUE_STEEPNESS * v - QUEUE_STEEPNESS * QUEUE_THRESHOLD_MPS)): exactly 0.5 at
    the threshold, 1 far below it, and 0 above about 240 m/s, where exp overflows without a warning.
    """
    with np.errstate(over="ignore"):
        out = _weight(np.array(v, dtype=float, ndmin=1))
    return float(out[0]) if np.ndim(v) == 0 else out


def step_metrics(v: np.ndarray):
    """(mean speed, queue length) of the cell speeds ``v`` of one state.

    The mean is an unweighted average over all cells of all edges. A
    (rows, cells) array gives one mean and one queue length per row, and a
    (samples, rows, cells) block of speeds one per sample and row, each
    summed exactly as that row alone.
    """
    avg = np.add.reduce(v, axis=-1) / v.shape[-1]  # np.mean's own arithmetic, without its wrapper
    queue = np.add.reduce(_weight(v), axis=-1)
    return avg, queue
