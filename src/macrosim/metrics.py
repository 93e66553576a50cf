"""Network-level congestion metrics.

Two summary quantities per simulation: the mean cell speed, and a queue
length that counts cells by how congested they are. The queue contribution
of one cell is a logistic weight in its speed, close to 1 when nearly
stopped and close to 0 when moving freely.
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
    samples: int         # number of time samples aggregated

    def document(self) -> dict:
        """Both metrics under their metrics-document keys, in METRICS order."""
        return {key: getattr(self, metric) for metric, key in DOCUMENT_KEYS.items()}


def congestion_weight(v):
    """Logistic congestion weight of a speed; scalar or array.

    The weight is 1 / (1 + exp(QUEUE_STEEPNESS * (v - QUEUE_THRESHOLD_MPS))).

    Computed from exp(-|x|), which never overflows, so large speed
    deviations in either direction stay exact 0/1.
    """
    x = QUEUE_STEEPNESS * (np.asarray(v, dtype=float) - QUEUE_THRESHOLD_MPS)
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) where x < 0
    out = np.where(x >= 0, e, 1.0) / (1.0 + e)
    if x.ndim == 0:
        return float(out)
    return out


def step_metrics(v: np.ndarray):
    """(mean speed, queue length) of the cell speeds ``v`` of one state.

    The mean is an unweighted average over all cells of all edges. A
    (rows, cells) array gives one mean and one queue length per row, and a
    (samples, rows, cells) block of speeds one per sample and row, each
    summed exactly as that row alone.
    """
    avg = np.add.reduce(v, axis=-1) / v.shape[-1]  # np.mean's own arithmetic, without its wrapper
    queue = np.add.reduce(congestion_weight(v), axis=-1)
    return avg, queue


def aggregate(speed_series, queue_series) -> CongestionMetrics:
    """Time-average per-step metric samples into one summary."""
    speeds = np.asarray(speed_series, dtype=float)
    queues = np.asarray(queue_series, dtype=float)
    if speeds.shape != queues.shape or speeds.ndim != 1:
        raise ValueError("speed and queue series must be 1-d and equally long")
    if speeds.size == 0:
        raise ValueError("cannot aggregate empty metric series")
    return CongestionMetrics(
        avg_speed=float(np.mean(speeds)),
        queue_length=float(np.mean(queues)),
        samples=int(speeds.size),
    )
