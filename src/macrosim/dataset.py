"""Batch generation of (signal configuration -> congestion metrics) tables.

Every run starts from the same initial state and simulates one uniformly
random signal configuration. Run i draws its configuration from a generator
seeded by hashing (master seed, i), so any row can be regenerated in
isolation and the table is bit-identical regardless of how many worker
processes computed it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pool
from ._files import Fields, naming, read_table, write_table
from .metrics import METRICS
from .network import MAX_CELLS
from .signals import IntersectionSignal, encode_values, sample_config
from .solver import HORIZON_S, WARMUP_S, SimParams, SimState, check_protocol, run


@dataclass(frozen=True)
class DatasetRow:
    run_id: int
    seed: int
    config: dict
    avg_speed: float
    queue_length: float
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def child_seed(master_seed: int, run_id: int) -> int:
    """Stable per-run seed from the master seed and the run index."""
    ss = np.random.SeedSequence((master_seed, run_id))
    return int(ss.generate_state(1, np.uint64)[0])


CHUNK_CELLS = 8000  # cells of a chunk that runs beside others at most, unless one row alone is larger
WORKER_CELLS = 1500  # cells each worker must get, at least, for a pool to beat one in-process batched run


def _simulate(context, configs: list) -> list:
    """Metrics of each configuration, or the one-line diagnostic of the exception its run raised.

    ``context`` is (net, state0, params, horizon, warmup). The configurations
    run as one batched run; if it raises, they are redone one by one, so only
    a bad row fails.
    """
    net, state0, params, horizon, warmup = context
    try:
        return [r.metrics for r in run(net, state0, configs, params, horizon=horizon, warmup=warmup)]
    except Exception as exc:  # one bad row must not take the batch down with it
        if len(configs) > 1:
            return [outcome for config in configs for outcome in _simulate(context, [config])]
        return [" ".join(f"{type(exc).__name__}: {exc}".split())]


class BatchRunner(_pool.Pool):
    """Congestion metrics of lists of signal configurations, all run from one initial state under one protocol.

    A list runs in this process as one batched run, split only above
    ``MAX_CELLS`` cells, unless splitting it over the workers gives each at
    least ``WORKER_CELLS`` cells. Then it runs as chunks of at most
    ``CHUNK_CELLS`` cells (one row each, if a row alone is larger), as many
    as a multiple of the worker count where there are rows enough, on worker
    processes that the first such list starts and the ``with`` block stops.
    The workers are at most the usable CPUs. Every row is bit-identical to
    its own run alone, so neither workers nor chunks ever change a result.
    The checks of ``check_protocol`` (the start clock of ``state0`` among
    them), which every run would fail alike, raise here, before any run.
    Built with ``state0`` None, it checks the protocol only, and a call is
    refused before any plan or worker starts.
    """

    def __init__(self, net, state0: SimState | None, params: SimParams, workers: int = 1,
                 horizon: float = HORIZON_S, warmup: float = WARMUP_S):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        check_protocol(net, state0, params, horizon, warmup)
        super().__init__(_simulate, (net, state0, params, horizon, warmup))
        self.net, self.state0 = net, state0
        self.workers = min(workers, _pool.usable_cpus())

    def __call__(self, configs: list) -> list:
        """Per configuration, in order: its CongestionMetrics, or the diagnostic of the exception its run raised."""
        if self.state0 is None:
            raise ValueError("a BatchRunner without a start state (state0 None) checks its protocol but runs nothing")
        n, cells = len(configs), self.net.total_cells
        workers = min(self.workers, n)
        if workers > 1 and n * cells >= workers * WORKER_CELLS:
            n_chunks = min(n, workers * -(-n // (workers * max(1, CHUNK_CELLS // cells))))
        else:
            workers, n_chunks = 1, -(-n // max(1, MAX_CELLS // cells))
        chunks = [configs[c * n // n_chunks:(c + 1) * n // n_chunks] for c in range(n_chunks)]
        return [outcome for outcomes in self.map(chunks, workers) for outcome in outcomes]


def generate(
    net,
    state0: SimState,
    params: SimParams,
    n_runs: int,
    seed: int,
    workers: int = 1,
    horizon: float = HORIZON_S,
    warmup: float = WARMUP_S,
) -> list[DatasetRow]:
    """Simulate ``n_runs`` random configurations from a shared initial state.

    Rows are ordered by run_id. The configurations run through one
    ``BatchRunner`` call on at most ``workers`` processes: in this process as
    one batched run when the batch is too small to pay for a pool, else in
    chunks over a pool. An error that would fail every row (the checks of
    ``check_protocol``, the start clock among them, or a network without
    signalized intersections) raises before any run starts; a run that raises
    otherwise (a non-finite state, or any other exception) becomes a failed
    row with NaN metrics whose status names the exception, instead of
    stopping the batch. Worker processes and chunking only change wall time,
    never results.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    with BatchRunner(net, state0, params, workers, horizon, warmup) as runner:
        seeds = [child_seed(seed, i) for i in range(n_runs)]
        configs = [sample_config(net, np.random.default_rng(s)) for s in seeds]
        outcomes = runner(configs)
    nan = float("nan")
    return [DatasetRow(i, s, config, nan, nan, f"failed: {outcome}") if isinstance(outcome, str)
            else DatasetRow(i, s, config, outcome.avg_speed, outcome.queue_length, "ok")
            for i, (s, config, outcome) in enumerate(zip(seeds, configs, outcomes))]


def _header(ids) -> list[str]:
    """Columns of a dataset table: run_id, seed, one red/green/offset triple per intersection, both metrics, status."""
    return ["run_id", "seed", *(f"{iid}_{part}" for iid in ids for part in ("red", "green", "offset")),
            *METRICS, "status"]


def _ids(header) -> list[str]:
    return [h[: -len("_red")] for h in header if h.endswith("_red")]


def write_csv(rows: list[DatasetRow], path) -> None:
    """Write a dataset table, intersections in sorted-id order; floats at full precision."""
    if not rows:
        raise ValueError("refusing to write an empty dataset")
    ids = sorted(rows[0].config)
    records = []
    for row in rows:
        if sorted(row.config) != ids:
            raise ValueError(f"run {row.run_id}: configuration covers different intersections")
        timings = [t for iid in ids for t in (row.config[iid].red, row.config[iid].green, row.config[iid].offset)]
        records.append([row.run_id, row.seed, *timings, *(float(getattr(row, m)) for m in METRICS), row.status])
    write_table(_header(ids), records, path)


def read_csv(path) -> list[DatasetRow]:
    """Read a table as write_csv writes it, its intersection ids taken from the _red columns; floats round-trip exactly."""
    header, records = read_table(path, lambda found: _header(_ids(found)))
    ids = _ids(header)
    fields = Fields(path)
    kinds = [int] * (len(header) - 3) + [float, float, str]
    rows = []
    for line_no, cells in records:
        run_id, seed, *timings, avg_speed, queue, status = (
            fields.cell(cell, kind, line_no, column) for cell, kind, column in zip(cells, kinds, header))
        with naming(f"{path}: line {line_no}"):
            config = {iid: IntersectionSignal(*timings[3 * j:3 * j + 3]) for j, iid in enumerate(ids)}
            if status == "ok" and not np.isfinite([avg_speed, queue]).all():
                got = ", ".join(f"{metric}={value}" for metric, value in zip(METRICS, (avg_speed, queue)))
                raise ValueError(f"a row marked ok needs finite metrics, got {got}")
        rows.append(DatasetRow(run_id, seed, config, avg_speed, queue, status))
    return rows


def feature_matrix(rows: list[DatasetRow]):
    """Encoded configurations of the ok rows as an (n, 3K) matrix in [0, 1].

    Returns (X, Y, ids): features, the (n, 2) targets in METRICS order, and
    the intersection-id order defining the columns.
    """
    ok_rows = [r for r in rows if r.ok]
    if not ok_rows:
        raise ValueError("no successful rows in dataset")
    ids = sorted(ok_rows[0].config)
    X = np.stack([encode_values(r.config, ids) for r in ok_rows])
    Y = np.array([[getattr(r, m) for m in METRICS] for r in ok_rows])
    return X, Y, ids
