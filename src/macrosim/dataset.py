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
from .signals import IntersectionSignal, encode_values, sample_config
from .solver import HORIZON_S, WARMUP_S, SimParams, SimState, check_protocol, run


class DatasetError(Exception):
    """Raised for malformed dataset files."""


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


CHUNK_CELLS = 8000  # cells one batched run simulates at most, unless one row alone is larger


def _run_chunk(context, jobs) -> list[DatasetRow]:
    """Rows of a contiguous chunk of jobs, simulated as one batched run.

    ``context`` is (net, state0, params, horizon, warmup). If the batched run
    raises, the chunk is redone row by row, so only a bad row fails.
    """
    net, state0, params, horizon, warmup = context
    configs = [sample_config(net, np.random.default_rng(seed)) for _, seed in jobs]
    try:
        results = run(net, state0, configs, params, horizon=horizon, warmup=warmup)
        outcomes = [(r.metrics.avg_speed, r.metrics.queue_length, "ok") for r in results]
    except Exception as exc:  # one bad row must not take the batch down with it
        if len(jobs) > 1:
            return [row for job in jobs for row in _run_chunk(context, [job])]
        diagnostic = " ".join(f"{type(exc).__name__}: {exc}".split())
        outcomes = [(float("nan"), float("nan"), f"failed: {diagnostic}")]
    return [DatasetRow(run_id, seed, config, *outcome)
            for (run_id, seed), config, outcome in zip(jobs, configs, outcomes)]


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

    Rows are ordered by run_id. The runs are split into contiguous chunks,
    at least one per worker and at most max(1, CHUNK_CELLS // net.total_cells)
    rows each, and every chunk is simulated as one batched run. An error
    that would fail every row (the checks of ``check_protocol``) raises before
    any run starts; a run that raises otherwise (a non-finite state, or any
    other exception) becomes a failed row with NaN metrics whose status names
    the exception, instead of stopping the batch. Worker processes and
    chunking only change wall time, never results.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if not net.signalized_ids():
        raise ValueError("network has no signalized intersections; nothing to vary")
    check_protocol(net, params, horizon, warmup)

    jobs = [(i, child_seed(seed, i)) for i in range(n_runs)]
    n_chunks = max(min(workers, n_runs), -(-n_runs // max(1, CHUNK_CELLS // net.total_cells)))
    chunks = [jobs[c * n_runs // n_chunks:(c + 1) * n_runs // n_chunks] for c in range(n_chunks)]
    context = (net, state0, params, horizon, warmup)
    return [row for rows in _pool.run(_run_chunk, context, chunks, workers) for row in rows]


def _header(ids) -> list[str]:
    """Columns of a dataset table: run_id, seed, one red/green/offset triple per intersection, both metrics, status."""
    return ["run_id", "seed", *(f"{iid}_{part}" for iid in ids for part in ("red", "green", "offset")),
            "avg_speed", "queue_length", "status"]


def _ids(header) -> list[str]:
    return [h[: -len("_red")] for h in header if h.endswith("_red")]


def write_csv(rows: list[DatasetRow], path) -> None:
    """Write a dataset table, intersections in sorted-id order; floats at full precision."""
    if not rows:
        raise DatasetError("refusing to write an empty dataset")
    ids = sorted(rows[0].config)
    records = []
    for row in rows:
        if sorted(row.config) != ids:
            raise DatasetError(f"run {row.run_id}: configuration covers different intersections")
        timings = [t for iid in ids for t in (row.config[iid].red, row.config[iid].green, row.config[iid].offset)]
        records.append([row.run_id, row.seed, *timings, float(row.avg_speed), float(row.queue_length), row.status])
    write_table(_header(ids), records, path)


def read_csv(path) -> list[DatasetRow]:
    """Read a table as write_csv writes it, its intersection ids taken from the _red columns; floats round-trip exactly."""
    header, records = read_table(path, lambda found: _header(_ids(found)), DatasetError)
    ids = _ids(header)
    fields = Fields(path, DatasetError)
    kinds = [int] * (len(header) - 3) + [float, float, str]
    rows = []
    for line_no, cells in records:
        run_id, seed, *timings, avg_speed, queue, status = (
            fields.cell(cell, kind, line_no, column) for cell, kind, column in zip(cells, kinds, header))
        with naming(f"{path}: line {line_no}", DatasetError):
            config = {iid: IntersectionSignal(*timings[3 * j:3 * j + 3]) for j, iid in enumerate(ids)}
            if status == "ok" and not np.isfinite([avg_speed, queue]).all():
                raise DatasetError(f"a row marked ok needs finite metrics, got avg_speed={avg_speed}, "
                                   f"queue_length={queue}")
        rows.append(DatasetRow(run_id, seed, config, avg_speed, queue, status))
    return rows


def feature_matrix(rows: list[DatasetRow]):
    """Encoded configurations of the ok rows as an (n, 3K) matrix in [0, 1].

    Returns (X, Y, ids): features, the (n, 2) [avg_speed, queue_length]
    targets, and the intersection-id order defining the columns.
    """
    ok_rows = [r for r in rows if r.ok]
    if not ok_rows:
        raise DatasetError("no successful rows in dataset")
    ids = sorted(ok_rows[0].config)
    X = np.stack([encode_values(r.config, ids) for r in ok_rows])
    Y = np.array([[r.avg_speed, r.queue_length] for r in ok_rows])
    return X, Y, ids
