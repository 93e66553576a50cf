import math
import re

import numpy as np
import pytest

from macrosim import _pool, dataset
from macrosim.dataset import (
    DatasetRow,
    child_seed,
    feature_matrix,
    generate,
    read_csv,
    write_csv,
)
from macrosim.signals import IntersectionSignal, sample_config
from macrosim.solver import CflError, SimParams, SimulationError, initialize, run


def _cross_state(cross_net):
    params = SimParams(seed=2)
    return initialize(cross_net, {}, params, default_speed=8.0), params


def test_child_seed_is_stable_and_spread():
    # frozen: hashing must never change, or datasets stop being reproducible
    assert child_seed(2024, 0) == child_seed(2024, 0)
    seeds = [child_seed(2024, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert child_seed(2024, 1) != child_seed(2025, 1)
    assert all(0 <= s < 2**64 for s in seeds)


def test_rows_are_reproducible_row_by_row(cross_net):
    state0, params = _cross_state(cross_net)
    rows = generate(cross_net, state0, params, n_runs=4, seed=77, horizon=30.0, warmup=10.0)
    assert [r.run_id for r in rows] == [0, 1, 2, 3]

    # any single row can be regenerated from its own seed alone
    rng = np.random.default_rng(rows[2].seed)
    assert sample_config(cross_net, rng) == rows[2].config

    again = generate(cross_net, state0, params, n_runs=4, seed=77, horizon=30.0, warmup=10.0)
    assert again == rows


def test_worker_count_does_not_change_results(cross_net):
    state0, params = _cross_state(cross_net)
    serial = generate(cross_net, state0, params, n_runs=6, seed=5, horizon=20.0, warmup=5.0)
    parallel = generate(cross_net, state0, params, n_runs=6, seed=5, workers=3, horizon=20.0, warmup=5.0)
    assert serial == parallel


def test_configs_vary_between_rows(cross_net):
    state0, params = _cross_state(cross_net)
    rows = generate(cross_net, state0, params, n_runs=8, seed=0, horizon=20.0, warmup=5.0)
    assert len({tuple(sorted((k, v.red, v.green, v.offset) for k, v in r.config.items())) for r in rows}) > 1
    for r in rows:
        assert r.ok
        assert math.isfinite(r.avg_speed) and math.isfinite(r.queue_length)


@pytest.mark.parametrize("case, wanted", [
    ("no runs", "n_runs must be >= 1"),
    ("no workers", "workers must be >= 1"),
    ("a runner of no workers", "workers must be >= 1"),
    ("a pool map on no workers", "workers must be >= 1"),
    ("nothing to vary", "network has no signalized intersections; nothing to vary"),
])
def test_generate_input_validation(cross_net, ring_net, case, wanted):
    state0, params = _cross_state(cross_net)
    ring_state = initialize(ring_net, {}, params, default_speed=6.0)
    call = {
        "no runs": lambda: generate(cross_net, state0, params, n_runs=0, seed=0),
        "no workers": lambda: generate(cross_net, state0, params, n_runs=1, seed=0, workers=0),
        "a runner of no workers": lambda: dataset.BatchRunner(cross_net, state0, params, workers=0),
        "a pool map on no workers": lambda: _pool.Pool(max, 0).map([1, 2], 0),
        "nothing to vary": lambda: generate(ring_net, ring_state, params, n_runs=1, seed=0),
    }[case]
    with pytest.raises(ValueError, match=f"^{re.escape(wanted)}$"):
        call()


def _toy_rows():
    cfg_a = {"J1": IntersectionSignal(30, 25, 12), "J2": IntersectionSignal(20, 54, 0)}
    cfg_b = {"J1": IntersectionSignal(54, 20, 73), "J2": IntersectionSignal(40, 40, 79)}
    return [
        DatasetRow(0, 111, cfg_a, 6.25, 40.5, "ok"),
        DatasetRow(1, 222, cfg_b, float("nan"), float("nan"), "failed: non-finite state on edge a cell 1 at step 3 (t=1.5 s)"),
        DatasetRow(2, 333, cfg_a, 7.0625, 33.25, "ok"),
    ]


def test_csv_round_trip_preserves_everything(tmp_path):
    rows = _toy_rows()
    path = tmp_path / "data.csv"
    write_csv(rows, path)

    header = path.read_text().splitlines()[0]
    assert header == "run_id,seed,J1_red,J1_green,J1_offset,J2_red,J2_green,J2_offset,avg_speed,queue_length,status"

    back = read_csv(path)
    assert len(back) == 3
    for orig, rt in zip(rows, back):
        assert rt.run_id == orig.run_id
        assert rt.seed == orig.seed
        assert rt.config == orig.config
        assert rt.status == orig.status
    # full-precision floats survive exactly; NaN stays NaN
    assert back[0].avg_speed == 6.25 and back[2].queue_length == 33.25
    assert math.isnan(back[1].avg_speed)
    assert not back[1].ok and back[0].ok


def test_write_csv_rejects_empty_and_mismatched(tmp_path):
    with pytest.raises(ValueError, match="^refusing to write an empty dataset$"):
        write_csv([], tmp_path / "x.csv")
    rows = _toy_rows()
    rows[1] = DatasetRow(1, 222, {"J9": IntersectionSignal(20, 20, 0)}, 1.0, 1.0, "ok")
    with pytest.raises(ValueError, match="different intersections"):
        write_csv(rows, tmp_path / "x.csv")


def test_read_csv_names_missing_columns(tmp_path):
    # the header must be exactly the one write_csv writes for the intersections of its _red columns
    path = tmp_path / "bad.csv"
    path.write_text("run_id,seed,J1_red,J1_green,J1_offset,avg_speed,status\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected header .*queue_length"):
        read_csv(path)

    path.write_text("seed,run_id,J1_red,J1_green,J1_offset,avg_speed,queue_length,status\n")
    with pytest.raises(ValueError, match="expected header run_id,seed,J1_red,J1_green,J1_offset,avg_speed,"):
        read_csv(path)

    path.write_text("")
    with pytest.raises(ValueError, match="got an empty file$"):
        read_csv(path)

    path.write_text("run_id,seed,J1_red,J1_offset,avg_speed,queue_length,status\n")
    with pytest.raises(ValueError, match="J1_green"):
        read_csv(path)

    path.write_text("run_id,seed,J1_red,J1_green,J1_offset,bogus,avg_speed,queue_length,status\n")
    with pytest.raises(ValueError, match="bogus"):
        read_csv(path)


def test_read_csv_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "run_id,seed,J1_red,J1_green,J1_offset,avg_speed,queue_length,status\n"
        "0,1,30,25,12,6.25,40.5,ok\n"
        "1,2,thirty,25,12,6.25,40.5,ok\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        read_csv(path)


@pytest.mark.parametrize("speed,queue", [("nan", "40.5"), ("inf", "40.5"), ("6.25", "-inf"), ("6.25", "nan")])
def test_read_csv_refuses_non_finite_metrics_in_ok_rows(tmp_path, speed, queue):
    # a failed row keeps its NaN metrics; an ok row must carry finite ones, or the best row is arbitrary
    path = tmp_path / "bad.csv"
    header = "run_id,seed,J1_red,J1_green,J1_offset,avg_speed,queue_length,status\n"
    path.write_text(header + f"0,1,30,25,12,{speed},{queue},ok\n1,2,30,25,12,nan,nan,failed: boom\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: a row marked ok needs finite metrics"):
        read_csv(path)
    path.write_text(header + f"0,1,30,25,12,{speed},{queue},failed: boom\n")
    assert not read_csv(path)[0].ok


def test_failed_rows_recorded_not_raised(cross_net, monkeypatch):
    """A run that blows up becomes a failed row; the batch keeps going."""
    state0, params = _cross_state(cross_net)

    def blow_up(*args, **kwargs):
        raise SimulationError("non-finite state on edge n_in cell 1\n  at step 3")

    monkeypatch.setattr(dataset, "run", blow_up)
    rows = generate(cross_net, state0, params, n_runs=3, seed=1, horizon=20.0, warmup=5.0)
    assert len(rows) == 3
    assert all(not r.ok for r in rows)
    for r in rows:
        assert r.status.startswith("failed: ")
        assert "\n" not in r.status
        assert math.isnan(r.avg_speed) and math.isnan(r.queue_length)


@pytest.mark.parametrize("dt, horizon, error, wanted", [
    (1.0, 20.0, CflError, "stability condition"),
    (0.5, -1.0, ValueError, "horizon must be finite and > 0"),
    (0.5, float("inf"), ValueError, "horizon must be finite and > 0"),
])
def test_errors_of_every_row_raise_before_any_run(cross_net, monkeypatch, dt, horizon, error, wanted):
    """A bad time step or horizon would fail every row alike, so it stops the batch up front."""
    state0, _ = _cross_state(cross_net)
    runs = []
    monkeypatch.setattr(dataset, "run", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(error, match=wanted):
        generate(cross_net, state0, SimParams(seed=2, dt_s=dt), n_runs=3, seed=1, workers=2, horizon=horizon, warmup=5.0)
    assert runs == []


def test_one_bad_job_does_not_kill_the_batch(cross_net, monkeypatch):
    """Any exception from one row becomes that row's failure; the rest are untouched."""
    state0, params = _cross_state(cross_net)
    clean = generate(cross_net, state0, params, n_runs=5, seed=5, horizon=20.0, warmup=5.0)
    bad_config = clean[2].config
    assert sum(r.config == bad_config for r in clean) == 1
    real_run = dataset.run

    def flaky_run(net, s0, configs, *args, **kwargs):
        if bad_config in configs:
            raise ZeroDivisionError("float division by zero\n  while averaging")
        return real_run(net, s0, configs, *args, **kwargs)

    monkeypatch.setattr(dataset, "run", flaky_run)
    rows = generate(cross_net, state0, params, n_runs=5, seed=5, workers=1, horizon=20.0, warmup=5.0)
    assert [r.run_id for r in rows] == [0, 1, 2, 3, 4]
    bad = rows[2]
    assert bad.status == "failed: ZeroDivisionError: float division by zero while averaging"
    assert (bad.run_id, bad.seed, bad.config) == (2, clean[2].seed, bad_config)
    assert math.isnan(bad.avg_speed) and math.isnan(bad.queue_length)
    assert rows[:2] + rows[3:] == clean[:2] + clean[3:]


def _count_pools(monkeypatch) -> list:
    """The max_workers of every process pool started from here on."""
    started = []

    class Pool(_pool.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(_pool, "ProcessPoolExecutor", Pool)
    return started


def test_runner_without_start_state_refuses_to_run(twolights_net, monkeypatch):
    """Built with state0 None, as a surrogate-only optimize checks its protocol, a runner runs no list it is given."""
    started, runs = _count_pools(monkeypatch), []
    monkeypatch.setattr(dataset, "run", lambda *args, **kwargs: runs.append(args))
    monkeypatch.setattr(dataset, "WORKER_CELLS", 0)  # a list of more than one row would go to the pool
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    configs = [sample_config(twolights_net, np.random.default_rng(s)) for s in range(4)]
    with dataset.BatchRunner(twolights_net, None, SimParams(), workers=2, horizon=5.0, warmup=0.0) as runner:
        with pytest.raises(ValueError, match=r"^a BatchRunner without a start state \(state0 None\) checks its "
                                             r"protocol but runs nothing$"):
            runner(configs)
    assert runs == [] and started == []


@pytest.mark.parametrize("chunk_rows", [64, 4, 1])
def test_rows_do_not_depend_on_chunks_or_workers(cross_net, monkeypatch, chunk_rows):
    """Every row equals the unbatched run of its own configuration, for any cell budget and worker count."""
    state0, params = _cross_state(cross_net)
    cells, n_runs = cross_net.total_cells, chunk_rows + 3 if chunk_rows > 4 else 11
    real_map, maps = _pool.Pool.map, []
    monkeypatch.setattr(_pool.Pool, "map", lambda pool, tasks, workers: maps.append(([len(t) for t in tasks], workers))
                        or real_map(pool, tasks, workers))
    monkeypatch.setattr(dataset, "WORKER_CELLS", 0)  # every batch of more than one row is worth a pool
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 3)
    # the least and the most cells that give chunk_rows rows per chunk; a budget below one row gives one
    budgets = [chunk_rows * cells, (chunk_rows + 1) * cells - 1] + ([cells // 2] if chunk_rows == 1 else [])
    tables = []
    for budget in budgets:
        monkeypatch.setattr(dataset, "CHUNK_CELLS", budget)
        for workers in (1, 2, 3):
            maps.clear()
            tables.append(generate(cross_net, state0, params, n_runs=n_runs, seed=9, workers=workers,
                                   horizon=3.0, warmup=1.0))
            [(chunks, used)] = maps
            if workers == 1:  # one batched run in process, whatever the budget
                assert (chunks, used) == ([n_runs], 1)
            else:  # concurrent chunks keep to the budget, a multiple of the workers of them where rows allow
                assert used == workers and sum(chunks) == n_runs and max(chunks) <= chunk_rows
                assert len(chunks) % workers == 0 or len(chunks) == n_runs
    assert all(table == tables[0] for table in tables)
    for row in tables[0]:
        metrics = run(cross_net, state0, row.config, params, horizon=3.0, warmup=1.0).metrics
        assert (row.avg_speed, row.queue_length, row.status) == (metrics.avg_speed, metrics.queue_length, "ok")


def test_in_process_batches_split_only_above_max_cells(cross_net, monkeypatch):
    state0, params = _cross_state(cross_net)
    whole = generate(cross_net, state0, params, n_runs=7, seed=9, horizon=3.0, warmup=1.0)
    real_run, batches = dataset.run, []
    monkeypatch.setattr(dataset, "run", lambda net, s0, configs, *a, **kw: batches.append(len(configs))
                        or real_run(net, s0, configs, *a, **kw))
    monkeypatch.setattr(dataset, "MAX_CELLS", 3 * cross_net.total_cells)
    assert generate(cross_net, state0, params, n_runs=7, seed=9, horizon=3.0, warmup=1.0) == whole
    assert batches == [2, 2, 3]


def test_small_batch_starts_no_pool(cross_net, monkeypatch):
    """Below WORKER_CELLS cells per worker a batch runs in process as one batched run; at it, on the pool."""
    started = _count_pools(monkeypatch)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    state0, params = _cross_state(cross_net)
    smallest_pooled = -(-2 * dataset.WORKER_CELLS // cross_net.total_cells)
    small = generate(cross_net, state0, params, n_runs=smallest_pooled - 1, seed=3, workers=2, horizon=3.0, warmup=1.0)
    assert started == []
    pooled = generate(cross_net, state0, params, n_runs=smallest_pooled, seed=3, workers=2, horizon=3.0, warmup=1.0)
    assert started == [2]
    assert pooled[:-1] == small


def test_pool_starts_no_more_workers_than_chunks(cross_net, monkeypatch):
    started = _count_pools(monkeypatch)
    monkeypatch.setattr(dataset, "WORKER_CELLS", 0)
    cpus = 8
    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    state0, params = _cross_state(cross_net)
    rows = generate(cross_net, state0, params, n_runs=2, seed=3, workers=8, horizon=3.0, warmup=1.0)
    assert started == [2]
    assert [r.run_id for r in rows] == [0, 1] and all(r.ok for r in rows)
    # nor more than the CPUs this process may use
    cpus = 2
    rows = generate(cross_net, state0, params, n_runs=8, seed=3, workers=8, horizon=3.0, warmup=1.0)
    assert started == [2, 2]
    assert [r.run_id for r in rows] == list(range(8)) and all(r.ok for r in rows)


def test_poisoned_configuration_fails_only_its_own_row(cross_net, monkeypatch):
    """A configuration the solver rejects fails its own row; the rest of its chunk is untouched."""
    state0, params = _cross_state(cross_net)
    clean = generate(cross_net, state0, params, n_runs=5, seed=5, horizon=20.0, warmup=5.0)
    real_sample = dataset.sample_config

    def poisoned_sample(net, rng):
        config = real_sample(net, rng)
        return {} if config == clean[2].config else config

    monkeypatch.setattr(dataset, "sample_config", poisoned_sample)
    rows = generate(cross_net, state0, params, n_runs=5, seed=5, workers=1, horizon=20.0, warmup=5.0)
    assert rows[2].status == "failed: ValueError: signal configuration does not match network: missing ['X']"
    assert (rows[2].run_id, rows[2].seed, rows[2].config) == (2, clean[2].seed, {})
    assert math.isnan(rows[2].avg_speed) and math.isnan(rows[2].queue_length)
    assert rows[:2] + rows[3:] == clean[:2] + clean[3:]


def test_feature_matrix_filters_failed_rows():
    rows = _toy_rows()
    X, Y, ids = feature_matrix(rows)
    assert ids == ["J1", "J2"]
    assert X.shape == (2, 6)
    assert Y.shape == (2, 2)
    assert np.all((X >= 0) & (X <= 1))
    assert Y[0, 0] == 6.25 and Y[1, 1] == 33.25
    # column order: (red, green, offset) per intersection, sorted by id
    assert X[0, 0] == pytest.approx((30 - 20) / 34)
    assert X[0, 5] == pytest.approx(0.0)

    with pytest.raises(ValueError, match="no successful rows"):
        feature_matrix([rows[1]])
