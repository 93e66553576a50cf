"""One runner for independent, deterministic tasks over worker processes.

``run(fn, context, tasks, workers)`` is ``[fn(context, task) for task in
tasks]``. The context (the data every task reads) reaches each worker once,
through the pool's initializer, rather than pickled into every task. Workers
use the platform's default start method (fork on Linux up to Python 3.13);
a fork pool forks all its workers before it starts its manager thread. Never run a pool
while a module is being imported (a forked worker would wait on the import
lock), and pass a module-level ``fn``, never a closure.
"""
from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

_job = None  # (fn, context) of the pool this worker process serves; set only in workers


def _serve(fn, context) -> None:
    global _job
    _job = (fn, context)


def _call(task):
    fn, context = _job
    return fn(context, task)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def forked_cpus() -> int:
    """Workers worth starting for tasks of tens of milliseconds: the usable CPUs where workers fork, else 1.

    A worker that does not fork (spawn, or forkserver, the Linux default from
    Python 3.14) imports numpy and macrosim again, at 0.1-0.2 s each, which is
    about what a pool of such short tasks saves.
    """
    return usable_cpus() if multiprocessing.get_start_method() == "fork" else 1


def run(fn, context, tasks: list, workers: int) -> list:
    """``fn(context, task)`` of every task, in task order, on at most ``workers`` processes.

    With one worker or one task the tasks run in the calling process. A
    task's exception is raised here once the pool has shut down, so no worker
    outlives the call.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(context, task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_serve, initargs=(fn, context)) as pool:
        return list(pool.map(_call, tasks))
