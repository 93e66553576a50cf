"""One runner for independent, deterministic tasks over worker processes.

``Pool(fn, context)`` is a context manager whose ``map(tasks, workers)`` is
``[fn(context, task) for task in tasks]``, the library's one way to run
independent tasks. The context (the data every task reads) reaches each
worker once, through the pool's initializer, rather than pickled into every
task. A pool starts its workers at the first map that runs on more than one
and keeps them for later maps until the ``with`` block ends, so no worker
outlives it. Workers use the start method the host set, else the platform's
default (fork on Linux up to Python 3.13), which nothing here fixes for the
process; a fork pool forks all its workers before it starts its manager
thread. Never run a pool while a module is being imported (a forked worker
would wait on the import lock), and pass a module-level ``fn``, never a
closure.
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


def _start_method() -> str:
    """The host's start method, else the default (the first of ``get_all_start_methods``), read without fixing it."""
    return multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]


def forked_cpus() -> int:
    """Workers worth starting for tasks of tens of milliseconds: the usable CPUs where workers fork, else 1.

    A worker that does not fork (spawn, or forkserver, the Linux default from
    Python 3.14) imports numpy and macrosim again, at 0.1-0.2 s each, which is
    about what a pool of such short tasks saves.
    """
    return usable_cpus() if _start_method() == "fork" else 1


class Pool:
    """``fn(context, task)`` over lists of tasks, on worker processes that live until the ``with`` block ends."""

    def __init__(self, fn, context):
        self.fn, self.context = fn, context
        self._executor = None

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def map(self, tasks: list, workers: int) -> list:
        """``fn(context, task)`` of every task, in task order, on at most ``workers`` processes.

        With one worker or one task the tasks run in the calling process.
        Otherwise the first such call starts min(workers, len(tasks)) workers,
        and later calls run on those. A task's exception is raised here.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        workers = min(workers, len(tasks))
        if workers <= 1:
            return [self.fn(self.context, task) for task in tasks]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context(_start_method()), initializer=_serve,
                initargs=(self.fn, self.context))
        return list(self._executor.map(_call, tasks))

