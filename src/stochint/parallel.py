"""Work shared with forked worker processes, under one rule for forking.

The workers are forked copies of the calling process: they import nothing,
are sent only small pickled requests through their own pipe, and reply
through another.  forked_map hands out independent tasks; lockstep runs one
step of a loop on every rank at once.  A worker never forks again, so
workers do not nest.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import pickle
import select
import sys
import threading
from contextlib import contextmanager, suppress

import numpy as np

# set in each forked worker, which then runs any forked_map or lockstep in-process
_in_worker = False


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _may_fork(workers: int) -> bool:
    """Whether to fork workers: at least 2, on Linux, outside any worker, and
    while no other Python thread runs, since fork copies only the caller's."""
    return (workers >= 2 and not _in_worker and sys.platform == "linux"
            and threading.active_count() == 1)


@functools.cache
def _openblas():
    """numpy's bundled 64-bit-integer OpenBLAS, found in this process's memory
    map; None off Linux or with any other BLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            path = next(line.split()[-1] for line in maps
                        if "libscipy_openblas64_" in line)
    except (OSError, StopIteration):
        return None
    lib = ctypes.CDLL(path)
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


@contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, then restore the caller's count: a
    solve's last bits depend on it.  The count is process-wide, so nothing is
    pinned while another Python thread runs."""
    lib = _openblas() if threading.active_count() == 1 else None
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


@_one_blas_thread()
def forked_map(func, items) -> list:
    """[func(item) for item in items], computed by forked worker processes.

    One worker per usable CPU, at most one per item.  Item indices are
    handed out in order, one at a time, each to the first worker free: a
    worker gets the next index as soon as it sends back the result of its
    last item, or the exception it raised, through its own pipe.  After a
    failure no further index is handed out; every earlier item was already
    handed out, so the first exception in item order is raised here.  Every
    worker has exited and been reaped when this returns or raises.

    The items are computed in this process inside a worker, with one usable
    CPU, off Linux, or while another Python thread runs: fork copies only
    the calling thread.  On both paths they run on one OpenBLAS thread.
    """
    items = list(items)
    count = min(usable_cpus(), len(items))
    if not _may_fork(count):
        return [func(item) for item in items]
    busy = {}  # result pipe -> (worker pid, index of the item it computes)
    results, failures = [None] * len(items), {}
    with _workers([lambda i: func(items[i])] * count) as workers:
        next_item = 0
        while True:
            for pid, indices, pipe in workers:
                if pipe not in busy and next_item < len(items) and not failures:
                    _send(indices, next_item)
                    busy[pipe], next_item = (pid, next_item), next_item + 1
            if not busy:
                break
            for pipe in select.select(list(busy), [], [])[0]:
                pid, i = busy.pop(pipe)
                failed, value = _receive(pid, pipe)
                if failed:
                    failures[i] = value
                else:
                    results[i] = value
    if failures:
        raise failures[min(failures)]
    return results


@contextmanager
def lockstep(step, tasks: int):
    """Yield run(arg), which calls step(block, arg) for each rank's block of
    range(tasks) and returns once all have returned: one barrier per run.

    One rank per usable CPU, at most one per task, each with a contiguous
    block.  Rank 0 runs here and the others in workers forked on entry, which
    share results through shared_zeros arrays made before it.  Where
    forked_map would not fork, every block runs here, in rank order.  run
    raises the lowest failing rank's exception, or a dead worker's error; on
    exit every worker's pipes are closed, which ends it, and it is reaped.
    """
    ranks = min(usable_cpus(), tasks)
    blocks = [range(r * tasks // ranks, (r + 1) * tasks // ranks) for r in range(ranks)]
    if not _may_fork(ranks):
        yield lambda arg: [step(block, arg) for block in blocks]
        return
    with _workers([functools.partial(step, block) for block in blocks[1:]]) as workers:
        def run(arg):
            for _, requests, _ in workers:
                _send(requests, arg)
            step(blocks[0], arg)
            for pid, _, replies in workers:
                failed, value = _receive(pid, replies)
                if failed:
                    raise value
        yield run


def shared_zeros(shape) -> np.ndarray:
    """Float zeros in anonymous shared memory, seen by workers forked later."""
    return np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape))), float).reshape(shape)


@contextmanager
def _workers(tasks):
    """Yield the (pid, request pipe, reply pipe) of a worker forked to serve
    each task (see _serve), which first closes its copies of the earlier
    workers' pipes.  On exit, close each worker's pipes, which ends it after
    its current request, and reap it."""
    workers = []
    try:
        for task in tasks:
            request_read, request_write = os.pipe()
            reply_read, reply_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(request_write)
                os.close(reply_read)
                for _, *pipes in workers:
                    for pipe in pipes:
                        pipe.close()
                _serve(task, request_read, reply_write)
            os.close(request_read)
            os.close(reply_write)
            workers.append((pid, os.fdopen(request_write, "wb"),
                            os.fdopen(reply_read, "rb")))
        yield workers
    finally:
        for pid, requests, replies in workers:
            with suppress(OSError):  # flushing a request to a dead worker
                requests.close()
            replies.close()
            os.waitpid(pid, 0)


def _send(pipe, message) -> None:
    pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _receive(pid: int, pipe) -> tuple:
    """The (failed, value) reply that worker pid pickled to pipe."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"worker process {pid} ended without a result") from None


def _serve(task, request_fd: int, reply_fd: int) -> None:
    """For each request unpickled from request_fd, pickle (failed, task(request)
    or its exception) to reply_fd, until request_fd is closed; then end the
    process.  Runs in a forked worker and never returns."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        with os.fdopen(request_fd, "rb") as requests, \
                os.fdopen(reply_fd, "wb") as replies:
            while requests.peek(1):
                try:
                    reply = (False, task(pickle.load(requests)))
                except Exception as err:
                    reply = (True, err)
                _send(replies, reply)
        status = 0
    finally:
        os._exit(status)
