"""Independent tasks computed by forked worker processes.

The workers are forked copies of the calling process: they import nothing
and are sent only item indices, and each sends its results back through its
own pipe.  A worker never forks again, so workers do not nest.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import select
import sys
import threading
from contextlib import contextmanager

# set in each forked worker, which then computes any forked_map in-process
_in_worker = False


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    workers = min(usable_cpus(), len(items))
    if (_in_worker or workers < 2 or sys.platform != "linux"
            or threading.active_count() > 1):
        return [func(item) for item in items]
    children = {}  # result pipe -> (worker pid, write end of its index pipe)
    busy = {}  # result pipe -> index of the item its worker computes
    results, failures = [None] * len(items), {}
    try:
        for _ in range(workers):
            index_read, index_write = os.pipe()
            result_read, result_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(index_write)
                os.close(result_read)
                for pipe, (_, fd) in children.items():
                    pipe.close()
                    os.close(fd)
                _send_results(func, items, index_read, result_write)
            os.close(index_read)
            os.close(result_write)
            children[os.fdopen(result_read, "rb")] = (pid, index_write)
        next_item = 0
        while True:
            for pipe, (_, fd) in children.items():
                if pipe not in busy and next_item < len(items) and not failures:
                    os.write(fd, next_item.to_bytes(8, "little"))
                    busy[pipe], next_item = next_item, next_item + 1
            if not busy:
                break
            for pipe in select.select(list(busy), [], [])[0]:
                i = busy.pop(pipe)
                try:
                    failed, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"worker process {children[pipe][0]} "
                                       "ended without a result") from None
                if failed:
                    failures[i] = value
                else:
                    results[i] = value
    finally:
        for pipe, (pid, fd) in children.items():
            os.close(fd)
            pipe.close()
            os.waitpid(pid, 0)
    if failures:
        raise failures[min(failures)]
    return results


def _send_results(func, items, index_fd: int, result_fd: int) -> None:
    """For each item index read from index_fd, pickle (failed, func(item) or
    its exception) to result_fd, until index_fd is closed; then end the
    process.  Runs in a forked worker and never returns."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        with os.fdopen(result_fd, "wb") as pipe:
            while index := os.read(index_fd, 8):
                try:
                    reply = (False, func(items[int.from_bytes(index, "little")]))
                except Exception as err:
                    reply = (True, err)
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)
