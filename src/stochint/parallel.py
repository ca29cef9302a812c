"""Independent tasks computed by forked worker processes.

The workers are forked copies of the calling process: they need no inputs
sent and import nothing, and each sends its results back through its own
pipe.  A worker never forks again, so workers do not nest.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

# set in each forked worker, which then computes any forked_map in-process
_in_worker = False


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def forked_map(func, items) -> list:
    """[func(item) for item in items], computed by forked worker processes.

    One worker per usable CPU, at most one per item; worker w computes items
    w, w + workers, ... and sends back each result, or the exception it
    raised, through its own pipe.  The first exception in item order is
    raised here.  Every worker has exited and been reaped when this returns
    or raises.

    The items are computed in this process inside a worker, with one usable
    CPU, off Linux, or while another Python thread runs: fork copies only
    the calling thread.  OpenBLAS stops its own threads at fork, which was
    checked on Linux only.
    """
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if (_in_worker or workers < 2 or sys.platform != "linux"
            or threading.active_count() > 1):
        return [func(item) for item in items]
    children = []
    results = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                for _, pipe in children:
                    pipe.close()
                _send_results(func, items[w::workers], write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        for i in range(len(items)):
            pid, pipe = children[i % workers]
            try:
                failed, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pid} ended without a result") from None
            if failed:
                raise value
            results.append(value)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return results


def _send_results(func, items, write_fd: int) -> None:
    """Pickle (failed, func(item) or its exception) for each item to write_fd,
    then end the process; runs in a forked worker and never returns."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            for item in items:
                try:
                    reply = (False, func(item))
                except Exception as err:
                    reply = (True, err)
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
