"""Tests for parallel.forked_map: its dispatch, with a fake CPU count of 2,
and its OpenBLAS thread pin."""

import os
import threading
import time

import pytest

import stochint.parallel
from stochint.parallel import _openblas, forked_map


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 2)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no worker is left behind


def wait_for(paths, timeout=30.0):
    """Whether every path exists within timeout seconds."""
    deadline = time.monotonic() + timeout
    while not all(path.exists() for path in paths):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_free_worker_takes_every_next_item(tmp_path, two_cpus):
    # item 0 holds its worker until items 1-3 are done, so the other worker
    # must take all three; dealt round-robin, item 2 would wait behind item 0
    markers = [tmp_path / str(i) for i in range(4)]

    def task(i):
        if i == 0:
            return wait_for(markers[1:]), os.getpid()
        markers[i].touch()
        return True, os.getpid()

    results = forked_map(task, range(4))
    assert [done for done, _ in results] == [True] * 4
    pids = [pid for _, pid in results]
    assert os.getpid() not in pids
    assert pids[0] != pids[1] == pids[2] == pids[3]


def test_first_failure_in_item_order_wins_over_first_in_time(tmp_path, two_cpus):
    failed = tmp_path / "item 2 failed"

    def task(i):
        if i == 0:
            assert wait_for([failed])
            raise ValueError("item 0")
        if i == 2:
            failed.touch()
            raise ValueError("item 2")
        return i

    with pytest.raises(ValueError, match="^item 0$"):
        forked_map(task, range(5))


def test_many_trivial_items_come_back_in_order(two_cpus):
    assert forked_map(lambda i: i * i, range(1000)) == [i * i for i in range(1000)]


def blas_threads(_=None):
    return _openblas().scipy_openblas_get_num_threads64_()


@pytest.mark.skipif(_openblas() is None, reason="numpy has no bundled OpenBLAS here")
def test_tasks_run_on_one_openblas_thread(two_cpus, monkeypatch):
    caller = blas_threads()
    _openblas().scipy_openblas_set_num_threads64_(2)

    def fail(_):
        raise ValueError("task")

    try:
        for cpus in (2, 1):  # the forked path, then the in-process one
            monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: cpus)
            assert forked_map(blas_threads, range(3)) == [1, 1, 1]
            assert blas_threads() == 2
            with pytest.raises(ValueError, match="^task$"):
                forked_map(fail, range(3))
            assert blas_threads() == 2
        # the count is process-wide, so another thread's BLAS work is left be
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert forked_map(blas_threads, range(3)) == [2, 2, 2]
        finally:
            release.set()
            other.join(timeout=60)
    finally:
        _openblas().scipy_openblas_set_num_threads64_(caller)
