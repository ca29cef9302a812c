"""Tests for parallel.forked_map: its dispatch, with a fake CPU count of 2,
and its OpenBLAS thread pin; and for parallel.lockstep's ranks."""

import os
import signal
import threading
import time
from pathlib import Path

import pytest

import stochint.parallel
from stochint.parallel import _openblas, forked_map, lockstep, shared_zeros


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


def record_pids(tasks):
    """A shared array and a step that writes each run's arg and its
    process id at each task of its block."""
    seen = shared_zeros((tasks, 2))

    def step(block, arg):
        seen[block] = arg, os.getpid()
    return seen, step


def test_lockstep_ranks_take_contiguous_blocks(monkeypatch):
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 3)
    seen, step = record_pids(7)
    with lockstep(step, 7) as run:
        for arg in (1, 2):
            run(arg)
            assert (seen[:, 0] == arg).all()  # every rank stepped
    pids = seen[:, 1].astype(int)
    assert pids[0] == pids[1] == os.getpid()
    assert pids[2] == pids[3] != pids[4] == pids[5] == pids[6]
    assert os.getpid() not in pids[2:]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lockstep_runs_in_process_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 3)
    seen, step = record_pids(5)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        with lockstep(step, 5) as run:
            run(1)
    finally:
        release.set()
        other.join(timeout=60)
    assert (seen == (1, os.getpid())).all()


def wait_for_exit(pid, timeout=30.0):
    """Whether process pid is gone, or a zombie, within timeout seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if "\nState:\tZ" in Path(f"/proc/{pid}/status").read_text():
                return True
        except FileNotFoundError:
            return True
        time.sleep(0.01)
    return False


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_lockstep_workers_end_when_their_caller_is_killed(monkeypatch):
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 2)
    seen, step = record_pids(2)
    caller = os.fork()
    if caller == 0:
        try:
            with lockstep(step, 2) as run:
                run(1)
                os.kill(os.getpid(), signal.SIGKILL)
        finally:
            os._exit(1)
    _, status = os.waitpid(caller, 0)
    assert os.WIFSIGNALED(status)
    worker = int(seen[1, 1])
    assert worker not in (0, os.getpid(), caller)
    assert wait_for_exit(worker)

