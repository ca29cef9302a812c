"""Tests for parallel.forked_map's dispatch, with a fake CPU count of 2."""

import os
import time

import pytest

import stochint.parallel
from stochint.parallel import forked_map


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
