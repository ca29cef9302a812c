"""The genetic search bred on 1, 2 and 3 parallel.pool workers: the same
bits as in one process, the per-pair rng substreams it rests on, and its
failures, which end every worker."""

import os
import signal
from types import SimpleNamespace

import numpy as np
import pytest

import stochint.parallel
from stochint.genetic import GaConfig, _skip_doubles, _tournament, optimize_records
from stochint.parallel import forked_map

from conftest import oracle_records


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count; afterwards, no worker may be left."""
    def use(count):
        monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: count)
    # a hang in a failure path fails the test instead of stalling the suite
    previous = signal.signal(signal.SIGALRM, signal.default_int_handler)
    signal.alarm(30)
    try:
        yield use
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def search(records, cfg):
    best, trace = optimize_records(records, cfg)
    return best, trace.best_fitness, trace.mean_fitness


def assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


CONFIGS = [GaConfig(population_size=m, generations=5, elitism_count=elites,
                    mutation_rate=0.2, bounds=(0.2, 4.0), seed=10 * m + elites)
           for m in (4, 6, 8, 10) for elites in range(4)]


def test_ranks_breed_the_bits_of_one_process(cpus):
    # odd pair counts split unevenly, and with odd elitism the last pair's
    # second child falls past the end
    records = oracle_records(9, seed=4, gap_lo=-1.0, gap_hi=1.0)
    cpus(1)
    want = [search(records, cfg) for cfg in CONFIGS]
    for count in (2, 3):
        cpus(count)
        for cfg, expected in zip(CONFIGS, want):
            assert_same(search(records, cfg), expected)


def test_search_inside_a_forked_map_task_runs_in_process(cpus):
    records = oracle_records(9, seed=4, gap_lo=-1.0, gap_hi=1.0)
    cpus(1)
    want = [search(records, cfg) for cfg in CONFIGS]
    cpus(2)
    for got, expected in zip(forked_map(lambda cfg: search(records, cfg), CONFIGS), want):
        assert_same(got, expected)


@pytest.mark.parametrize("n", [1, 5])
def test_advanced_substreams_are_the_serial_pair_draws(n):
    rng = np.random.default_rng(7)
    _tournament(rng.random(5), 3, rng)  # an odd count of 32-bit draws
    assert rng.bit_generator.state["has_uint32"] == 1
    serial = np.random.default_rng()
    serial.bit_generator.state = rng.bit_generator.state
    pairs = [serial.random((6, n)) for _ in range(4)]
    for i, rows in enumerate(pairs):
        pair_rng = np.random.default_rng()
        pair_rng.bit_generator.state = rng.bit_generator.state
        pair_rng.bit_generator.advance(6 * n * i)
        assert np.array_equal(pair_rng.random((6, n)), rows)
    _skip_doubles(rng, 6 * n * len(pairs))
    assert rng.bit_generator.state == serial.bit_generator.state
    assert np.array_equal(rng.integers(0, 5, 5), serial.integers(0, 5, 5))


def fake_records(n, phi):
    return SimpleNamespace(n=n, phi=phi)


MUTANTS = GaConfig(population_size=8, generations=3, elitism_count=3,
                   mutation_rate=1.0, init_std=0.01, bounds=(0.0, 10.0))


def test_non_finite_child_fitness_names_it_with_workers(cpus):
    # the initial rows lie near 1; the redrawn children do not
    records = fake_records(4, lambda d: np.where(d > 2.0, np.nan, d))
    for count in (1, 2, 3):
        cpus(count)
        with pytest.raises(ValueError, match="^individual 3: non-finite fitness value$"):
            optimize_records(records, MUTANTS)


def failing_phi(failure):
    caller = os.getpid()

    def phi(deltas):
        if os.getpid() != caller:
            failure()
        return deltas
    return phi


def test_worker_exception_is_raised_by_the_caller(cpus):
    def fail():
        raise ArithmeticError("in a worker")

    cpus(2)
    with pytest.raises(ArithmeticError, match="^in a worker$"):
        optimize_records(fake_records(4, failing_phi(fail)), MUTANTS)


def test_worker_death_is_raised_by_the_caller(cpus):
    cpus(3)
    with pytest.raises(RuntimeError, match="ended without a result"):
        optimize_records(fake_records(4, failing_phi(
            lambda: os.kill(os.getpid(), signal.SIGKILL))), MUTANTS)
