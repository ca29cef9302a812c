"""The array-based genetic search against a frozen per-individual reference.

The reference below is the search as it was first written: one validated
vector per individual, the doubly-robust terms rebuilt for every fitness
call, and the operators applied one pair at a time.  It is kept here only to
pin the search's output bit for bit; nothing in the package uses it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stochint.effects import m_term, stochastic_propensity
from stochint import genetic
from stochint.genetic import (
    GaConfig,
    _crossover_rows,
    _mutate_into,
    optimize_records,
)

from conftest import oracle_records


def reference_fitness(deltas, records):
    p = records.p_hat
    q = stochastic_propensity(p, deltas)
    m1 = m_term(records.treatments, records.outcomes, records.mu1, p, 1)
    m0 = m_term(records.treatments, records.outcomes, records.mu0, p, 0)
    return float(np.sum(q * m1 + (1.0 - q) * m0))


def reference_crossover(a, b, cfg, rng):
    n = a.shape[0]
    lo, hi = cfg.bounds
    apply_mask = rng.random(n) < cfg.crossover_rate
    u = rng.random(n)
    exponent = 1.0 / (cfg.sbx_eta + 1.0)
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** exponent,
                    (1.0 / (2.0 * (1.0 - u))) ** exponent)
    c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    return (np.clip(np.where(apply_mask, c1, a), lo, hi),
            np.clip(np.where(apply_mask, c2, b), lo, hi))


def reference_mutate(x, cfg, rng):
    lo, hi = cfg.bounds
    mask = rng.random(x.shape[0]) < cfg.mutation_rate
    redraw = rng.uniform(lo, hi, x.shape[0])
    return np.where(mask, redraw, x)


def reference_search(records, cfg, extra_draw=False):
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.bounds
    m = cfg.population_size
    draws = rng.normal(cfg.init_mean, cfg.init_std, (m, records.n))
    population = [np.clip(row, lo, hi) for row in draws]
    best_hist, mean_hist = [], []
    for gen in range(cfg.generations):
        fits = np.array([reference_fitness(ind, records) for ind in population])
        order = np.argsort(-fits, kind="stable")
        best = population[int(order[0])]
        best_hist.append(fits[order[0]])
        mean_hist.append(fits.mean())
        if gen == cfg.generations - 1:
            break
        elites = [population[int(i)] for i in order[:cfg.elitism_count]]
        parents = []
        for _ in range(m):
            entrants = rng.integers(0, m, size=cfg.tournament_size)
            parents.append(population[int(entrants[int(np.argmax(fits[entrants]))])])
        if extra_draw:
            rng.integers(0, 2)
        children = []
        for i in range(0, m, 2):
            c1, c2 = reference_crossover(parents[i], parents[i + 1], cfg, rng)
            children.append(reference_mutate(c1, cfg, rng))
            children.append(reference_mutate(c2, cfg, rng))
        population = elites + children[: m - cfg.elitism_count]
    return best, np.array(best_hist), np.array(mean_hist)


rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def search_settings(draw):
    population = draw(st.sampled_from([4, 6, 8, 10]))
    lo = draw(st.sampled_from([0.0, 0.3, 0.8]))
    cfg = GaConfig(
        population_size=population,
        generations=draw(st.integers(1, 6)),
        crossover_rate=draw(rates),
        mutation_rate=draw(rates),
        elitism_count=draw(st.integers(0, 3)),
        tournament_size=draw(st.integers(2, population)),
        sbx_eta=draw(st.sampled_from([1.0, 2.5, 15.0])),
        # normal(1, 1) draws fall outside [lo, hi] on both sides
        bounds=(lo, lo + draw(st.sampled_from([0.9, 2.0, 10.0]))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return cfg, draw(st.integers(1, 24))


@settings(max_examples=150, deadline=None, database=None)
@given(setting=search_settings(), records_seed=st.integers(0, 1000))
def test_array_search_matches_per_individual_reference(setting, records_seed):
    cfg, n = setting
    records = oracle_records(n, seed=records_seed, gap_lo=-1.0, gap_hi=1.0)
    best, trace = optimize_records(records, cfg)
    ref_best, ref_best_hist, ref_mean_hist = reference_search(records, cfg)
    assert np.array_equal(best, ref_best)
    assert np.array_equal(trace.best_fitness, ref_best_hist)
    assert np.array_equal(trace.mean_fitness, ref_mean_hist)


@settings(max_examples=100, deadline=None, database=None)
@given(setting=search_settings(), seed=st.integers(0, 2**32 - 1))
def test_public_operators_match_reference(setting, seed):
    # the search's row operators, fed the draws the search makes for one pair
    cfg, n = setting
    lo, hi = cfg.bounds
    a, b = np.random.default_rng(seed).uniform(lo, hi, (2, n))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    c1, c2 = _crossover_rows(a, b, rng.random((2, n)), cfg)
    r1, r2 = reference_crossover(a, b, cfg, ref_rng)
    assert np.array_equal(c1, r1) and np.array_equal(c2, r2)
    _mutate_into(c1, rng.random((2, n)), cfg)
    assert np.array_equal(c1, reference_mutate(r1, cfg, ref_rng))
    assert rng.random() == ref_rng.random()


def test_long_searches_match_reference_for_each_elitism():
    # an even population with elitism 0..3 breeds an even and an odd number
    # of rows, so the last pair's children are kept whole, halved or dropped
    records = oracle_records(40, seed=3, gap_lo=-1.0, gap_hi=1.0)
    for elitism in range(4):
        cfg = GaConfig(population_size=10, generations=30, elitism_count=elitism,
                       mutation_rate=0.2, bounds=(0.2, 4.0), seed=elitism)
        best, trace = optimize_records(records, cfg)
        ref_best, ref_best_hist, ref_mean_hist = reference_search(records, cfg)
        assert np.array_equal(best, ref_best)
        assert np.array_equal(trace.best_fitness, ref_best_hist)
        assert np.array_equal(trace.mean_fitness, ref_mean_hist)


def test_buffered_half_of_an_odd_tournament_draw_matches_reference(monkeypatch):
    # an even population draws an even number of 32-bit values in its
    # tournaments, so none is left buffered; one more draw per generation
    # leaves one, which _skip_doubles must carry past the children's doubles
    real_tournament, buffered = genetic._tournament, []

    def odd_tournament(fits, size, rng):
        winners = real_tournament(fits, size, rng)
        rng.integers(0, 2)
        buffered.append(rng.bit_generator.state["has_uint32"])
        return winners

    monkeypatch.setattr(genetic, "_tournament", odd_tournament)
    records = oracle_records(30, seed=5, gap_lo=-1.0, gap_hi=1.0)
    cfg = GaConfig(population_size=10, generations=20, mutation_rate=0.2,
                   bounds=(0.2, 4.0), seed=7)
    ref_best, ref_best_hist, ref_mean_hist = reference_search(records, cfg,
                                                              extra_draw=True)
    best, trace = optimize_records(records, cfg)
    assert any(buffered)
    assert np.array_equal(best, ref_best)
    assert np.array_equal(trace.best_fitness, ref_best_hist)
    assert np.array_equal(trace.mean_fitness, ref_mean_hist)
    # advance() alone drops the buffered half, and the searches part
    monkeypatch.setattr(genetic, "_skip_doubles",
                        lambda rng, count: rng.bit_generator.advance(count))
    best, trace = optimize_records(records, cfg)
    assert not np.array_equal(trace.mean_fitness, ref_mean_hist)
