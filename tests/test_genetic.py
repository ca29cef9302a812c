"""Tests for the genetic optimizer over per-unit intervention strengths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochint.effects
import stochint.parallel
from stochint.data import DgpConfig, generate_ihdp_like
from stochint.effects import (
    NuisanceSpec,
    OutcomeSpec,
    PropensitySpec,
    UnitRecords,
    expected_response_from_records,
)
from stochint.experiments import run_optimization
from stochint.genetic import (
    GaConfig,
    _crossover_rows,
    _mutate_into,
    _tournament,
    optimize_records,
    random_policies,
)
from stochint.nuisance import OutcomeConfig

from conftest import oracle_records


# the search's row operators, each fed the 2 n doubles the search draws for it
def cross_rows(a, b, cfg, rng):
    return _crossover_rows(a, b, rng.random((2, a.shape[0])), cfg)


def mutated_copy(child, cfg, rng):
    out = child.copy()
    _mutate_into(out, rng.random((2, out.shape[0])), cfg)
    return out


# ---------------------------------------------------------------------------
# containers and configuration
# ---------------------------------------------------------------------------


def test_ga_config_validation():
    with pytest.raises(ValueError, match="even"):
        GaConfig(population_size=7)
    with pytest.raises(ValueError, match="even"):
        GaConfig(population_size=2)
    with pytest.raises(ValueError, match="generations"):
        GaConfig(generations=0)
    with pytest.raises(ValueError, match="crossover_rate"):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(ValueError, match="mutation_rate"):
        GaConfig(mutation_rate=-0.1)
    with pytest.raises(ValueError, match="elitism"):
        GaConfig(population_size=4, elitism_count=4)
    with pytest.raises(ValueError, match="tournament"):
        GaConfig(tournament_size=1)
    with pytest.raises(ValueError, match="sbx_eta"):
        GaConfig(sbx_eta=0.0)
    with pytest.raises(ValueError, match="bounds"):
        GaConfig(bounds=(5.0, 5.0))
    for value in (float("nan"), float("inf"), -float("inf")):
        for name in ("sbx_eta", "init_std"):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0$"):
                GaConfig(**{name: value})
        with pytest.raises(ValueError, match="^init_mean must be finite$"):
            GaConfig(init_mean=value)


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------


def handmade_records():
    return UnitRecords(
        treatments=np.array([1, 0]),
        outcomes=np.array([2.0, 1.0]),
        mu0=np.array([0.2, 1.0]),
        mu1=np.array([1.0, 0.5]),
        p_hat=np.array([0.5, 0.5]),
    )


def test_fitness_hand_computed_value():
    records = handmade_records()
    # m1 = (3, 0.5), m0 = (0.2, 1.0); at delta = 1 both q equal 0.5
    # phi = (0.5*3 + 0.5*0.2, 0.5*0.5 + 0.5*1.0) = (1.6, 0.75)
    got = float(np.sum(records.phi(np.array([1.0, 1.0]))))
    assert abs(got - 2.35) <= 1e-12


def test_optimize_records_error_names_individual():
    records = UnitRecords(
        treatments=np.array([1]),
        outcomes=np.array([1e308]),
        mu0=np.array([0.0]),
        mu1=np.array([-1e308]),
        p_hat=np.array([0.5]),
    )
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="individual 0: non-finite"):
        optimize_records(records, GaConfig(population_size=4, generations=1))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def initial_rows(n, cfg):
    return random_policies((cfg.population_size, n), cfg, np.random.default_rng(cfg.seed))


def test_initialize_population_shape_bounds_determinism():
    cfg = GaConfig(population_size=12, seed=3)
    pop_a = initial_rows(25, cfg)
    pop_b = initial_rows(25, cfg)
    assert pop_a.shape == (12, 25)
    assert pop_a.min() >= 0.0 and pop_a.max() <= 10.0
    assert np.array_equal(pop_a, pop_b)
    pop_c = initial_rows(25, GaConfig(population_size=12, seed=4))
    assert not np.array_equal(pop_a[0], pop_c[0])
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        initial_rows(0, cfg)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        random_policies(0, cfg, np.random.default_rng(0))


def test_initialize_population_clamps_at_zero():
    # mean 1, std 1 puts a sizable mass below zero; clamping must hold
    cfg = GaConfig(population_size=50, seed=0)
    stacked = initial_rows(40, cfg)
    assert stacked.min() == 0.0
    assert stacked.max() <= 10.0


@pytest.mark.parametrize("seed", range(20))
def test_initial_rows_drawn_in_place_match_rng_normal(seed):
    # normal(loc, scale) is loc + scale * z on the standard normal stream, so
    # drawing z into the population and scaling it in place changes no bit
    pick = np.random.default_rng(1000 + seed)
    cfg = GaConfig(population_size=6, init_mean=float(pick.uniform(-2.0, 12.0)),
                   init_std=float(pick.uniform(0.01, 5.0)), bounds=(0.0, 10.0), seed=seed)
    n = 7 + seed
    in_place, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    reference.integers(0, 9)  # leaves a buffered 32-bit half in both
    in_place.integers(0, 9)
    out = np.empty((cfg.population_size, n))
    rows = random_policies((cfg.population_size, n), cfg, in_place, out=out)
    expected = np.clip(reference.normal(cfg.init_mean, cfg.init_std,
                                        (cfg.population_size, n)), *cfg.bounds)
    assert rows is out
    assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
    assert in_place.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(in_place.integers(0, 50, size=5), reference.integers(0, 50, size=5))


def test_tournament_prefers_high_fitness():
    rng = np.random.default_rng(5)
    fits = np.arange(10, dtype=float)  # individual 9 dominates
    picked = np.array(_tournament(fits, 3, rng))
    assert len(picked) == 10
    assert picked.mean() > 6.0  # order statistics of best-of-3 from 0..9


def test_sbx_children_preserve_parent_sum():
    cfg = GaConfig(crossover_rate=1.0)
    rng = np.random.default_rng(6)
    parent_rng = np.random.default_rng(7)
    for _ in range(200):
        a = parent_rng.uniform(3.0, 7.0, 8)
        b = parent_rng.uniform(3.0, 7.0, 8)
        c1, c2 = cross_rows(a, b, cfg, rng)
        assert np.allclose(c1 + c2, a + b, atol=1e-9)


def test_sbx_identical_parents_produce_identical_children():
    # identical up to floating-point rounding in the symmetric blend
    cfg = GaConfig(crossover_rate=1.0)
    rng = np.random.default_rng(8)
    a = np.full(6, 4.2)
    c1, c2 = cross_rows(a, a, cfg, rng)
    assert np.allclose(c1, a, rtol=0.0, atol=1e-12)
    assert np.allclose(c2, a, rtol=0.0, atol=1e-12)


def test_crossover_rate_zero_copies_parents():
    cfg = GaConfig(crossover_rate=0.0)
    rng = np.random.default_rng(9)
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    c1, c2 = cross_rows(a, b, cfg, rng)
    assert np.array_equal(c1, a)
    assert np.array_equal(c2, b)


def test_crossover_children_respect_bounds():
    cfg = GaConfig(crossover_rate=1.0, sbx_eta=1.0)
    rng = np.random.default_rng(12)
    a = np.full(30, 0.2)
    b = np.full(30, 9.8)
    for _ in range(50):
        c1, c2 = cross_rows(a, b, cfg, rng)
        for c in (c1, c2):
            assert c.min() >= 0.0 and c.max() <= 10.0


def test_mutate_rate_zero_is_identity():
    rng = np.random.default_rng(13)
    a = np.array([1.0, 2.0, 3.0])
    out = mutated_copy(a, GaConfig(mutation_rate=0.0), rng)
    assert np.array_equal(out, a)


def test_mutate_rate_one_redraws_uniformly():
    # Kolmogorov-Smirnov against uniform(0, 10) at alpha = 0.01
    n = 10000
    rng = np.random.default_rng(14)
    a = np.full(n, 5.0)
    out = mutated_copy(a, GaConfig(mutation_rate=1.0), rng)
    assert not np.array_equal(out, a)
    sample = np.sort(out) / 10.0
    grid = np.arange(1, n + 1) / n
    d_stat = max(
        np.max(grid - sample),
        np.max(sample - (np.arange(n) / n)),
    )
    assert d_stat < 1.6276 / np.sqrt(n)


def test_mutate_respects_bounds_and_determinism():
    a = np.linspace(0.0, 10.0, 50)
    out1 = mutated_copy(a, GaConfig(mutation_rate=0.5), np.random.default_rng(15))
    out2 = mutated_copy(a, GaConfig(mutation_rate=0.5), np.random.default_rng(15))
    assert np.array_equal(out1, out2)
    assert out1.min() >= 0.0 and out1.max() <= 10.0


# ---------------------------------------------------------------------------
# the optimizer loop
# ---------------------------------------------------------------------------


def test_optimizer_pushes_monotone_records_to_upper_bound():
    records = oracle_records(10, seed=16)
    cfg = GaConfig(population_size=20, generations=50, seed=1)
    best, trace = optimize_records(records, cfg)
    assert best.mean() >= 8.5
    searched = expected_response_from_records(records, best)
    assert searched >= expected_response_from_records(records, np.ones(10))


@settings(max_examples=20, deadline=None, database=None)  # each example forks a pool
@given(n=st.integers(1, 30), pairs=st.integers(2, 5), generations=st.integers(1, 4),
       lo=st.floats(0.0, 5.0), width=st.floats(0.01, 10.0),
       seed=st.integers(0, 2**16), data=st.data())
def test_search_returns_its_best_row_read_only_and_in_bounds(n, pairs, generations, lo,
                                                            width, seed, data):
    records = oracle_records(n, seed)
    elitism = data.draw(st.integers(0, 2 * pairs - 1), label="elitism")
    hi = lo + width
    cfg = GaConfig(population_size=2 * pairs, generations=generations,
                   elitism_count=elitism, bounds=(lo, hi), seed=seed)
    best, trace = optimize_records(records, cfg)
    assert best.shape == (n,) and np.isfinite(best).all()
    assert ((lo <= best) & (best <= hi)).all()
    assert not best.flags.writeable
    # the row the final generation scored best, bit for bit
    assert np.sum(records.phi(best)) == trace.best_fitness[-1]


def test_elitism_makes_best_fitness_non_decreasing():
    records = oracle_records(15, seed=17)
    cfg = GaConfig(population_size=16, generations=40, seed=2)
    _, trace = optimize_records(records, cfg)
    assert trace.generations == 40
    assert (np.diff(trace.best_fitness) >= 0).all()
    assert np.isfinite(trace.mean_fitness).all()


def test_optimizer_is_deterministic():
    records = oracle_records(12, seed=18)
    cfg = GaConfig(population_size=10, generations=15, seed=3)
    best_a, trace_a = optimize_records(records, cfg)
    best_b, trace_b = optimize_records(records, cfg)
    assert np.array_equal(best_a, best_b)
    assert np.array_equal(trace_a.best_fitness, trace_b.best_fitness)
    assert np.array_equal(trace_a.mean_fitness, trace_b.mean_fitness)


def test_optimize_fits_nuisances_once_per_fold(monkeypatch):
    calls = {"outcome": 0, "propensity": 0}
    real_outcome = stochint.effects.fit_outcome
    real_propensity = stochint.effects.fit_propensity

    def counting_outcome(*args, **kwargs):
        calls["outcome"] += 1
        return real_outcome(*args, **kwargs)

    def counting_propensity(*args, **kwargs):
        calls["propensity"] += 1
        return real_propensity(*args, **kwargs)

    monkeypatch.setattr(stochint.effects, "fit_outcome", counting_outcome)
    monkeypatch.setattr(stochint.effects, "fit_propensity", counting_propensity)
    # one usable CPU keeps every fit in this process, where it is counted
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 1)

    data = generate_ihdp_like(
        60, 3, seed=20, config=DgpConfig(treated_fraction_target=0.4)
    )
    spec = NuisanceSpec(
        propensity=PropensitySpec(basis_kind="raw"),
        outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear")),
    )
    cfg = GaConfig(population_size=6, generations=8, seed=5)
    run = run_optimization(data, cfg, nuisance=spec, k=3, seed=0)
    assert run.best.shape == (60,)
    assert run.trace.generations == 8
    # one outcome fit per (fold, arm): each arm's model is its own task
    assert calls == {"outcome": 2 * 3, "propensity": 3}


def test_optimization_builds_the_arm_terms_once(monkeypatch):
    calls = []
    real = stochint.effects.m_term

    def counting(*args, **kwargs):
        calls.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(stochint.effects, "m_term", counting)
    data = generate_ihdp_like(
        60, 3, seed=21, config=DgpConfig(treated_fraction_target=0.4)
    )
    spec = NuisanceSpec(
        propensity=PropensitySpec(basis_kind="raw"),
        outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear")),
    )
    run_optimization(data, GaConfig(population_size=4, generations=2), spec, k=3)
    # the search and the three reference policies share one records object
    assert calls == [1, 0]
