"""Genetic search for per-unit intervention strengths.

Candidate solutions are vectors of per-unit deltas inside box bounds.  The
fitness of a candidate is the sum of the records' influence values
(UnitRecords.phi), whose delta-free arm terms are built once.  Variation uses
tournament selection, simulated binary crossover, uniform-redraw mutation,
and elitism (which makes the best-fitness trace non-decreasing).  The rows
and fitness are shared with the parallel.pool workers that breed and score
the children; elites carry their fitness forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import UnitRecords
from .parallel import blocks, pool, shared_zeros


@dataclass(frozen=True)
class GaConfig:
    """Settings for the genetic optimizer.

    population_size must be even (pairing for crossover) and >= 4.
    """

    population_size: int = 50
    generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    elitism_count: int = 2
    tournament_size: int = 3
    sbx_eta: float = 15.0
    init_mean: float = 1.0
    init_std: float = 1.0
    bounds: tuple[float, float] = (0.0, 10.0)
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise ValueError("population_size must be even and >= 4")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("elitism_count must lie in [0, population_size)")
        if not 2 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must lie in [2, population_size]")
        for name in ("sbx_eta", "init_std"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not np.isfinite(self.init_mean):
            raise ValueError("init_mean must be finite")
        lo, hi = self.bounds
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 <= lo < hi):
            raise ValueError("bounds must be finite with 0 <= lo < hi")
        object.__setattr__(self, "bounds", (float(lo), float(hi)))


@dataclass(frozen=True, eq=False)
class GaTrace:
    """Per-generation best and mean fitness."""

    best_fitness: np.ndarray
    mean_fitness: np.ndarray

    @property
    def generations(self) -> int:
        return self.best_fitness.shape[0]


def random_policies(shape, config: GaConfig, rng: np.random.Generator,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Per-unit policies np.clip(rng.normal(init_mean, init_std, shape),
    *bounds), with units along the last axis, drawn into out: normal()
    computes loc + scale * z from the same standard normal stream, so
    policies and rng state match it bit for bit."""
    if min(np.atleast_1d(shape)) < 1:
        raise ValueError("n must be >= 1")
    draws = rng.standard_normal(shape, out=out)
    draws *= config.init_std
    draws += config.init_mean
    return np.clip(draws, *config.bounds, out=draws)


def _tournament(fits: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Index of each of len(fits) tournament winners.

    One integers() call per tournament: numpy buffers 32-bit draws, so
    batched calls would draw a different stream.  An unused buffered half
    stays in the generator's state for its next integers() call.
    """
    entrants = [rng.integers(0, len(fits), size=size) for _ in fits]
    return np.array([group[np.argmax(fits[group])] for group in entrants])


def _crossover_rows(a: np.ndarray, b: np.ndarray, draws: np.ndarray,
                    config: GaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clamped simulated-binary-crossover children of rows a and b, with
    distribution index sbx_eta; draws[0] gates mixing, draws[1] is u."""
    u = draws[1]
    # one pow of the branch-selected base is bit-identical to selecting
    # between the powers of both branches; 0.5 / x equals 1 / (2 x)
    base = np.where(u <= 0.5, 2.0 * u, 0.5 / (1.0 - u))
    beta = np.power(base, 1.0 / (config.sbx_eta + 1.0), out=base)
    up, down = 1.0 + beta, 1.0 - beta
    c1 = 0.5 * (up * a + down * b)
    c2 = 0.5 * (down * a + up * b)
    keep = draws[0] >= config.crossover_rate
    np.copyto(c1, a, where=keep)
    np.copyto(c2, b, where=keep)
    return np.clip(c1, *config.bounds, out=c1), np.clip(c2, *config.bounds, out=c2)


def _mutate_into(child: np.ndarray, draws: np.ndarray, config: GaConfig) -> None:
    """Where draws[0] < mutation_rate, set child to draws[1] scaled to [lo, hi]."""
    lo, hi = config.bounds
    np.copyto(child, lo + (hi - lo) * draws[1], where=draws[0] < config.mutation_rate)


def _skip_doubles(rng: np.random.Generator, count: int) -> None:
    """Move rng past count random() doubles, keeping the 32-bit half that
    integers() left buffered: bit_generator.advance() drops it."""
    state = rng.bit_generator.state
    rng.bit_generator.advance(count)
    rng.bit_generator.state = {**rng.bit_generator.state,
                               "has_uint32": state["has_uint32"],
                               "uinteger": state["uinteger"]}


def optimize_records(records: UnitRecords, config: GaConfig | None = None
                     ) -> tuple[np.ndarray, GaTrace]:
    """Run the genetic search against precomputed unit records.

    Nuisances are whatever the records carry; no fitting happens here.  Each
    parallel.pool worker breeds a block of pairs; the README's Determinism
    section gives the rng draw order, which does not depend on the workers.

    Returns:
        (read-only copy of the final generation's best row, per-generation
        trace).
    """
    cfg = config or GaConfig()
    n, m, elites = records.n, cfg.population_size, cfg.elitism_count
    rng = np.random.default_rng(cfg.seed)
    # generation g's rows and fitness are populations[g % 2] and fitness[g % 2]
    populations, fitness = shared_zeros((2, m, n)), shared_zeros((2, m))
    random_policies((m, n), cfg, rng, out=populations[0])
    for i, row in enumerate(populations[0]):
        fitness[0, i] = np.sum(records.phi(row))
    pair_rng, draws = np.random.default_rng(), np.empty((6, n))

    def breed(task):
        pairs, gen, state, parents = task
        population, bred = populations[gen % 2], populations[1 - gen % 2]
        # pair i draws its crossover mask and u, then a mutation mask and
        # redraw per child: 6 n doubles, even for a child past the end
        pair_rng.bit_generator.state = state
        pair_rng.bit_generator.advance(6 * n * pairs.start)
        for i in pairs:
            pair_rng.random(out=draws)
            children = _crossover_rows(population[parents[2 * i]],
                                       population[parents[2 * i + 1]], draws[:2], cfg)
            for k, child, child_draws in zip(range(elites + 2 * i, m), children,
                                             (draws[2:4], draws[4:])):
                _mutate_into(child, child_draws, cfg)
                bred[k] = child
                fitness[1 - gen % 2, k] = np.sum(records.phi(child))

    best_hist = np.empty(cfg.generations)
    mean_hist = np.empty(cfg.generations)
    split = blocks((m - elites + 1) // 2)
    with pool(breed, len(split)) as breed_blocks:
        for gen in range(cfg.generations):
            population, fits = populations[gen % 2], fitness[gen % 2]
            if not np.isfinite(fits).all():
                raise ValueError(f"individual {np.argmin(np.isfinite(fits))}: "
                                 "non-finite fitness value")
            order = np.argsort(-fits, kind="stable")
            best_hist[gen] = fits[order[0]]
            mean_hist[gen] = fits.mean()
            if gen == cfg.generations - 1:
                break
            populations[1 - gen % 2, :elites] = population[order[:elites]]
            fitness[1 - gen % 2, :elites] = fits[order[:elites]]
            parents = _tournament(fits, cfg.tournament_size, rng)
            state = rng.bit_generator.state
            breed_blocks([(pairs, gen, state, parents) for pairs in split])
            _skip_doubles(rng, 6 * n * (m // 2))
    best = population[order[0]].copy()
    best.flags.writeable = False
    return best, GaTrace(best_hist, mean_hist)
