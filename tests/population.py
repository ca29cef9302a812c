"""A fixed population for exact studies of the estimators.

One large draw stands in for the population.  Its truths come in closed form
from the generator's true propensity p and arm means mu0, mu1, so an
estimator's bias is a mean over the population, with no Monte Carlo.
"""

from functools import lru_cache

import numpy as np

from stochint.data import DgpConfig
from stochint.effects import UnitRecords
from stochint.experiments import make_dataset


@lru_cache(maxsize=None)
def population(generator: str, d: int, dgp: DgpConfig, N: int = 200_000,
               seed: int = 1):
    """One draw of N units with full ground truth, made once per process.

    d is ignored by the op generator, which always has 11 covariates.
    """
    return make_dataset(generator, N, d, seed, dgp)


def psi(pop, delta: float) -> float:
    """The population's psi(delta) = mean(q mu1 + (1 - q) mu0), q from the true p."""
    truth = pop.truth
    p = truth.true_propensity
    q = delta * p / (delta * p + 1.0 - p)
    return float(np.mean(q * truth.mu1 + (1.0 - q) * truth.mu0))


def expected_phi(pop, p_hat, mu0_hat, mu1_hat, delta: float) -> np.ndarray:
    """Per-unit E[phi | X] of the package's phi under the given nuisances.

    Given X, A ~ Bernoulli(p) and Y = mu_A, so E[phi | X] is p times phi of
    the unit treated with Y = mu1, plus 1 - p times phi of the unit in
    control with Y = mu0.
    """
    truth = pop.truth
    n = truth.mu0.shape[0]

    def phi(arm, outcomes):
        return UnitRecords(treatments=np.full(n, arm), outcomes=outcomes,
                           mu0=mu0_hat, mu1=mu1_hat, p_hat=p_hat).phi(delta)

    p = truth.true_propensity
    return p * phi(1, truth.mu1) + (1.0 - p) * phi(0, truth.mu0)
