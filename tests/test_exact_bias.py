"""Exact biases of the estimators on a fixed population."""

import numpy as np

from stochint.data import DgpConfig

from population import expected_phi, population, psi

DELTA = 2.0


def standardized(v):
    return (v - v.mean()) / v.std()


def test_paper_phi_bias_is_first_order_in_the_propensity_error():
    pop = population("ihdp", 5, DgpConfig(nonlinearity=0.0))
    truth = pop.truth
    p, mu0, mu1 = truth.true_propensity, truth.mu0, truth.mu1
    target = psi(pop, DELTA)
    z = standardized(pop.covariates[:, 0])
    g = standardized(pop.covariates[:, 1])

    def bias(p_hat, mu0_hat, mu1_hat):
        return float(np.mean(expected_phi(pop, p_hat, mu0_hat, mu1_hat, DELTA))) - target

    # p_hat = expit(logit p + eps z), outcome models exact
    logit = np.log(p / (1.0 - p))
    b = {eps: bias(1.0 / (1.0 + np.exp(-(logit + eps * z))), mu0, mu1)
         for eps in (0.2, 0.1, 0.05)}
    # each halving of the propensity error halves the bias
    assert 1.8 <= b[0.2] / b[0.1] <= 2.2, b
    assert 1.8 <= b[0.1] / b[0.05] <= 2.2, b

    # outcome error alone leaves phi unbiased
    outcome_only = bias(p, mu0 + 0.4 * mu0.std() * g, mu1 + 0.4 * mu1.std() * g)
    assert abs(outcome_only) <= 1e-12, outcome_only
