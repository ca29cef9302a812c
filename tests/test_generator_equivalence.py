"""The synthetic generators against a frozen copy of their two-tail version.

The references below are the generators as they were when each one ended in
its own copy of the assignment step: bisect the intercept, clip, draw the
treatments, refuse a one-arm draw, then draw the outcome noise.  They are
kept here only to pin the generators' output bit for bit; nothing in the
package uses them.  Bits are compared on the running CPU, not against stored
hashes, because np.sin and np.exp may round differently on another one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochint.data import (
    DatasetError,
    DgpConfig,
    generate_ihdp_like,
    generate_op_like,
    sigmoid,
)


def reference_bisect(below, lo, hi):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_calibrate_intercept(z, target, clip):
    return reference_bisect(
        lambda a: np.clip(sigmoid(a + z), clip, 1.0 - clip).mean() < target,
        -30.0, 30.0)


def reference_draw_treatments(rng, p):
    t = (rng.random(p.shape[0]) < p).astype(np.int64)
    if t.min() == t.max():
        raise DatasetError("degenerate draw: all units landed in one arm")
    return t


def reference_ihdp_like(n, d, seed, cfg):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    a = min(d, 6)
    active = np.sort(rng.permutation(d)[:a])
    xa = x[:, active]
    w_base = rng.normal(0.0, 1.0, a) / math.sqrt(a)
    w_tau = rng.normal(0.0, 1.0, a) / math.sqrt(a)
    w_assign = rng.normal(0.0, 1.0, a) / math.sqrt(a)
    nl = cfg.nonlinearity
    c0 = xa[:, 0]
    c1 = xa[:, 1 % a]
    c2 = xa[:, 2 % a]
    mu0 = (
        2.0 * (xa @ w_base)
        + nl * (1.5 * c0 * c0 + 1.5 * c0 * c1 + 2.0 * np.sin(c2))
    )
    tau = 1.0 + (xa @ w_tau) + nl * (0.8 * c1 * c1 + 1.0 * np.cos(c1))
    mu1 = mu0 + tau
    z = 1.2 * (0.9 * c0 + 0.7 * c1 + 0.5 * (xa @ w_assign))
    alpha = reference_calibrate_intercept(z, cfg.treated_fraction_target,
                                          cfg.propensity_clip)
    p = np.clip(sigmoid(alpha + z), cfg.propensity_clip, 1.0 - cfg.propensity_clip)
    t = reference_draw_treatments(rng, p)
    noise = rng.standard_normal(n)
    y = np.where(t == 1, mu1, mu0) + cfg.noise_scale * noise
    return x, t, y, mu0, mu1, p


def reference_op_like(n, seed, cfg):
    rng = np.random.default_rng(seed)
    d = 11
    x = np.empty((n, d))
    x[:, :8] = rng.standard_normal((n, 8))
    x[:, 8] = (rng.random(n) < 0.5).astype(float)
    x[:, 9] = (rng.random(n) < 0.3).astype(float)
    x[:, 10] = (rng.random(n) < 0.6).astype(float)
    nl = cfg.nonlinearity
    base_index = (
        1.0
        + 0.8 * x[:, 2]
        + 0.5 * x[:, 3]
        + 0.4 * x[:, 8]
        + nl * 0.3 * x[:, 0] * x[:, 4]
    )
    mu0 = 10.0 * np.log1p(np.exp(base_index))
    spread = math.sqrt(0.35 ** 2 + 0.25 ** 2)
    quantile = reference_bisect(
        lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) < cfg.uplift_fraction,
        -8.0, 8.0)
    effect = spread * quantile + 0.35 * x[:, 5] + 0.25 * x[:, 6]
    mu1 = mu0 * np.exp(effect)
    z = 0.7 * x[:, 0] + 0.5 * x[:, 1] - 0.4 * x[:, 9]
    alpha = reference_calibrate_intercept(z, cfg.treated_fraction_target,
                                          cfg.propensity_clip)
    p = np.clip(sigmoid(alpha + z), cfg.propensity_clip, 1.0 - cfg.propensity_clip)
    t = reference_draw_treatments(rng, p)
    mu_obs = np.where(t == 1, mu1, mu0)
    if cfg.noise_scale == 0:
        y = mu_obs.copy()
    else:
        shape = 1.0 / (cfg.noise_scale ** 2)
        y = mu_obs * rng.gamma(shape, 1.0 / shape, n)
    return x, t, y, mu0, mu1, p


def assert_same_draw(reference, generate):
    """Both raise on a one-arm draw, or both give the same bits."""
    try:
        want = reference()
    except DatasetError:
        with pytest.raises(DatasetError, match="degenerate draw"):
            generate()
        return
    data = generate()
    got = (data.covariates, data.treatments, data.outcomes,
           data.truth.mu0, data.truth.mu1, data.truth.true_propensity)
    for name, a, b in zip(("x", "t", "y", "mu0", "mu1", "p"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def dgp_configs(draw):
    clip = draw(st.floats(0.001, 0.45))
    # a target strictly inside (clip, 1 - clip), the range a clipped mean reaches
    share = draw(st.floats(0.01, 0.99))
    return DgpConfig(
        noise_scale=draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0))),
        treated_fraction_target=clip + share * (1.0 - 2.0 * clip),
        propensity_clip=clip,
        nonlinearity=draw(st.floats(0.0, 2.0)),
        uplift_fraction=draw(st.floats(0.02, 0.98)),
    )


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(20, 300), d=st.integers(2, 30), seed=SEEDS, cfg=dgp_configs())
def test_ihdp_like_matches_reference(n, d, seed, cfg):
    assert_same_draw(lambda: reference_ihdp_like(n, d, seed, cfg),
                     lambda: generate_ihdp_like(n, d, seed, cfg))


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(20, 300), seed=SEEDS, cfg=dgp_configs())
def test_op_like_matches_reference(n, seed, cfg):
    assert_same_draw(lambda: reference_op_like(n, seed, cfg),
                     lambda: generate_op_like(n, seed, cfg))


def test_one_arm_draws_are_refused_on_both_sides():
    # n = 20 at a 1.5% target: every unit lands in the control arm
    cfg = DgpConfig(treated_fraction_target=0.015)
    for reference in (lambda: reference_ihdp_like(20, 3, 0, cfg),
                      lambda: reference_op_like(20, 0, cfg)):
        with pytest.raises(DatasetError, match="degenerate draw"):
            reference()
    with pytest.raises(DatasetError, match="degenerate draw"):
        generate_ihdp_like(20, 3, 0, cfg)
    with pytest.raises(DatasetError, match="degenerate draw"):
        generate_op_like(20, 0, cfg)
