"""Shared builders for the test suite."""

import numpy as np

from stochint.effects import UnitRecords


def oracle_records(n: int, seed: int, gap_lo: float = 0.5,
                   gap_hi: float = 1.5) -> UnitRecords:
    """Noiseless records with mu1 - mu0 in [gap_lo, gap_hi] for every unit."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.2, 0.8, n)
    mu0 = rng.normal(0.0, 1.0, n)
    mu1 = mu0 + rng.uniform(gap_lo, gap_hi, n)
    t = (rng.random(n) < p).astype(np.int64)
    y = np.where(t == 1, mu1, mu0)
    return UnitRecords(
        treatments=t,
        outcomes=y,
        mu0=mu0,
        mu1=mu1,
        p_hat=p,
    )
