"""Exact optimum of the optimize-op-8k-linear search problem.

The influence value q m1 + (1 - q) m0 is monotone in each unit's q, and q is
monotone in delta, so the best per-unit delta in the box [lo, hi] is hi where
m1 > m0 and lo elsewhere.  This program rebuilds the cross-fitted records the
CLI's ``optimize`` command searches over and prints, as one JSON object, the
expected outcome of that bang-bang policy and of the status quo (delta = 1):

    python perfbench/exact.py N SEED LO HI
"""

from __future__ import annotations

import json
import sys

import numpy as np

from stochint.data import OP_DEFAULTS
from stochint.effects import (
    NuisanceSpec,
    OutcomeSpec,
    PropensitySpec,
    cross_fit_records,
    expected_response_from_records,
    m_term,
)
from stochint.experiments import make_dataset
from stochint.nuisance import OutcomeConfig

# The CLI defaults for d and folds; the workload sets the outcome kind and basis.
D = 25
FOLDS = 5


def policy_values(n: int, seed: int, lo: float, hi: float) -> dict[str, float]:
    data = make_dataset("op", n, D, seed, OP_DEFAULTS)
    spec = NuisanceSpec(propensity=PropensitySpec(basis_kind="raw"),
                        outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear")))
    records, _ = cross_fit_records(data, FOLDS, seed, spec)
    p = records.require_p_hat()
    m1 = m_term(records.treatments, records.outcomes, records.mu1, p, 1)
    m0 = m_term(records.treatments, records.outcomes, records.mu0, p, 0)
    return {
        "exact": expected_response_from_records(records, np.where(m1 > m0, hi, lo)),
        "status_quo": expected_response_from_records(records, np.ones(records.n)),
    }


if __name__ == "__main__":
    n, seed, lo, hi = sys.argv[1:5]
    print(json.dumps(policy_values(int(n), int(seed), float(lo), float(hi))))
