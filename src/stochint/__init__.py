"""Stochastic-intervention effect estimation and intervention search."""

from .data import (
    ColumnSchema,
    DatasetError,
    DgpConfig,
    FoldAssignment,
    GroundTruth,
    ObservationalDataset,
    OP_DEFAULTS,
    default_schema,
    generate_ihdp_like,
    generate_op_like,
    load_csv,
    split_folds,
    train_test_split,
    write_csv,
    write_truth_csv,
)
from .effects import (
    EstimateReport,
    FoldDiagnostics,
    NuisanceSpec,
    OutcomeSpec,
    PropensitySpec,
    UnitRecords,
    cross_fit_records,
    epsilon_ate,
    estimate_ate_difference,
    estimate_sie,
    expected_response_from_records,
    m_term,
    read_records_csv,
    report_from_records,
    stochastic_propensity,
    write_influence_csv,
    write_records_csv,
)
from .genetic import GaConfig, GaTrace, optimize_records
from .nuisance import (
    BasisExpansion,
    FitError,
    OutcomeConfig,
    PropensityModel,
    fit_outcome,
    fit_propensity,
)

__version__ = "0.1.0"
