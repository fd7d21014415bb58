"""K-sample hypothesis testing built on the categorical Gini covariance.

The package estimates the Gini covariance and correlation between a
multivariate numeric sample and its class labels with unbiased pair-average
statistics, tests class-distribution equality through a studentized normal
limit or by permutation, and ships the simulation harness used to study
size, power, and null normality.
"""

from .core import (
    GroupIndex,
    LabeledDataset,
    group_index,
    load_csv,
    validate_for_testing,
    write_csv,
)
from .distmat import group_gmd_inputs, pairwise_distances, u_center
from .errors import (
    DegenerateSampleError,
    EmptyDatasetError,
    GinicovError,
    ParseError,
    RaggedRowsError,
    TinyClassError,
    TooFewClassesError,
    TooLargeError,
    TooSmallError,
)
from .estimators import (
    GiniEstimates,
    dcov_stat,
    dist_variance,
    gini_estimates,
    gmd,
    sigma0_sq,
)
from .experiments import (
    NormalityRow,
    PowerRow,
    StudyConfig,
    kde_gaussian,
    normality_study,
    size_power_study,
)
from .ktest import (
    METHOD_DCOV_PERM,
    METHOD_GINI_NORMAL,
    METHOD_GINI_PERM,
    TestResult,
    gini_normal_test,
    normal_cdf,
    normal_quantile,
    permutation_test,
)
from .simgen import ScenarioSpec, scenario_dataset
from .streams import substream

__version__ = "0.1.0"

__all__ = [
    "DegenerateSampleError",
    "EmptyDatasetError",
    "GiniEstimates",
    "GinicovError",
    "GroupIndex",
    "LabeledDataset",
    "METHOD_DCOV_PERM",
    "METHOD_GINI_NORMAL",
    "METHOD_GINI_PERM",
    "NormalityRow",
    "ParseError",
    "PowerRow",
    "RaggedRowsError",
    "ScenarioSpec",
    "StudyConfig",
    "TestResult",
    "TinyClassError",
    "TooFewClassesError",
    "TooLargeError",
    "TooSmallError",
    "dcov_stat",
    "dist_variance",
    "gini_estimates",
    "gini_normal_test",
    "gmd",
    "group_gmd_inputs",
    "group_index",
    "kde_gaussian",
    "load_csv",
    "normal_cdf",
    "normal_quantile",
    "normality_study",
    "pairwise_distances",
    "permutation_test",
    "scenario_dataset",
    "sigma0_sq",
    "size_power_study",
    "substream",
    "u_center",
    "validate_for_testing",
    "write_csv",
]
