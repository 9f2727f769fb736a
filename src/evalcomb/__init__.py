"""Optimized combination of batches of e-values.

Given e-values E_1, ..., E_n that are independent (or simultaneously
valid), the package offers two batch statistics with the anytime
guarantee P(statistic >= t) <= 1/t under the null:

* the best symmetric average ``max_k A_k``, where A_k averages the
  products of every k-subset, and
* the retrospectively optimized betting product
  ``sup_lam prod_i (1 - lam + lam E_i)``.

The betting product is a binomial mixture of the symmetric averages,
so the first statistic dominates the second pathwise.  Both guarantees
fail for merely sequential e-values; :mod:`evalcomb.simlab` contains
the two-step counterexample demonstrating that, plus Monte Carlo and
exact-enumeration tooling around all three regimes.
"""

from .betting import (
    BettingOptima,
    BettingOptimum,
    Boundary,
    log_wealth,
    optimize_lambda,
    optimize_lambda_batch,
)
from .core import (
    EValueVector,
    LogValue,
    Regime,
    validate_evalues,
)
from .errors import ConfigError, EvalcombError, ValidationError
from .simlab import (
    AdversarialScenario,
    EstimateWithError,
    FactorLevel,
    FactorScenario,
    IidLognormal,
    IidTwoPoint,
    MonteCarloSummary,
    default_factor_scenario,
    enumerate_exact,
    g_clipped_identity,
    g_constant,
    g_threshold_indicator,
    generate,
    mc_demimartingale_sweep,
    mc_power,
    mc_type1,
    replication_stream,
    two_point_scenario,
)
from .sympoly import (
    SymmetricAverages,
    log_averages_batch,
    log_esp,
    log_esp_batch,
    symmetric_averages,
)
from .testkit import (
    StatKind,
    TestReport,
    VilleDetail,
    e_to_p,
    test_max_average,
    test_optimized_betting,
    test_ville,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BettingOptima",
    "BettingOptimum",
    "Boundary",
    "log_wealth",
    "optimize_lambda",
    "optimize_lambda_batch",
    "EValueVector",
    "LogValue",
    "Regime",
    "validate_evalues",
    "ConfigError",
    "EvalcombError",
    "ValidationError",
    "AdversarialScenario",
    "EstimateWithError",
    "FactorLevel",
    "FactorScenario",
    "IidLognormal",
    "IidTwoPoint",
    "MonteCarloSummary",
    "default_factor_scenario",
    "enumerate_exact",
    "g_clipped_identity",
    "g_constant",
    "g_threshold_indicator",
    "generate",
    "mc_demimartingale_sweep",
    "mc_power",
    "mc_type1",
    "replication_stream",
    "two_point_scenario",
    "SymmetricAverages",
    "log_averages_batch",
    "log_esp",
    "log_esp_batch",
    "symmetric_averages",
    "StatKind",
    "TestReport",
    "VilleDetail",
    "e_to_p",
    "test_max_average",
    "test_optimized_betting",
    "test_ville",
]
