"""The package's public surface: what ``evalcomb`` exports, the names that
moved into the tests, and the functions the benchmark's traced runs read."""

import importlib
import inspect

import pytest

import evalcomb

PACKAGE_EXPORTS = [
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

# Read by name from a traced run of ``bench/run.py``, which raises
# KeyError when one of them is not a traced public function.
BENCH_TRACED = [
    "cli.main",
    "core.validate_evalues",
    "sympoly.log_esp",
    "sympoly.log_esp_batch",
    "betting.optimize_lambda",
    "testkit.test_max_average",
    "testkit.test_optimized_betting",
    "testkit.test_ville",
    "simlab.replication_stream",
    "simlab.mc_type1",
    "simlab.mc_power",
    "simlab.enumerate_exact",
    "_ratpoly.esp_fractions",
    "_ratpoly.poly_max_reaches",
    "_ratpoly.sturm_chain",
]

# Wrappers deleted in favour of the kernel behind them, and cross-checks
# that now live in tests/oracles.py.
REMOVED = [
    "betting.product_value",
    "betting.score_derivative",
    "core.log_from_value",
    "core.logsumexp_1d",
    "simlab.mc_demimartingale",
    "sympoly.mixture_value",
    "sympoly.identity_residuals",
]


def test_package_exports_are_pinned():
    assert evalcomb.__all__ == PACKAGE_EXPORTS
    for name in PACKAGE_EXPORTS:
        assert hasattr(evalcomb, name), name


@pytest.mark.parametrize("dotted", BENCH_TRACED)
def test_bench_traced_names_are_public_functions(dotted):
    module_name, name = dotted.split(".")
    module = importlib.import_module(f"evalcomb.{module_name}")
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
    assert name in module.__all__


@pytest.mark.parametrize("dotted", REMOVED)
def test_removed_names_stay_removed(dotted):
    module_name, name = dotted.split(".")
    module = importlib.import_module(f"evalcomb.{module_name}")
    assert not hasattr(module, name)
    assert not hasattr(evalcomb, name)
