import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalcomb.betting import BettingOptimum
from evalcomb.core import LOG_ZERO, LogValue, Regime, validate_evalues
from evalcomb.errors import ConfigError, ValidationError
from evalcomb.sympoly import SymmetricAverages
from evalcomb.testkit import (
    StatKind,
    VilleDetail,
    e_to_p,
    test_max_average,
    test_optimized_betting,
    test_ville,
)


def _ev(values, regime=Regime.INDEPENDENT):
    return validate_evalues(values, regime)


class TestMaxAverage:
    def test_rejects_at_exact_boundary(self):
        # max A_k = 4 and the threshold at alpha = 0.25 is exactly 4
        report = test_max_average(_ev([0.0, 8.0]), 0.25)
        assert report.reject
        assert report.statistic_kind is StatKind.MAX_AVERAGE
        assert report.log_statistic.value == pytest.approx(4.0, rel=1e-12)

    def test_no_rejection_below_threshold(self):
        report = test_max_average(_ev([0.0, 8.0]), 0.24)
        assert not report.reject
        assert report.p_bound > 0.24

    def test_p_bound_is_inverse_statistic(self):
        report = test_max_average(_ev([0.0, 8.0]), 0.5)
        assert report.p_bound == pytest.approx(0.25, rel=1e-12)

    def test_all_ones_never_rejects(self):
        report = test_max_average(_ev([1.0, 1.0, 1.0]), 0.05)
        assert not report.reject
        assert report.log_statistic.value == 1.0
        assert report.p_bound == 1.0

    def test_detail_carries_averages(self):
        report = test_max_average(_ev([0.0, 8.0]), 0.5)
        assert isinstance(report.detail, SymmetricAverages)
        assert report.detail.argmax_k == 1
        for arr in (report.detail.log_S, report.detail.log_A):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_infinite_evalue_forces_rejection(self):
        report = test_max_average(_ev([math.inf, 1.0]), 0.01)
        assert report.reject
        assert report.p_bound == 0.0


class TestOptimizedBetting:
    def test_oracle_zero_eight(self):
        report = test_optimized_betting(_ev([0.0, 8.0]), 0.5)
        assert report.reject
        assert report.log_statistic.value == pytest.approx(16.0 / 7.0, rel=1e-9)
        assert report.p_bound == pytest.approx(7.0 / 16.0, rel=1e-9)

    def test_detail_carries_optimum(self):
        report = test_optimized_betting(_ev([0.0, 8.0]), 0.5)
        assert isinstance(report.detail, BettingOptimum)
        assert report.detail.lambda_star == pytest.approx(3.0 / 7.0, abs=1e-9)

    def test_never_rejects_when_max_average_does_not(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            values = rng.lognormal(sigma=1.2, size=rng.integers(1, 12))
            ev = _ev(values)
            betting = test_optimized_betting(ev, 0.1)
            averages = test_max_average(ev, 0.1)
            assert (not betting.reject) or averages.reject


class TestRegimeWarnings:
    def test_guaranteed_regimes_are_silent(self):
        for regime in (Regime.INDEPENDENT, Regime.SIMULTANEOUS):
            report = test_max_average(_ev([2.0, 1.0], regime), 0.5)
            assert report.warnings == ()

    def test_sequential_and_unknown_warn(self):
        for regime in (Regime.SEQUENTIAL, Regime.UNKNOWN):
            for runner in (test_max_average, test_optimized_betting):
                report = runner(_ev([2.0, 1.0], regime), 0.5)
                assert len(report.warnings) == 1
                assert regime.value in report.warnings[0]

    def test_warning_does_not_suppress_the_result(self):
        report = test_max_average(_ev([0.0, 8.0], Regime.SEQUENTIAL), 0.25)
        assert report.reject


class TestAlphaValidation:
    @pytest.mark.parametrize(
        "alpha", [0.0, 1.0, -0.2, 1.7, float("nan"), "x", None, "0.5", b"0.5"]
    )
    def test_bad_alpha(self, alpha):
        for runner in (test_max_average, test_optimized_betting):
            with pytest.raises(ConfigError):
                runner(_ev([1.0]), alpha)
        with pytest.raises(ConfigError):
            test_ville(_ev([1.0]), 0.5, alpha)


class TestVille:
    def test_trajectory_oracle(self):
        """E = (0, 8) at constant lambda = 1/2: wealth 0.5 then 2.25,
        which never reaches the alpha = 0.4 threshold of 2.5."""
        report = test_ville(_ev([0.0, 8.0]), 0.5, 0.4)
        traj = np.exp(report.detail.log_trajectory)
        np.testing.assert_allclose(traj, [0.5, 2.25], rtol=1e-12)
        assert not report.reject
        assert report.detail.hitting_index is None
        assert report.log_statistic.value == pytest.approx(2.25, rel=1e-12)

    def test_same_path_rejects_at_looser_level(self):
        report = test_ville(_ev([0.0, 8.0]), 0.5, 0.5)
        assert report.reject
        assert report.detail.hitting_index == 2

    def test_hitting_index_is_first_crossing(self):
        report = test_ville(_ev([4.0, 0.5, 4.0]), 0.5, 0.45)
        # wealth: 2.5, 1.875, 4.6875; crosses 1/0.45 = 2.22 at the first step
        assert report.detail.hitting_index == 1
        assert report.reject

    def test_statistic_is_running_maximum(self):
        report = test_ville(_ev([4.0, 0.5]), 0.5, 0.05)
        assert report.log_statistic.value == pytest.approx(2.5, rel=1e-12)

    def test_zero_wealth_is_absorbing(self):
        # betting everything on a zero e-value wipes the wealth out for good
        report = test_ville(_ev([0.0, math.inf]), [1.0, 0.5], 0.05)
        traj = report.detail.log_trajectory
        assert traj[0] == LOG_ZERO
        assert traj[1] == LOG_ZERO
        assert not report.reject

    def test_lambda_zero_abstains(self):
        report = test_ville(_ev([0.0, 8.0]), 0.0, 0.9)
        traj = np.exp(report.detail.log_trajectory)
        np.testing.assert_allclose(traj, [1.0, 1.0], rtol=1e-15)
        assert not report.reject

    def test_per_step_strategy(self):
        report = test_ville(_ev([2.0, 2.0]), [0.0, 1.0], 0.45)
        traj = np.exp(report.detail.log_trajectory)
        np.testing.assert_allclose(traj, [1.0, 2.0], rtol=1e-14)
        np.testing.assert_array_equal(report.detail.strategy, [0.0, 1.0])

    def test_strategy_length_mismatch(self):
        with pytest.raises(ValidationError):
            test_ville(_ev([1.0, 2.0]), [0.5], 0.1)

    def test_zero_dimensional_strategy_is_constant(self):
        report = test_ville(_ev([2.0, 1.0]), np.array(0.5), 0.45)
        np.testing.assert_array_equal(report.detail.strategy, [0.5, 0.5])
        assert report.detail.attested is None

    def test_strategy_is_copied(self):
        strategy = np.array([0.25, 0.5])
        test_ville(_ev([2.0, 1.0]), strategy, 0.45, attested=True)
        assert strategy.flags.writeable

    @pytest.mark.parametrize(
        "strategy",
        [None, "abc", [0.5, "abc"], 10**400],
        ids=["None", "text", "text-entry", "int-beyond-float"],
    )
    def test_non_numeric_strategy(self, strategy):
        with pytest.raises(ValidationError):
            test_ville(_ev([1.0, 2.0]), strategy, 0.1)

    def test_strategy_that_is_not_1d_names_its_shape(self):
        with pytest.raises(ValidationError, match=r"shape \(1, 3\)"):
            test_ville(_ev([1.0, 2.0, 3.0]), [[0.5, 0.5, 0.5]], 0.1)

    def test_strategy_out_of_range(self):
        with pytest.raises(ValidationError):
            test_ville(_ev([1.0]), [1.5], 0.1)
        with pytest.raises(ValidationError):
            test_ville(_ev([1.0]), -0.25, 0.1)

    def test_sequential_regime_with_constant_fraction_is_silent(self):
        report = test_ville(_ev([2.0, 1.0], Regime.SEQUENTIAL), 0.5, 0.5)
        assert report.warnings == ()

    def test_unknown_regime_warns(self):
        report = test_ville(_ev([2.0, 1.0], Regime.UNKNOWN), 0.5, 0.5)
        assert any("unknown" in w for w in report.warnings)

    def test_attestation_flag_round_trips(self):
        varying = test_ville(_ev([2.0, 1.0], Regime.SEQUENTIAL), [0.3, 0.6], 0.5)
        assert varying.detail.attested is False
        assert any("attested" in w for w in varying.warnings)
        attested = test_ville(
            _ev([2.0, 1.0], Regime.SEQUENTIAL), [0.3, 0.6], 0.5, attested=True
        )
        assert attested.detail.attested is True
        assert attested.warnings == ()
        constant = test_ville(_ev([2.0, 1.0], Regime.SEQUENTIAL), 0.5, 0.5)
        assert constant.detail.attested is None


# ----- report invariants -----

alphas = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


@st.composite
def vectors(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
    )
    return draw(st.lists(entry, min_size=n, max_size=n))


def _ville_half(ev, alpha):
    """The sequential test at the constant fraction 1/2."""
    return test_ville(ev, 0.5, alpha)


@given(vectors(), alphas)
@settings(max_examples=200, deadline=None)
def test_reject_iff_threshold_crossed(values, alpha):
    ev = _ev(values)
    for runner in (test_max_average, test_optimized_betting, _ville_half):
        report = runner(ev, alpha)
        assert report.reject == (
            report.log_statistic.log_magnitude >= report.log_threshold
        )
        if runner is _ville_half:
            assert (report.detail.hitting_index is not None) == report.reject


@given(vectors(), alphas)
@settings(max_examples=200, deadline=None)
def test_reject_iff_p_bound_at_most_alpha(values, alpha):
    """The two decision routes must agree: threshold on the statistic and
    comparison of the p-style bound with alpha."""
    ev = _ev(values)
    for runner in (test_max_average, test_optimized_betting, _ville_half):
        report = runner(ev, alpha)
        assert report.reject == (report.p_bound <= alpha)
        assert 0.0 <= report.p_bound <= 1.0


def test_e_to_p_basics():
    assert e_to_p(LogValue(0.0)) == 1.0
    assert e_to_p(LogValue(math.log(4.0))) == pytest.approx(0.25, rel=1e-12)
    assert e_to_p(LogValue(LOG_ZERO)) == 1.0
    assert e_to_p(float("inf")) == 0.0
    assert e_to_p(-1e6) == 1.0


def test_e_to_p_rejects_nan():
    with pytest.raises(ValidationError):
        e_to_p(float("nan"))


def test_ville_detail_is_frozen():
    report = test_ville(_ev([2.0, 1.0]), 0.5, 0.5)
    assert isinstance(report.detail, VilleDetail)
    with pytest.raises(AttributeError):
        report.detail.hitting_index = 0
    for arr in (report.detail.log_trajectory, report.detail.strategy):
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 0.0
