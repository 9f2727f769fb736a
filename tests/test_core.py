import math
import warnings

import numpy as np
import pytest

from evalcomb.core import (
    LOG_INF,
    LOG_ZERO,
    EValueVector,
    LogValue,
    Regime,
    GUARANTEED_REGIMES,
    log_from_value,
    logsumexp_1d,
    validate_evalues,
)
from evalcomb.errors import ValidationError


class TestLogValue:
    def test_roundtrip(self):
        assert LogValue(math.log(3.0)).value == pytest.approx(3.0, rel=1e-15)

    def test_zero_and_inf_flags(self):
        zero = LogValue(LOG_ZERO)
        inf = LogValue(LOG_INF)
        assert zero.is_zero and not zero.is_infinite
        assert inf.is_infinite and not inf.is_zero
        assert zero.value == 0.0
        assert inf.value == math.inf

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            LogValue(float("nan"))

    def test_float_coercion(self):
        assert float(LogValue(0.0)) == 1.0

    def test_huge_log_saturates(self):
        # exp would overflow; the linear view saturates instead of raising
        assert LogValue(1e4).value == math.inf


def test_log_from_value_negative_rejected():
    with pytest.raises(ValidationError):
        log_from_value(-0.5)


def test_log_from_value_edge_cases():
    assert log_from_value(0.0).is_zero
    assert log_from_value(math.inf).is_infinite
    assert log_from_value(1.0).log_magnitude == 0.0
    with pytest.raises(ValidationError):
        log_from_value(float("nan"))


class TestValidateEvalues:
    def test_basic(self):
        ev = validate_evalues([1.0, 2.0, 0.5])
        assert ev.n == 3
        np.testing.assert_allclose(ev.values, [1.0, 2.0, 0.5], rtol=1e-15)
        assert ev.regime is Regime.UNKNOWN

    def test_regime_is_kept(self):
        ev = validate_evalues([1.0], Regime.INDEPENDENT)
        assert ev.regime is Regime.INDEPENDENT

    def test_zero_and_inf_allowed(self):
        ev = validate_evalues([0.0, math.inf, 1.0])
        assert ev.log_values[0] == LOG_ZERO
        assert ev.log_values[1] == LOG_INF

    def test_negative_rejected_with_position(self):
        with pytest.raises(ValidationError, match="2"):
            validate_evalues([1.0, 3.0, -0.1])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            validate_evalues([1.0, float("nan")])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            validate_evalues([])

    @pytest.mark.parametrize(
        "raw",
        [
            np.array([1 + 2j]),
            np.array([1 + 0j, 2 + 0j]),
            np.array([np.complex64(1)], dtype=object),
            [1.0, np.complex128(2 + 1j)],
            [1.0, 1 + 2j],
            [10**400],
            np.array([1.0, 10**400], dtype=object),
        ],
        ids=[
            "complex-array",
            "real-valued-complex-array",
            "object-array",
            "numpy-scalar",
            "python-complex",
            "int-beyond-float",
            "int-beyond-float-object-array",
        ],
    )
    def test_complex_rejected_without_warning(self, raw):
        # no cast may drop the imaginary part (numpy warns ComplexWarning),
        # and none may overflow (Python raises OverflowError)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="real numbers"):
                validate_evalues(raw)

    @pytest.mark.parametrize(
        "values",
        [
            [2.0, 0.0, math.inf, 5e-324, 1e308],
            [1.0, float("nan"), -1.0],
            [1.0, 3.0, -0.1],
            [],
            [[1.0, 2.0]],
            [True, False],
            [3, 0, 7],
        ],
        ids=str,
    )
    def test_ndarray_and_list_agree(self, values):
        """Arrays skip the list copy but give the same vector or error."""

        def outcome(raw):
            try:
                return validate_evalues(raw).log_values.tolist()
            except ValidationError as exc:
                return str(exc)

        expected = outcome(values)
        assert outcome(np.array(values)) == expected
        assert outcome(np.array(values, dtype=float)) == expected
        assert outcome(iter(values)) == expected


class TestEValueVector:
    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            EValueVector(np.zeros((2, 2)))

    def test_log_values_immutable(self):
        ev = validate_evalues([1.0, 2.0])
        with pytest.raises(ValueError):
            ev.log_values[0] = 7.0

    def test_defensive_copy(self):
        raw = np.array([0.0, 0.0])
        ev = EValueVector(raw)
        raw[0] = 99.0
        assert ev.log_values[0] == 0.0


def test_logsumexp_empty_is_log_zero():
    assert logsumexp_1d(np.array([])) == LOG_ZERO


def test_logsumexp_matches_direct_sum():
    rng = np.random.default_rng(11)
    logs = rng.normal(size=40)
    expected = math.log(np.exp(logs).sum())
    assert logsumexp_1d(logs) == pytest.approx(expected, rel=1e-13)


def test_logsumexp_with_infinite_term():
    assert logsumexp_1d(np.array([0.0, LOG_INF])) == LOG_INF
    assert logsumexp_1d(np.array([LOG_ZERO, LOG_ZERO])) == LOG_ZERO


def test_guaranteed_regimes():
    assert Regime.INDEPENDENT in GUARANTEED_REGIMES
    assert Regime.SIMULTANEOUS in GUARANTEED_REGIMES
    assert Regime.SEQUENTIAL not in GUARANTEED_REGIMES
    assert Regime.UNKNOWN not in GUARANTEED_REGIMES
