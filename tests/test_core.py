import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from evalcomb.core import (
    LOG_INF,
    LOG_ZERO,
    EValueVector,
    LogValue,
    Regime,
    GUARANTEED_REGIMES,
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
        with pytest.raises(ValidationError, match="at least one e-value is required"):
            validate_evalues([])

    @pytest.mark.parametrize("raw", [[[1.0, 2.0]], np.ones((2, 3)), [[]]], ids=repr)
    def test_non_vector_rejected_with_its_shape(self, raw):
        rows, cols = np.shape(raw)
        message = rf"1-D sequence, got shape \({rows}, {cols}\)"
        with pytest.raises(ValidationError, match=message):
            validate_evalues(raw)

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
        "raw, match",
        [
            ("123", "got str"),
            (b"12", "got bytes"),
            (["2", "inf"], "not strings"),
            ([1.0, b"8"], "not strings"),
            ([Fraction(1), "2"], "not strings"),
            (np.array(["1", "2"]), "not strings"),
        ],
        ids=["str", "bytes", "str-entries", "bytes-entry", "object-list", "str-array"],
    )
    def test_text_rejected(self, raw, match):
        # a float conversion would parse the text (or read bytes as ints)
        with pytest.raises(ValidationError, match=match):
            validate_evalues(raw)

    def test_numbers_of_every_kind_accepted(self):
        ev = validate_evalues([True, 2, Fraction(1, 4), 2.5, np.int8(3)])
        np.testing.assert_allclose(ev.values, [1.0, 2.0, 0.25, 2.5, 3.0], rtol=1e-15)

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


def test_guaranteed_regimes():
    assert Regime.INDEPENDENT in GUARANTEED_REGIMES
    assert Regime.SIMULTANEOUS in GUARANTEED_REGIMES
    assert Regime.SEQUENTIAL not in GUARANTEED_REGIMES
    assert Regime.UNKNOWN not in GUARANTEED_REGIMES
