"""Tests for repro.utils.validation."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.validation import (
    check_array,
    check_finite,
    check_in_range,
    check_matching_dims,
    check_positive_int,
    check_probability_vector,
    check_weights,
)


class TestCheckArray:
    def test_list_converted(self):
        out = check_array([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_contiguous(self):
        arr = np.asfortranarray(np.ones((4, 3)))
        assert check_array(arr).flags["C_CONTIGUOUS"]

    def test_1d_rejected_by_default(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            check_array([1.0, 2.0])

    def test_1d_promoted_when_allowed(self):
        out = check_array([1.0, 2.0], allow_1d=True)
        assert out.shape == (2, 1)

    def test_3d_rejected(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            check_array(np.ones((2, 2, 2)))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_array([[1.0, np.nan]])

    def test_inf_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_array([[np.inf, 1.0]])

    def test_min_rows_enforced(self):
        with pytest.raises(ValidationError, match="at least 3"):
            check_array([[1.0], [2.0]], min_rows=3)

    def test_empty_columns_rejected(self):
        with pytest.raises(ValidationError, match="feature column"):
            check_array(np.empty((3, 0)))

    def test_copy_flag(self):
        arr = np.ones((2, 2))
        assert check_array(arr, copy=True) is not arr
        # No copy needed when already conforming.
        out = check_array(arr)
        assert out is arr or out.base is arr

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="real numbers"):
            check_array([["a", "b"]])

    def test_custom_name_in_message(self):
        with pytest.raises(ValidationError, match="centers"):
            check_array([1.0], name="centers")

    def test_complex_rejected_before_the_cast(self):
        # The float64 cast would keep the real parts with only a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="real numbers"):
                check_array(np.array([[1.0 + 2.0j, 3.0]]))


class TestCheckFinite:
    @pytest.mark.parametrize("dtype", [bool, np.int32, np.uint8, np.float16, np.float64])
    def test_real_dtypes_pass(self, dtype):
        check_finite(np.ones((2, 3), dtype=dtype))

    @pytest.mark.parametrize("values", [
        np.ones((2, 3), dtype=np.complex64),
        np.ones((2, 3)).astype(object),
        np.array([["1.0", "2.0"]]),
        np.array([[np.timedelta64(1, "s")]]),
    ])
    def test_other_dtypes_rejected(self, values):
        with pytest.raises(ValidationError, match="real numbers"):
            check_finite(values, name="points")

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="1 non-finite"):
            check_finite(np.array([1.0, np.nan]))


class TestCheckWeights:
    def test_none_gives_ones(self):
        out = check_weights(None, 4)
        np.testing.assert_array_equal(out, np.ones(4))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            check_weights([1.0, 2.0], 3)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            check_weights([1.0, -0.1, 2.0], 3)

    def test_zero_total_rejected(self):
        with pytest.raises(ValidationError, match="positive total"):
            check_weights([0.0, 0.0], 2)

    def test_individual_zeros_allowed(self):
        out = check_weights([0.0, 2.0], 2)
        assert out[0] == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_weights([np.nan, 1.0], 2)


class TestCheckPositiveInt:
    def test_valid(self):
        assert check_positive_int(3, name="k") == 3

    def test_numpy_integer(self):
        assert check_positive_int(np.int32(5), name="k") == 5

    def test_zero_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            check_positive_int(0, name="k")

    def test_float_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            check_positive_int(2.0, name="k")

    def test_bool_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            check_positive_int(True, name="k")


class TestCheckInRange:
    def test_within(self):
        assert check_in_range(0.5, name="p", low=0.0, high=1.0) == 0.5

    def test_boundary_inclusive(self):
        assert check_in_range(0.0, name="p", low=0.0) == 0.0

    def test_boundary_exclusive(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, name="p", low=0.0, low_inclusive=False)

    def test_above_high(self):
        with pytest.raises(ValidationError, match="outside"):
            check_in_range(2.0, name="p", high=1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            check_in_range(float("nan"), name="p")

    def test_non_real_rejected(self):
        with pytest.raises(ValidationError, match="real number"):
            check_in_range("x", name="p")


class TestCheckProbabilityVector:
    def test_valid(self):
        out = check_probability_vector([0.25, 0.75])
        assert out.sum() == pytest.approx(1.0)

    def test_not_normalized(self):
        with pytest.raises(ValidationError, match="sums to"):
            check_probability_vector([0.5, 0.6])

    def test_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            check_probability_vector([-0.1, 1.1])

    def test_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            check_probability_vector([])


class TestCheckMatchingDims:
    def test_match(self):
        check_matching_dims(np.ones((3, 2)), np.ones((5, 2)))

    def test_mismatch(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            check_matching_dims(np.ones((3, 2)), np.ones((5, 3)))
