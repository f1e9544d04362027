"""Argument validation helpers.

All public entry points validate their inputs through these functions so
error messages are uniform and raised as :class:`repro.exceptions.ValidationError`
(a ``ValueError`` subclass) with enough context to debug a bad call.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import ValidationError
from repro.types import ArrayLike, FloatArray

__all__ = [
    "check_array",
    "check_finite",
    "check_weights",
    "check_positive_int",
    "check_in_range",
    "check_probability_vector",
    "check_matching_dims",
]


def check_array(
    X: ArrayLike,
    *,
    name: str = "X",
    min_rows: int = 1,
    allow_1d: bool = False,
    copy: bool = False,
) -> FloatArray:
    """Convert *X* to a finite, C-contiguous float64 ``(n, d)`` array.

    Parameters
    ----------
    X:
        The candidate array (any array-like).
    name:
        Name used in error messages.
    min_rows:
        Minimum number of rows required.
    allow_1d:
        If true, a 1-d input is promoted to a single-column 2-d array.
    copy:
        Force a copy even when *X* is already a conforming ndarray.
    """
    try:
        arr = np.asarray(X)
        # Cast after the complex check: the cast would keep the real part.
        if arr.dtype.kind != "c":
            arr = np.array(arr, dtype=np.float64, copy=copy or None, order="C")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not convertible to a float array: {exc}") from exc
    if arr.dtype.kind == "c":
        raise ValidationError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    if arr.ndim == 1:
        if not allow_1d:
            raise ValidationError(
                f"{name} must be 2-dimensional (n_points, n_features); got 1-d "
                f"shape {arr.shape}. Reshape with X[:, None] for 1-d data."
            )
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < min_rows:
        raise ValidationError(
            f"{name} needs at least {min_rows} row(s), got {arr.shape[0]}"
        )
    if arr.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one feature column")
    check_finite(arr, name=name)
    return np.ascontiguousarray(arr)


def check_finite(values: np.ndarray, *, name: str = "X") -> None:
    """Raise unless *values* holds only real, finite numbers.

    Boolean, integer and floating dtypes pass; any other dtype (complex,
    object, string, ...) raises, as does a NaN or an infinity.  A CSR
    matrix's implicit zeros are finite, so its callers pass its stored
    ``.data``.
    """
    if values.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must hold real numbers, got dtype {values.dtype}")
    if not np.isfinite(values).all():
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ValidationError(f"{name} contains {bad} non-finite value(s) (nan/inf)")


def check_weights(weights: ArrayLike | None, n: int, *, name: str = "weights") -> FloatArray:
    """Validate a non-negative weight vector of length *n*.

    ``None`` means "unweighted" and returns a vector of ones, so downstream
    code never needs a special case.
    """
    if weights is None:
        return np.ones(n, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.shape[0] != n:
        raise ValidationError(f"{name} has length {w.shape[0]}, expected {n}")
    if not np.isfinite(w).all():
        raise ValidationError(f"{name} contains non-finite values")
    if (w < 0).any():
        raise ValidationError(f"{name} contains negative values")
    if w.sum() <= 0:
        raise ValidationError(f"{name} must have positive total mass")
    return w


def check_positive_int(value: object, *, name: str) -> int:
    """Validate that *value* is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return value


def check_in_range(
    value: float,
    *,
    name: str,
    low: float = float("-inf"),
    high: float = float("inf"),
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Validate that a real *value* lies in the given interval."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    lo_ok = value >= low if low_inclusive else value > low
    hi_ok = value <= high if high_inclusive else value < high
    if not (lo_ok and hi_ok):
        lo_b = "[" if low_inclusive else "("
        hi_b = "]" if high_inclusive else ")"
        raise ValidationError(f"{name}={value} outside {lo_b}{low}, {high}{hi_b}")
    return value


def check_probability_vector(p: ArrayLike, *, name: str = "p", atol: float = 1e-8) -> FloatArray:
    """Validate a probability vector: non-negative entries summing to 1."""
    arr = np.asarray(p, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError(f"{name} is empty")
    if (arr < 0).any() or not np.isfinite(arr).all():
        raise ValidationError(f"{name} has negative or non-finite entries")
    total = arr.sum()
    if abs(total - 1.0) > atol:
        raise ValidationError(f"{name} sums to {total}, expected 1 +/- {atol}")
    return arr


def check_matching_dims(X: FloatArray, centers: FloatArray) -> None:
    """Ensure points and centers share the feature dimension."""
    if X.shape[1] != centers.shape[1]:
        raise ValidationError(
            f"dimension mismatch: points have d={X.shape[1]} but centers have "
            f"d={centers.shape[1]}"
        )
