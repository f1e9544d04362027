"""Nearest-center assignment for the serving path.

The paper's output is a center set used only through ``d²(x, C)``
(Section 3.1), so serving a query is the reference kernel:
:func:`assign_serve` checks the points against the model, casts them to
the working dtype and evaluates :func:`~repro.linalg.distances.
assign_labels`'s expansion with the model's cached center terms
(``-2 C`` and ``||c||²``, computed once per version).  A request the
kernel would evaluate as one tile, as every request of the usual sizes
is, runs that tile's body directly.  Labels (lowest-index ties
included) and squared distances are that kernel's bits, and
``n_dist_evals`` is always ``n_points * k``.

A query-side prune index (triangle-inequality groups over the centers
plus Hamerly's separation test) once sat in front of this call.  It
halved the distance evaluations and was still 1.2–8× slower at every
shape a caller serves; README "Tried and removed" has the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse
from repro.linalg.distances import _assign, assign_labels
from repro.serve.model import ServedModel
from repro.types import FloatArray, IntArray

__all__ = ["AssignResult", "assign_serve"]

_F64 = np.dtype(np.float64)


@dataclass
class AssignResult:
    """One assignment: labels, distances, the version and the work done."""

    labels: IntArray
    sq_dists: FloatArray
    #: Model version the points were served against.
    version: int | None
    n_points: int
    #: Point-center distance evaluations performed: ``n_points * k``.
    n_dist_evals: int


def assign_serve(X: FloatArray, model: ServedModel) -> AssignResult:
    """Nearest-center assignment against a :class:`ServedModel`.

    Labels and ``sq_dists`` are bit-identical to ``assign_labels`` on
    ``X`` and ``model.centers`` in their working dtype.  ``X`` may be a
    scipy CSR matrix; it is then served by the sparse kernel, and the
    identity holds against ``assign_labels`` on the same CSR input.
    """
    sparse = not isinstance(X, np.ndarray) and _sparse.is_sparse(X)
    X = _sparse.to_csr(X) if sparse else np.asarray(X)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-dimensional, got shape {X.shape}")
    if X.shape[1] != model.d:
        raise ValidationError(
            f"dimension mismatch: points have d={X.shape[1]}, "
            f"model has d={model.d}"
        )
    if sparse:
        Xw, Cw = _sparse._as_working_sparse(X, model.centers)
        labels, best = assign_labels(Xw, Cw, return_sq_dists=True)
    else:
        # The working dtype of assign_labels: the model's, or float64.
        dtype = model.dtype if X.dtype == model.dtype else _F64
        if X.dtype != dtype:
            X = np.ascontiguousarray(X, dtype=dtype)
        labels, best = _assign(X, *model.center_terms(dtype))
    n = X.shape[0]
    return AssignResult(labels, best, model.version, n, n * model.k)
