"""ServedModel: freezing, validation, read-only centers, pickling."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serve.model import ServedModel


def test_freeze_basics(blobs):
    _, centers = blobs
    model = ServedModel.freeze(7, centers)
    assert model.version == 7
    assert (model.k, model.d) == centers.shape
    assert model.dtype == centers.dtype
    np.testing.assert_array_equal(np.asarray(model.centers), centers)


def test_frozen_centers_are_read_only(blobs):
    _, centers = blobs
    model = ServedModel.freeze(1, centers)
    with pytest.raises(ValueError):
        model.centers[0, 0] = 99.0


def test_freeze_copies_the_input(blobs):
    _, centers = blobs
    centers = centers.copy()
    model = ServedModel.freeze(1, centers)
    before = np.asarray(model.centers).copy()
    centers[:] = -1.0
    np.testing.assert_array_equal(np.asarray(model.centers), before)


@pytest.mark.parametrize(
    "bad",
    [
        np.empty((0, 3)),
        np.empty((3, 0)),
        np.ones(4),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
    ],
)
def test_freeze_rejects_bad_centers(bad):
    with pytest.raises(ValidationError):
        ServedModel.freeze(1, bad)


def test_freeze_casts_exotic_dtypes_to_float64():
    model = ServedModel.freeze(1, np.arange(8, dtype=np.int32).reshape(4, 2))
    assert model.dtype == np.float64


def test_pickle_round_trip(blobs):
    _, centers = blobs
    model = ServedModel.freeze(3, centers)
    clone = pickle.loads(pickle.dumps(model))
    assert clone.version == 3
    np.testing.assert_array_equal(
        np.asarray(clone.centers), np.asarray(model.centers)
    )

