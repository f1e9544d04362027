"""ServedModel: freezing, validation, read-only centers, center terms, pickling."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.linalg.distances import row_norms_sq
from repro.serve import ModelRegistry
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



def test_center_terms_once_per_version_and_never_pickled(blobs):
    _, centers = blobs
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    with ModelRegistry(shared=True) as registry:
        model = registry.publish(centers.astype(np.float32))
        assert set(model._terms) == {f32}  # primed at publish
        neg2C, c_norms = model.center_terms(f32)
        assert model.center_terms(f32)[0] is neg2C
        C = np.asarray(model.centers)
        assert neg2C.tobytes() == (-2.0 * C).tobytes()
        assert c_norms.tobytes() == row_norms_sq(C).tobytes()
        assert not (neg2C.flags.writeable or c_norms.flags.writeable)
        # An upcast is computed on first use, from the widened centers.
        up_neg2C, up_norms = model.center_terms(f64)
        C64 = C.astype(np.float64)
        assert up_neg2C.tobytes() == (-2.0 * C64).tobytes()
        assert up_norms.tobytes() == row_norms_sq(C64).tobytes()
        # Neither travels: the model pickles as a never-used one does, and
        # a worker computes its own.
        payload = pickle.dumps(model)
        unused = ServedModel(model.version, model._ref, (model.k, model.d), model.dtype)
        assert payload == pickle.dumps(unused)
        clone = pickle.loads(payload)
        assert clone._terms == {}
        assert clone.center_terms(f32)[0].tobytes() == neg2C.tobytes()
