"""Regression: reduce-side recovery of lost spill manifests via lineage.

A map task can settle successfully and *then* lose its spilled output
before ingest (the worker that wrote the spill died, and its spill file
went with it).  The runtime must notice the missing manifest at ingest,
replay the owning map task inline via lineage, and finish bit-identical
to a fault-free run — counting the event in
``faults["manifests_recovered"]``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exec import SerialBackend
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="spill-manifest tests are POSIX-only"
)


class ManifestEatingBackend(SerialBackend):
    """Deletes map-task spill files after the region settles.

    Models the failure where the worker holding the spill dies between
    settling its result and the driver's ingest: the result
    object still references the manifest, but the bytes are gone.
    """

    def __init__(self, *, eat: int = 1):
        super().__init__()
        self.eat = eat
        self.eaten: list[str] = []

    def run_calls(self, fn, calls, **kwargs):
        results = super().run_calls(fn, calls, **kwargs)
        if getattr(fn, "__name__", "") == "_execute_map_task":
            for result in results:
                manifest = getattr(result, "manifest", None)
                if manifest is None or len(self.eaten) >= self.eat:
                    continue
                if os.path.exists(manifest.path):
                    os.unlink(manifest.path)
                    self.eaten.append(manifest.path)
        return results


def _pipeline(path, *, backend, **kwargs):
    return mr_scalable_kmeans(
        path, 3, l=4.0, r=2, n_splits=4, seed=7, lloyd_max_iter=2,
        workers=1, backend=backend, shuffle_budget=1, **kwargs,
    )


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 3))
    path = tmp_path_factory.mktemp("manifests") / "data.npy"
    np.save(path, X)
    return str(path)


@pytest.mark.parametrize("eat", [1, 3])
def test_lost_manifest_recovered_bit_identical(dataset, eat):
    reference = _pipeline(dataset, backend=SerialBackend())
    assert reference.faults["manifests_recovered"] == 0

    backend = ManifestEatingBackend(eat=eat)
    report = _pipeline(dataset, backend=backend)
    assert len(backend.eaten) == eat  # the failure actually happened

    np.testing.assert_array_equal(report.centers, reference.centers)
    assert report.seed_cost == reference.seed_cost
    assert report.final_cost == reference.final_cost
    assert report.lloyd_iters == reference.lloyd_iters
    assert report.n_jobs == reference.n_jobs
    assert report.faults["manifests_recovered"] == eat
    # Telemetry apart from the recovery counter stays fault-free-identical.
    assert report.shuffle == reference.shuffle
    assert report.plane == reference.plane

