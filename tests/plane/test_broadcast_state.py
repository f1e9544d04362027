"""Unit tests for broadcast handles and the resident split-state protocol."""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro.plane.broadcast import (
    InlineBroadcast,
    SharedArrayBroadcast,
    publish_broadcast,
    resolve_broadcast,
)
from repro.plane.shm import active_owned_segments, release_all_segments
from repro.plane.state import (
    RESIDENT,
    SharedStateEntry,
    SplitStateManager,
    collect_state_update,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    # Earlier tests may abandon runtimes to the garbage collector, and
    # segments held in reference cycles free only at cycle collection.
    # Collect first so the registry reflects live owners only.
    gc.collect()
    yield
    release_all_segments()


class TestBroadcast:
    def test_inline_zero_copy(self, rng):
        value = rng.normal(size=(6, 2))
        published = publish_broadcast(value, shared=False)
        assert isinstance(published.ref, InlineBroadcast)
        assert published.ref.resolve() is value  # the reference itself
        assert published.published_bytes == 0
        assert active_owned_segments() == []

    def test_shared_ndarray_published_once(self, rng):
        value = rng.normal(size=(6, 2))
        published = publish_broadcast(value, shared=True)
        assert isinstance(published.ref, SharedArrayBroadcast)
        assert published.published_bytes == value.nbytes
        resolved = published.ref.resolve()
        np.testing.assert_array_equal(resolved, value)
        assert not resolved.flags.writeable  # broadcasts are read-only
        published.release()
        assert active_owned_segments() == []
        published.release()  # idempotent

    def test_shared_descriptor_pickles_o1(self, rng):
        value = rng.normal(size=(512, 64))  # 256 KiB payload
        published = publish_broadcast(value, shared=True)
        payload = pickle.dumps(published.ref, pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 256  # descriptor, not the array
        published.release()

    def test_non_array_stays_inline_even_shared(self):
        published = publish_broadcast(3.14, shared=True)
        assert isinstance(published.ref, InlineBroadcast)
        assert published.ref.resolve() == 3.14
        assert active_owned_segments() == []

    def test_resolve_raw_value_passthrough(self, rng):
        value = rng.normal(size=3)
        assert resolve_broadcast(value) is value
        assert resolve_broadcast(None) is None


class TestStateProtocol:
    def test_first_job_promotes_then_resident(self, rng):
        mgr = SplitStateManager(2)
        d2 = rng.normal(size=50) ** 2
        mgr.states[0]["d2"] = d2

        spec = mgr.spec(0)
        assert isinstance(spec.entries["d2"], SharedStateEntry)
        assert mgr.segment_count == 1
        # Promotion replaced the entry with the segment-backed view.
        np.testing.assert_array_equal(mgr.states[0]["d2"], d2)

        # A task that mutates the attached array in place reports RESIDENT
        # and the driver sees the new bytes without any transfer.
        state = spec.materialize()
        state["d2"][:] = 1.0
        update = collect_state_update(spec, state)
        assert update.entries["d2"] is RESIDENT
        mgr.apply(update)
        np.testing.assert_array_equal(mgr.states[0]["d2"], np.ones(50))
        assert mgr.segment_count == 1  # same segment, no republish

    def test_update_pickles_o1_when_resident(self, rng):
        mgr = SplitStateManager(1)
        mgr.states[0]["d2"] = rng.normal(size=4096)
        spec = mgr.spec(0)
        state = spec.materialize()
        update = collect_state_update(spec, state)
        nbytes = len(pickle.dumps(update, pickle.HIGHEST_PROTOCOL))
        assert nbytes < 256  # markers only, no array bytes

    def test_same_layout_replacement_refreshes_in_place(self, rng):
        mgr = SplitStateManager(1)
        mgr.states[0]["norms"] = np.zeros(10)
        spec = mgr.spec(0)
        state = spec.materialize()
        state["norms"] = np.arange(10.0)  # new object, same layout
        mgr.apply(collect_state_update(spec, state))
        np.testing.assert_array_equal(mgr.states[0]["norms"], np.arange(10.0))
        assert mgr.segment_count == 1

    def test_changed_shape_ships_and_republishes(self, rng):
        mgr = SplitStateManager(1)
        mgr.states[0]["a"] = np.zeros(4)
        spec = mgr.spec(0)
        first_segment = spec.entries["a"].name
        state = spec.materialize()
        state["a"] = np.ones(9)  # different shape: must ship by value
        update = collect_state_update(spec, state)
        assert not isinstance(update.entries["a"], type(RESIDENT))
        mgr.apply(update)
        np.testing.assert_array_equal(mgr.states[0]["a"], np.ones(9))
        assert mgr.segment_count == 1
        assert mgr.spec(0).entries["a"].name != first_segment

    def test_deleted_key_releases_segment(self, rng):
        mgr = SplitStateManager(1)
        mgr.states[0]["a"] = np.zeros(4)
        spec = mgr.spec(0)
        state = spec.materialize()
        del state["a"]
        mgr.apply(collect_state_update(spec, state))
        assert "a" not in mgr.states[0]
        assert mgr.segment_count == 0
        assert active_owned_segments() == []

    def test_non_array_state_rides_inline(self):
        mgr = SplitStateManager(1)
        mgr.states[0]["tag"] = {"round": 3}
        spec = mgr.spec(0)
        assert spec.entries["tag"] == {"round": 3}
        state = spec.materialize()
        state["tag"] = {"round": 4}
        mgr.apply(collect_state_update(spec, state))
        assert mgr.states[0]["tag"] == {"round": 4}
        assert mgr.segment_count == 0

    def test_install_releases_split_segments(self, rng):
        mgr = SplitStateManager(2)
        mgr.states[0]["a"] = np.zeros(4)
        mgr.spec(0)
        assert mgr.segment_count == 1
        mgr.install(0, {"b": np.ones(2)})
        assert mgr.segment_count == 0
        np.testing.assert_array_equal(mgr.states[0]["b"], np.ones(2))

    def test_release_detaches_to_plain_copies(self, rng):
        mgr = SplitStateManager(1)
        d2 = rng.normal(size=8)
        mgr.states[0]["d2"] = d2.copy()
        mgr.spec(0)
        mgr.release()
        assert active_owned_segments() == []
        # Still readable after shutdown, as a plain in-memory array.
        np.testing.assert_array_equal(mgr.states[0]["d2"], d2)
        mgr.release()  # idempotent

    def test_telemetry_counters(self, rng):
        mgr = SplitStateManager(1)
        mgr.states[0]["d2"] = np.zeros(100)
        mgr.spec(0)
        assert mgr.drain_shipped() == 800  # the one-time publish
        assert mgr.held_bytes == 800
        mgr.spec(0)
        assert mgr.drain_shipped() == 0  # steady state: descriptors only
        assert mgr.held_bytes == 800  # memory held, not traffic
        mgr.release()
        assert mgr.held_bytes == 0

    def test_driver_side_same_layout_replacement_syncs_segment(self, rng):
        """Poking split_states with an equal-layout array between jobs
        must reach the workers (regression: spec() used to keep shipping
        the stale segment)."""
        mgr = SplitStateManager(1)
        mgr.states[0]["d2"] = np.zeros(16)
        mgr.spec(0)  # promoted to a segment
        mgr.states[0]["d2"] = np.full(16, 7.0)  # caller replaces the entry
        spec = mgr.spec(0)
        seen = spec.materialize()["d2"]
        np.testing.assert_array_equal(seen, np.full(16, 7.0))
        assert mgr.segment_count == 1  # synced in place, not republished

    def test_object_dtype_broadcast_stays_inline(self):
        """PyObject-pointer buffers must never be published to a segment."""
        value = np.array([{"a": 1}, None], dtype=object)
        published = publish_broadcast(value, shared=True)
        assert isinstance(published.ref, InlineBroadcast)
        assert published.ref.resolve() is value
        assert active_owned_segments() == []
