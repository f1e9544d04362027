"""Unit tests for the plane's shared-memory segment registry."""

from __future__ import annotations

import errno
import gc
import os
import pathlib
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.plane import shm as plane_shm
from repro.plane.shm import (
    SEGMENT_PREFIX,
    active_owned_segments,
    attach_array,
    create_array_segment,
    release_all_segments,
    release_segment,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    release_all_segments()


class TestCreateAttach:
    def test_roundtrip_bytes(self, rng):
        src = rng.normal(size=(13, 4))
        handle = create_array_segment(src, tag="t")
        assert handle.name.startswith(SEGMENT_PREFIX)
        np.testing.assert_array_equal(handle.array, src)
        # Owner-side attach: a view over the same buffer, same bytes.
        view = attach_array(handle.name, src.shape, src.dtype)
        assert np.shares_memory(view, handle.array)
        np.testing.assert_array_equal(view, src)

    def test_source_is_copied_not_aliased(self, rng):
        src = rng.normal(size=(5, 3))
        handle = create_array_segment(src)
        src[0, 0] = 999.0
        assert handle.array[0, 0] != 999.0

    def test_non_contiguous_and_int_dtypes(self, rng):
        src = np.arange(24, dtype=np.int64).reshape(6, 4)[::2]
        handle = create_array_segment(src)
        np.testing.assert_array_equal(handle.array, src)
        assert handle.array.dtype == np.int64

    def test_writes_visible_through_other_views(self, rng):
        handle = create_array_segment(np.zeros(8))
        view = attach_array(handle.name, (8,), np.float64)
        view[3] = 7.0
        assert handle.array[3] == 7.0


_DEV_SHM = pathlib.Path("/dev/shm")


def _no_room(shm, nbytes):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFullSharedMemory:
    """A full ``/dev/shm`` is an ``OSError`` at creation, not a SIGBUS
    at the first write."""

    @pytest.mark.skipif(
        not hasattr(os, "posix_fallocate") or not _DEV_SHM.is_dir(),
        reason="needs posix_fallocate and /dev/shm",
    )
    def test_creation_reserves_every_page(self):
        size = 1 << 20
        shm = shared_memory.SharedMemory(create=True, size=size)
        try:
            path = _DEV_SHM / shm.name.lstrip("/")
            assert path.stat().st_blocks == 0  # ftruncate only sized it
            plane_shm._reserve_pages(shm, size)
            assert path.stat().st_blocks * 512 >= size
        finally:
            shm.close()
            shm.unlink()

    def test_no_room_raises_and_leaves_nothing(self, rng, monkeypatch):
        before = sorted(p.name for p in _DEV_SHM.glob(f"{SEGMENT_PREFIX}*"))
        monkeypatch.setattr(plane_shm, "_reserve_pages", _no_room)
        with pytest.raises(OSError) as excinfo:
            create_array_segment(rng.normal(size=64), tag="full")
        assert excinfo.value.errno == errno.ENOSPC
        assert active_owned_segments() == []
        after = sorted(p.name for p in _DEV_SHM.glob(f"{SEGMENT_PREFIX}*"))
        assert after == before


class TestLifecycle:
    def test_release_removes_from_registry(self, rng):
        handle = create_array_segment(rng.normal(size=4))
        assert handle.name in active_owned_segments()
        handle.release()
        assert handle.name not in active_owned_segments()
        handle.release()  # idempotent
        release_segment(handle.name)  # also idempotent

    def test_release_all(self, rng):
        # Hold the handles: an unreferenced handle is freed by GC alone.
        handles = [create_array_segment(rng.normal(size=3)) for _ in range(4)]
        names = [h.name for h in handles]
        assert set(names) <= set(active_owned_segments())
        release_all_segments()
        assert active_owned_segments() == []

    def test_gc_frees_abandoned_segment(self, rng):
        handle = create_array_segment(rng.normal(size=4))
        name = handle.name
        del handle
        gc.collect()
        assert name not in active_owned_segments()

    def test_foreign_release_is_noop(self):
        release_segment("not_ours_at_all")  # must not raise


class TestForkSafety:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
    def test_forked_child_does_not_unlink_parent_segment(self, rng):
        handle = create_array_segment(rng.normal(size=(4, 2)))
        pid = os.fork()
        if pid == 0:  # child: exit through the finalizer/atexit path
            os._exit(0)
        os.waitpid(pid, 0)
        # The child inherited the registry + finalizers but must not have
        # freed the parent's segment: attaching again still works.
        view = attach_array(handle.name, (4, 2), np.float64)
        np.testing.assert_array_equal(view, handle.array)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
    def test_child_sees_no_owned_segments(self, rng):
        create_array_segment(rng.normal(size=3))
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(w, str(len(active_owned_segments())).encode())
            os._exit(0)
        os.close(w)
        owned_in_child = int(os.read(r, 64) or b"-1")
        os.close(r)
        os.waitpid(pid, 0)
        assert owned_in_child == 0  # ownership is pid-keyed
