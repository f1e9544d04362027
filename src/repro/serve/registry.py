"""The model registry: versioned, atomically-published served models.

The registry is the single writer of the serving path.  ``publish()``
freezes a center matrix into a :class:`~repro.serve.model.ServedModel`
— pushing the array through the data plane's broadcast machinery
(:func:`repro.plane.broadcast.publish_broadcast`), so in shared mode the
centers live in one read-only shared-memory segment — and swaps it in as
the *current* model with a single reference assignment.  Readers call
:meth:`current` with no lock: they either see the old whole model or the
new whole model, never a torn mix, because models are immutable value
objects and the swap is one pointer store.

Retired versions are kept for ``keep_versions`` generations (so
responses computed against version ``v`` can still be audited while
``v+1`` serves) and then released — dropping the owner's shared-memory
segment.  ``close()`` releases everything; the registry guarantees zero
leaked ``/dev/shm`` segments after shutdown, same contract as the
MapReduce plane.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.exceptions import ValidationError
from repro.plane.broadcast import PublishedBroadcast, publish_broadcast
from repro.serve.model import ServedModel, _check_centers
from repro.types import FloatArray

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Versioned store of frozen served models with one atomic head.

    Parameters
    ----------
    shared:
        Broadcast transport for published centers: ``True`` publishes
        each version once to a shared-memory segment (worker processes
        attach by descriptor); ``False``, the default, keeps the frozen
        array private to this process, where every request is served.
    keep_versions:
        Retired versions retained behind the current one before their
        segments are released.  The current version never expires.
    """

    def __init__(self, *, shared: bool = False, keep_versions: int = 2):
        if keep_versions < 0:
            raise ValidationError(
                f"keep_versions must be >= 0, got {keep_versions}"
            )
        self._shared = bool(shared)
        self._keep = int(keep_versions)
        self._lock = threading.Lock()
        self._published: "OrderedDict[int, tuple[ServedModel, PublishedBroadcast]]" = (
            OrderedDict()
        )
        self._next_version = 1
        self._current: ServedModel | None = None
        self._closed = False

    # -- write side ----------------------------------------------------
    def publish(self, centers: FloatArray) -> ServedModel:
        """Freeze ``centers`` as the next version and make it current.

        The matrix is copied once (into a shared segment or a private
        read-only array), so later mutation of the caller's array can
        never reach readers.  Returns the new model; concurrent readers
        switch to it at their next ``current()`` call without blocking.
        """
        centers = _check_centers(centers)
        with self._lock:
            if self._closed:
                raise ValidationError("registry is closed")
            if self._current is not None and centers.shape[1] != self._current.d:
                raise ValidationError(
                    f"published centers have d={centers.shape[1]}, "
                    f"registry serves d={self._current.d}"
                )
            version = self._next_version
            self._next_version += 1
            # Freeze a private copy first: the shared path copies it into
            # the segment, the inline path holds it directly — either way
            # later mutation of the caller's array can't reach readers.
            frozen = centers.copy()
            frozen.flags.writeable = False
            published = publish_broadcast(frozen, shared=self._shared)
            model = ServedModel(
                version, published.ref, centers.shape, centers.dtype
            )
            # Prime the owner-side copy now: a reader that grabs this
            # model but first touches .centers after the version has
            # been retired (segment unlinked) must still be servable.
            # The center terms come with it, once per version.
            model.center_terms(model.dtype)
            self._published[version] = (model, published)
            self._retire_locked()
            # The swap: one reference store.  Readers never lock.
            self._current = model
            return model

    def _retire_locked(self) -> None:
        """Release whole versions beyond the retention window."""
        while len(self._published) > self._keep + 1:
            _version, (_model, published) = self._published.popitem(last=False)
            published.release()

    # -- read side -----------------------------------------------------
    def current(self) -> ServedModel:
        """The latest published model (lock-free; raises before first publish)."""
        model = self._current
        if model is None:
            raise ValidationError("registry has no published model yet")
        return model

    def get(self, version: int) -> ServedModel:
        """A specific retained version (raises ``KeyError`` once retired)."""
        with self._lock:
            entry = self._published.get(version)
        if entry is None:
            raise KeyError(f"model version {version} is not retained")
        return entry[0]

    def versions(self) -> list[int]:
        """Retained version numbers, oldest first."""
        with self._lock:
            return list(self._published)

    @property
    def shared(self) -> bool:
        """Whether published centers ride shared-memory segments."""
        return self._shared

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release every retained version's segment (idempotent)."""
        with self._lock:
            self._closed = True
            entries = list(self._published.values())
            self._published.clear()
            self._current = None
        for _model, published in entries:
            published.release()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        current = self._current
        return (
            f"ModelRegistry(shared={self._shared}, "
            f"current={current.version if current else None}, "
            f"retained={len(self._published)})"
        )
