"""Frozen, versioned served models.

A :class:`ServedModel` is one immutable snapshot of a trained center set,
ready to answer "which cluster is this point in?" at serving rates.  Its
**centers** travel behind a :class:`~repro.plane.broadcast.BroadcastRef`
— published once (to a shared-memory segment when the registry runs in
shared mode) so the handle pickles as a few dozen bytes and a worker
process materializes the matrix once per version, not once per task.
Resolution copies out of the segment (see :attr:`ServedModel.centers`):
the segment is transport, so the registry can retire old versions
without coordinating with readers.

Models are value objects: the only mutable field is the lazily resolved
centers cache, so handing the same ``ServedModel`` to many threads is
safe and a reader can never observe a half-updated model (the registry
swaps whole objects, never fields).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.exceptions import ValidationError
from repro.plane.broadcast import (
    BroadcastRef,
    InlineBroadcast,
    SharedArrayBroadcast,
    resolve_broadcast,
)

__all__ = ["ServedModel"]


class ServedModel:
    """One immutable, versioned model the registry published.

    ``centers`` resolves the broadcast handle on first touch (an attach
    + zero-copy view in shared mode, the value itself inline) and caches
    the read-only array.  Instances pickle as
    ``(version, handle, shape, dtype)`` — a worker process that receives
    one attaches the same shared segment instead of copying centers.
    """

    def __init__(
        self,
        version: int,
        ref: BroadcastRef,
        shape: tuple[int, int],
        dtype: np.dtype,
    ):
        self.version = int(version)
        self._ref = ref
        self.k, self.d = (int(shape[0]), int(shape[1]))
        self.dtype = np.dtype(dtype)
        self._lock = threading.Lock()
        self._centers: np.ndarray | None = None

    # -- plumbing ------------------------------------------------------
    def __getstate__(self):
        return {
            "version": self.version,
            "ref": self._ref,
            "shape": (self.k, self.d),
            "dtype": self.dtype.str,
        }

    def __setstate__(self, state):
        self.__init__(
            state["version"], state["ref"], state["shape"], state["dtype"]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServedModel(version={self.version}, k={self.k}, d={self.d}, "
            f"dtype={self.dtype})"
        )

    # -- reads ---------------------------------------------------------
    @property
    def centers(self) -> np.ndarray:
        """The frozen ``(k, d)`` center matrix (read-only, process-private).

        Resolving a shared handle *copies out* of the segment — once per
        process per version.  The segment is transport, not residence:
        the registry may retire (unmap) an old version at any moment,
        and a lagging reader still holding its ``ServedModel`` must keep
        serving from it safely.  Models are ``(k, d)`` — the copy is
        noise next to the queries it serves.
        """
        cached = self._centers
        if cached is not None:
            return cached
        with self._lock:
            if self._centers is None:
                value = resolve_broadcast(self._ref)
                value = np.asarray(value)
                if value.shape != (self.k, self.d):
                    raise ValidationError(
                        f"served centers resolved to shape {value.shape}, "
                        f"expected {(self.k, self.d)}"
                    )
                if isinstance(self._ref, SharedArrayBroadcast):
                    value = value.copy()  # detach from the segment's lifetime
                else:
                    value = value.view()
                value.flags.writeable = False
                self._centers = value
            return self._centers

    # -- construction helper ------------------------------------------
    @staticmethod
    def freeze(version: int, centers: np.ndarray) -> "ServedModel":
        """An inline (non-registry) model around a private centers copy.

        Convenience for tests and one-off scoring without a registry;
        the registry itself builds models around published broadcasts.
        """
        centers = _check_centers(centers)
        frozen = centers.copy()
        frozen.flags.writeable = False
        return ServedModel(
            version, InlineBroadcast(frozen), frozen.shape, frozen.dtype
        )


def _check_centers(centers: np.ndarray) -> np.ndarray:
    """Validate and normalize a center matrix for publishing."""
    centers = np.asarray(centers)
    if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] < 1:
        raise ValidationError(
            f"centers must be a non-empty 2-d array, got shape {centers.shape}"
        )
    if not np.isfinite(centers).all():
        raise ValidationError("centers must be finite")
    if centers.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        centers = centers.astype(np.float64)
    return np.ascontiguousarray(centers)
