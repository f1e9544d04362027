"""Data-plane configuration: the broadcast transport mode.

One knob, resolved with the repository's usual precedence (explicit
argument > process-wide default installed by the CLI > environment >
built-in default):

``REPRO_SHARED_BROADCAST`` / ``--no-shared-broadcast`` / ``shared_broadcast=``
    Whether the MapReduce runtime runs the **zero-copy data plane**:
    job broadcasts published once to shared memory and split state kept
    resident behind descriptors (see :mod:`repro.plane.broadcast` and
    :mod:`repro.plane.state`), with the simulated cluster charging the
    broadcast *once per job* instead of once per map task.  The default
    is off (the legacy pickle path) so library results and simulated
    timings are unchanged unless asked for; the CLI turns it on for
    ``mr`` runs unless ``--no-shared-broadcast`` is given.

    The mode also fixes the *accounting*, independent of the backend:
    serial and thread backends under shared mode use trivial zero-copy
    references but charge publish-once all the same, so simulated time
    stays bit-identical across backends at a fixed mode — the property
    tests rely on this.
"""

from __future__ import annotations

import os

from repro.exceptions import ValidationError

__all__ = [
    "ENV_SHARED_BROADCAST",
    "resolve_shared_broadcast",
    "set_default_shared_broadcast",
]

ENV_SHARED_BROADCAST = "REPRO_SHARED_BROADCAST"

_default_shared: bool | None = None

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off", "")


def set_default_shared_broadcast(value: bool | None) -> bool | None:
    """Install a process-wide default (the CLI's knob); returns previous."""
    global _default_shared
    previous = _default_shared
    _default_shared = None if value is None else bool(value)
    return previous


def resolve_shared_broadcast(value: bool | None = None) -> bool:
    """Resolve the plane mode: argument > default > env > off."""
    if value is not None:
        return bool(value)
    if _default_shared is not None:
        return _default_shared
    raw = os.environ.get(ENV_SHARED_BROADCAST)
    if raw is None:
        return False
    raw = raw.strip().lower()
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise ValidationError(
        f"{ENV_SHARED_BROADCAST} must be a boolean (0/1/true/false), got {raw!r}"
    )

