"""Low-level utilities shared by every other subpackage.

Nothing in here knows about clustering; these are the generic building
blocks (random-number plumbing, argument validation, chunked iteration,
timers) that the algorithmic layers are written against.
"""

from repro.utils.chunking import chunk_slices
from repro.utils.rng import ensure_generator, spawn_generators
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_positive_int,
    check_weights,
)

__all__ = [
    "chunk_slices",
    "ensure_generator",
    "spawn_generators",
    "Timer",
    "check_array",
    "check_in_range",
    "check_positive_int",
    "check_weights",
]
