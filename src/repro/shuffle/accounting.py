"""Byte accounting for the MapReduce shuffle.

One function decides how many bytes an emitted record "weighs":
:func:`estimate_nbytes`.  The runtime charges every emitted record
through :func:`record_nbytes`, and the job's ``shuffle_bytes`` and the
simulated cluster's shuffle term both read that one scale.

Exact wire format is irrelevant — only *relative* shuffle volume matters
to the cost model — so the rules are simple and cheap: an ndarray is its
buffer, a NumPy scalar its itemsize, strings/bytes their length,
containers charge an 8-byte header plus 8 bytes of framing per slot plus
their elements.  Dict entries charge their *keys* through the same rules
(a record's key is payload too: string/tuple/array keys ship real bytes
through the shuffle).  Empty containers, sets and wide NumPy scalars
(``complex128``, ``longdouble``) are counted by these rules too, not as
a flat word (regression tests pin this).
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from repro.linalg import sparse as _sparse

__all__ = ["estimate_nbytes", "record_nbytes"]

#: Framing charged per record / container slot (length prefix + tag).
FRAME_BYTES = 8

#: Exact types charged a flat 8 bytes without the probes below.  Exact,
#: not ``isinstance``: NumPy scalars such as ``np.float64`` (a ``float``
#: subclass) keep the itemsize rule of the general path.
_WORD_TYPES = frozenset({int, float, bool, type(None)})


def estimate_nbytes(value: Any) -> int:
    """Rough serialized size of an emitted value, for shuffle accounting.

    ndarray = its buffer; NumPy scalar = its itemsize; str/bytes = their
    length; tuple/list/set/frozenset = header + 8 per slot + elements;
    dict = header + (framing + key + value) per entry; anything else
    (int / float / bool / None) = 8.

    The exact types the pipeline emits (ndarray, tuple keys, str tags,
    Python scalars) are charged first, before the scipy sparse probe;
    subclasses such as ``np.memmap`` take the general path, which charges
    them the same.
    """
    cls = type(value)
    if cls is np.ndarray:
        return value.nbytes
    if cls is tuple:
        return FRAME_BYTES + FRAME_BYTES * len(value) + sum(
            estimate_nbytes(v) for v in value
        )
    if cls in _WORD_TYPES:
        return 8
    if cls is str:
        return len(value.encode())
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if _sparse.is_sparse(value):
        # A scipy sparse matrix ships its stored triple, not the dense
        # rectangle: data + indices + indptr.  Charging the rectangle
        # would make every sparse record look ``1/density`` times
        # heavier than what actually moves.
        if hasattr(value, "indptr"):  # CSR/CSC carry the triple directly
            return _sparse.csr_nbytes(value)
        return _sparse.csr_nbytes(_sparse.to_csr(value))
    if isinstance(value, np.generic):
        # NumPy scalars (np.float64, np.complex128, ...) know their true
        # width, which may be wider than a machine word.
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (tuple, list, set, frozenset)):
        return FRAME_BYTES + FRAME_BYTES * len(value) + sum(
            estimate_nbytes(v) for v in value
        )
    if isinstance(value, dict):
        return FRAME_BYTES + sum(
            FRAME_BYTES + estimate_nbytes(k) + estimate_nbytes(v)
            for k, v in value.items()
        )
    return 8  # int / float / bool / None


def record_nbytes(key: Hashable, value: Any) -> int:
    """Shuffle bytes of one emitted record: framing + key + value."""
    return FRAME_BYTES + estimate_nbytes(key) + estimate_nbytes(value)
