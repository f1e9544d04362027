"""estimate_nbytes: the exact-type fast path charges what it always did.

The oracle is a frozen copy of the function before the fast path (every
value through the ``isinstance`` chain, scipy probe first).  Every value
of the corpus must weigh the same under both, including the subclasses
and NumPy scalars the fast path must leave to the general rules.
"""

from __future__ import annotations

import collections
from typing import Any

import numpy as np
import pytest

from repro.linalg import sparse as _sparse
from repro.shuffle.accounting import FRAME_BYTES, estimate_nbytes, record_nbytes


def oracle_nbytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if _sparse.is_sparse(value):
        if hasattr(value, "indptr"):
            return _sparse.csr_nbytes(value)
        return _sparse.csr_nbytes(_sparse.to_csr(value))
    if isinstance(value, np.generic):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (tuple, list, set, frozenset)):
        return FRAME_BYTES + FRAME_BYTES * len(value) + sum(
            oracle_nbytes(v) for v in value
        )
    if isinstance(value, dict):
        return FRAME_BYTES + sum(
            FRAME_BYTES + oracle_nbytes(k) + oracle_nbytes(v)
            for k, v in value.items()
        )
    return 8


class _Tagged(str):
    pass


class _Pair(tuple):
    pass


class _Count(int):
    pass


Point = collections.namedtuple("Point", "x y")


def corpus(tmp_path):
    mm = np.memmap(tmp_path / "mm.bin", dtype=np.float32, mode="w+", shape=(5, 3))
    values = [
        # ndarrays: plain, 0-d, empty, views, object dtype, subclasses.
        np.zeros(17), np.zeros((3, 4), dtype=np.float32), np.array(2.5),
        np.empty(0), np.arange(10)[::2], np.array(["ab", "c"]),
        np.array([1, None], dtype=object), mm, mm[1:3],
        # Python scalars and None, subclasses of them.
        0, -(2**100), 3.14, float("nan"), True, False, None, _Count(7),
        # NumPy scalars, wide and narrow (np.float64 subclasses float).
        np.float64(1.0), np.float32(1.0), np.float16(1.0), np.int8(3),
        np.int64(3), np.uint64(3), np.bool_(True), np.complex64(1j),
        np.complex128(1 + 2j), np.longdouble(1.5), np.clongdouble(1j),
        np.str_("héllo"), np.bytes_(b"xy"), np.datetime64("2024-01-01"),
        # Strings and bytes.
        "", "agg", "héllo wörld", _Tagged("tag"), b"", b"xyz",
        bytearray(b"abcd"), memoryview(b"ab"),
        # Containers, nested.
        (), [], set(), frozenset(), {},
        ("agg", 3), (("agg", 3), np.zeros(4)), ("k", (1, (2.0, "x"))),
        [1, [2, [3, np.ones(2)]]], {1.0, 2.0}, frozenset({"a", b"b"}),
        {"a": 1.0, ("k", 2): [np.zeros(3)], 3: {"nested": (None, True)}},
        _Pair((1, "a")), Point(1.0, np.float32(2.0)),
        (np.float64(1.0), np.int64(2), np.str_("s"), mm),
        # Anything else weighs a word.
        object(), 1 + 2j, Ellipsis,
    ]
    if _sparse.HAVE_SCIPY:
        import scipy.sparse as sp

        m = sp.random(20, 30, density=0.1, format="csr", random_state=0)
        values += [m, m.tocsc(), m.tocoo(), sp.csr_array(m), ("agg", m)]
    return values


def test_matches_frozen_oracle(tmp_path):
    for value in corpus(tmp_path):
        assert estimate_nbytes(value) == oracle_nbytes(value), repr(value)
        assert type(estimate_nbytes(value)) is int


def test_record_nbytes_matches_frozen_oracle(tmp_path):
    values = corpus(tmp_path)
    keys = ["phi", ("agg", 7), ("agg", np.int64(7)), 3, None, ("w", ("x", 1.5))]
    for key in keys:
        for value in values:
            want = FRAME_BYTES + oracle_nbytes(key) + oracle_nbytes(value)
            assert record_nbytes(key, value) == want


@pytest.mark.skipif(not _sparse.HAVE_SCIPY, reason="scipy not installed")
def test_sparse_still_charged_its_stored_triple():
    import scipy.sparse as sp

    m = sp.random(40, 50, density=0.05, format="csr", random_state=1)
    assert estimate_nbytes(m) == _sparse.csr_nbytes(m)
