"""Self-fetching split sources: HTTP/object-store ``.npy`` datasets.

A cluster driver should not have to pre-stage the dataset on every
worker box.  :class:`HttpSplitSource` points at a ``.npy`` file behind
any HTTP server that honors ``Range`` requests (S3-style object stores,
nginx, or the bundled :class:`RangeFileServer`), and its descriptors are
*self-fetching*: a :class:`HttpSplitDescriptor` pickles as the URL plus
a row range, and ``load()`` on whatever machine receives it issues one
range request for exactly its rows, writes them through an atomic local
cache, and memory-maps the cached file.  Repeat loads of the same split
(retries, multiple jobs over the same splits) hit the cache and fetch
nothing.

Only the ``.npy`` *header* is read eagerly (one small range request at
construction) to learn shape/dtype/data offset; row bytes move lazily,
split by split, on the machines that actually process them.

Everything here is stdlib + NumPy — no third-party HTTP client.
"""

from __future__ import annotations

import ast
import email.utils
import hashlib
import http.server
import os
import pathlib
import re
import socketserver
import struct
import tempfile
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import get_config
from repro.data.splits import SplitDescriptor, SplitSource
from repro.exceptions import ValidationError

__all__ = [
    "HttpSplitDescriptor",
    "HttpSplitSource",
    "RangeFileServer",
]

_NPY_MAGIC = b"\x93NUMPY"


def _cache_root() -> str:
    """The ``http_cache`` setting, else ``<data_root>/.http-cache``, else
    a per-user temp directory."""
    config = get_config()
    if config.http_cache is not None:
        return os.path.abspath(config.http_cache)
    if config.data_root is not None:
        return os.path.join(os.path.abspath(config.data_root), ".http-cache")
    return os.path.join(
        tempfile.gettempdir(), f"repro-http-cache-{os.getuid()}"
    )


def _fetch_range(url: str, start: int, stop: int) -> bytes:
    """Bytes ``[start, stop)`` of ``url`` via one ``Range`` request.

    Servers that ignore ``Range`` (plain 200) are handled by slicing the
    full body at the absolute offsets — correct, just not economical.
    """
    if stop <= start:
        return b""
    req = urllib.request.Request(
        url, headers={"Range": f"bytes={start}-{stop - 1}"}
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        body = resp.read()
        if resp.status == 206:
            return body
    # Full-body fallback: the server sent everything from byte 0.
    return body[start:stop]


def _parse_npy_header(url: str) -> tuple[tuple[int, int], np.dtype, int]:
    """``(shape, dtype, data_offset)`` of a remote C-order 2-d ``.npy``.

    Fetches the fixed preamble first, then exactly the declared header;
    rejects Fortran order (row slicing would be wrong) and non-2-d data.
    """
    head = _fetch_range(url, 0, 12)
    if len(head) < 10 or head[:6] != _NPY_MAGIC:
        raise ValidationError(f"{url} is not a .npy file (bad magic)")
    major = head[6]
    if major == 1:
        (hlen,) = struct.unpack("<H", head[8:10])
        data_offset = 10 + hlen
        header_bytes = _fetch_range(url, 10, data_offset)
    else:  # format 2.0 / 3.0: 4-byte little-endian header length
        (hlen,) = struct.unpack("<I", head[8:12])
        data_offset = 12 + hlen
        header_bytes = _fetch_range(url, 12, data_offset)
    try:
        header = ast.literal_eval(header_bytes.decode("latin1").strip())
    except (SyntaxError, ValueError) as exc:
        raise ValidationError(f"{url}: unparseable .npy header") from exc
    if header.get("fortran_order"):
        raise ValidationError(
            f"{url} is Fortran-ordered; row-range fetches need C order"
        )
    shape = tuple(int(s) for s in header["shape"])
    if len(shape) != 2:
        raise ValidationError(
            f"{url} holds a {len(shape)}-d array; split sources need 2-d rows"
        )
    return (shape[0], shape[1]), np.dtype(header["descr"]), data_offset


@dataclass(frozen=True)
class HttpSplitDescriptor(SplitDescriptor):
    """Self-fetching descriptor for rows ``[start, stop)`` of a remote ``.npy``.

    Pickles as the URL, the row range, and the (small) layout facts
    learned from the header — no dataset bytes.  ``load()`` fetches the
    range into an atomic local cache file and memory-maps it, so a retry
    or a second job over the same split costs zero wire bytes.

    ``cache_dir=None`` defers cache placement to the *loading* machine
    (``REPRO_HTTP_CACHE`` > ``$REPRO_DATA_ROOT/.http-cache`` > tmpdir),
    which is what a descriptor shipped to a remote worker wants.
    """

    url: str
    start: int
    stop: int
    n_cols: int
    dtype_str: str
    data_offset: int
    cache_dir: Optional[str] = None

    def _cache_path(self) -> pathlib.Path:
        root = self.cache_dir or _cache_root()
        tag = hashlib.sha1(self.url.encode()).hexdigest()[:16]
        return pathlib.Path(root) / f"{tag}-{self.start}-{self.stop}.npy"

    def load(self) -> np.ndarray:
        n_rows = self.stop - self.start
        dtype = np.dtype(self.dtype_str)
        if n_rows <= 0:
            return np.empty((0, self.n_cols), dtype=dtype)
        path = self._cache_path()
        if not path.exists():
            row_bytes = self.n_cols * dtype.itemsize
            lo = self.data_offset + self.start * row_bytes
            body = _fetch_range(self.url, lo, lo + n_rows * row_bytes)
            if len(body) != n_rows * row_bytes:
                raise ValidationError(
                    f"{self.url}: range [{self.start}, {self.stop}) returned "
                    f"{len(body)} bytes, expected {n_rows * row_bytes}"
                )
            path.parent.mkdir(parents=True, exist_ok=True)
            rows = np.frombuffer(body, dtype=dtype).reshape(n_rows, self.n_cols)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.save(fh, rows)
                os.replace(tmp, path)  # atomic: concurrent loaders race safely
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return np.load(path, mmap_mode="r")


class HttpSplitSource(SplitSource):
    """Splits over a ``.npy`` file served over HTTP with range requests.

    Construction costs one small header fetch; everything after that is
    lazy.  ``block()`` / ``as_array()`` on the driver go through the same
    cached range machinery the workers use.
    """

    def __init__(self, url: str, *, cache_dir: str | os.PathLike | None = None):
        self.url = url
        self._cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._shape, self._dtype, self._data_offset = _parse_npy_header(url)
        self._validate()

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def descriptor(self, start: int, stop: int) -> HttpSplitDescriptor:
        return HttpSplitDescriptor(
            url=self.url,
            start=int(start),
            stop=int(stop),
            n_cols=self._shape[1],
            dtype_str=self._dtype.str,
            data_offset=self._data_offset,
            cache_dir=self._cache_dir,
        )

    def block(self, start: int, stop: int) -> np.ndarray:
        return self.descriptor(start, stop).load()

    def as_array(self) -> np.ndarray:
        return self.descriptor(0, self._shape[0]).load()


# ---------------------------------------------------------------------------
# A minimal Range-capable static file server.  http.server's
# SimpleHTTPRequestHandler does NOT honor Range, so tests, the example,
# and the benchmark need this to exercise the 206 path for real.
# ---------------------------------------------------------------------------

_RANGE_RE = re.compile(r"bytes=(\d+)-(\d+)?$")


class _RangeHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # pragma: no cover - silence test noise
        pass

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        server: RangeFileServer = self.server.owner  # type: ignore[attr-defined]
        path = (server.root / self.path.lstrip("/")).resolve()
        if server.root not in path.parents and path != server.root:
            self.send_error(403)
            return
        if not path.is_file():
            self.send_error(404)
            return
        size = path.stat().st_size
        rng = self.headers.get("Range")
        match = _RANGE_RE.match(rng) if rng else None
        with server.lock:
            server.requests += 1
            if match:
                server.range_requests += 1
        with open(path, "rb") as fh:
            if match:
                lo = int(match.group(1))
                hi = int(match.group(2)) if match.group(2) else size - 1
                hi = min(hi, size - 1)
                fh.seek(lo)
                body = fh.read(hi - lo + 1)
                self.send_response(206)
                self.send_header("Content-Range", f"bytes {lo}-{hi}/{size}")
            else:
                body = fh.read()
                self.send_response(200)
        self.send_header("Accept-Ranges", "bytes")
        self.send_header("Content-Length", str(len(body)))
        self.send_header(
            "Last-Modified", email.utils.formatdate(usegmt=True)
        )
        self.end_headers()
        self.wfile.write(body)


class RangeFileServer:
    """Threaded localhost HTTP server with ``Range`` support over a directory.

    Counts total and range requests so tests and the benchmark can
    assert that split loads fetch *ranges*, not whole files.  Use as a
    context manager::

        with RangeFileServer(data_dir) as srv:
            source = HttpSplitSource(srv.url_for("points.npy"))
    """

    def __init__(self, root: str | os.PathLike, host: str = "127.0.0.1"):
        self.root = pathlib.Path(root).resolve()
        self.requests = 0
        self.range_requests = 0
        self.lock = threading.Lock()
        self._httpd = socketserver.ThreadingTCPServer(
            (host, 0), _RangeHandler, bind_and_activate=True
        )
        self._httpd.daemon_threads = True
        self._httpd.owner = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()

    def url_for(self, relpath: str) -> str:
        return f"http://{self.host}:{self.port}/{relpath}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "RangeFileServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
