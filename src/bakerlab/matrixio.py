"""Reading and writing matrices in the cmatrix-json interchange format.

A cmatrix-json file holds a single JSON object::

    {"dim_rows": R, "dim_cols": C, "entries": [[re, im], ...]}

where ``entries`` lists the R*C complex entries in row-major order as
``[real, imaginary]`` pairs of IEEE-754 doubles.  Serialization uses Python's
shortest round-trip float repr, so save -> load reproduces every entry bit
for bit, signed zeros and subnormals included.

:func:`load_cmatrix` reads a file that opens exactly as :func:`save_cmatrix`
writes it, ``{"dim_rows": R, "dim_cols": C, "entries": [``, a chunk at a
time: each chunk is cut at its last entry boundary (``]``, JSON whitespace
and a comma), parsed by :func:`json.loads` and copied into one preallocated
array, so it holds the matrix and one chunk's entries instead of a Python
list per entry.  Any other layout (another key order or spacing, a
hand-written file) is parsed whole by :func:`json.load`, which holds ~12
matrices' worth of Python lists.  Both accept json's grammar, give the same
bits and raise the same ``ValueError`` messages for wrong counts, pairs
(entries that are not two JSON numbers: strings, booleans and null
included) and non-finite values.

:func:`atomic_write` is the all-or-nothing text writer behind every file the
package writes: cmatrix-json here, and the CSV and JSON reports.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
from contextlib import contextmanager, suppress

import numpy as np

from .linalg import as_matrix

__all__ = ["cmatrix_from_dict", "cmatrix_to_dict", "load_cmatrix", "save_cmatrix"]


def cmatrix_to_dict(m) -> dict:
    """JSON-ready dict for a matrix."""
    m = as_matrix(m)
    flat = m.ravel()
    entries = np.column_stack([flat.real, flat.imag]).tolist()
    return {"dim_rows": int(m.shape[0]), "dim_cols": int(m.shape[1]), "entries": entries}


_NOT_PAIRS = "matrix entries must be [real, imag] number pairs"
_NOT_FINITE = "matrix entries must be finite"


def _pairs(entries, numbers=None):
    """``entries`` as an (n, 2) float64 array, or None unless each is a [real, imag] pair of JSON numbers.

    Float conversion would take strings and booleans as numbers too, so the
    entries' types are checked, unless the caller has already shown
    ``numbers`` (see :func:`_number_text`).
    """
    try:
        if set(map(len, entries)) != {2}:
            return None
        values = itertools.chain.from_iterable(entries)
        arr = np.fromiter(values, dtype=np.float64, count=2 * len(entries)).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an integer beyond float range
        return None
    if numbers is None:
        numbers = set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}
    return arr if numbers else None


def cmatrix_from_dict(obj) -> np.ndarray:
    """Rebuild a complex matrix from its dict form, validating the layout."""
    if not isinstance(obj, dict):
        raise ValueError("cmatrix payload must be a JSON object")
    missing = {"dim_rows", "dim_cols", "entries"} - obj.keys()
    if missing:
        raise ValueError(f"cmatrix payload is missing fields: {sorted(missing)}")
    rows, cols = obj["dim_rows"], obj["dim_cols"]
    # type, not isinstance: JSON true and false load as bool, a subclass of int
    if not (type(rows) is int and type(cols) is int) or rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive integers, got {rows!r} x {cols!r}")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    arr = _pairs(entries)
    if arr is None:
        raise ValueError(_NOT_PAIRS)
    if not np.isfinite(arr).all():
        raise ValueError(_NOT_FINITE)
    return arr.view(np.complex128).reshape(rows, cols)


@contextmanager
def atomic_write(path, newline=None):
    """Open a text file that replaces ``path`` only once the block completes.

    Writes go to a temporary file beside ``path``; it is moved into place
    with :func:`os.replace` on success and deleted on any error, so readers
    see either the previous file or the complete new one.  An ``OSError``
    from the temporary file is raised again naming ``path``.
    """
    head, tail = os.path.split(os.fspath(path))
    # unique per writing thread; opened like a plain output file, so the
    # result keeps the usual umask-derived permissions
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def save_cmatrix(path, m):
    """Write a matrix to ``path`` in cmatrix-json form, atomically.

    The bytes are those of ``json.dumps(cmatrix_to_dict(m)) + "\n"``, but the
    entries are encoded a row at a time, so only one row is ever held as
    Python floats and JSON text instead of the whole matrix.
    """
    # json.dumps runs the C encoder; json.dump would stream through the
    # pure-Python iterencode for the same bytes
    m = as_matrix(m)
    with atomic_write(path) as f:
        f.write(f'{{"dim_rows": {m.shape[0]}, "dim_cols": {m.shape[1]}, "entries": [')
        for r, row in enumerate(m if m.size else ()):
            pairs = json.dumps(np.column_stack([row.real, row.imag]).tolist())
            f.write((", " if r else "") + pairs.removeprefix("[").removesuffix("]"))
        f.write("]}\n")


#: the opening :func:`save_cmatrix` writes, up to the first entry
_HEADER = re.compile(rb'\{"dim_rows": ([1-9][0-9]*), "dim_cols": ([1-9][0-9]*), "entries": \[')
#: the end of a file after its last entry: the closing brackets of the
#: entries and of the object, and JSON whitespace
_CLOSE = re.compile(rb"\][ \t\n\r]*\}[ \t\n\r]*\Z")
#: one byte of every JSON value that is neither a number nor an array: the
#: ``"`` of a string, the ``{`` of an object, the ``u`` of true and null and
#: the ``l`` of false
_NOT_NUMBER_BYTES = (b'"', b"{", b"u", b"l")
#: JSON whitespace, which may stand between an entry's ``]`` and its comma
_WHITESPACE = b" \t\n\r"
#: the fewest bytes a cmatrix-json entry takes, ``[0,0]`` and a comma
_MIN_ENTRY_BYTES = 6
#: bytes the streamed reader reads at a time.  One chunk's parse holds ~15
#: bytes of text, lists and floats per byte of it, ~240 KiB; 16 KiB reads as
#: fast as 64 KiB at d = 256 and 512
_CHUNK_BYTES = 1 << 14


def _header(f):
    """The :data:`_HEADER` match at the start of binary file ``f``, or None."""
    return _HEADER.match(f.read(128))


def _header_dims(path):
    """``(rows, cols)`` from the file's first bytes; None unless it opens as :func:`save_cmatrix` writes."""
    with open(path, "rb") as f:
        match = _header(f)
    return None if match is None else (int(match[1]), int(match[2]))


def _not_json(path, what):
    return ValueError(f"{path} is not valid JSON: {what}")


def _parse_json(path, text, start=None):
    """:func:`json.loads` of ``text``; ``ValueError`` naming ``path`` if it is not JSON.

    ``start`` is the file offset of ``text[1]`` when ``text`` is a piece of
    the file behind an added ``[``; the error then names the file's byte.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _not_json(path, exc if start is None else f"{exc.msg}: byte {start + exc.pos - 1}") from exc
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise _not_json(path, "arrays nested too deeply") from None


def _number_text(piece):
    """Whether the JSON text ``piece`` holds only arrays, numbers, NaN and Infinity.

    Any other JSON value holds one of :data:`_NOT_NUMBER_BYTES`, which
    json's NaN and Infinity do not.
    """
    return not any(byte in piece for byte in _NOT_NUMBER_BYTES)


def _last_boundary(text, lo):
    """``(close, comma)`` of the last entry boundary in ``text`` whose comma is at or after ``lo``, else None.

    A boundary is an entry's closing ``]``, JSON whitespace and a comma.
    Commas are searched from the end; the comma inside an entry has a number
    before it, so it is passed over.  Each comma's whitespace is read once,
    so text carried from earlier reads is not scanned again.
    """
    end = len(text)
    while (comma := text.rfind(b",", lo, end)) >= 0:
        close = comma - 1
        while close >= 0 and text[close] in _WHITESPACE:
            close -= 1
        if close >= 0 and text[close] == ord("]"):
            return close, comma
        end = comma
    return None


def _stream_entries(f, path, rows, cols):
    """The entries after the header of binary file ``f``, as a complex ``rows`` x ``cols`` matrix.

    Reads :data:`_CHUNK_BYTES` at a time and cuts the text at its last entry
    boundary (:func:`_last_boundary`): the entries before the cut are parsed
    by :func:`json.loads` as one JSON array and copied into the output, the
    rest is carried into the next chunk.  Only the output and one chunk's
    entries are held; an entry longer than a chunk is carried until it
    ends.  A parsing error is raised where it is met; the count, pair and
    finiteness checks of :func:`cmatrix_from_dict` are raised once every
    entry has been counted, in its order, so both readers refuse a file with
    the same message.
    """
    n = rows * cols
    # a file holds at most one entry per _MIN_ENTRY_BYTES: a header that
    # overstates its entries is refused by the count, not by allocation
    out = np.empty((min(n, os.fstat(f.fileno()).st_size // _MIN_ENTRY_BYTES + 1), 2))
    count, pairs, finite = 0, True, True
    text, start = bytearray(), f.tell()  # start: the file offset of text[0]
    while True:
        seen = len(text)  # text carried from earlier reads holds no boundary's comma
        data = f.read(_CHUNK_BYTES)
        text += data
        if data:
            boundary = _last_boundary(text, seen)
            if boundary is None:
                continue
            close, comma = boundary
            piece = text[: close + 1]
            del text[: comma + 1]
        else:
            close = _CLOSE.search(text)
            if close is None:
                raise _not_json(path, f"the entries are not closed by ']}}' before byte {start + len(text)}")
            piece, comma = text[: close.start()], None
        values = _parse_json(path, b"[" + piece + b"]", start)
        if not values and count:  # a ',' with no entry after it
            raise _not_json(path, f"Expecting value: byte {start}")
        arr = _pairs(values, numbers=_number_text(piece))
        if arr is None:
            pairs = False
        else:
            finite = finite and bool(np.isfinite(arr).all())
            if count + len(arr) <= len(out):
                out[count : count + len(arr)] = arr
        count += len(values)
        if comma is None:
            break
        start += comma + 1
    if count != n:
        raise ValueError(f"expected {n} entries, got {count}")
    if not pairs:
        raise ValueError(_NOT_PAIRS)
    if not finite:
        raise ValueError(_NOT_FINITE)
    return out.view(np.complex128).reshape(rows, cols)


def load_cmatrix(path) -> np.ndarray:
    """Load a cmatrix-json file; raises ``ValueError`` on malformed content.

    A file that opens as :func:`save_cmatrix` writes it is read a chunk at a
    time (:func:`_stream_entries`); any other is parsed whole by
    :func:`json.load` and checked by :func:`cmatrix_from_dict`.
    """
    with open(path, "rb") as f:
        header = _header(f)
        if header is not None:
            f.seek(header.end())
            return _stream_entries(f, path, int(header[1]), int(header[2]))
    with open(path) as f:
        obj = _parse_json(path, f.read())  # what json.load does
    return cmatrix_from_dict(obj)
