"""Reading and writing matrices in the cmatrix-json interchange format.

A cmatrix-json file holds a single JSON object::

    {"dim_rows": R, "dim_cols": C, "entries": [[re, im], ...]}

where ``entries`` lists the R*C complex entries in row-major order as
``[real, imaginary]`` pairs of IEEE-754 doubles.  Serialization uses Python's
shortest round-trip float repr, so save -> load reproduces every entry bit
for bit.

:func:`atomic_write` is the all-or-nothing text writer behind every file the
package writes: cmatrix-json here, and the CSV and JSON reports.
"""

from __future__ import annotations

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


def cmatrix_from_dict(obj) -> np.ndarray:
    """Rebuild a complex matrix from its dict form, validating the layout."""
    if not isinstance(obj, dict):
        raise ValueError("cmatrix payload must be a JSON object")
    missing = {"dim_rows", "dim_cols", "entries"} - obj.keys()
    if missing:
        raise ValueError(f"cmatrix payload is missing fields: {sorted(missing)}")
    rows, cols = obj["dim_rows"], obj["dim_cols"]
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive integers, got {rows!r} x {cols!r}")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    try:
        arr = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError("matrix entries must be [real, imag] number pairs") from exc
    if arr.shape != (rows * cols, 2):
        raise ValueError("matrix entries must be [real, imag] number pairs")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


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
_HEADER = re.compile(rb'\{"dim_rows": ([1-9][0-9]*), "dim_cols": ([1-9][0-9]*), ')


def _header_dims(path):
    """``(rows, cols)`` from the file's first bytes; None unless it opens as :func:`save_cmatrix` writes."""
    with open(path, "rb") as f:
        match = _HEADER.match(f.read(128))
    return None if match is None else (int(match[1]), int(match[2]))


def load_cmatrix(path) -> np.ndarray:
    """Load a cmatrix-json file; raises ``ValueError`` on malformed content."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return cmatrix_from_dict(obj)
