"""Unitary map constructors: the antiperiodic Fourier kernel, baker maps for
every even dimension, their symmetry partners, and parity block reduction.

All maps act on a d-dimensional Hilbert space whose basis index splits as
``j = j_a * d_b + j_b`` (left tensor factor most significant).  The baker
family below is built entirely from the half-integer Fourier kernel

    G_d[j, k] = exp(2 pi i (j + 1/2)(k + 1/2) / d) / sqrt(d)

which obeys antiperiodic boundary conditions in both position and momentum.

B, D and D' are one FFT step, :func:`_baker_rows`: their matrices are that
step applied to the identity, and Bbar is built from D and D' by the parity
rotation.  Each kind is one row of the table :data:`_KINDS`.
"""

from __future__ import annotations

import collections
import enum
import functools

import numpy as np
from numpy.linalg import LinAlgError

from .linalg import (
    _BLOCK,
    UNITARY_TOL,
    _fourier_kernel,
    _fourier_phases,
    _from_parity_blocks,
    _parity_blocks,
    as_matrix,
    assert_unitary,
    max_abs,
)

__all__ = [
    "MapKind",
    "antiperiodic_fourier",
    "baker",
    "bbar",
    "d_map",
    "lambda_basis",
    "make_map",
    "reduce_by_symmetry",
    "reflection",
    "reflection_commutator",
]

#: version of the B, D, D' and Bbar entries, recorded in artifacts made from a
#: map kind: 1 (unrecorded) transformed the rows of B's block-diagonal factor
#: by FFT, 2 applies the FFT step to the identity (entries moved by < 1e-15)
MAP_VERSION = 2


def antiperiodic_fourier(d: int) -> np.ndarray:
    """Fourier kernel with half-integer offsets in both arguments.

    The kernel is symmetric, so its inverse is simply its entrywise
    conjugate.
    """
    if d < 2:
        raise ValueError(f"Fourier kernel needs dimension >= 2, got {d}")
    return _fourier_kernel(d)


def reflection(d: int) -> np.ndarray:
    """Spatial reflection |j> -> |d-1-j> (an antidiagonal permutation)."""
    if d < 1:
        raise ValueError(f"reflection needs dimension >= 1, got {d}")
    out = np.zeros((d, d), dtype=np.complex128)
    out[np.arange(d), np.arange(d)[::-1]] = 1.0
    return out


def _require_even(d: int, minimum: int, what: str):
    if d < minimum or d % 2:
        raise ValueError(f"{what} needs an even dimension >= {minimum}, got {d}")


def baker(d: int) -> np.ndarray:
    """Quantized baker map on ``d`` states (``d`` even).

    Stretch-and-fold in half-integer Fourier coordinates: transform the two
    position half-spaces separately, then transform back globally,

        B_d = G_d . (1_2 kron G_{d/2}^{-1}).
    """
    _require_even(d, 4, "baker map")
    return _baker_family(d, 0)


def _baker_family(d, sign, out=None):
    """B (sign 0), D (+1) or D' (-1) as a matrix: the FFT step :func:`_baker_rows` applied to the identity.

    Column k of the map is the step applied to e_k, so :func:`_step_rows` fills
    its transpose, into ``out`` (a d x d view) when given, and the map equals
    the step bit for bit, in O(d^2 log d).
    """
    out = np.empty((d, d), dtype=np.complex128) if out is None else out
    _step_rows(functools.partial(_baker_rows, sign=sign), d, out.T)
    return out


def _step_rows(step, d, out):
    """Fill the d x d ``out``, ``_BLOCK`` rows at a time: row k is ``step`` applied to e_k."""
    for start, x in _unit_steps(step, d, range(0, d, _BLOCK), _BLOCK):
        out[start:start + len(x)] = x
    return out


def _unit_steps(step, d, starts, rows):
    """``(start, x)`` for each of ``starts``: ``x`` is ``step`` applied to the unit rows e_start, e_(start+1), ...

    A block holds ``rows`` rows of the d x d identity, fewer where it ends.  The
    step is called as the engine calls it, ``step(unit, work=scratch)``, on
    one pair of buffers allocated once, so each ``x`` is overwritten by the next.
    """
    unit = np.empty((min(rows, d), d), dtype=np.complex128)
    work = np.empty_like(unit)
    for start in starts:
        x = unit[: min(len(unit), d - start)]
        x[:] = 0.0
        np.einsum("ii->i", x[:, start:start + len(x)])[:] = 1.0  # entry (i, start + i)
        yield start, step(x, work=work[: len(x)])


@functools.lru_cache(maxsize=8)
def _baker_diagonals(d, sign, transpose):
    """The three diagonals of :func:`_baker_rows` (of :func:`_baker_rows_t` when ``transpose``), read-only.

    A step is ``pre``, one FFT, ``mid``, the other FFT, ``post``: ``mid``
    combines the output diagonal of the first transform with the input
    diagonal of the second (see :func:`bakerlab.linalg._fourier_phases`), so
    a step takes three complex multiplies instead of four.  For D and D' the
    second half of the diagonal that follows ``G_{d/2}^{-1}`` (``mid``, or
    ``post`` of the transpose) also carries the twist ``-sign``, and is
    applied to the reversed half (see :func:`_twist`).
    """
    h = d // 2
    pre_h, post_h = _fourier_phases(h, True)  # G_{d/2}^{-1}
    pre_d, post_d = _fourier_phases(d, False)  # G_d
    after_h = np.tile(post_h, 2)
    if sign:
        after_h[h:] = -sign * post_h[::-1]
    if transpose:
        diagonals = (pre_d, post_d * np.tile(pre_h, 2), after_h)
    else:
        diagonals = (np.tile(pre_h, 2), after_h * pre_d, post_d)
    for diagonal in diagonals:
        diagonal.setflags(write=False)
    return diagonals


def _twist(x, diagonal, sign, out):
    """``out = x diag(diagonal)`` on every row, with the second half of ``x`` reversed first when ``sign``.

    ``R G = -G^{-1}`` (R the reversal), so D and D' apply ``sign G_{d/2}``
    to the second half as ``-sign`` times the reversed ``G_{d/2}^{-1}``.
    ``out`` must not be ``x`` when ``sign`` is set.
    """
    if not sign:
        return np.multiply(x, diagonal, out=out)
    h = x.shape[1] // 2
    np.multiply(x[:, :h], diagonal[:h], out=out[:, :h])
    np.multiply(x[:, h:][:, ::-1], diagonal[h:], out=out[:, h:])
    return out


def _baker_rows(psi, sign, work=None):
    """B (sign 0), D (+1) or D' (-1) applied to every row of an (S, d) array by FFT.

    One FFT applies ``G_{d/2}^{-1}`` to both halves of every row, one more
    applies ``G_d``, and three diagonals (:func:`_baker_diagonals`) do the
    rest.  The cost is O(S d log d) against the O(S d^2) of a dense step.
    ``psi``, C-contiguous, is overwritten with the result and returned;
    ``work``, an array of its shape and dtype, is scratch, allocated when
    not given.  With it the step allocates nothing.
    """
    s, d = psi.shape
    pre, mid, post = _baker_diagonals(d, sign, False)
    work = np.empty_like(psi) if work is None else work
    np.multiply(psi, pre, out=work)
    np.fft.fft(work.reshape(s, 2, d // 2), out=psi.reshape(s, 2, d // 2))
    _twist(psi, mid, sign, work)
    np.fft.ifft(work, norm="forward", out=psi)
    return np.multiply(psi, post, out=psi)


def _baker_rows_t(psi, sign, work=None):
    """The transpose ``F G_d`` of :func:`_baker_rows`'s map, applied to every row.

    The same two FFTs in the reverse order, with the same contract: ``psi``
    is overwritten with the result, ``work`` is scratch.
    """
    s, d = psi.shape
    pre, mid, post = _baker_diagonals(d, sign, True)
    work = np.empty_like(psi) if work is None else work
    np.multiply(psi, pre, out=work)
    np.fft.ifft(work, norm="forward", out=psi)
    np.multiply(psi, mid, out=work)
    np.fft.fft(work.reshape(s, 2, d // 2), out=psi.reshape(s, 2, d // 2))
    if not sign:
        return np.multiply(psi, post, out=psi)
    np.copyto(psi, _twist(psi, post, sign, work))
    return psi


def lambda_basis(d: int) -> np.ndarray:
    """Unitary basis change that block-diagonalizes reflection-symmetric maps.

    With Y the second Pauli matrix and R the reflection on d/2 states,

        Lambda = (1 + i Y kron R) / sqrt(2),

    which in 2x2 block form reads [[1, R], [-R, 1]] / sqrt(2).  Conjugating a
    map that commutes with the full reflection by Lambda^dag ... Lambda sends
    the odd-parity sector to the upper-left block and the even-parity sector
    to the lower-right one.  This is the dense constructor; the package
    itself applies Lambda by slicing (see ``bakerlab.linalg``).
    """
    _require_even(d, 2, "parity basis change")
    h, i = d // 2, np.arange(d // 2)
    s = 1.0 / np.sqrt(2.0)
    out = np.zeros((d, d), dtype=np.complex128)
    out[np.arange(d), np.arange(d)] = s
    out[i, d - 1 - i] = s  # R in the upper right quarter
    out[h + i, h - 1 - i] = -s  # -R in the lower left
    return out


def d_map(d: int, sign: int = +1) -> np.ndarray:
    """Baker-like map whose two half-space transforms differ in direction.

    ``sign=+1`` applies ``G^{-1}_{d/2}`` on the first half and ``G_{d/2}`` on
    the second; ``sign=-1`` flips the sign of the second block.  Both share
    the baker map's time-reversal symmetry but not its reflection symmetry.
    """
    _require_even(d, 4, "D map")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _baker_family(d, sign)


def bbar(d: int) -> np.ndarray:
    """Reflection-symmetric map whose parity blocks are D maps.

    Built by placing ``D_{d/2}`` in the odd-parity sector and the reflected
    ``D'_{d/2}`` in the even-parity one, then rotating back with
    :func:`lambda_basis`.  Requires ``d`` divisible by 4 so the inner D maps
    exist.
    """
    if d < 8 or d % 4:
        raise ValueError(f"this construction needs d divisible by 4 and >= 8, got {d}")
    # X = D_{d/2} and Y = D'_{d/2} are built in the lower quarters, which
    # _from_parity_blocks reads before it writes them
    h = d // 2
    out = np.empty((d, d), dtype=np.complex128)
    x = _baker_family(h, +1, out[h:, h:])
    y = _baker_family(h, -1, out[h:, :h])
    return _from_parity_blocks(x, y[::-1, ::-1], out)


def reflection_commutator(u) -> float:
    """Max-norm of ``[U, R]`` with R the reflection on U's space."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"the reflection commutator needs a square matrix, got {u.shape}")
    return max_abs(u[:, ::-1] - u[::-1, :])  # U R - R U, R a permutation


def reduce_by_symmetry(u):
    """Split a reflection-symmetric unitary into its parity blocks.

    Returns ``(minus_block, plus_block)``, the odd- and even-parity
    restrictions of ``u``, each of dimension d/2: the diagonal blocks of
    ``Lambda^dag U Lambda`` (see :func:`lambda_basis`).  Each entry of its
    off-diagonal blocks is half a sum of two entries of ``U - R U R``, so the
    commutator gate bounds them: they never exceed the measured ``|[U, R]|``.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``u`` is not unitary or does not commute with the reflection
        within ``UNITARY_TOL`` (the measured commutator norm is included
        in the message).
    """
    u = as_matrix(u)
    if u.shape[0] % 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"parity reduction needs a square, even-dimensional matrix, got {u.shape}")
    assert_unitary(u)
    defect = reflection_commutator(u)
    if not defect < UNITARY_TOL:
        raise LinAlgError(
            f"matrix does not commute with the reflection: max |[U, R]| = {defect:.3e} "
            f"(tol {UNITARY_TOL:.1e})"
        )
    return _parity_blocks(u)


class MapKind(enum.Enum):
    """Named map constructors understood by :func:`make_map` and the CLI."""

    BAKER = "baker"
    DMAP = "dmap"
    DPRIME = "dprime"
    BBAR = "bbar"
    REFLECTION = "reflection"
    FOURIER = "fourier"
    LAMBDA = "lambda"
    IDENTITY = "identity"


def _identity(d):
    if d < 1:
        raise ValueError(f"identity needs dimension >= 1, got {d}")
    return np.eye(d, dtype=np.complex128)


#: a row of :data:`_KINDS`: the constructor, and for B, D and D' the FFT step and its transpose
_Kind = collections.namedtuple("_Kind", ["build", "step", "step_t"], defaults=(None, None))


def _fft_kind(build, sign):
    return _Kind(build, functools.partial(_baker_rows, sign=sign), functools.partial(_baker_rows_t, sign=sign))


#: one row per kind, read by make_map and the iteration engine
_KINDS = {
    MapKind.BAKER: _fft_kind(baker, 0),
    MapKind.DMAP: _fft_kind(functools.partial(d_map, sign=+1), +1),
    MapKind.DPRIME: _fft_kind(functools.partial(d_map, sign=-1), -1),
    MapKind.BBAR: _Kind(bbar),
    MapKind.REFLECTION: _Kind(reflection),
    MapKind.FOURIER: _Kind(antiperiodic_fourier),
    MapKind.LAMBDA: _Kind(lambda_basis),
    MapKind.IDENTITY: _Kind(_identity),
}


def make_map(kind, d: int) -> np.ndarray:
    """Build the map named by ``kind`` (a :class:`MapKind` or its value)."""
    return _KINDS[MapKind(kind)].build(d)
