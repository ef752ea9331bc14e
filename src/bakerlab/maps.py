"""Unitary map constructors: the antiperiodic Fourier kernel, baker maps for
every even dimension, their symmetry partners, and parity block reduction.

All maps act on a d-dimensional Hilbert space whose basis index splits as
``j = j_a * d_b + j_b`` (left tensor factor most significant).  The baker
family below is built entirely from the half-integer Fourier kernel

    G_d[j, k] = exp(2 pi i (j + 1/2)(k + 1/2) / d) / sqrt(d)

which obeys antiperiodic boundary conditions in both position and momentum.
"""

from __future__ import annotations

import enum
import functools

import numpy as np
from numpy.linalg import LinAlgError

from .linalg import (
    _BLOCK,
    UNITARY_TOL,
    _fourier_apply,
    _fourier_kernel,
    _fourier_phases,
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
    return np.eye(d, dtype=np.complex128)[::-1].copy()


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
    """``G_d F`` for the block-diagonal factor F of B (sign 0), D (+1) or D' (-1).

    F is ``diag(G^{-1}, G^{-1})`` for B and ``diag(G^{-1}, sign G)`` for D and
    D', with ``G = G_{d/2}``.  F is symmetric, so transforming its rows by FFT
    gives ``F G_d = (G_d F)^T`` in O(d^2 log d) instead of a d^3 product.
    F is built and transformed a block of at most d/4 rows at a time, each
    block written straight into its columns of the output (``out``, a
    d x d view, when given), so besides the map only G and two blocks, at
    most d/2 rows together, are alive.
    """
    half = d // 2
    g = _fourier_kernel(half)
    if out is None:
        out = np.empty((d, d), dtype=np.complex128)
    step = min(_BLOCK, d // 4)
    for a in range(0, d, step):
        b = min(a + step, d)
        rows = np.zeros((b - a, d), dtype=np.complex128)
        c = min(max(a, half), b)  # rows a:c of F are in its first block, c:b in its second
        np.conjugate(g[a:c], out=rows[: c - a, :half])
        if sign:
            np.multiply(g[c - half : b - half], sign, out=rows[c - a :, half:])
        else:
            np.conjugate(g[c - half : b - half], out=rows[c - a :, half:])
        out[:, a:b] = _fourier_apply(rows).T
    return out


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
    # Lambda diag(X, R Y R) Lambda^dag for X = D_{d/2}, Y = D'_{d/2} reads
    # [[X + Y, (Y - X) R], [R (Y - X), R (X + Y) R]] / 2 in quarters: X and Y
    # are built in the lower quarters, which are filled last
    h = d // 2
    out = np.empty((d, d), dtype=np.complex128)
    x = _baker_family(h, +1, out[h:, h:])
    y = _baker_family(h, -1, out[h:, :h])
    np.add(x, y, out=out[:h, :h])
    np.subtract(y, x, out=out[:h, h:][:, ::-1])
    out[h:, h:] = out[:h, :h][::-1, ::-1]
    out[h:, :h] = out[:h, h:][::-1, ::-1]
    out *= 0.5
    return out


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


def make_map(kind, d: int) -> np.ndarray:
    """Build the map named by ``kind`` (a :class:`MapKind` or its value)."""
    kind = MapKind(kind)
    if kind is MapKind.BAKER:
        return baker(d)
    if kind is MapKind.DMAP:
        return d_map(d, +1)
    if kind is MapKind.DPRIME:
        return d_map(d, -1)
    if kind is MapKind.BBAR:
        return bbar(d)
    if kind is MapKind.REFLECTION:
        return reflection(d)
    if kind is MapKind.FOURIER:
        return antiperiodic_fourier(d)
    if kind is MapKind.LAMBDA:
        return lambda_basis(d)
    if kind is MapKind.IDENTITY:
        if d < 1:
            raise ValueError(f"identity needs dimension >= 1, got {d}")
        return np.eye(d, dtype=np.complex128)
    raise ValueError(f"unhandled map kind {kind!r}")  # pragma: no cover
