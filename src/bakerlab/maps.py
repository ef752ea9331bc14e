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

import numpy as np
from numpy.linalg import LinAlgError

from .linalg import (
    UNITARY_TOL,
    _fourier_kernel,
    _from_parity_blocks,
    _to_parity_basis,
    as_matrix,
    assert_unitary,
    dagger,
    kron,
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
    g_inv_half = dagger(antiperiodic_fourier(d // 2))
    return antiperiodic_fourier(d) @ kron(np.eye(2), g_inv_half)


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
    y = np.array([[0.0, -1j], [1j, 0.0]])
    return (np.eye(d) + 1j * kron(y, reflection(d // 2))) / np.sqrt(2.0)


def d_map(d: int, sign: int = +1) -> np.ndarray:
    """Baker-like map whose two half-space transforms differ in direction.

    ``sign=+1`` applies ``G^{-1}_{d/2}`` on the first half and ``G_{d/2}`` on
    the second; ``sign=-1`` flips the sign of the second block.  Both share
    the baker map's time-reversal symmetry but not its reflection symmetry.
    """
    _require_even(d, 4, "D map")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    half = d // 2
    g_half = antiperiodic_fourier(half)
    blocks = np.zeros((d, d), dtype=np.complex128)
    blocks[:half, :half] = g_half.conj().T
    blocks[half:, half:] = sign * g_half
    return antiperiodic_fourier(d) @ blocks


def bbar(d: int) -> np.ndarray:
    """Reflection-symmetric map whose parity blocks are D maps.

    Built by placing ``D_{d/2}`` in the odd-parity sector and the reflected
    ``D'_{d/2}`` in the even-parity one, then rotating back with
    :func:`lambda_basis`.  Requires ``d`` divisible by 4 so the inner D maps
    exist.
    """
    if d < 8 or d % 4:
        raise ValueError(f"this construction needs d divisible by 4 and >= 8, got {d}")
    half = d // 2
    return _from_parity_blocks(d_map(half, +1), d_map(half, -1)[::-1, ::-1])


def reflection_commutator(u) -> float:
    """Max-norm of ``[U, R]`` with R the reflection on U's space."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"the reflection commutator needs a square matrix, got {u.shape}")
    return max_abs(u[:, ::-1] - u[::-1, :])  # U R - R U, R a permutation


def reduce_by_symmetry(u, *, commutator_tol: float = UNITARY_TOL):
    """Split a reflection-symmetric unitary into its parity blocks.

    Returns ``(minus_block, plus_block)``, the odd- and even-parity
    restrictions of ``u``, each of dimension d/2.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``u`` is not unitary or does not commute with the reflection
        within ``commutator_tol`` (the measured commutator norm is included
        in the message), or if the rotated matrix fails to block-diagonalize.
    """
    u = as_matrix(u)
    d = u.shape[0]
    if d % 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"parity reduction needs a square, even-dimensional matrix, got {u.shape}")
    assert_unitary(u)
    defect = reflection_commutator(u)
    if not defect < commutator_tol:
        raise LinAlgError(
            f"matrix does not commute with the reflection: max |[U, R]| = {defect:.3e} "
            f"(tol {commutator_tol:.1e})"
        )
    rotated = _to_parity_basis(u)
    half = d // 2
    off = max(max_abs(rotated[:half, half:]), max_abs(rotated[half:, :half]))
    if not off < 1e-9:
        raise LinAlgError(f"block reduction failed: off-diagonal block norm {off:.3e}")
    return rotated[:half, :half].copy(), rotated[half:, half:].copy()


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
