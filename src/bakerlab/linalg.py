"""Dense complex linear algebra: products, tensor structure, partial traces,
and eigendecomposition of unitary matrices.

Reflection-symmetric unitaries (``R U R = U`` with R the index reversal
``j -> d-1-j``, d even) split into odd- and even-parity blocks of size d/2
in the basis of ``bakerlab.maps.lambda_basis``.  Lambda has two nonzeros
per row, so the private helpers ``_to_parity_basis``, ``_from_parity_blocks``
and ``_from_parity_vectors`` apply it by slicing in O(d^2) instead of dense
products; :func:`eigensystem` uses them to solve the two blocks separately.

Conventions used throughout the package:

* matrices are dense ``numpy.complex128`` arrays,
* the left factor of a tensor product is the most significant one,
* a bipartite basis index decomposes as ``j = j_a * d_b + j_b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import schur

__all__ = [
    "UNITARY_TOL",
    "NORM_TOL",
    "EIGEN_TOL",
    "Bipartition",
    "EigenSystem",
    "as_matrix",
    "assert_unitary",
    "dagger",
    "eigensystem",
    "eigensystem_diagnostics",
    "is_unitary",
    "kron",
    "matmul",
    "max_abs",
    "partial_trace",
    "unitarity_defect",
]

#: entrywise tolerance for U U^dag = 1
UNITARY_TOL = 1e-10
#: tolerance for state normalization and trace preservation
NORM_TOL = 1e-10
#: base tolerance for eigenvector residuals (scaled by sqrt(d) where noted)
EIGEN_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a two-dimensional complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of ndim={m.ndim}")
    return m


def max_abs(a) -> float:
    """Largest entry magnitude; the max-norm used by all symmetry gates."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes for product: {a.shape} @ {b.shape}")
    return a @ b


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def kron(a, b) -> np.ndarray:
    """Tensor product; the first argument is the most significant factor."""
    return np.kron(as_matrix(a), as_matrix(b))


def unitarity_defect(u) -> float:
    """Max-norm of ``U U^dag - 1``."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"unitarity is only defined for square matrices, got {u.shape}")
    return max_abs(u @ u.conj().T - np.eye(u.shape[0]))


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    return unitarity_defect(u) < tol


def assert_unitary(u, tol: float = UNITARY_TOL, name: str = "matrix"):
    """Raise ``LinAlgError`` when ``u`` is not unitary within ``tol``."""
    defect = unitarity_defect(u)
    if not defect < tol:  # also trips on nan
        raise LinAlgError(f"{name} is not unitary: max |U U^dag - 1| = {defect:.3e} (tol {tol:.1e})")


@dataclass(frozen=True)
class Bipartition:
    """A tensor split d = d_a * d_b with composite index j = j_a * d_b + j_b."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 2 or self.d_b < 2:
            raise ValueError(f"both subsystems need dimension >= 2, got {self.d_a} x {self.d_b}")

    @property
    def d(self) -> int:
        return self.d_a * self.d_b

    @property
    def d_prime(self) -> int:
        """The combination (d_a + 1)(d_b + 1) appearing in mean-entropy formulas."""
        return (self.d_a + 1) * (self.d_b + 1)

    def swapped(self) -> "Bipartition":
        return Bipartition(self.d_b, self.d_a)


def partial_trace(rho, part: Bipartition, keep: str = "A") -> np.ndarray:
    """Trace out one subsystem of a d x d operator.

    Parameters
    ----------
    rho : array_like
        Operator on the composite space.  Hermiticity is not required, so
        cross terms like ``|psi><phi|`` are fine.
    part : Bipartition
        The tensor split of the composite index.
    keep : {"A", "B"}
        Which subsystem survives.

    Returns
    -------
    numpy.ndarray
        The reduced operator, ``d_a x d_a`` or ``d_b x d_b``.
    """
    rho = as_matrix(rho)
    if rho.shape != (part.d, part.d):
        raise ValueError(f"operator shape {rho.shape} does not match split {part.d_a}x{part.d_b}")
    t = rho.reshape(part.d_a, part.d_b, part.d_a, part.d_b)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abac->bc", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a unitary matrix.

    ``phases`` are the eigenphases in ``[0, 2*pi)``, ascending; column
    ``vectors[:, k]`` is the orthonormal eigenvector for ``phases[k]``.
    """

    phases: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.phases.size)

    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.phases)


def eigensystem(
    u,
    *,
    unitary_tol: float = UNITARY_TOL,
    residual_tol: float = EIGEN_TOL,
    cluster_gap: float = EIGEN_TOL,
) -> EigenSystem:
    """Orthonormal eigendecomposition of a unitary matrix.

    Uses a complex Schur factorization, which is exactly the spectral
    decomposition for a normal matrix and keeps the vectors orthonormal even
    across (near-)degenerate eigenvalues.  Phase clusters closer than
    ``cluster_gap`` are re-orthonormalized as a block, so degenerate spectra
    still come out with a clean orthonormal basis.

    When d is even and ``max |R U R - U| < unitary_tol`` (R the reflection
    ``j -> d-1-j``), the odd- and even-parity blocks of size d/2 are Schur
    factorized separately and their vectors rotated back, which is about
    three times cheaper than one Schur at size d and returns parity-pure
    vectors, so near-degeneracies across the two sectors are never mixed.
    The symmetry is only tested to ``unitary_tol``, so the residual,
    orthonormality and reconstruction gates always run against ``u`` itself
    at full size: a slightly asymmetric input whose neglected coupling
    matters fails them just like a bad dense solve.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``u`` is not unitary within ``unitary_tol``, the solver does not
        converge, or the decomposition fails its residual gates.
    """
    u = as_matrix(u)
    assert_unitary(u, unitary_tol)
    d = u.shape[0]
    if d % 2 == 0 and max_abs(u[::-1, ::-1] - u) < unitary_tol:
        rotated = _to_parity_basis(u)
        h = d // 2
        lam_m, w_m = _schur(rotated[:h, :h])
        lam_p, w_p = _schur(rotated[h:, h:])
        lam = np.concatenate([lam_m, lam_p])
        q = _from_parity_vectors(w_m, w_p)
    else:
        lam, q = _schur(u)
    phases = np.mod(np.angle(lam), 2.0 * np.pi)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = q[:, order]
    _polish_clusters(phases, vectors, cluster_gap)

    diag = eigensystem_diagnostics(u, phases, vectors)
    scaled = residual_tol * np.sqrt(phases.size)
    if not diag["max_residual"] < scaled:
        raise LinAlgError(f"eigenvector residual {diag['max_residual']:.3e} exceeds {scaled:.1e}")
    if not diag["orthonormality_defect"] < residual_tol:
        raise LinAlgError(f"eigenbasis not orthonormal: defect {diag['orthonormality_defect']:.3e}")
    if not diag["reconstruction_error"] < residual_tol * phases.size:
        raise LinAlgError(f"spectral reconstruction error {diag['reconstruction_error']:.3e}")

    phases.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(phases=phases, vectors=vectors)


def _schur(u):
    """Eigenvalues and Schur vectors of a normal matrix."""
    try:
        t, q = schur(u, output="complex")
    except LinAlgError as exc:
        raise LinAlgError("eigensolver did not converge") from exc
    return np.diagonal(t), q


def _to_parity_basis(u):
    """``Lambda^dag U Lambda`` by slicing, with R the reflection on d/2 states.

    With A, B, C, D the quarters of ``u`` it reads

        [[A - BR - RC + RDR, AR + B - RCR - RD],
         [RA - RBR + C - DR, RAR + RB + CR + D]] / 2,

    whose upper-left (odd-parity) and lower-right (even-parity) blocks carry
    all of ``u`` when it commutes with the full reflection.
    """
    h = u.shape[0] // 2
    a, b, c, dd = u[:h, :h], u[:h, h:], u[h:, :h], u[h:, h:]
    out = np.empty_like(u)
    out[:h, :h] = a - b[:, ::-1] - c[::-1, :] + dd[::-1, ::-1]
    out[:h, h:] = a[:, ::-1] + b - c[::-1, ::-1] - dd[::-1, :]
    out[h:, :h] = a[::-1, :] - b[::-1, ::-1] + c - dd[:, ::-1]
    out[h:, h:] = a[::-1, ::-1] + b[::-1, :] + c[:, ::-1] + dd
    out *= 0.5
    return out


def _from_parity_blocks(minus, plus):
    """``Lambda diag(X, Y) Lambda^dag`` for parity blocks X (odd), Y (even).

    In quarters it reads [[X + RYR, RY - XR], [YR - RX, RXR + Y]] / 2.
    """
    h = minus.shape[0]
    out = np.empty((2 * h, 2 * h), dtype=np.complex128)
    out[:h, :h] = minus + plus[::-1, ::-1]
    out[:h, h:] = plus[::-1, :] - minus[:, ::-1]
    out[h:, :h] = plus[:, ::-1] - minus[::-1, :]
    out[h:, h:] = minus[::-1, ::-1] + plus
    out *= 0.5
    return out


def _from_parity_vectors(w_minus, w_plus):
    """``Lambda diag(W_minus, W_plus)``: parity-sector vectors at full size.

    An odd-sector vector w becomes [w; -Rw]/sqrt(2) and an even-sector one
    [Rw; w]/sqrt(2); the odd columns come first.
    """
    h = w_minus.shape[0]
    out = np.empty((2 * h, 2 * h), dtype=np.complex128)
    out[:h, :h] = w_minus
    out[h:, :h] = -w_minus[::-1, :]
    out[:h, h:] = w_plus[::-1, :]
    out[h:, h:] = w_plus
    out /= np.sqrt(2.0)
    return out


def eigensystem_diagnostics(u, phases_or_eig, vectors=None) -> dict:
    """Residual, orthonormality, and reconstruction errors of a decomposition.

    Accepts either an :class:`EigenSystem` or separate phase/vector arrays.
    """
    if vectors is None:
        phases, vectors = phases_or_eig.phases, phases_or_eig.vectors
    else:
        phases = phases_or_eig
    u = as_matrix(u)
    lam = np.exp(1j * phases)
    residuals = np.linalg.norm(u @ vectors - vectors * lam, axis=0)
    gram = vectors.conj().T @ vectors - np.eye(phases.size)
    recon = (vectors * lam) @ vectors.conj().T - u
    return {
        "max_residual": float(residuals.max()),
        "orthonormality_defect": max_abs(gram),
        "reconstruction_error": max_abs(recon),
    }


def _polish_clusters(phases, vectors, gap):
    """QR-reorthonormalize eigenvector blocks whose phases nearly coincide.

    Clusters are runs of sorted phases with successive gaps below ``gap``;
    the run wrapping through 2*pi -> 0 is treated as one cluster.  Modifies
    ``vectors`` in place.
    """
    d = phases.size
    if d < 2:
        return
    breaks = np.nonzero(np.diff(phases) >= gap)[0]
    runs = np.split(np.arange(d), breaks + 1)
    if len(runs) > 1 and (phases[0] + 2.0 * np.pi - phases[-1]) < gap:
        runs[0] = np.concatenate([runs.pop(), runs[0]])
    for idx in runs:
        if idx.size > 1:
            block, _ = np.linalg.qr(vectors[:, idx])
            vectors[:, idx] = block
