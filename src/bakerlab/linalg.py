"""Dense complex linear algebra: products, tensor structure, partial traces,
and eigendecomposition of unitary matrices.

:func:`eigensystem` picks its solver from the symmetries of its input:

* Reflection-symmetric unitaries (``R U R = U`` with R the index reversal
  ``j -> d-1-j``, d even) split into odd- and even-parity blocks of size d/2
  in the basis of ``bakerlab.maps.lambda_basis``.  Lambda is real with two
  nonzeros per row, so the private helpers ``_to_parity_basis``,
  ``_from_parity_blocks`` and ``_from_parity_vectors`` apply it by slicing in
  O(d^2) instead of dense products, and each block is solved on its own.
* Time-reversal-symmetric unitaries (``V U* V^dag = U^dag`` for V = 1, the
  antiperiodic Fourier kernel ``G_d``, or ``1_2 kron G_{d/2}``) are
  diagonalized by real symmetric ``eigh`` solves instead of a complex Schur
  factorization: with ``V = W W^T``, ``W^dag U W`` is a symmetric unitary
  with a real orthogonal eigenbasis (Saraceno, Ann. Phys. 199, 37, 1990).
  This covers B, D, D', Bbar, COE and the reflection-symmetric ensemble.
* Everything else takes one dense complex Schur factorization.

Conventions used throughout the package:

* matrices are dense ``numpy.complex128`` arrays,
* the left factor of a tensor product is the most significant one,
* a bipartite basis index decomposes as ``j = j_a * d_b + j_b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import eigh, schur

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

# c in the real combination Re S + c Im S that diagonalizes a symmetric
# unitary S; any value other than 0 and +-1 works, and A folds phases about
# atan(c)
_MIX = 0.6180339887498949
_FOLD = float(np.arctan(_MIX))
# runs of A eigenvalues closer than this many mean spacings form a cluster;
# outside them a fold pair at gap g keeps a residual of ~eps / g
_CLUSTER_SPACINGS = 0.1
# a cluster is re-solved when a column residual exceeds this times n, about
# ten times what eigh leaves on exactly degenerate eigenvalues
_RITZ_EPS = 2e-15


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
) -> EigenSystem:
    """Orthonormal eigendecomposition of a unitary matrix.

    The solver is chosen from two symmetries that the input is tested for,
    each to ``unitary_tol`` in the max-norm:

    * reflection, ``R U R = U`` with R the index reversal ``j -> d-1-j`` and
      d even: the odd- and even-parity blocks of size d/2 are solved
      separately and their vectors rotated back, which returns parity-pure
      vectors, so near-degeneracies across the two sectors are never mixed;
    * time reversal, ``V U* V^dag = U^dag`` for the first V among 1 (U
      symmetric), ``G_d`` (B, D, D') and ``1_2 kron G_{d/2}`` (Bbar, B): with
      ``V = W W^T``, ``W^dag U W`` is a symmetric unitary, which two real
      symmetric ``eigh`` solves diagonalize (see ``_real_eigenbasis``).  Under
      both symmetries this runs per parity block with V rotated alike.

    Every other input, and every block without time reversal, takes a complex
    Schur factorization, which is exactly the spectral decomposition of a
    normal matrix.  The symmetries are only tested to ``unitary_tol``, so the
    residual, orthonormality and reconstruction gates always run against
    ``u`` itself at full size: a slightly asymmetric input whose neglected
    part matters fails them just like a bad dense solve.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``u`` is not unitary within ``unitary_tol``, the solver does not
        converge, or the decomposition fails its residual gates.
    """
    u = as_matrix(u)
    assert_unitary(u, unitary_tol)
    d = u.shape[0]
    reversible, v = _time_reversal(u, unitary_tol)
    split = d % 2 == 0 and max_abs(u[::-1, ::-1] - u) < unitary_tol
    blocks = [(u, v)]
    if split:
        rotated = _to_parity_basis(u)
        # every candidate V commutes with R, so Lambda^T V Lambda is block diagonal
        v = v if v is None else _to_parity_basis(v)
        halves = (np.s_[: d // 2], np.s_[d // 2 :])
        blocks = [(rotated[s, s], v if v is None else v[s, s]) for s in halves]
    solved = [_eigh_reversible(x, vx) if reversible else _schur(x) for x, vx in blocks]
    lam = np.concatenate([lam_x for lam_x, _ in solved])
    q = _from_parity_vectors(solved[0][1], solved[1][1]) if split else solved[0][1]
    phases = np.mod(np.angle(lam), 2.0 * np.pi)
    phases[phases == 2.0 * np.pi] = 0.0  # np.mod rounds phases just below 0 up to 2 pi
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = q[:, order]

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


def _fourier_kernel(d):
    """``G_d[j, k] = exp(2 pi i (j + 1/2)(k + 1/2) / d) / sqrt(d)``, a symmetric unitary."""
    j = np.arange(d)[:, None] + 0.5
    k = np.arange(d)[None, :] + 0.5
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def _time_reversal(u, tol):
    """Find the time reversal V, with ``V U* V^dag = U^dag``, among the candidates.

    Tries V = 1, ``G_d`` and (d even) ``1_2 kron G_{d/2}`` in that order and
    returns ``(True, V)`` for the first with ``max |V U* V^dag - U^dag| < tol``
    (V is None for the identity), else ``(False, None)``.  Each candidate is
    symmetric, so ``V^dag = V*``.  Before the full O(d^3) gate, one fixed
    vector x with ``|x_k| = 1`` is pushed through both sides in O(d^2); any
    input that passes the full gate has a probe difference below ``d * tol``,
    so the probe only ever skips candidates that would fail.
    """
    d = u.shape[0]
    x = np.exp(2j * np.pi * _MIX * np.arange(d) ** 2)
    target = np.conj(x.conj() @ u)  # U^dag x
    candidates = [lambda: None, lambda: _fourier_kernel(d)]
    if d % 2 == 0:
        candidates.append(lambda: np.kron(np.eye(2), _fourier_kernel(d // 2)))
    for make in candidates:
        v = make()
        y = x.conj() if v is None else v @ x.conj()  # conj(V^dag x)
        y = np.conj(u @ y)  # U* V^dag x
        y = y if v is None else v @ y
        if not max_abs(y - target) < d * tol:
            continue
        lhs = u.conj() if v is None else v @ u.conj() @ v.conj()
        if max_abs(lhs - u.conj().T) < tol:
            return True, v
    return False, None


def _eigh_reversible(u, v):
    """Eigenvalues and orthonormal eigenvectors of a unitary with ``V U* V^dag = U^dag``.

    V is a symmetric unitary (None for the identity).  Its real eigenbasis
    gives ``V = W W^T`` with ``W = O_v diag(lam_v)^(1/2)``; then
    ``S = W^dag U W`` is a symmetric unitary, ``S = O diag(lam) O^T`` with O
    real orthogonal, and the eigenvectors of U are ``W O``.
    """
    if v is None:
        return _real_eigenbasis(u)
    lam_v, o_v = _real_eigenbasis(v)
    root = np.sqrt(lam_v)
    s = root.conj()[:, None] * _real_left(o_v.T, _real_right(u, o_v)) * root
    lam, o = _real_eigenbasis(s)
    return lam, _real_left(o_v, root[:, None] * o)


def _real_eigenbasis(s):
    """Eigenvalues and a real orthogonal eigenbasis O of a symmetric unitary S.

    ``Re S`` and ``Im S`` commute, so one real ``eigh`` of
    ``A = Re S + c Im S`` diagonalizes both, with eigenvalue
    ``sqrt(1 + c^2) cos(theta - atan c)`` for the phase theta; the eigenvalues
    of S are the diagonal of ``O^T S O``.  A does not tell apart a phase and
    its fold ``2 atan c - theta``, nor a true degeneracy, so ``eigh`` may mix
    their vectors.  Runs of A eigenvalues closer than ``_CLUSTER_SPACINGS``
    mean spacings are therefore solved again by Rayleigh-Ritz, unless every
    column already has a residual ``|S o - lam o|`` below ``_RITZ_EPS * n``
    (exact degeneracies, as in the factors of V): a real ``eigh`` of
    ``Re(exp(-i(atan c + beta)) O_c^T S O_c)`` with beta chosen away from the
    run's fold and its stationary points.
    """
    n = s.shape[0]
    mu, o = eigh(s.real + _MIX * s.imag, driver="evd")
    o = np.ascontiguousarray(o)  # eigh returns Fortran order; match the products below
    so = _real_right(s, o)
    lam = (so * o).sum(axis=0)
    residual = np.linalg.norm(so - o * lam, axis=0)
    close = np.diff(mu) < _CLUSTER_SPACINGS * 2.0 * np.hypot(1.0, _MIX) / n
    edges = np.diff(np.concatenate([[0], close, [0]]).astype(np.int8))
    for start, stop in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) + 1):
        if residual[start:stop].max() < _RITZ_EPS * n:
            continue
        block = _real_left(o[:, start:stop].T, so[:, start:stop])
        turn = np.exp(-1j * (_FOLD + _ritz_angle(mu[start:stop].mean())))
        _, q = eigh((turn * block).real, driver="evd")
        o[:, start:stop] = o[:, start:stop] @ q
        lam[start:stop] = ((block @ q) * q).sum(axis=0)
    return lam, o


def _ritz_angle(mu):
    """A rotation beta that resolves a run of A eigenvalues around ``mu``.

    The run's phases sit near ``atan c +- phi`` with
    ``phi = arccos(mu / sqrt(1 + c^2))``.  ``Re(exp(-i(atan c + beta)) S)``
    separates the two folds when ``sin beta`` is not small and nearby phases
    on either side when ``sin(beta -+ phi)`` is not, so beta is the centre of
    the widest gap between 0, phi and -phi modulo pi, at least pi/6 from each.
    """
    phi = np.arccos(np.clip(mu / np.hypot(1.0, _MIX), -1.0, 1.0))
    q = min(phi, np.pi - phi)
    return np.pi / 2 if q <= np.pi / 3 else q / 2


def _real_right(a, o):
    """``a @ o`` for complex ``a`` and real ``o``, as two real products."""
    return (a.real @ o) + 1j * (a.imag @ o)


def _real_left(o, a):
    """``o @ a`` for real ``o`` and complex ``a``, as two real products."""
    return (o @ a.real) + 1j * (o @ a.imag)


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
