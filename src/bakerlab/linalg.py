"""Dense complex linear algebra: tensor structure, partial traces, unitarity
gates, and eigendecomposition of unitary matrices.

:func:`eigensystem` picks its solver from the symmetries of its input:

* Reflection-symmetric unitaries (``R U R = U`` with R the index reversal
  ``j -> d-1-j``, d even) split into odd- and even-parity blocks of size d/2
  in the basis of ``bakerlab.maps.lambda_basis``.  Lambda is real with two
  nonzeros per row, so the private helpers ``_parity_blocks``,
  ``_from_parity_blocks`` and ``_from_parity_vectors`` apply it by slicing in
  O(d^2) instead of dense products, and each block is solved on its own.
* Time-reversal-symmetric unitaries (``V U* V^dag = U^dag`` for V = 1, the
  antiperiodic Fourier kernel ``G_d``, or ``1_2 kron G_{d/2}``) are
  diagonalized by real symmetric ``eigh`` solves: with ``V = W W^T``,
  ``W^dag U W`` is a symmetric unitary with a real orthogonal eigenbasis
  (Saraceno, Ann. Phys. 199, 37, 1990).  This covers B, D, D', Bbar, COE
  and the reflection-symmetric ensemble.
* Everything else (CUE, ``lambda``) takes one complex Hermitian ``eigh``.

Conventions used throughout the package:

* matrices are dense ``numpy.complex128`` arrays,
* the left factor of a tensor product is the most significant one,
* a bipartite basis index decomposes as ``j = j_a * d_b + j_b``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from numpy.linalg import LinAlgError

__all__ = [
    "UNITARY_TOL",
    "NORM_TOL",
    "EIGEN_TOL",
    "Bipartition",
    "EigenSystem",
    "as_matrix",
    "assert_unitary",
    "eigensystem",
    "eigensystem_diagnostics",
    "kron",
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

# c in the Hermitian combination H = (S + S^dag)/2 + c (S - S^dag)/2i that
# diagonalizes a unitary S (Re S + c Im S for a symmetric S); any value other
# than 0 and +-1 works, and H folds phases about atan(c)
_MIX = 0.6180339887498949
_FOLD = float(np.arctan(_MIX))
# runs of H eigenvalues closer than this many mean spacings form a cluster;
# outside them a fold pair at gap g keeps a residual of ~eps / g
_CLUSTER_SPACINGS = 0.1
# a cluster is re-solved when a column residual exceeds this times n, about
# ten times what eigh leaves on exactly degenerate eigenvalues
_RITZ_EPS = 2e-15


#: columns (or rows, or eigenvectors) in one block of the eigensolve's
#: residuals, the diagnostics and the reduced eigen-data: each stage then
#: holds a few d x ``_BLOCK`` temporaries instead of several d x d ones
_BLOCK = 128


def _blocks(n, size):
    """Slices covering ``range(n)``: runs of ``size`` from 0, the remainder joined to the last.

    Every run starts at a multiple of ``size`` and is at least ``size`` long
    (or all of ``range(n)``), so a product on a block runs the same OpenBLAS
    kernel tiles as the full product and gives the same bits, and a column
    reduction stays a sequential sum; a narrow remainder, or near-equal runs
    of an odd width, do not.
    """
    edges = [*range(0, size * max(n // size, 1), size), n]
    return [np.s_[a:b] for a, b in zip(edges, edges[1:])]


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


def kron(a, b) -> np.ndarray:
    """Tensor product; the first argument is the most significant factor."""
    return np.kron(as_matrix(a), as_matrix(b))


def unitarity_defect(u) -> float:
    """Max-norm of ``U U^dag - 1``."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"unitarity is only defined for square matrices, got {u.shape}")
    return max_abs(u @ u.conj().T - np.eye(u.shape[0]))


def assert_unitary(u, name: str = "matrix"):
    """Raise ``LinAlgError`` when ``u`` is not unitary within ``UNITARY_TOL``."""
    defect = unitarity_defect(u)
    if not defect < UNITARY_TOL:  # also trips on nan
        raise LinAlgError(f"{name} is not unitary: max |U U^dag - 1| = {defect:.3e} (tol {UNITARY_TOL:.1e})")


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

    ``diagnostics`` is the read-only certificate that :func:`eigensystem`
    attaches: the figures of :func:`eigensystem_diagnostics` that its gates
    passed, measured on the matrix whose shape and sha256 the private
    ``_digest`` records.  A hand-built eigensystem, or a
    ``dataclasses.replace`` copy, has none (both fields are None).
    """

    phases: np.ndarray
    vectors: np.ndarray
    diagnostics: MappingProxyType | None = field(default=None, init=False, compare=False, repr=False)
    _digest: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return int(self.phases.size)


def eigensystem(u) -> EigenSystem:
    """Orthonormal eigendecomposition of a unitary matrix.

    The solver is chosen from two symmetries that the input is tested for,
    each to ``UNITARY_TOL`` in the max-norm:

    * reflection, ``R U R = U`` with R the index reversal ``j -> d-1-j`` and
      d even: the odd- and even-parity blocks of size d/2 are solved
      separately and their vectors rotated back, which returns parity-pure
      vectors, so near-degeneracies across the two sectors are never mixed;
    * time reversal, ``V U* V^dag = U^dag`` for the first V among 1 (U
      symmetric), ``G_d`` (B, D, D') and ``1_2 kron G_{d/2}`` (Bbar, B): with
      ``V = W W^T``, ``W^dag U W`` is a symmetric unitary, which two real
      symmetric ``eigh`` solves diagonalize.  Under both symmetries this runs
      per parity block with V rotated alike.

    Every other input, and every block without time reversal, takes one
    complex Hermitian ``eigh`` (see ``_eigenbasis``, which serves both
    cases).  The symmetries are only tested to ``UNITARY_TOL``, so the
    residual, orthonormality and reconstruction gates always run against
    ``u`` itself at full size: a slightly asymmetric input whose neglected
    part matters fails them just like a bad dense solve.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``u`` is not unitary within ``UNITARY_TOL``, the solver does not
        converge, or the decomposition fails a gate: max residual below
        ``EIGEN_TOL * sqrt(d)``, orthonormality defect below ``EIGEN_TOL``,
        reconstruction error below ``EIGEN_TOL * d``.
    """
    u = as_matrix(u)
    assert_unitary(u)
    d = u.shape[0]
    reversible, v = _time_reversal(u)
    split = d % 2 == 0 and max_abs(u[::-1, ::-1] - u) < UNITARY_TOL
    # every candidate V commutes with R, so Lambda^T V Lambda is block diagonal
    blocks = list(_parity_blocks(u)) if split else [u]
    bases = [None] * len(blocks)
    if v is not None:  # V's real eigenbases: each block of V goes once its basis is known, before any solve
        vs = list(_parity_blocks(v)) if split else [v]
        del v
        bases = []
        while vs:
            bases.append(_eigenbasis(vs.pop(0), real=True))
    # from here on each intermediate is dropped once it is used
    solved = [_eigh_reversible(x, basis) if reversible else _eigenbasis(x) for x, basis in zip(blocks, bases)]
    del blocks, bases
    lam = np.concatenate([lam_x for lam_x, _ in solved])
    q = _from_parity_vectors(solved[0][1], solved[1][1]) if split else solved[0][1]
    del solved
    phases = np.mod(np.angle(lam), 2.0 * np.pi)
    phases[phases == 2.0 * np.pi] = 0.0  # np.mod rounds phases just below 0 up to 2 pi
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = q[:, order]
    del q  # the gates below hold the sorted vectors and column blocks only
    phases.setflags(write=False)
    vectors.setflags(write=False)
    eig = EigenSystem(phases=phases, vectors=vectors)

    diag = eigensystem_diagnostics(u, eig)
    scaled = EIGEN_TOL * np.sqrt(d)
    if not diag["max_residual"] < scaled:
        raise LinAlgError(f"eigenvector residual {diag['max_residual']:.3e} exceeds {scaled:.1e}")
    if not diag["orthonormality_defect"] < EIGEN_TOL:
        raise LinAlgError(f"eigenbasis not orthonormal: defect {diag['orthonormality_defect']:.3e}")
    if not diag["reconstruction_error"] < EIGEN_TOL * d:
        raise LinAlgError(f"spectral reconstruction error {diag['reconstruction_error']:.3e}")
    object.__setattr__(eig, "diagnostics", MappingProxyType(diag))
    object.__setattr__(eig, "_digest", _digest(u))
    return eig


def _fourier_kernel(d):
    """``G_d[j, k] = exp(2 pi i (j + 1/2)(k + 1/2) / d) / sqrt(d)``, a symmetric unitary.

    The phase is ``pi m / 2d`` with ``m = (2j + 1)(2k + 1)``; reducing m mod
    4d in integers first keeps every entry within a few ulp of its exact
    value, where the float argument (up to ~2 pi d) would lose ~log2(d) bits.
    """
    odd = 2 * np.arange(d) + 1
    m = np.multiply.outer(odd, odd)
    m %= 4 * d
    return (np.exp(0.5j * np.pi / d * np.arange(4 * d)) / np.sqrt(d))[m]


@functools.lru_cache(maxsize=8)
def _fourier_phases(n, inverse):
    """Input and output diagonals of :func:`_fourier_apply`, read-only.

    ``(2j + 1)(2k + 1) = 4jk + 2k + (2j + 1)`` splits ``G_n`` into the
    unnormalized inverse DFT between ``diag(exp(i pi k / n))`` on the input
    and ``diag(exp(i pi (2j + 1) / 2n)) / sqrt(n)`` on the output; ``G_n^{-1}``
    is the complex conjugate, the forward DFT between conjugate diagonals.
    """
    w = np.exp(0.5j * np.pi / n * np.arange(2 * n))
    pre, post = w[0::2], w[1::2] / np.sqrt(n)
    if inverse:
        pre, post = pre.conj(), post.conj()
    pre.setflags(write=False)
    post.setflags(write=False)
    return pre, post


def _fourier_apply(x, inverse=False):
    """``G_n`` (``G_n^{-1}`` when ``inverse``) applied to every row of ``x``, by FFT.

    ``x`` is an (..., n) array and each slice along its last axis is one
    vector, so the result is ``x @ G_n`` (G_n is symmetric) in
    O(x.size log n).  ``x`` is overwritten: the input diagonal is applied in
    place before one ``numpy.fft`` call, and the output diagonal in place
    after it.
    """
    pre, post = _fourier_phases(x.shape[-1], inverse)
    x *= pre
    y = np.fft.fft(x) if inverse else np.fft.ifft(x, norm="forward")
    y *= post
    return y


def _time_reversal(u):
    """Find the time reversal V, with ``V U* V^dag = U^dag``, among the candidates.

    Tries V = 1, ``G_d`` and (d even) ``1_2 kron G_{d/2}`` in that order and
    returns ``(True, V)`` for the first with
    ``max |V U* V^dag - U^dag| < UNITARY_TOL`` (V is None for the identity),
    else ``(False, None)``.  V = 1 asks for ``U = U^T``; the other two gates
    run by FFT (see :func:`_reversal_defect`), and only the candidate that
    passes is built as a matrix.
    """
    if max_abs(u - u.T) < UNITARY_TOL:
        return True, None
    d = u.shape[0]
    for n in (d, d // 2) if d % 2 == 0 else (d,):
        if _reversal_defect(u, n) < UNITARY_TOL:
            v = _fourier_kernel(n)
            return True, v if n == d else np.kron(np.eye(2), v)
    return False, None


def _reversal_defect(u, n):
    """``max |V U* V^dag - U^dag|`` for ``V = 1_{d/n} kron G_n``, in O(d^2 log d).

    V is symmetric, so that matrix is the adjoint of ``V U^T V^dag - U``:
    ``G_n`` is applied to the rows of U by FFT, ``G_n^{-1}`` to the rows of
    the transpose, and every entry is compared with U, without the two d^3
    products of the dense gate and with at most two d x d arrays alive.
    """
    d = u.shape[0]
    w = _fourier_apply(u.copy().reshape(d, d // n, n)).reshape(d, d)  # U V
    w = _fourier_apply(w.T.reshape(d, d // n, n), inverse=True).reshape(d, d)  # V U^T V^dag
    w -= u
    return max_abs(w)


def _eigh_reversible(u, basis):
    """Eigenvalues and orthonormal eigenvectors of a unitary with ``V U* V^dag = U^dag``.

    V is a symmetric unitary, given by its real eigenbasis
    ``basis = (lam_v, O_v)`` from ``_eigenbasis(V, real=True)`` (None for
    the identity), so V itself need not be held.  It gives ``V = W W^T``
    with ``W = O_v diag(lam_v)^(1/2)``; then ``S = W^dag U W`` is a
    symmetric unitary, ``S = O diag(lam) O^T`` with O real orthogonal, and
    the eigenvectors of U are ``W O``.
    """
    if basis is None:
        return _eigenbasis(u, real=True)
    lam_v, o_v = basis
    root = np.sqrt(lam_v)
    s = _real_left(o_v.T, _real_right(u, o_v))
    np.multiply(root.conj()[:, None], s, out=s)
    s *= root
    lam, o = _eigenbasis(s, real=True)
    del s
    return lam, _real_left(o_v, root[:, None] * o)


def _eigenbasis(s, real=False):
    """Eigenvalues and an orthonormal eigenbasis Q of a unitary S (``real``: symmetric S, real Q).

    ``H = (S + S^dag)/2 + c (S - S^dag)/2i``, which is ``Re S + c Im S`` when
    ``real``, commutes with S, so one ``eigh`` of H diagonalizes S, with
    eigenvalue ``sqrt(1 + c^2) cos(theta - atan c)`` for the phase theta; the
    eigenvalues of S are the diagonal of ``Q^dag S Q``.  H does not tell apart
    a phase and its fold ``2 atan c - theta``, nor a true degeneracy, so
    ``eigh`` may mix their vectors.  Runs of H eigenvalues closer than
    ``_CLUSTER_SPACINGS`` mean spacings are therefore solved again by
    Rayleigh-Ritz, unless every column already has a residual
    ``|S q - lam q|`` below ``_RITZ_EPS * n`` (exact degeneracies, as in the
    factors of V): an ``eigh`` of the Hermitian part of
    ``exp(-i(atan c + beta)) Q_c^dag S Q_c`` with beta chosen away from the
    run's fold and its stationary points.
    """
    n = s.shape[0]
    if real:
        h = _MIX * s.imag
        np.add(s.real, h, out=h)  # H = Re S + c Im S in one buffer
        right, left = _real_right, lambda q, x: _real_left(q.T, x)
    else:
        h = (0.5 - 0.5j * _MIX) * s
        h += h.conj().T  # H = ((1 - ic) S + (1 + ic) S^dag) / 2
        right, left = np.matmul, lambda q, x: q.conj().T @ x
    mu, q = np.linalg.eigh(h)
    del h
    q = np.ascontiguousarray(q)  # a guard: the products below want C order
    sq = right(s, q)
    lam = np.empty(n, dtype=np.complex128)
    residual = np.empty(n)
    for b in _blocks(n, _BLOCK):  # lam and the residual norms, per column
        lam[b] = (sq[:, b] * q[:, b].conj()).sum(axis=0)
        residual[b] = np.linalg.norm(sq[:, b] - q[:, b] * lam[b], axis=0)
    close = np.diff(mu) < _CLUSTER_SPACINGS * 2.0 * np.hypot(1.0, _MIX) / n
    edges = np.diff(np.concatenate([[0], close, [0]]).astype(np.int8))
    for start, stop in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) + 1):
        if residual[start:stop].max() < _RITZ_EPS * n:
            continue
        block = left(q[:, start:stop], sq[:, start:stop])
        turned = np.exp(-1j * (_FOLD + _ritz_angle(mu[start:stop].mean()))) * block
        _, r = np.linalg.eigh(turned.real if real else (turned + turned.conj().T) / 2)
        q[:, start:stop] = q[:, start:stop] @ r
        lam[start:stop] = ((block @ r) * r.conj()).sum(axis=0)
    return lam, q


def _ritz_angle(mu):
    """A rotation beta that resolves a run of H eigenvalues around ``mu``.

    The run's phases sit near ``atan c +- phi`` with
    ``phi = arccos(mu / sqrt(1 + c^2))``.  The Hermitian part of
    ``exp(-i(atan c + beta)) S`` separates the two folds when ``sin beta`` is not small and nearby phases
    on either side when ``sin(beta -+ phi)`` is not, so beta is the centre of
    the widest gap between 0, phi and -phi modulo pi, at least pi/6 from each.
    """
    phi = np.arccos(np.clip(mu / np.hypot(1.0, _MIX), -1.0, 1.0))
    q = min(phi, np.pi - phi)
    return np.pi / 2 if q <= np.pi / 3 else q / 2


def _real_right(a, o):
    """``a @ o`` for complex ``a`` and real ``o``, as two real products.

    The sum ``(a.real @ o) + 1j * (a.imag @ o)`` is formed in place in the
    complex part, so the bits are those of the plain expression.
    """
    out = 1j * (a.imag @ o)
    return np.add(a.real @ o, out, out=out)


def _real_left(o, a):
    """``o @ a`` for real ``o`` and complex ``a``, as two real products (see :func:`_real_right`)."""
    out = 1j * (o @ a.imag)
    return np.add(o @ a.real, out, out=out)


def _parity_blocks(u):
    """The odd- and even-parity diagonal blocks of ``Lambda^dag U Lambda``, by slicing.

    With A, B, C, D the quarters of ``u`` and R the reflection on d/2 states
    they read ``(A - BR - RC + RDR) / 2`` and ``(RAR + RB + CR + D) / 2``; they
    carry all of ``u`` when it commutes with the full reflection.
    """
    h = u.shape[0] // 2
    a, b, c, dd = u[:h, :h], u[:h, h:], u[h:, :h], u[h:, h:]
    minus = a - b[:, ::-1] - c[::-1, :] + dd[::-1, ::-1]
    plus = a[::-1, ::-1] + b[::-1, :] + c[:, ::-1] + dd
    minus *= 0.5
    plus *= 0.5
    return minus, plus


def _from_parity_blocks(minus, plus, out=None):
    """``Lambda diag(X, Y) Lambda^dag`` for parity blocks X (odd), Y (even), into ``out`` when given.

    In quarters it reads [[X + RYR, RY - XR], [YR - RX, RXR + Y]] / 2; the
    lower quarters are copied from the upper ones, reversed, so X and Y may
    be views of ``out``'s lower quarters.
    """
    h = minus.shape[0]
    if out is None:
        out = np.empty((2 * h, 2 * h), dtype=np.complex128)
    np.add(minus, plus[::-1, ::-1], out=out[:h, :h])
    np.subtract(plus[::-1, :], minus[:, ::-1], out=out[:h, h:])
    out[h:, :h] = out[:h, h:][::-1, ::-1]
    out[h:, h:] = out[:h, :h][::-1, ::-1]
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


def eigensystem_diagnostics(u, eig: EigenSystem) -> dict:
    """Residual, orthonormality, and reconstruction errors of a decomposition.

    When ``eig`` carries the certificate of :func:`eigensystem` and ``u`` has
    the shape and sha256 of the matrix it was measured on, this returns a
    copy of ``eig.diagnostics``: one sha256 pass over the 16 d^2 bytes of
    ``u`` instead of the three d^3 products below.  Otherwise the figures are
    computed, in the same way :func:`eigensystem` computed them for its gates.

    Raises
    ------
    ValueError
        If ``u`` is not a ``eig.dim x eig.dim`` matrix.
    """
    u = as_matrix(u)
    if u.shape != (eig.dim, eig.dim):
        raise ValueError(f"matrix shape {u.shape} does not match eigensystem dimension {eig.dim}")
    if eig.diagnostics is not None and eig._digest == _digest(u):
        return dict(eig.diagnostics)
    return _diagnostics(u, eig)


def _digest(u):
    """Shape and sha256 of a complex128 matrix's entries in C order; a C-contiguous ``u`` is not copied."""
    return u.shape, hashlib.sha256(np.ascontiguousarray(u)).digest()


def _diagnostics(u, eig):
    """The figures of :func:`eigensystem_diagnostics`, computed.

    Computed in blocks of ``_BLOCK`` columns (residual) and rows (Gram,
    reconstruction): each entry is the same sum as in the full d x d
    products, and the figures are their maxima, so they do not depend on the
    block size.
    """
    phases, vectors = eig.phases, eig.vectors
    n = phases.size
    lam = np.exp(1j * phases)
    conj = vectors.conj()
    residual = gram_defect = recon_error = 0.0
    for s in _blocks(n, _BLOCK):
        block = vectors[:, s]
        residual = max(residual, float(np.linalg.norm(u @ block - block * lam[s], axis=0).max()))
        gram = conj[:, s].T @ vectors
        gram[:, s] -= np.eye(gram.shape[0])
        gram_defect = max(gram_defect, max_abs(gram))
        del gram
        recon = (vectors[s] * lam) @ conj.T
        recon -= u[s]
        recon_error = max(recon_error, max_abs(recon))
    return {
        "max_residual": residual,
        "orthonormality_defect": gram_defect,
        "reconstruction_error": recon_error,
    }
