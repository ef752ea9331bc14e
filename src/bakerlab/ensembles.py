"""Reproducible random sampling: Haar states, circular ensembles, and the
reflection-symmetric map ensemble.

Every sampler takes an :class:`RngStream`, a seeded, addressable random
stream.  Monte-Carlo sweeps give each sample its own stream (see
:meth:`RngStream.offset`), so results are independent of evaluation order
and bit-reproducible across runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import Bipartition, _from_parity_blocks

__all__ = [
    "EnsembleKind",
    "RngStream",
    "haar_state",
    "product_state",
    "product_states",
    "sample_coe",
    "sample_cue",
    "sample_ensemble",
    "sample_symmetric",
]

_U64 = 2**64


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream; ``(master_seed, stream_id)`` fixes every draw.

    Use one stream per Monte-Carlo sample.  Draws inside a single sample
    consume the stream sequentially.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for label, value in (("master_seed", self.master_seed), ("stream_id", self.stream_id)):
            if not (0 <= value < _U64):
                raise ValueError(f"{label} must fit an unsigned 64-bit integer, got {value}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def offset(self, k: int) -> "RngStream":
        """The stream ``k`` slots further along, for per-sample derivation."""
        return RngStream(self.master_seed, (self.stream_id + k) % _U64)


class EnsembleKind(enum.Enum):
    """Random-matrix ensembles understood by :func:`sample_ensemble`."""

    CUE = "cue"
    COE = "coe"
    SYMMETRIC = "symmetric"


def _haar_rows(gen: np.random.Generator, n: int, d: int) -> np.ndarray:
    """``n`` Haar states on ``d`` levels as rows: all real parts, then all imaginary parts."""
    z = gen.standard_normal((n, d)) + 1j * gen.standard_normal((n, d))
    # row norms as sqrt(re.re + im.im) from batched matmuls round exactly like
    # the 1-d np.linalg.norm, so single-row draws keep the bits that stored
    # artifacts were made with; norm(axis=1) and einsum differ in the last bit
    re, im = z.real[:, None, :], z.imag[:, None, :]
    sq = re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)
    return z / np.sqrt(sq[:, 0])


def _cue(gen: np.random.Generator, d: int) -> np.ndarray:
    # QR of a complex Ginibre matrix; rescaling R's diagonal phases makes the
    # distribution exactly Haar rather than merely orthonormal.
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _coe(gen: np.random.Generator, d: int) -> np.ndarray:
    v = _cue(gen, d)
    return v @ v.T


def haar_state(d: int, rng: RngStream) -> np.ndarray:
    """A Haar-random pure state on ``d`` levels."""
    if d < 1:
        raise ValueError(f"state dimension must be >= 1, got {d}")
    return _haar_rows(rng.generator(), 1, d)[0]


def product_states(part: Bipartition, n: int, rng: RngStream) -> np.ndarray:
    """``n`` independent random product states as the columns of a (d, n) array.

    One generator serves the whole batch: the ``n`` A-factors are drawn
    first, then the ``n`` B-factors.  :func:`product_state` is the ``n = 1``
    case.
    """
    if n < 1:
        raise ValueError(f"need at least one state, got n = {n}")
    gen = rng.generator()
    za = _haar_rows(gen, n, part.d_a)
    zb = _haar_rows(gen, n, part.d_b)
    return (za[:, :, None] * zb[:, None, :]).reshape(n, part.d).T


def product_state(part: Bipartition, rng: RngStream) -> np.ndarray:
    """Tensor product of independent Haar states on the two subsystems."""
    return product_states(part, 1, rng)[:, 0]


def sample_cue(d: int, rng: RngStream) -> np.ndarray:
    """A Haar-distributed (circular unitary ensemble) matrix."""
    if d < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {d}")
    return _cue(rng.generator(), d)


def sample_coe(d: int, rng: RngStream) -> np.ndarray:
    """A circular orthogonal ensemble matrix, V V^T with V Haar; symmetric."""
    if d < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {d}")
    return _coe(rng.generator(), d)


def sample_symmetric(d: int, rng: RngStream) -> np.ndarray:
    """A random reflection-symmetric unitary.

    Two independent COE blocks are drawn for the parity sectors and rotated
    back with :func:`bakerlab.maps.lambda_basis`; the result commutes with
    the reflection by construction.  Since Lambda Lambda^T = 1, the result
    also satisfies U = U^T, so its time reversal is complex conjugation:
    that gives the baker map's symmetry class, but not the baker's own
    antiunitary, which runs through G_d (acceptance criterion 1).  A
    product state's complex conjugate is again a product state, and the
    COE blocks return weight O(1/d) to the input's complex conjugate, so the
    single-application mean linear entropy lies an exact delta(d_a, d_b) < 0
    below the CUE value (-4181/6115824 at 8x8; see
    ``symmetric_ensemble_offset`` in the acceptance tests).
    """
    if d < 2 or d % 2:
        raise ValueError(f"symmetric ensemble needs an even dimension >= 2, got {d}")
    gen = rng.generator()
    half = d // 2
    return _from_parity_blocks(_coe(gen, half), _coe(gen, half))  # odd block drawn first


#: the sampler of each ensemble, called with the dimension and the stream
_SAMPLERS = {EnsembleKind.CUE: sample_cue, EnsembleKind.COE: sample_coe, EnsembleKind.SYMMETRIC: sample_symmetric}


def sample_ensemble(kind, d: int, rng: RngStream) -> np.ndarray:
    """Draw one matrix from the ensemble named by ``kind``."""
    return _SAMPLERS[EnsembleKind(kind)](d, rng)
