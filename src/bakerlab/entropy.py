"""Entanglement measures for iterated unitary maps.

The linear entropy of a pure bipartite state ``psi`` is

    S_L(psi) = 1 - tr(rho_a^2),    rho_a = tr_B |psi><psi|,

which vanishes on product states and reaches ``1 - 1/min(d_a, d_b)`` on
maximally entangled ones.  This module provides

* direct evaluation and batched time series of ``S_L`` under a map,
* Monte-Carlo estimates of the entangling power (mean ``S_L`` of evolved
  product states),
* the closed-form time-asymptotic values obtained from the map's
  eigenvectors, valid when the eigenphases carry no nontrivial resonances,
* the resonance (commensurability) check itself.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .ensembles import RngStream, product_state, product_states, sample_ensemble
from .linalg import (
    NORM_TOL,
    UNITARY_TOL,
    Bipartition,
    EigenSystem,
    _BLOCK,
    _blocks,
    as_matrix,
    assert_unitary,
    max_abs,
)
from .maps import _KINDS, MapKind, _step_rows, _unit_steps, make_map

__all__ = [
    "AsymptoticValue",
    "CommensurabilityReport",
    "EntropySamples",
    "ReducedEigenData",
    "asymptotic_entangling_power",
    "asymptotic_entropy",
    "asymptotic_power_mc",
    "commensurability_check",
    "cue_mean_entropy",
    "empirical_asymptotic_distribution",
    "ensemble_entropies",
    "linear_entropies",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class EntropySamples:
    """Linear entropies on a read-only grid: ``values[s, n - n_min]`` is state ``s``'s after ``n`` steps."""

    values: np.ndarray
    n_min: int = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError(f"entropy values must be a non-empty (states, window) grid, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("entropy values must be finite")
        if not isinstance(self.n_min, (int, np.integer)) or self.n_min < 1:
            raise ValueError(f"n_min must be an integer >= 1, got {self.n_min!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n_min", int(self.n_min))

    def __len__(self) -> int:
        return int(self.values.size)


def _entropy_buffers(n_states, part: Bipartition):
    """Work buffers for :func:`_batch_entropy` on ``n_states`` rows: the conjugate states, the Gram matrices and the purities."""
    m = min(part.d_a, part.d_b)
    return (np.empty((n_states, part.d_a, part.d_b), dtype=np.complex128),
            np.empty((n_states, m, m), dtype=np.complex128),
            np.empty(n_states, dtype=np.complex128))


def _batch_entropy(rows: np.ndarray, part: Bipartition, buffers=None, out=None) -> np.ndarray:
    """Linear entropies of the states stored as rows, without checks.

    ``buffers`` (from :func:`_entropy_buffers`) and ``out`` are allocated
    when not given; with them the reduction of C-contiguous rows allocates
    nothing.  The conjugate states are formed with the layout ``np.conj``
    gives them, so the products, and the bits, are the same either way; the
    conjugate Gram matrices then reuse their buffer.
    """
    e = rows.reshape(-1, part.d_a, part.d_b)
    conj, g, purity = _entropy_buffers(len(e), part) if buffers is None else buffers
    np.conjugate(e, out=conj)
    if part.d_a <= part.d_b:
        np.matmul(e, np.swapaxes(conj, 1, 2), out=g)
    else:
        np.matmul(np.swapaxes(conj, 1, 2), e, out=g)
    g_conj = np.conjugate(g, out=conj.reshape(-1)[: g.size].reshape(g.shape))
    np.einsum("sab,sab->s", g, g_conj, out=purity)
    return np.subtract(1.0, purity.real, out=out)


def linear_entropies(columns, part: Bipartition) -> np.ndarray:
    """Linear entropies of many states stored as the columns of a d x S array."""
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim != 2 or cols.shape[0] != part.d:
        raise ValueError(f"expected states as columns of a ({part.d}, S) array, got shape {cols.shape}")
    norms = np.einsum("ds,ds->s", cols, cols.conj()).real
    if not max_abs(norms - 1.0) < NORM_TOL:  # also trips on nan
        raise ValueError("every column must be a normalized state")
    return _batch_entropy(cols.T, part)


def cue_mean_entropy(part: Bipartition) -> float:
    """Mean linear entropy of Haar-random states on the composite space."""
    return (part.d_a - 1) * (part.d_b - 1) / (part.d + 1)


#: version of the stream layout of :func:`ensemble_entropies`, echoed in
#: ``ensemble`` metadata.  Layout 1 (unrecorded) gave every state its own
#: stream ``n_maps + m * n_states + s``; layout 2 draws each map's states as
#: one batch.
ENSEMBLE_STREAM_LAYOUT = 2


def ensemble_entropies(
    kind, d: int, part: Bipartition, n_maps: int, n_states: int, rng: RngStream
) -> np.ndarray:
    """Single-application entropies over a random-map ensemble, shape (n_maps, n_states).

    Map ``m`` is drawn from ``rng.offset(m)`` and applied to a batch of
    ``n_states`` random product states drawn from ``rng.offset(n_maps + m)``
    (see :func:`bakerlab.ensembles.product_states`).  Row ``m`` holds that
    map's entropies.
    """
    if n_maps < 1 or n_states < 1:
        raise ValueError(f"need n_maps >= 1 and n_states >= 1, got {n_maps} and {n_states}")
    if part.d != d:
        raise ValueError(f"split {part.d_a}x{part.d_b} does not multiply to d = {d}")
    values = np.empty((n_maps, n_states))
    for m in range(n_maps):
        u = sample_ensemble(kind, d, rng.offset(m))
        values[m] = linear_entropies(u @ product_states(part, n_states, rng.offset(n_maps + m)), part)
    return values


#: version of the engine's arithmetic, recorded in the metadata of the
#: artifacts it produces (``histogram``, ``timeseries`` and ``epinf
#: --cross-check``).  Version 1 (unrecorded) stepped through the burn-in and
#: applied four diagonals per FFT step; version 2 jumps the burn-in where
#: that is cheaper (see :func:`_jump_pays`) and combines the FFT step's two
#: middle diagonals, which moves the last bits of the samples; version 3
#: runs the dense step through :func:`_product`, which moves the last bits of
#: some dense samples
ITERATION_VERSION = 3


def empirical_asymptotic_distribution(
    u, part: Bipartition, n_min: int, n_max: int, n_states: int, rng: RngStream
) -> EntropySamples:
    """Entropy samples of iterated product states inside a late-time window.

    Each of ``n_states`` random product states (state ``s`` drawn from
    ``rng.offset(s)``) is evolved to ``n_max`` applications of the map;
    entropies with ``n_min <= n <= n_max`` are recorded in the grid
    ``values[s, n - n_min]``, whose row ``s`` is state ``s``'s time series.

    The map ``u`` is a d x d matrix or a map kind (a
    :class:`bakerlab.maps.MapKind` or its name).  A kind is built with
    :func:`bakerlab.maps.make_map`, except B, D and D' at even d of at least
    ``_TRANSFORM_MIN_D``: those take the step of their row of
    ``maps._KINDS``, are never built, and their unitarity gate runs by FFT
    on every CPU (see :func:`_assert_unitary_step`).  Only a matrix is
    matched against the steps (see :func:`_transform_step`).

    A step is one dense product of the states with ``u.T`` (see
    :func:`_dense_rows`), except when the map is B, D or D' (see
    :func:`bakerlab.maps.baker`, :func:`bakerlab.maps.d_map`) given by kind,
    or as a matrix within ``UNITARY_TOL`` entrywise, and d is at least
    ``_TRANSFORM_MIN_D``: then two FFTs per step apply the map in
    O(d log d) per state, and the states are split into contiguous row
    blocks (see :func:`_block_count`), one per thread.  Each block is
    iterated in place to ``n_max`` steps by :func:`_iterate`.

    The burn-in records nothing, so when ``n_min > 1`` and one product is
    cheaper (see :func:`_jump_pays`), every state is moved to step
    ``n_min - 1`` at once by the power ``(U^T)^(n_min - 1)`` of the map that
    is iterated (``u.T``, or the FFT step applied to the identity), formed
    by binary powering.  For 100 states and ``n_min = 513`` the FFT step
    jumps up to d = 642 (measured: the jump ties at d = 640, 209 against
    216 ms, and loses at 704) and a dense map at every d; a jump moves the
    samples by at most a few 1e-14, which ``ITERATION_VERSION`` records in
    the artifacts.  The jump is taken only where its d x d arrays fit in
    physical memory (see :func:`_takes_jump`), so a host too small for them
    steps, and its samples differ in those last bits.

    The FFT step, the dense step and the jump's products (see
    :func:`_product`) and the entropy reduction give every state the same
    bits in any row block and on any number of OpenBLAS threads, so the
    samples are the same at any CPU count.

    Raises ``ValueError`` before any allocation when the run would need more
    than the physical memory, and ``LinAlgError`` when the map is not
    unitary within ``UNITARY_TOL`` or a final state's norm has drifted from 1
    by ``NORM_TOL`` or more, or is nan.
    """
    kind = MapKind(u) if isinstance(u, (str, MapKind)) else None
    if kind is None:
        u = as_matrix(u)
        if u.shape != (part.d, part.d):
            raise ValueError(f"map shape {u.shape} does not match split {part.d_a}x{part.d_b}")
    if not (1 <= n_min <= n_max):
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    d, window = part.d, n_max - n_min + 1
    step, step_t = _fft_steps(kind, d)
    dense = step is None  # the map is held as a matrix
    _require_memory(f"{n_states} states x {window} window steps at d = {d} need",
                    *_engine_stages(kind, d, n_states, window))
    if dense and kind is not None:
        u = make_map(kind, d)
    if dense:
        assert_unitary(u, name="map")
        step = _transform_step(u) if kind is None else None  # a kind is never recognised
    else:
        _assert_unitary_step(step, step_t, d)
    fft = step is not None
    blocks = _block_count(n_states, d) if fft else 1
    if not fft:
        step = functools.partial(_dense_rows, u.T)

    psi = np.empty((n_states, d), dtype=np.complex128)
    for s in range(n_states):
        psi[s] = product_state(part, rng.offset(s))
    work = np.empty_like(psi)
    start = n_min - 1 if _takes_jump(d, n_states, n_min, window, fft=fft, dense=dense) else 0
    if start:  # row k of the operator U^T that multiplies the rows is the step applied to e_k
        one_step = _step_rows(step, d, np.empty((d, d), dtype=np.complex128)) if fft else u.T
        power = _matrix_power(one_step, start)
        del one_step
        _dense_rows(power, psi, work)
        del power
    out = np.empty((n_states, window))
    iterate = functools.partial(_iterate, step, part=part, n_min=n_min, n_max=n_max, start=start)
    _in_threads(iterate, blocks, *(np.array_split(a, blocks) for a in (psi, work, out)))
    drift = max_abs(np.einsum("sd,sd->s", psi, psi.conj()).real - 1.0)
    if not drift < NORM_TOL:  # also trips on nan
        raise LinAlgError(f"state norms drifted by {drift:.3g} over {n_max} steps (tolerance {NORM_TOL})")
    return EntropySamples(out, n_min)


def _iterate(step, psi, work, out, part, n_min, n_max, start):
    """Step the rows ``psi``, which are at step ``start``, in place up to step ``n_max``, filling ``out`` from step ``n_min``.

    Every step is called as ``step(psi, work=work)``: it overwrites the
    C-contiguous rows ``psi`` with the next step's, using ``work``, an array
    of their shape, as scratch, and what it returns is not used.  The FFT
    step allocates nothing, the dense step (:func:`_dense_rows`) only the
    partial sums of :func:`_product`.  The block owns its entropy buffers,
    so the reduction allocates nothing.  Runs in a worker thread when the
    states are blocked, so it calls private helpers only.
    """
    buffers = _entropy_buffers(len(psi), part)
    for n in range(start + 1, n_max + 1):
        step(psi, work=work)
        if n >= n_min:
            _batch_entropy(psi, part, buffers, out[:, n - n_min])


def _dense_rows(u_t, psi, work):
    """The dense step: overwrite the rows ``psi`` with ``psi @ u_t`` by :func:`_product`, through ``work``."""
    np.copyto(psi, _product(psi, u_t, work))


def _in_threads(fn, threads, *iterables):
    """``list(map(fn, *iterables))``, in a pool of ``threads`` threads when that is more than one."""
    if threads == 1:
        return list(map(fn, *iterables))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *iterables))


def _matrix_power(base, m):
    """``base ** m`` (``m >= 1``) by binary powering: ``m.bit_length() - 1`` squarings and ``m.bit_count() - 1`` products.

    Every product is a :func:`_product`, so the bits do not depend on the
    CPU count.  Holds three d x d arrays besides ``base``: the power, one
    scratch array, which every product writes into, and the product's
    partial sums.
    """
    power = base.copy()
    scratch = np.empty_like(power)
    for bit in bin(m)[3:]:
        power, scratch = _product(power, power, scratch), power
        if bit == "1":
            power, scratch = _product(power, base, scratch), power
    return power


#: inner-dimension run of :func:`_product`.  OpenBLAS cuts a longer inner
#: dimension into runs whose bounds depend on its thread count: square
#: products at d = 258, 300, 514, 700 and 798 gave other bits on one thread
#: than on 2, 3 and 4 (OpenBLAS 0.3.31, Haswell kernels), at multiples of 128
#: the same bits.  A run of this length is one run of OpenBLAS's own on any
#: thread count
_RUN = 128
#: output rows :func:`_product` sums at a time: its partial sums take this
#: many rows at most, and blocks of rows keep every entry's bits
_RUN_ROWS = 256


def _product(a, b, out):
    """``a @ b`` written into ``out``, in an order that does not depend on OpenBLAS's thread count.

    Each block of ``_RUN_ROWS`` output rows is the sum, in a fixed order, of
    the products over runs of ``_RUN`` of the inner dimension; the runs cost
    10-20% over one GEMM at d = 512-768.  ``out`` must not overlap ``a`` or
    ``b``.  The partial sums are allocated only when the inner dimension
    has more than one run.
    """
    if a.shape[1] > _RUN:
        part = np.empty((min(len(a), _RUN_ROWS), b.shape[1]), dtype=out.dtype)
    for r in range(0, len(a), _RUN_ROWS):
        rows, block = a[r:r + _RUN_ROWS], out[r:r + _RUN_ROWS]
        np.matmul(rows[:, :_RUN], b[:_RUN], out=block)
        for k in range(_RUN, a.shape[1], _RUN):
            block += np.matmul(rows[:, k:k + _RUN], b[k:k + _RUN], out=part[: len(block)])
    return out


#: complex state entries a row block must hold before another thread pays
#: for itself: two blocks lose at S d <= 16384, break even near 18432 and
#: win from 20480 (per-step timings in CHANGES.md)
_MIN_BLOCK = 10240


def _worker_count():
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _block_count(n_states, d):
    """Row blocks for the FFT step: one per CPU, each at least ``_MIN_BLOCK`` entries."""
    return max(1, min(_worker_count(), n_states * d // _MIN_BLOCK, n_states))


#: time of one FFT step of one state per d log2(d), in complex
#: multiply-adds of a square :func:`_product`.  Both sides use the 2 CPUs of
#: the host it was measured on (the steps in two row blocks, the products on
#: OpenBLAS's two threads), 100 states, 512 burn-in steps: jump against
#: stepping, in ms (medians of 5), read 20 / 139 at d = 256, 110 / 179 at
#: 512, 209 / 216 at 640, 330 / 276 at 704, 360 / 308 at 768, 508 / 378 at
#: 896 and 782 / 465 at 1024, which this value puts between 640 and 704 (the
#: rule switches at 642)
_FFT_STEP_COST = 8


def _jump_pays(d, n_states, n_min, fft):
    """Whether moving ``n_states`` states to step ``n_min - 1`` by one matrix power is cheaper than stepping there.

    Costs count complex multiply-adds of GEMM: a step is ``d^2`` per state
    on a dense map and ``_FFT_STEP_COST d log2(d)`` by FFT; the jump is the
    squarings and products of :func:`_matrix_power` (``d^3`` each), one
    ``S d^2`` product with the states, and for the FFT step ``d`` more state
    steps that build the operator from the identity.
    """
    m = n_min - 1
    if m < 1:
        return False
    per_state = _FFT_STEP_COST * d * math.log2(d) if fft else d * d
    jump = (m.bit_length() + m.bit_count() - 2) * d**3 + n_states * d * d + (d * per_state if fft else 0)
    return jump < m * n_states * per_state


def _takes_jump(d, n_states, n_min, window, fft, dense):
    """Whether the engine jumps the burn-in with the FFT step (``fft``) or the dense one.

    It does when the jump is cheaper (:func:`_jump_pays`) and the ``jump``
    row of :data:`_STAGES` fits in physical memory beside the run's
    ``engine`` row (``dense``: the map is held as a matrix).  So the jump
    never makes a run fail the engine's preflight, and a host too small for
    its arrays steps instead.
    """
    return (_jump_pays(d, n_states, n_min, fft)
            and _fits(_STAGES["engine"](d, n_states, window, dense) + _STAGES["jump"](d)))


#: live bytes of every stage that allocates in proportion to its inputs, at
#: its peak, from the run's sizes.  A command names the stages it runs and
#: :func:`_require_memory` counts the largest, plus ``_FIXED_BYTES``.  For
#: every command at d = 16..1024 that estimate lies between the run's
#: tracemalloc peak and twice the peak plus 1 MiB (tests/test_cli.py)
_STAGES = {
    # the map of ``kind`` and, unless it is one of _PLAIN_KINDS, its
    # builder's rows: the min(128, d) unit rows of maps._unit_steps and
    # their scratch (of d/2 for Bbar, or G_d's exponents), and half as many
    # again for what tracemalloc does not see, ~1.2 MB of RSS at d = 2048
    "build": lambda d, kind: 16 * d * (d + 2.5 * min(_BLOCK, d) * (MapKind(kind) not in _PLAIN_KINDS)),
    # load_cmatrix streaming a file's entries into its matrix, one 16 KiB
    # chunk of text at a time
    "read": lambda entries: 16 * entries,
    # load_cmatrix parsing a file of ``size`` bytes whole with json.load: the
    # text, then per entry, which holds two commas, a Python list, two floats
    # and the array they become
    "json_load": lambda size, commas: size + 80 * commas,
    # eigensystem, its certificate and the resonance scan: at most 5.3 d x d
    # arrays, in the unsplit solves of D' at d = 300 and D at 256, and the
    # scan's ~32 bytes per phase pair beside the eigenvectors
    "eigensolve": lambda d: 16 * 6 * d * d,
    # the eigenvectors and the reduced density matrices, whose blocks of
    # products add at most a third of them; the formula adds no d x d array
    "reduction": lambda d, d_a, d_b: 16 * d * (d + 1.5 * (d_a**2 + d_b**2)),
    # the samples and the larger of the unitarity gate and the iteration.
    # The gate of a map held ``dense`` holds the map and two temporaries,
    # the FFT gate _GATE_ROWS unit rows, their scratch and magnitudes; the
    # iteration holds the map and six (S, d) batches: the states, the step's
    # scratch, the partial sums of _product and the entropy buffers
    "engine": lambda d, states, window, dense: 8 * states * window + 16 * d * max(
        3 * (d if dense else _GATE_ROWS), 6 * states + dense * d),
    # the burn-in jump beside the engine: the one-step operator, its power,
    # the scratch of _matrix_power and the partial sums of _product
    "jump": lambda d: 16 * 4 * d * d,
    # HistogramSummary of float64 samples with its temporaries, and the
    # counts and edges of every bin with their JSON lists
    "summary": lambda samples, bins: 32 * samples + 96 * bins,
    # a chunk of Haar states drawn and reduced beside the samples
    "reference": lambda d, samples, chunk: 8 * samples + 16 * 4 * chunk * d,
    # beside the (maps x states) entropies, one ensemble map drawn beside
    # the last (the QR of a d x d Ginibre matrix holds four d x d arrays, the
    # ``symmetric`` ensemble's two of d/2 and their assembly under two),
    # then applied to its product states beside it
    "ensemble": lambda d, maps, states, symmetric: 8 * maps * states + 16 * max(
        (3 if symmetric else 5.25) * d * d, d * d + 3.5 * states * d),
}
#: the kinds whose builders hold no rows beside the map: the permutations and Lambda
_PLAIN_KINDS = (MapKind.REFLECTION, MapKind.IDENTITY, MapKind.LAMBDA)
#: bytes every run holds beside its largest stage: the interpreter's lists,
#: the report and the caches, which dominate below d ~ 128
_FIXED_BYTES = 2**20


def _physical_memory():
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare with
        return None


def _fits(*stages):
    """Whether the largest of the ``stages``' bytes, plus ``_FIXED_BYTES``, fits in physical memory; True where that cannot be told."""
    have = _physical_memory()
    return have is None or max(stages) + _FIXED_BYTES <= have


def _require_memory(what, *stages):
    """Raise ``ValueError`` when the largest of the ``stages``' bytes (rows of :data:`_STAGES`), plus ``_FIXED_BYTES``, exceeds physical memory.

    Every preflight calls it before the stages allocate.  ``what`` opens the
    message and ends in its verb, e.g. ``"--d 64 needs"``.
    """
    if not _fits(*stages):
        need = max(stages) + _FIXED_BYTES
        raise ValueError(
            f"{what} ~{need / 2**30:.3g} GiB, more than the {_physical_memory() / 2**30:.3g} GiB of physical memory"
        )


#: B, D and D' are iterated by FFT from this dimension up; below it one dense
#: GEMM per step is faster (per-step timings in CHANGES.md)
_TRANSFORM_MIN_D = 256
#: rows of the identity pushed through a candidate transform at a time, over
#: all threads: the FFT gate gives each of its threads blocks of
#: ``_GATE_ROWS // threads`` rows
_GATE_ROWS = 64


def _engine_stages(kind, d, n_states, window):
    """The rows of :data:`_STAGES` an engine run on ``kind`` (None: a matrix) holds: its ``engine`` row, and the ``build`` of a kind it builds."""
    dense = _fft_steps(kind, d)[0] is None
    engine = _STAGES["engine"](d, n_states, window, dense)
    return [engine, _STAGES["build"](d, kind)] if dense and kind is not None else [engine]


def _fft_steps(kind, d):
    """``(step, step_t)`` of the row of ``maps._KINDS`` that iterates ``kind`` (None: a matrix) by FFT at ``d`` without building it, else ``(None, None)``."""
    if kind is None or d % 2 or d < _TRANSFORM_MIN_D:
        return None, None
    return _KINDS[MapKind(kind)][1:]


def _transform_step(u):
    """The FFT step of the matrix ``u`` when it is B, D or D' at an even d of at least ``_TRANSFORM_MIN_D``, else None.

    Each candidate, a step of ``maps._KINDS``, is applied to the identity
    ``_GATE_ROWS`` rows at a time and must reproduce every column of ``u``
    within ``UNITARY_TOL``: the map that is iterated is the one that passed
    the unitarity gate.  The last columns, where the three kinds differ,
    come first, so a wrong kind is refused after one block.
    """
    d = u.shape[0]
    if d % 2 or d < _TRANSFORM_MIN_D:
        return None
    starts = range(0, d, _GATE_ROWS)[::-1]
    for _, step, _ in _KINDS.values():
        if step is not None and all(max_abs(x - u[:, k:k + len(x)].T) < UNITARY_TOL
                                    for k, x in _unit_steps(step, d, starts, _GATE_ROWS)):
            return step
    return None


def _assert_unitary_step(step, step_t, d):
    """The unitarity defect max |B B^dag - 1| of the map B that ``step`` applies, by FFT.

    ``step_t`` applies B^T.  Column k of B B^dag is B conj(B^T e_k), so each
    block of unit vectors takes four FFT passes: the gate
    computes the figure of :func:`bakerlab.linalg.assert_unitary`, over every
    entry, in O(d^2 log d) time, without its d^3 GEMM and d x d arrays.  The
    blocks are dealt out to one thread per CPU, each building its blocks of
    ``_GATE_ROWS // threads`` rows in its own buffers, so the gate holds
    O(``_GATE_ROWS`` d) entries at any CPU count.  The figure is a maximum
    of entries that do not depend on the blocks, so it is the same at any CPU
    count.  Raises ``LinAlgError`` unless the figure is below ``UNITARY_TOL``.
    """
    rows = max(1, _GATE_ROWS // _worker_count())
    starts = range(0, d, rows)
    threads = min(_worker_count(), len(starts))
    figures = _in_threads(functools.partial(_gate_defect, step, step_t, d, rows), threads,
                          [starts[t::threads] for t in range(threads)])
    defect = max_abs(figures)
    if not defect < UNITARY_TOL:  # also trips on nan
        raise LinAlgError(f"map is not unitary: max |U U^dag - 1| = {defect:.3e} (tol {UNITARY_TOL:.1e})")
    return defect


def _gate_defect(step, step_t, d, rows, starts):
    """max |B B^dag - 1| over the columns of the ``rows``-row unit blocks at ``starts``, nan if any entry is nan."""
    def columns(x, work):  # B conj(B^T x)
        x = step_t(x, work=work)
        return step(np.conjugate(x, out=x), work=work)
    size = np.empty((rows, d))
    figures = []
    for start, x in _unit_steps(columns, d, starts, rows):
        np.einsum("ii->i", x[:, start:start + len(x)])[:] -= 1.0  # B B^dag - 1
        figures.append(np.abs(x, out=size[: len(x)]).max())
    return np.max(figures)


def asymptotic_power_mc(u, part: Bipartition, n_states: int, n_min: int, n_max: int, rng: RngStream):
    """Brute-force estimate of the time-asymptotic entangling power.

    Averages the late-time window entropies of ``n_states`` evolved product
    states.  The standard error treats each state's window mean as one
    (independent) observation, since successive entropies of a single orbit
    are strongly correlated.  Returns ``(mean, std_error)``.
    """
    if n_states < 2:
        raise ValueError(f"need at least 2 states for a standard error, got {n_states}")
    samples = empirical_asymptotic_distribution(u, part, n_min, n_max, n_states, rng)
    per_state = samples.values.mean(axis=1)
    return float(per_state.mean()), float(per_state.std(ddof=1) / np.sqrt(n_states))


# ---------------------------------------------------------------------------
# spectral (closed-form) asymptotics


#: eigenvector blocks of :meth:`ReducedEigenData.from_eigensystem`: each
#: block's products and hermiticity gate add at most 0.32 times the reduced
#: density matrices (tracemalloc at d = 64..512, splits 2x32..16x32)
_REDUCED_BLOCKS = 8


@dataclass(frozen=True)
class ReducedEigenData:
    """Reduced density matrices of every eigenvector.

    ``rho_a[i]`` / ``rho_b[i]`` are the two reductions of eigenvector ``i``.
    The formulas read them as the real rows of :func:`_rows`, in which
    ``tr(rho_a[i] rho_a[j])`` is the dot product of rows i and j.
    """

    rho_a: np.ndarray
    rho_b: np.ndarray

    @classmethod
    def from_eigensystem(cls, eig: EigenSystem, part: Bipartition) -> "ReducedEigenData":
        """Reduce every eigenvector, a block of eigenvectors at a time."""
        if eig.dim != part.d:
            raise ValueError(f"eigensystem dimension {eig.dim} does not match split {part.d_a}x{part.d_b}")
        d = part.d
        rho_a = np.empty((d, part.d_a, part.d_a), dtype=np.complex128)
        rho_b = np.empty((d, part.d_b, part.d_b), dtype=np.complex128)
        herm = []
        for s in _blocks(d, max(1, d // _REDUCED_BLOCKS)):
            block = eig.vectors[:, s].T.reshape(-1, part.d_a, part.d_b)
            rho_a[s] = block @ np.conj(np.swapaxes(block, 1, 2))
            rho_b[s] = np.swapaxes(block, 1, 2) @ block.conj()
            # cheap sanity gates; only user-built eigensystems can trip these
            herm += [max_abs(rho[s] - np.conj(np.swapaxes(rho[s], 1, 2))) for rho in (rho_a, rho_b)]
        traces = np.einsum("iaa->i", rho_a).real
        if not max_abs(herm) < 1e-10 or not max_abs(traces - 1.0) < 1e-10:  # also trips on nan
            raise LinAlgError("reduced eigenvector data failed hermiticity/trace checks")
        for arr in (rho_a, rho_b):
            arr.setflags(write=False)
        return cls(rho_a=rho_a, rho_b=rho_b)


def _rows(rho):
    """The reductions ``rho`` as the rows of a real (d, 2 n^2) array: the interleaved float view of each ``rho[i].ravel()``.

    For Hermitian reductions the dot product of rows i and j is
    ``tr(rho[i] rho[j])``, so the Gram matrix of the rows is ``x x^T``.
    """
    return rho.reshape(len(rho), -1).view(np.float64)


#: cap on the example quadruples a :class:`CommensurabilityReport` carries
MAX_RESONANCE_EXAMPLES = 32


@dataclass(frozen=True)
class CommensurabilityReport:
    """Outcome of an eigenphase resonance scan.

    A nontrivial resonance is a quadruple ``(k, l, m, n)`` with
    ``phi_k - phi_l + phi_m - phi_n = 0 (mod 2 pi)`` within ``tol``,
    excluding the always-true patterns ``k = l, m = n`` and ``k = n, l = m``.
    ``violations`` holds up to :data:`MAX_RESONANCE_EXAMPLES` examples as
    ``(k, l, m, n, residual)`` tuples.  The scan is complete, so the derived
    ``exhaustive`` and ``checked`` are always true and ``d**4``; they stay for
    acceptance criterion 7, the benchmark's spans and the JSON keys.
    """

    dim: int
    tol: float
    violation_count: int
    violations: tuple

    @property
    def exhaustive(self) -> bool:
        return True

    @property
    def checked(self) -> int:
        return self.dim**4

    @property
    def has_nontrivial_resonance(self) -> bool:
        return self.violation_count > 0

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "tol": self.tol,
            "exhaustive": self.exhaustive,
            "checked": self.checked,
            "violation_count": self.violation_count,
            "examples": [
                {"quadruple": [int(k), int(l), int(m), int(n)], "residual": float(r)}
                for (k, l, m, n, r) in self.violations
            ],
        }


def commensurability_check(phases, tol: float = 1e-8) -> CommensurabilityReport:
    """Scan eigenphases for nontrivial resonances.

    A quadruple resonates exactly when two ordered pairwise differences
    collide, so sorting the ``d**2`` circular differences and counting
    near-collisions covers all ``d**4`` quadruples in ``O(d^2 log d)``.
    """
    if np.iscomplexobj(phases):  # eigenvalues passed for phases would be read as cos(phi)
        raise ValueError("phases must be real, got a complex array (pass np.angle of eigenvalues)")
    phases = np.asarray(phases, dtype=np.float64).ravel()
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    if phases.size == 0:
        raise ValueError("need at least one phase")
    if not np.isfinite(phases).all():  # the scan finds the k = l pairs among the exact zeros
        raise ValueError("phases must be finite")
    return CommensurabilityReport(phases.size, tol, *_exhaustive_resonance_scan(np.mod(phases, TWO_PI), tol))


def _exhaustive_resonance_scan(phases, tol):
    """Collision count among sorted circular phase differences, plus examples.

    ``phi_k - phi_l + phi_m - phi_n ~ 0`` iff the differences of the ordered
    pairs ``(k, l)`` and ``(n, m)`` collide mod 2 pi.  Each unordered
    collision of distinct pairs stands for one resonance family (the mirrored
    quadruple is counted once).  The examples are the first nontrivial
    collisions ``(i, j)``, ``i < j``, in sorted order of ``i`` then ``j``.

    Besides the sort permutation it holds two arrays of length d^2: the
    sorted differences, followed by the wrap-around copies of those below
    tol, and the partner counts.
    """
    d = phases.size
    n_pairs = d * d
    diff = np.mod(phases[:, None] - phases[None, :], TWO_PI).ravel()
    order = np.argsort(diff, kind="stable")
    head = int(np.count_nonzero(diff < tol))  # wrap-around: only these collide with one near 2 pi
    ext = np.empty(n_pairs + head)
    ds = np.take(diff, order, out=ext[:n_pairs])
    del diff
    np.add(ds[:head], TWO_PI, out=ext[n_pairs:])
    # partners[i]: the sorted pairs j > i that collide with pair i
    partners = np.searchsorted(ext, ds + tol, side="left")
    partners -= np.arange(1, n_pairs + 1)
    # the d zero differences k = l collide pairwise, trivially.  They sort
    # among the exact zeros, so the k = l row of rank r has the d - 1 - r
    # later k = l rows among its partners, and no other trivial one
    zeros = int(np.searchsorted(ds, 0.0, side="right"))
    diag = np.flatnonzero(order[:zeros] % (d + 1) == 0)
    partners[diag] -= np.arange(d - 1, -1, -1)  # now the nontrivial partners of every row
    count = int(partners.sum())

    # every row left with a partner holds an example, and its first examples
    # lie among its first MAX + d partners, at most d of them trivial
    examples, i, has = [], 0, partners > 0
    while len(examples) < MAX_RESONANCE_EXAMPLES and i < n_pairs:
        i += int(np.argmax(has[i:]))  # the next row with a partner
        if not has[i]:
            break
        j = i + 1 + np.flatnonzero(ext[i + 1 : i + 1 + MAX_RESONANCE_EXAMPLES + d] < ds[i] + tol)
        k, l = divmod(int(order[i]), d)
        n, m = np.divmod(order[j % n_pairs], d)
        for t in np.flatnonzero(~((k == l) & (n == m))):
            examples.append((k, l, int(m[t]), int(n[t]), float(ext[j[t]] - ds[i])))
        i += 1
    return count, tuple(examples[:MAX_RESONANCE_EXAMPLES])


@dataclass(frozen=True)
class AsymptoticValue:
    """A closed-form time-asymptotic value plus the resonance report gating it.

    The formula assumes the map's eigenphases are free of nontrivial
    resonances; when :attr:`assumptions_violated` is set the value is still
    the formula's output but cross terms neglected by phase averaging may
    survive.
    """

    value: float
    resonance: CommensurabilityReport

    @property
    def assumptions_violated(self) -> bool:
        return self.resonance.has_nontrivial_resonance

    def __float__(self) -> float:
        return self.value


def _spectral_inputs(eig, part, reduced, resonance):
    if reduced is None:
        reduced = ReducedEigenData.from_eigensystem(eig, part)
    if resonance is None:
        resonance = commensurability_check(eig.phases)
    return reduced, resonance


def asymptotic_entropy(
    eig: EigenSystem,
    psi,
    part: Bipartition,
    *,
    reduced: ReducedEigenData | None = None,
    resonance: CommensurabilityReport | None = None,
) -> AsymptoticValue:
    """Infinite-time average of ``S_L(u^n psi)`` from the spectrum of ``u``.

    With ``p_i = |<e_i|psi>|^2`` the time average of the evolved entropy is

        1 - sum_i p_i^2 tr(rho_a[i]^2)
          - sum_{i != j} p_i p_j (tr(rho_a[i] rho_a[j]) + tr(rho_b[i] rho_b[j]))

    provided the eigenphases carry no nontrivial resonances.  Precomputed
    ``reduced`` / ``resonance`` data are reused when given; without them the
    scan runs at :func:`commensurability_check`'s default tolerance.  An
    eigenvector as input reproduces its stationary entropy exactly.

    The sums are taken on the reductions' real rows (see :func:`_rows`), so
    no d x d array is formed.
    """
    if eig.dim != part.d:
        raise ValueError(f"eigensystem dimension {eig.dim} does not match split {part.d_a}x{part.d_b}")
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (part.d,):
        raise ValueError(f"state has shape {psi.shape}, expected ({part.d},)")
    if not abs(np.vdot(psi, psi).real - 1.0) < NORM_TOL:  # also trips on nan
        raise ValueError("state is not normalized")
    reduced, resonance = _spectral_inputs(eig, part, reduced, resonance)
    p = np.abs(psi.conj() @ eig.vectors) ** 2
    x_a, x_b = _rows(reduced.rho_a), _rows(reduced.rho_b)
    # p^T G p = |x^T p|^2 for each Gram G = x x^T; of the diagonal terms only
    # p_i^2 tr(rho_b[i]^2) is left once the double sum takes in i = j
    y_a, y_b = p @ x_a, p @ x_b
    value = 1.0 - np.dot(y_a, y_a) - np.dot(y_b, y_b) + np.dot(p**2, np.einsum("ij,ij->i", x_b, x_b))
    return AsymptoticValue(float(value), resonance)


def asymptotic_entangling_power(
    eig: EigenSystem,
    part: Bipartition,
    *,
    reduced: ReducedEigenData | None = None,
    resonance: CommensurabilityReport | None = None,
) -> AsymptoticValue:
    """Time-asymptotic entangling power from the spectrum alone.

    Averaging the asymptotic entropy over random product states gives

        (d + 1)/d' - (2/(d d')) sum_i tr(rho_a[i]^2)^2
                   - (1/(d d')) sum_{i != j} (tr(rho_a[i] rho_a[j]) + tr(rho_b[i] rho_b[j]))^2

    with ``d' = (d_a + 1)(d_b + 1)``.  The eigenvector reductions fix the
    value completely, so maps with more constrained eigenvectors (e.g. by
    symmetry) deviate further from the random-matrix baseline.

    The sums run over row blocks of the Gram matrices (see
    :func:`_gram_sums`), so no d x d array is formed.
    """
    if eig.dim != part.d:
        raise ValueError(f"eigensystem dimension {eig.dim} does not match split {part.d_a}x{part.d_b}")
    reduced, resonance = _spectral_inputs(eig, part, reduced, resonance)
    d, dp = part.d, part.d_prime
    diag_term, diag_s, total = _gram_sums(_rows(reduced.rho_a), _rows(reduced.rho_b))
    value = (d + 1) / dp - 2.0 * diag_term / (d * dp) - (total - diag_s) / (d * dp)
    return AsymptoticValue(float(value), resonance)


def _gram_sums(x_a, x_b):
    """``sum_i g_ii^2``, ``sum_i s_ii^2`` and ``sum_ij s_ij^2`` for ``g = x_a x_a^T`` and ``s = g + x_b x_b^T``.

    The rows are taken ``_BLOCK`` at a time, and each block is multiplied
    only with its own rows and those after it: s is symmetric, so the
    entries right of the diagonal block count twice.  That is about the
    flops of the two SYRKs that form g and ``x_b x_b^T``, with one
    ``_BLOCK`` x d block of each alive instead of two d x d matrices.
    """
    diag_a = diag_s = total = 0.0
    for rows in _blocks(len(x_a), _BLOCK):
        start, width = rows.start, rows.stop - rows.start
        s = x_a[rows] @ x_a[start:].T  # rows of g, from the diagonal block on
        diag_a += float(np.sum(np.diagonal(s) ** 2))
        s += x_b[rows] @ x_b[start:].T
        diag_s += float(np.sum(np.diagonal(s) ** 2))
        np.square(s, out=s)
        total += float(np.sum(s[:, :width])) + 2.0 * float(np.sum(s[:, width:]))
    return diag_a, diag_s, total
