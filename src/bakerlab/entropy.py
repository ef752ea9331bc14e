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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .ensembles import RngStream, product_state, product_states, sample_ensemble
from .linalg import (
    NORM_TOL,
    UNITARY_TOL,
    Bipartition,
    EigenSystem,
    _blocks,
    as_matrix,
    assert_unitary,
    max_abs,
)
from .maps import MapKind, _baker_rows, _baker_rows_t, make_map

__all__ = [
    "AsymptoticValue",
    "CommensurabilityReport",
    "EntropySample",
    "EntropySamples",
    "ReducedEigenData",
    "asymptotic_entangling_power",
    "asymptotic_entropy",
    "asymptotic_power_mc",
    "commensurability_check",
    "cue_mean_entropy",
    "empirical_asymptotic_distribution",
    "ensemble_entropies",
    "entangling_power_mc",
    "linear_entropies",
    "linear_entropy",
]

TWO_PI = 2.0 * np.pi


class EntropySample(NamedTuple):
    state_id: int
    time_step: int
    value: float


@dataclass(frozen=True)
class EntropySamples:
    """Columnar batch of linear-entropy samples, one row per (state, step)."""

    state_id: np.ndarray
    time_step: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        sid = np.asarray(self.state_id, dtype=np.int64)
        step = np.asarray(self.time_step, dtype=np.int64)
        val = np.asarray(self.value, dtype=np.float64)
        if not (sid.shape == step.shape == val.shape) or sid.ndim != 1:
            raise ValueError("state_id, time_step and value must be 1-d arrays of equal length")
        if not np.isfinite(val).all():
            raise ValueError("entropy values must be finite")
        for name, arr in (("state_id", sid), ("time_step", step), ("value", val)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.value.size)

    def rows(self):
        """Iterate samples as :class:`EntropySample` tuples."""
        for sid, step, val in zip(self.state_id, self.time_step, self.value):
            yield EntropySample(int(sid), int(step), float(val))


def _batch_entropy(rows: np.ndarray, part: Bipartition) -> np.ndarray:
    """Linear entropies of the states stored as rows, without checks."""
    e = rows.reshape(-1, part.d_a, part.d_b)
    if part.d_a <= part.d_b:
        g = e @ np.conj(np.swapaxes(e, 1, 2))
    else:
        g = np.conj(np.swapaxes(e, 1, 2)) @ e
    return 1.0 - np.einsum("sab,sab->s", g, g.conj()).real


def linear_entropy(psi, part: Bipartition) -> float:
    """Linear entropy of a normalized pure state: the one-column case of :func:`linear_entropies`."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (part.d,):
        raise ValueError(f"state has shape {psi.shape}, expected ({part.d},) for split {part.d_a}x{part.d_b}")
    return float(linear_entropies(psi[:, None], part)[0])


def linear_entropies(columns, part: Bipartition) -> np.ndarray:
    """Linear entropies of many states stored as the columns of a d x S array."""
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim != 2 or cols.shape[0] != part.d:
        raise ValueError(f"expected states as columns of a ({part.d}, S) array, got shape {cols.shape}")
    norms = np.einsum("ds,ds->s", cols, cols.conj()).real
    if max_abs(norms - 1.0) > NORM_TOL:
        raise ValueError("every column must be a normalized state")
    return _batch_entropy(cols.T, part)


def cue_mean_entropy(part: Bipartition) -> float:
    """Mean linear entropy of Haar-random states on the composite space."""
    return (part.d_a - 1) * (part.d_b - 1) / (part.d + 1)


def entangling_power_mc(u, part: Bipartition, n_samples: int, rng: RngStream):
    """Monte-Carlo entangling power of a single map application.

    Averages ``S_L(u psi)`` over random product states ``psi``; sample ``i``
    draws from ``rng.offset(i)``.  This is :func:`asymptotic_power_mc` with
    the one-step window.  Returns ``(mean, std_error)``.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {n_samples}")
    return asymptotic_power_mc(u, part, n_samples, 1, 1, rng)


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


def empirical_asymptotic_distribution(
    u, part: Bipartition, n_min: int, n_max: int, n_states: int, rng: RngStream
) -> EntropySamples:
    """Entropy samples of iterated product states inside a late-time window.

    Each of ``n_states`` random product states (state ``s`` drawn from
    ``rng.offset(s)``) is evolved to ``n_max`` applications of the map;
    entropies with ``n_min <= n <= n_max`` are recorded.  Rows are ordered
    state-major, so ``value.reshape(n_states, -1)`` recovers the per-state
    time series.

    The map ``u`` is a d x d matrix or a map kind (a
    :class:`bakerlab.maps.MapKind` or its name).  A kind is built with
    :func:`bakerlab.maps.make_map`, except B, D and D' at even d of at least
    ``_TRANSFORM_MIN_D``: those are never built, and their unitarity gate
    runs by FFT (see :func:`_assert_unitary_step`).

    A step is one dense product ``u @ psi``, except when the map is B, D or
    D' (see :func:`bakerlab.maps.baker`, :func:`bakerlab.maps.d_map`) given
    by kind, or as a matrix within ``UNITARY_TOL`` entrywise, and d is at
    least ``_TRANSFORM_MIN_D``: then two FFTs per step apply the map in
    O(d log d) per state, and the states are split into contiguous row
    blocks (see :func:`_block_count`), one per thread, each iterated to
    ``n_max`` steps by :func:`_iterate`.  Every state's arithmetic is
    independent of its block, so the samples are the same at any CPU count.

    Raises ``ValueError`` before any allocation when the run would need more
    than the physical memory, and ``LinAlgError`` when the map is not
    unitary within ``UNITARY_TOL`` or a final state's norm has drifted from 1
    by more than ``NORM_TOL``.
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
    window = n_max - n_min + 1
    sign = _KIND_SIGNS.get(kind) if part.d % 2 == 0 and part.d >= _TRANSFORM_MIN_D else None
    _check_memory(part.d, n_states, window, dense=sign is None)
    if sign is not None:
        step = functools.partial(_baker_rows, sign=sign)
        _assert_unitary_step(step, functools.partial(_baker_rows_t, sign=sign), part.d)
    else:
        if kind is not None:
            u = make_map(kind, part.d)
        assert_unitary(u, name="map")
        step = _transform_step(u)
    blocks = 1
    if step is None:
        def step(rows):  # one GEMM on the states as the columns of a (d, S) array
            return (u @ rows.T).T
    else:
        blocks = _block_count(n_states, part.d)
    psi = np.empty((n_states, part.d), dtype=np.complex128)
    for s in range(n_states):
        psi[s] = product_state(part, rng.offset(s))
    out = np.empty((n_states, window))
    if blocks == 1:
        psi = _iterate(step, psi, out, part, n_min, n_max)
    else:
        iterate = functools.partial(_iterate, step, part=part, n_min=n_min, n_max=n_max)
        with ThreadPoolExecutor(max_workers=blocks) as pool:
            psi = np.concatenate(list(pool.map(iterate, np.array_split(psi, blocks),
                                               np.array_split(out, blocks))))
    drift = max_abs(np.einsum("sd,sd->s", psi, psi.conj()).real - 1.0)
    if drift > NORM_TOL:
        raise LinAlgError(f"state norms drifted by {drift:.3g} over {n_max} steps (tolerance {NORM_TOL})")
    return EntropySamples(
        state_id=np.repeat(np.arange(n_states, dtype=np.int64), window),
        time_step=np.tile(np.arange(n_min, n_max + 1, dtype=np.int64), n_states),
        value=out.ravel(),
    )


def _iterate(step, psi, out, part, n_min, n_max):
    """Apply ``step`` to the rows ``psi`` ``n_max`` times, filling ``out`` from step ``n_min``.

    Runs in a worker thread when the states are blocked, so it calls private
    helpers only.  Returns the final states.
    """
    for n in range(1, n_max + 1):
        psi = step(psi)
        if n >= n_min:
            out[:, n - n_min] = _batch_entropy(psi, part)
    return psi


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


#: (S, d) complex arrays alive at once per step: the states, the FFT output
#: and its temporaries, and the Gram matrices (at most S d entries each);
#: tracemalloc reads a peak of 3.9-4.3 while iterating at d = 64..1024 with
#: 1, 2 and 4 row blocks
_BATCH_COPIES = 6


def _check_memory(d, n_states, window, dense=True):
    """Refuse a run whose arrays cannot fit in physical memory, before allocating them.

    The estimate is the three ``EntropySamples`` columns (8 bytes each per
    sample), ``_BATCH_COPIES`` complex (S, d) batches and, for a ``dense``
    map, the two complex d x d temporaries of the unitarity and transform
    gates.  A map iterated without a matrix holds no d x d array.
    """
    need = 24 * n_states * window + 16 * (_BATCH_COPIES * n_states * d + (2 * d * d if dense else 0))
    _require_memory(need, f"{n_states} states x {window} window steps at d = {d} need")


def _require_memory(need, what):
    """Raise ``ValueError`` when ``need`` bytes exceed physical memory.

    ``what`` opens the message and ends in its verb, e.g. ``"--d 64 needs"``.
    """
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare with
        return
    if need > have:
        raise ValueError(
            f"{what} ~{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory"
        )


#: B, D and D' are iterated by FFT from this dimension up; below it one dense
#: GEMM per step is faster (per-step timings in CHANGES.md)
_TRANSFORM_MIN_D = 256
#: the ``maps._baker_rows`` sign of each kind iterated by FFT
_KIND_SIGNS = {MapKind.BAKER: 0, MapKind.DMAP: +1, MapKind.DPRIME: -1}
#: rows of the identity pushed through a candidate transform at a time
_GATE_ROWS = 64


def _transform_step(u):
    """The FFT step of ``u`` when it is B, D or D', else None.

    Each candidate (``maps._baker_rows`` with sign 0, +1, -1) is applied to
    the identity, ``_GATE_ROWS`` rows at a time, and must reproduce every
    column of ``u`` within ``UNITARY_TOL``: the map that is iterated is the
    one that passed the unitarity gate.  The first block holds the last
    columns, in the half where the three kinds differ, so a wrong sign is
    refused after one block.  Inputs with d below ``_TRANSFORM_MIN_D`` or
    odd are not tested.
    """
    d = u.shape[0]
    if d < _TRANSFORM_MIN_D or d % 2:
        return None
    for sign in _KIND_SIGNS.values():
        step = functools.partial(_baker_rows, sign=sign)
        blocks = _unit_blocks(d)
        if all(max_abs(step(unit) - u[:, start:stop].T) < UNITARY_TOL for start, stop, unit in blocks):
            return step
    return None


def _assert_unitary_step(step, step_t, d):
    """The unitarity defect max |B B^dag - 1| of the map B that ``step`` applies, by FFT.

    ``step_t`` applies B^T.  Column k of B B^dag is B conj(B^T e_k), so each
    block of ``_GATE_ROWS`` unit vectors takes four FFT passes: the gate
    computes the figure of :func:`bakerlab.linalg.assert_unitary`, over every
    entry, in O(d^2 log d) time and O(``_GATE_ROWS`` d) memory, without its
    d^3 GEMM and d x d arrays.  Raises ``LinAlgError`` unless the figure is
    below ``UNITARY_TOL``.
    """
    defect = max_abs([max_abs(step(np.conj(step_t(unit.copy()))) - unit) for _, _, unit in _unit_blocks(d)])
    if not defect < UNITARY_TOL:  # also trips on nan
        raise LinAlgError(f"map is not unitary: max |U U^dag - 1| = {defect:.3e} (tol {UNITARY_TOL:.1e})")
    return defect


def _unit_blocks(d):
    """``(start, stop, rows)``: e_start .. e_(stop-1) of the identity in ``_GATE_ROWS`` blocks, last first."""
    for start in reversed(range(0, d, _GATE_ROWS)):
        stop = min(start + _GATE_ROWS, d)
        unit = np.zeros((stop - start, d), dtype=np.complex128)
        unit[np.arange(stop - start), np.arange(start, stop)] = 1.0
        yield start, stop, unit


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
    per_state = samples.value.reshape(n_states, -1).mean(axis=1)
    return float(per_state.mean()), float(per_state.std(ddof=1) / np.sqrt(n_states))


# ---------------------------------------------------------------------------
# spectral (closed-form) asymptotics


#: eigenvector blocks of :meth:`ReducedEigenData.from_eigensystem`: each
#: block's products and hermiticity gate add at most 0.32 times the reduced
#: density matrices (tracemalloc at d = 64..512, splits 2x32..16x32)
_REDUCED_BLOCKS = 8


@dataclass(frozen=True)
class ReducedEigenData:
    """Reduced density matrices of every eigenvector and their overlaps.

    ``rho_a[i]`` / ``rho_b[i]`` are the two reductions of eigenvector ``i``;
    ``gram_a[i, j] = tr(rho_a[i] rho_a[j])`` and likewise for ``gram_b``.
    Both Gram matrices are real and exactly symmetric.
    """

    rho_a: np.ndarray
    rho_b: np.ndarray
    gram_a: np.ndarray
    gram_b: np.ndarray

    @classmethod
    def from_eigensystem(cls, eig: EigenSystem, part: Bipartition) -> "ReducedEigenData":
        """Reduce every eigenvector, a block of eigenvectors at a time.

        ``gram_a`` is ``Re(R R^dag)`` for the rows ``R[i] = rho_a[i].ravel()``:
        one real SYRK ``x x^T`` on the interleaved float view ``x`` of R, which
        is exactly symmetric and needs no complex d x d product.
        """
        if eig.dim != part.d:
            raise ValueError(f"eigensystem dimension {eig.dim} does not match split {part.d_a}x{part.d_b}")
        d = part.d
        rho_a = np.empty((d, part.d_a, part.d_a), dtype=np.complex128)
        rho_b = np.empty((d, part.d_b, part.d_b), dtype=np.complex128)
        herm = 0.0
        for s in _blocks(d, max(1, d // _REDUCED_BLOCKS)):
            block = eig.vectors[:, s].T.reshape(-1, part.d_a, part.d_b)
            rho_a[s] = block @ np.conj(np.swapaxes(block, 1, 2))
            rho_b[s] = np.swapaxes(block, 1, 2) @ block.conj()
            # cheap sanity gates; only user-built eigensystems can trip these
            herm = max(herm, max_abs(rho_a[s] - np.conj(np.swapaxes(rho_a[s], 1, 2))),
                       max_abs(rho_b[s] - np.conj(np.swapaxes(rho_b[s], 1, 2))))
        traces = np.einsum("iaa->i", rho_a).real
        if herm > 1e-10 or max_abs(traces - 1.0) > 1e-10:
            raise LinAlgError("reduced eigenvector data failed hermiticity/trace checks")
        x_a = rho_a.reshape(d, -1).view(np.float64)
        x_b = rho_b.reshape(d, -1).view(np.float64)
        gram_a, gram_b = x_a @ x_a.T, x_b @ x_b.T
        for arr in (rho_a, rho_b, gram_a, gram_b):
            arr.setflags(write=False)
        return cls(rho_a=rho_a, rho_b=rho_b, gram_a=gram_a, gram_b=gram_b)


#: cap on the example quadruples a :class:`CommensurabilityReport` carries
MAX_RESONANCE_EXAMPLES = 32


@dataclass(frozen=True)
class CommensurabilityReport:
    """Outcome of an eigenphase resonance scan.

    A nontrivial resonance is a quadruple ``(k, l, m, n)`` with
    ``phi_k - phi_l + phi_m - phi_n = 0 (mod 2 pi)`` within ``tol``,
    excluding the always-true patterns ``k = l, m = n`` and ``k = n, l = m``.
    The scan is complete, so ``exhaustive`` is always set and ``checked``
    is ``d**4``.  ``violations`` holds up to :data:`MAX_RESONANCE_EXAMPLES`
    examples as ``(k, l, m, n, residual)`` tuples.
    """

    dim: int
    tol: float
    exhaustive: bool
    checked: int
    violation_count: int
    violations: tuple

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
    phases = np.asarray(phases, dtype=np.float64).ravel()
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    d = phases.size
    if d == 0:
        raise ValueError("need at least one phase")
    if not np.isfinite(phases).all():  # the scan finds the k = l pairs among the exact zeros
        raise ValueError("phases must be finite")
    phases = np.mod(phases, TWO_PI)
    count, examples = _exhaustive_resonance_scan(phases, tol)
    return CommensurabilityReport(d, tol, True, d**4, count, examples)


def _exhaustive_resonance_scan(phases, tol):
    """Collision count among sorted circular phase differences, plus examples.

    ``phi_k - phi_l + phi_m - phi_n ~ 0`` iff the differences of the ordered
    pairs ``(k, l)`` and ``(n, m)`` collide mod 2 pi.  Each unordered
    collision of distinct pairs stands for one resonance family (the mirrored
    quadruple is counted once).  The examples are the first nontrivial
    collisions ``(i, j)``, ``i < j``, in sorted order of ``i`` then ``j``.

    Besides the sort permutation it holds three arrays of length d^2: the
    sorted differences twice over (for the wrap-around) and the partner
    counts.
    """
    d = phases.size
    n_pairs = d * d
    diff = np.mod(phases[:, None] - phases[None, :], TWO_PI).ravel()
    order = np.argsort(diff, kind="stable")
    ext = np.empty(2 * n_pairs)  # wrap-around: 2 pi - eps collides with 0
    ds = np.take(diff, order, out=ext[:n_pairs])
    del diff
    np.add(ds, TWO_PI, out=ext[n_pairs:])
    # partners[i]: the sorted pairs j in (i, ends[i]) that collide with pair i
    partners = np.searchsorted(ext, ds + tol, side="left")
    partners -= np.arange(1, n_pairs + 1)
    # the d zero differences k = l collide pairwise, trivially.  They sort
    # first, among the exact zeros; drop the partners of each k = l row that
    # are k = l pairs too, in either copy of the sorted differences
    zeros = int(np.searchsorted(ds, 0.0, side="right"))
    diag = np.flatnonzero(order[:zeros] % (d + 1) == 0)
    both = np.concatenate([diag, diag + n_pairs])
    ends = diag + 1 + partners[diag]
    trivial = np.searchsorted(both, ends, side="left") - np.searchsorted(both, diag, side="right")
    partners[diag] -= trivial  # now the nontrivial partners of every row
    count = int(partners.sum())

    # rows up to the one holding the last example; a row's first wanted
    # nontrivial partners lie among its first (wanted + trivial) partners
    cum = np.cumsum(partners)
    last = min(int(np.searchsorted(cum, MAX_RESONANCE_EXAMPLES)), n_pairs - 1)
    del cum
    sel = np.nonzero(partners[: last + 1])[0]
    skip = np.zeros(sel.size, dtype=np.int64)  # the trivial partners of each selected row
    on_diag = np.isin(sel, diag)
    skip[on_diag] = trivial[np.searchsorted(diag, sel[on_diag])]
    take = np.minimum(partners[sel], MAX_RESONANCE_EXAMPLES) + skip
    i = np.repeat(sel, take)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(take) - take, take)
    k, l = np.divmod(order[i], d)
    n, m = np.divmod(order[j % n_pairs], d)
    keep = np.nonzero(~((k == l) & (n == m)))[0][:MAX_RESONANCE_EXAMPLES]
    residual = ext[j] - ds[i]
    examples = tuple(
        (int(k[t]), int(l[t]), int(m[t]), int(n[t]), float(residual[t])) for t in keep
    )
    return count, examples


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
    """
    if eig.dim != part.d:
        raise ValueError(f"eigensystem dimension {eig.dim} does not match split {part.d_a}x{part.d_b}")
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (part.d,):
        raise ValueError(f"state has shape {psi.shape}, expected ({part.d},)")
    if abs(np.vdot(psi, psi).real - 1.0) > NORM_TOL:
        raise ValueError("state is not normalized")
    reduced, resonance = _spectral_inputs(eig, part, reduced, resonance)
    p = np.abs(eig.vectors.conj().T @ psi) ** 2
    s = reduced.gram_a + reduced.gram_b
    diag_a = np.diagonal(reduced.gram_a)
    diag_s = np.diagonal(s)
    value = 1.0 - np.dot(p**2, diag_a) - (p @ s @ p - np.dot(p**2, diag_s))
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
    """
    if eig.dim != part.d:
        raise ValueError(f"eigensystem dimension {eig.dim} does not match split {part.d_a}x{part.d_b}")
    reduced, resonance = _spectral_inputs(eig, part, reduced, resonance)
    d, dp = part.d, part.d_prime
    s = reduced.gram_a + reduced.gram_b
    diag_term = float(np.sum(np.diagonal(reduced.gram_a) ** 2))
    diag_s = np.sum(np.diagonal(s) ** 2)
    off_term = float(np.sum(np.square(s, out=s)) - diag_s)  # s**2 in place
    value = (d + 1) / dp - 2.0 * diag_term / (d * dp) - off_term / (d * dp)
    return AsymptoticValue(float(value), resonance)
