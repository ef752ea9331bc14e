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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .ensembles import RngStream, product_state, product_states, sample_ensemble
from .linalg import NORM_TOL, Bipartition, EigenSystem, as_matrix, assert_unitary, max_abs

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
    "entropy_timeseries",
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


def _state_as_matrix(psi, part: Bipartition) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (part.d,):
        raise ValueError(f"state has shape {psi.shape}, expected ({part.d},) for split {part.d_a}x{part.d_b}")
    return psi.reshape(part.d_a, part.d_b)


def _purity(e: np.ndarray) -> float:
    # work on the smaller subsystem; both reductions share singular values
    g = e @ e.conj().T if e.shape[0] <= e.shape[1] else e.conj().T @ e
    return float(np.einsum("ab,ab->", g, g.conj()).real)


def _batch_entropy(columns: np.ndarray, part: Bipartition) -> np.ndarray:
    """Linear entropies of the states stored as columns, without checks."""
    e = columns.T.reshape(-1, part.d_a, part.d_b)
    if part.d_a <= part.d_b:
        g = e @ np.conj(np.swapaxes(e, 1, 2))
    else:
        g = np.conj(np.swapaxes(e, 1, 2)) @ e
    return 1.0 - np.einsum("sab,sab->s", g, g.conj()).real


def linear_entropy(psi, part: Bipartition) -> float:
    """Linear entropy of a normalized pure state under the given split."""
    e = _state_as_matrix(psi, part)
    norm_sq = np.einsum("ab,ab->", e, e.conj()).real
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
    return 1.0 - _purity(e)


def linear_entropies(columns, part: Bipartition) -> np.ndarray:
    """Linear entropies of many states stored as the columns of a d x S array."""
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim != 2 or cols.shape[0] != part.d:
        raise ValueError(f"expected states as columns of a ({part.d}, S) array, got shape {cols.shape}")
    norms = np.einsum("ds,ds->s", cols, cols.conj()).real
    if max_abs(norms - 1.0) > NORM_TOL:
        raise ValueError("every column must be a normalized state")
    return _batch_entropy(cols, part)


def cue_mean_entropy(part: Bipartition) -> float:
    """Mean linear entropy of Haar-random states on the composite space."""
    return (part.d_a - 1) * (part.d_b - 1) / (part.d + 1)


def entropy_timeseries(u, psi0, part: Bipartition, n_max: int, *, state_id: int = 0) -> EntropySamples:
    """Linear entropy of ``u^n psi0`` for ``n = 1 .. n_max``."""
    u = as_matrix(u)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if u.shape != (part.d, part.d):
        raise ValueError(f"map shape {u.shape} does not match split {part.d_a}x{part.d_b}")
    assert_unitary(u, name="map")
    psi = _state_as_matrix(psi0, part).ravel()
    if abs(np.vdot(psi, psi).real - 1.0) > NORM_TOL:
        raise ValueError("initial state is not normalized")
    values = np.empty(n_max)
    for n in range(n_max):
        psi = u @ psi
        values[n] = 1.0 - _purity(psi.reshape(part.d_a, part.d_b))
    return EntropySamples(
        state_id=np.full(n_max, state_id, dtype=np.int64),
        time_step=np.arange(1, n_max + 1, dtype=np.int64),
        value=values,
    )


def entangling_power_mc(u, part: Bipartition, n_samples: int, rng: RngStream):
    """Monte-Carlo entangling power of a single map application.

    Averages ``S_L(u psi)`` over random product states ``psi``; sample ``i``
    draws from ``rng.offset(i)``.  This is the one-step window of
    :func:`empirical_asymptotic_distribution`.  Returns ``(mean, std_error)``.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {n_samples}")
    values = empirical_asymptotic_distribution(u, part, 1, 1, n_samples, rng).value
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_samples))


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
    ``rng.offset(s)``) is evolved to ``n_max`` applications of ``u``;
    entropies with ``n_min <= n <= n_max`` are recorded.  Rows are ordered
    state-major, so ``value.reshape(n_states, -1)`` recovers the per-state
    time series.
    """
    u = as_matrix(u)
    if not (1 <= n_min <= n_max):
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if u.shape != (part.d, part.d):
        raise ValueError(f"map shape {u.shape} does not match split {part.d_a}x{part.d_b}")
    assert_unitary(u, name="map")
    psi = np.column_stack([product_state(part, rng.offset(s)) for s in range(n_states)])
    window = n_max - n_min + 1
    out = np.empty((n_states, window))
    for n in range(1, n_max + 1):
        psi = u @ psi
        if n >= n_min:
            out[:, n - n_min] = _batch_entropy(psi, part)
    return EntropySamples(
        state_id=np.repeat(np.arange(n_states, dtype=np.int64), window),
        time_step=np.tile(np.arange(n_min, n_max + 1, dtype=np.int64), n_states),
        value=out.ravel(),
    )


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


@dataclass(frozen=True)
class ReducedEigenData:
    """Reduced density matrices of every eigenvector and their overlaps.

    ``rho_a[i]`` / ``rho_b[i]`` are the two reductions of eigenvector ``i``;
    ``gram_a[i, j] = tr(rho_a[i] rho_a[j])`` and likewise for ``gram_b``.
    Both Gram matrices are real and symmetric.
    """

    rho_a: np.ndarray
    rho_b: np.ndarray
    gram_a: np.ndarray
    gram_b: np.ndarray

    @classmethod
    def from_eigensystem(cls, eig: EigenSystem, part: Bipartition) -> "ReducedEigenData":
        if eig.dim != part.d:
            raise ValueError(f"eigensystem dimension {eig.dim} does not match split {part.d_a}x{part.d_b}")
        d = part.d
        e = eig.vectors.T.reshape(d, part.d_a, part.d_b)
        e_dag = np.conj(np.swapaxes(e, 1, 2))
        rho_a = e @ e_dag
        rho_b = np.swapaxes(e, 1, 2) @ e.conj()
        gram_a = (rho_a.reshape(d, -1) @ rho_a.reshape(d, -1).conj().T).real
        gram_b = (rho_b.reshape(d, -1) @ rho_b.reshape(d, -1).conj().T).real

        # cheap sanity gates; only user-built eigensystems can trip these
        herm = max(max_abs(rho_a - np.conj(np.swapaxes(rho_a, 1, 2))),
                   max_abs(rho_b - np.conj(np.swapaxes(rho_b, 1, 2))))
        traces = np.einsum("iaa->i", rho_a).real
        if herm > 1e-10 or max_abs(traces - 1.0) > 1e-10:
            raise LinAlgError("reduced eigenvector data failed hermiticity/trace checks")
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
    phases = np.mod(np.asarray(phases, dtype=np.float64).ravel(), TWO_PI)
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    d = phases.size
    if d == 0:
        raise ValueError("need at least one phase")
    count, examples = _exhaustive_resonance_scan(phases, tol)
    return CommensurabilityReport(d, tol, True, d**4, count, examples)


def _exhaustive_resonance_scan(phases, tol):
    """Collision count among sorted circular phase differences, plus examples.

    ``phi_k - phi_l + phi_m - phi_n ~ 0`` iff the differences of the ordered
    pairs ``(k, l)`` and ``(n, m)`` collide mod 2 pi.  Each unordered
    collision of distinct pairs stands for one resonance family (the mirrored
    quadruple is counted once).  The examples are the first nontrivial
    collisions ``(i, j)``, ``i < j``, in sorted order of ``i`` then ``j``.
    """
    d = phases.size
    n_pairs = d * d
    diff = np.mod(phases[:, None] - phases[None, :], TWO_PI).ravel()
    order = np.argsort(diff, kind="stable")
    ds = diff[order]
    ext = np.concatenate([ds, ds + TWO_PI])  # wrap-around: 2 pi - eps collides with 0
    rows = np.arange(n_pairs)
    ends = np.searchsorted(ext, ds + tol, side="left")
    partners = ends - rows - 1  # j in (i, ends[i]) collide with sorted pair i
    # the d zero differences k = l collide pairwise, trivially: drop those
    # partners of a k = l pair that are k = l pairs too
    diag = order % (d + 1) == 0
    diag_before = np.concatenate([[0], np.cumsum(np.tile(diag, 2))])
    trivial = np.where(diag, diag_before[ends] - diag_before[rows + 1], 0)
    nontrivial = partners - trivial
    count = int(nontrivial.sum())

    # rows up to the one holding the last example; a row's first wanted
    # nontrivial partners lie among its first (wanted + trivial) partners
    cum = np.cumsum(nontrivial)
    last = min(int(np.searchsorted(cum, MAX_RESONANCE_EXAMPLES)), n_pairs - 1)
    sel = np.nonzero(nontrivial[: last + 1])[0]
    take = np.minimum(partners[sel], MAX_RESONANCE_EXAMPLES + trivial[sel])
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


def _spectral_inputs(eig, part, reduced, resonance, tol):
    if reduced is None:
        reduced = ReducedEigenData.from_eigensystem(eig, part)
    if resonance is None:
        resonance = commensurability_check(eig.phases, tol)
    return reduced, resonance


def asymptotic_entropy(
    eig: EigenSystem,
    psi,
    part: Bipartition,
    *,
    reduced: ReducedEigenData | None = None,
    resonance: CommensurabilityReport | None = None,
    tol: float = 1e-8,
) -> AsymptoticValue:
    """Infinite-time average of ``S_L(u^n psi)`` from the spectrum of ``u``.

    With ``p_i = |<e_i|psi>|^2`` the time average of the evolved entropy is

        1 - sum_i p_i^2 tr(rho_a[i]^2)
          - sum_{i != j} p_i p_j (tr(rho_a[i] rho_a[j]) + tr(rho_b[i] rho_b[j]))

    provided the eigenphases carry no nontrivial resonances.  Precomputed
    ``reduced`` / ``resonance`` data are reused when given; an eigenvector as
    input reproduces its stationary entropy exactly.
    """
    if eig.dim != part.d:
        raise ValueError(f"eigensystem dimension {eig.dim} does not match split {part.d_a}x{part.d_b}")
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (part.d,):
        raise ValueError(f"state has shape {psi.shape}, expected ({part.d},)")
    if abs(np.vdot(psi, psi).real - 1.0) > NORM_TOL:
        raise ValueError("state is not normalized")
    reduced, resonance = _spectral_inputs(eig, part, reduced, resonance, tol)
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
    tol: float = 1e-8,
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
    reduced, resonance = _spectral_inputs(eig, part, reduced, resonance, tol)
    d, dp = part.d, part.d_prime
    s = reduced.gram_a + reduced.gram_b
    diag_term = float(np.sum(np.diagonal(reduced.gram_a) ** 2))
    off_term = float(np.sum(s**2) - np.sum(np.diagonal(s) ** 2))
    value = (d + 1) / dp - 2.0 * diag_term / (d * dp) - off_term / (d * dp)
    return AsymptoticValue(float(value), resonance)
