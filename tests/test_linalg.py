import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose
from scipy.linalg import expm, schur

import bakerlab as bl
from bakerlab import linalg

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestProducts:
    def test_kron_matches_index_definition(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (3, 3))
        k = bl.kron(a, b)
        for i in range(2):
            for j in range(2):
                for r in range(3):
                    for c in range(3):
                        assert k[i * 3 + r, j * 3 + c] == pytest.approx(a[i, j] * b[r, c])

    def test_kron_left_factor_is_most_significant(self):
        # X on the left factor sends block 0 to block 1
        k = bl.kron(PAULI_X, np.eye(2))
        psi = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex)
        assert_allclose(k @ psi, [0.0, 0.0, 1.0, 2.0])


class TestUnitarity:
    def test_identity_is_unitary(self):
        assert bl.unitarity_defect(np.eye(5)) == 0.0
        bl.assert_unitary(np.eye(5))

    def test_scaled_identity_is_not(self):
        assert not bl.unitarity_defect(2.0 * np.eye(3)) < bl.UNITARY_TOL
        with pytest.raises(LinAlgError, match="not unitary"):
            bl.assert_unitary(2.0 * np.eye(3))

    def test_defect_appears_in_message(self):
        with pytest.raises(LinAlgError, match="3.000e"):
            bl.assert_unitary(2.0 * np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            bl.unitarity_defect(np.ones((2, 3)))


class TestBipartition:
    def test_dimensions(self):
        part = bl.Bipartition(4, 5)
        assert part.d == 20
        assert part.d_prime == 30

    @pytest.mark.parametrize("d_a,d_b", [(1, 4), (4, 1), (0, 2), (2, -3)])
    def test_rejects_trivial_subsystems(self, d_a, d_b):
        with pytest.raises(ValueError):
            bl.Bipartition(d_a, d_b)


class TestPartialTrace:
    def test_product_state_reduces_to_its_factor(self):
        rng = np.random.default_rng(21)
        a = random_complex(rng, 3)
        a /= np.linalg.norm(a)
        b = random_complex(rng, 4)
        b /= np.linalg.norm(b)
        psi = np.kron(a, b)
        rho = np.outer(psi, psi.conj())
        part = bl.Bipartition(3, 4)
        assert_allclose(bl.partial_trace(rho, part, "A"), np.outer(a, a.conj()), atol=1e-13)
        assert_allclose(bl.partial_trace(rho, part, "B"), np.outer(b, b.conj()), atol=1e-13)

    def test_bell_state_reduces_to_maximally_mixed(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        reduced = bl.partial_trace(rho, bl.Bipartition(2, 2), "A")
        assert_allclose(reduced, np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_matches_index_sum_oracle(self, keep):
        rng = np.random.default_rng(22)
        part = bl.Bipartition(2, 3)
        rho = random_complex(rng, (6, 6))  # deliberately not hermitian
        got = bl.partial_trace(rho, part, keep)
        t = rho.reshape(2, 3, 2, 3)
        if keep == "A":
            expected = np.zeros((2, 2), dtype=complex)
            for ja in range(2):
                for ka in range(2):
                    for b in range(3):
                        expected[ja, ka] += t[ja, b, ka, b]
        else:
            expected = np.zeros((3, 3), dtype=complex)
            for jb in range(3):
                for kb in range(3):
                    for a in range(2):
                        expected[jb, kb] += t[a, jb, a, kb]
        assert_allclose(got, expected, atol=1e-13)

    def test_preserves_trace(self):
        rng = np.random.default_rng(23)
        part = bl.Bipartition(3, 5)
        rho = random_complex(rng, (15, 15))
        for keep in ("A", "B"):
            assert np.trace(bl.partial_trace(rho, part, keep)) == pytest.approx(np.trace(rho), abs=1e-12)

    def test_rejects_bad_inputs(self):
        part = bl.Bipartition(2, 3)
        with pytest.raises(ValueError, match="does not match"):
            bl.partial_trace(np.eye(5), part)
        with pytest.raises(ValueError, match="keep"):
            bl.partial_trace(np.eye(6), part, "C")


class TestEigensystem:
    def test_diagonal_unitary(self):
        eig = bl.eigensystem(np.diag([1.0, 1j]))
        assert_allclose(eig.phases, [0.0, np.pi / 2], atol=1e-14)
        assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-14)
        assert_allclose(np.exp(1j * eig.phases), [1.0, 1j], atol=1e-14)

    def test_pauli_x_eigenvectors(self):
        eig = bl.eigensystem(PAULI_X)
        assert_allclose(eig.phases, [0.0, np.pi], atol=1e-12)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        # eigenvectors are defined up to a phase
        assert abs(np.vdot(plus, eig.vectors[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(minus, eig.vectors[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_phases_sorted_and_in_range(self):
        u = bl.sample_cue(32, bl.RngStream(101))
        eig = bl.eigensystem(u)
        assert (np.diff(eig.phases) >= 0).all()
        assert (eig.phases >= 0).all() and (eig.phases < 2 * np.pi).all()

    @pytest.mark.parametrize("d", [8, 16, 32])
    def test_reconstructs_random_unitaries(self, d):
        u = bl.sample_cue(d, bl.RngStream(55, d))
        eig = bl.eigensystem(u)
        diag = bl.eigensystem_diagnostics(u, eig)
        assert diag["max_residual"] < 1e-8 * np.sqrt(d)
        assert diag["orthonormality_defect"] < 1e-8
        assert diag["reconstruction_error"] < 1e-8 * d

    def test_fully_degenerate_spectrum_stays_orthonormal(self):
        eig = bl.eigensystem(np.eye(4))
        assert_allclose(eig.phases, np.zeros(4), atol=1e-14)
        gram = eig.vectors.conj().T @ eig.vectors
        assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_near_degenerate_cluster_polished(self):
        w = bl.sample_cue(6, bl.RngStream(77))
        lam = np.exp(1j * np.array([0.0, 1e-10, 1e-10, 1.0, 2.0, 3.0]))
        u = (w * lam) @ w.conj().T
        eig = bl.eigensystem(u)
        gram = eig.vectors.conj().T @ eig.vectors
        assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_cluster_wrapping_through_zero(self):
        w = bl.sample_cue(4, bl.RngStream(78))
        lam = np.exp(1j * np.array([2 * np.pi - 2e-9, 1e-9, 1.0, 4.0]))
        u = (w * lam) @ w.conj().T
        eig = bl.eigensystem(u)
        gram = eig.vectors.conj().T @ eig.vectors
        assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_phase_just_below_zero_folds_to_zero(self):
        # np.mod(-1e-17, 2 pi) rounds to 2 pi, outside the documented [0, 2 pi)
        eig = bl.eigensystem(np.diag(np.exp(1j * np.array([-1e-17, 1.0, 2.0, 3.0]))))
        assert eig.phases[0] == 0.0
        assert (eig.phases < 2 * np.pi).all()
        assert_allclose(eig.phases, [0.0, 1.0, 2.0, 3.0], atol=1e-14)

    def test_rejects_non_unitary(self):
        with pytest.raises(LinAlgError, match="not unitary"):
            bl.eigensystem(np.diag([1.0, 0.5]))

    def test_rejects_nan(self):
        bad = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(LinAlgError):
            bl.eigensystem(bad)

    def test_vectors_are_immutable(self):
        eig = bl.eigensystem(np.eye(3))
        with pytest.raises(ValueError):
            eig.vectors[0, 0] = 5.0


def schur_oracle(u):
    """The dense eigensolve: one complex Schur of the whole matrix, phase-sorted."""
    t, q = schur(u, output="complex")
    phases = np.mod(np.angle(np.diagonal(t)), 2 * np.pi)
    order = np.argsort(phases, kind="stable")
    return bl.EigenSystem(phases=phases[order], vectors=q[:, order])


def parity_impurity(vectors):
    """Per column, min over the two parities of ||R v -+ v||."""
    flipped = vectors[::-1, :]
    odd = np.linalg.norm(flipped + vectors, axis=0)
    even = np.linalg.norm(flipped - vectors, axis=0)
    return np.minimum(odd, even), odd < even


def assert_parity_pure(vectors):
    impurity, odd = parity_impurity(vectors)
    assert impurity.max() < 1e-10
    assert odd.sum() == vectors.shape[1] // 2


def circular_gap(a, b):
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


ORACLE_CASES = [
    ("baker", 4, (2, 2)),
    ("baker", 8, (2, 4)),
    ("baker", 12, (3, 4)),
    ("baker", 64, (8, 8)),
    ("baker", 238, (14, 17)),
    ("bbar", 8, (2, 4)),
    ("bbar", 16, (4, 4)),
    ("bbar", 256, (16, 16)),
    ("symmetric", 16, (4, 4)),
    ("symmetric", 64, (8, 8)),
]


def oracle_case_map(kind, d):
    if kind == "symmetric":
        return bl.sample_symmetric(d, bl.RngStream(404, d))
    return bl.make_map(kind, d)


class TestParityEigensolve:
    """Reflection-symmetric inputs are solved per parity block; the oracle is one dense Schur."""

    @pytest.mark.parametrize("kind,d,split", ORACLE_CASES, ids=[f"{k}-{d}" for k, d, _ in ORACLE_CASES])
    def test_matches_dense_schur(self, kind, d, split):
        u = oracle_case_map(kind, d)
        part = bl.Bipartition(*split)
        eig = bl.eigensystem(u)
        ref = schur_oracle(u)
        assert circular_gap(eig.phases, ref.phases).max() < 1e-12
        ep = bl.asymptotic_entangling_power(eig, part)
        ep_ref = bl.asymptotic_entangling_power(ref, part)
        assert abs(ep.value - ep_ref.value) < 1e-12
        assert ep.resonance.violation_count == ep_ref.resonance.violation_count
        assert_parity_pure(eig.vectors)

    def test_symmetric_inputs_take_the_split(self):
        # dense Schur returns the standard basis for the identity, which is not parity-pure
        assert parity_impurity(schur_oracle(np.eye(8)).vectors)[0].min() > 1.0
        for u in (np.eye(8), bl.reflection(8)):
            eig = bl.eigensystem(u)
            assert_parity_pure(eig.vectors)
            assert_allclose(eig.vectors.conj().T @ eig.vectors, np.eye(8), atol=1e-14)

    def test_degenerate_across_sectors(self):
        # the same block in both sectors: every phase is exactly doubly degenerate
        x = bl.sample_cue(8, bl.RngStream(405))
        blocks = np.zeros((16, 16), dtype=complex)
        blocks[:8, :8] = x
        blocks[8:, 8:] = x
        lam = bl.lambda_basis(16)
        u = lam @ blocks @ lam.conj().T
        eig = bl.eigensystem(u)
        assert_allclose(eig.vectors.conj().T @ eig.vectors, np.eye(16), atol=1e-12)
        assert_parity_pure(eig.vectors)
        assert np.abs(eig.phases[::2] - eig.phases[1::2]).max() < 1e-12
        assert bl.commensurability_check(eig.phases).has_nontrivial_resonance

    def test_asymmetry_below_tol_passes_full_gates(self):
        d = 64
        rng = np.random.default_rng(406)
        h = random_complex(rng, (d, d))
        h = (h + h.conj().T) / 2
        u = bl.baker(d) @ expm(3e-12j * h)
        asymmetry = bl.max_abs(u[::-1, ::-1] - u)
        assert 1e-12 < asymmetry < bl.UNITARY_TOL
        eig = bl.eigensystem(u)
        assert_parity_pure(eig.vectors)  # the split ran and neglected the coupling
        diag = bl.eigensystem_diagnostics(u, eig)
        assert diag["max_residual"] < 1e-9
        assert diag["reconstruction_error"] < 1e-9
        assert circular_gap(eig.phases, schur_oracle(u).phases).max() < 1e-10

    def test_asymmetry_above_tol_takes_dense_schur(self):
        d = 64
        rng = np.random.default_rng(407)
        h = random_complex(rng, (d, d))
        h = (h + h.conj().T) / 2
        u = bl.baker(d) @ expm(1e-6j * h)
        eig = bl.eigensystem(u)
        assert parity_impurity(eig.vectors)[0].max() > 1e-8
        assert circular_gap(eig.phases, schur_oracle(u).phases).max() < 1e-12

    @pytest.mark.parametrize(
        "u",
        [bl.d_map(64), bl.sample_cue(32, bl.RngStream(408)), np.eye(3), PAULI_X],
        ids=["dmap", "cue", "odd", "pauli-x"],
    )
    def test_other_inputs_still_pass(self, u):
        eig = bl.eigensystem(u)
        ref = schur_oracle(u)
        assert circular_gap(eig.phases, ref.phases).max() < 1e-12
        diag = bl.eigensystem_diagnostics(u, eig)
        assert diag["max_residual"] < 1e-12
        assert diag["orthonormality_defect"] < 1e-12


NUMPY_EIGH_CASES = [
    *[(kind, d) for kind in ("baker", "bbar", "dmap", "dprime") for d in (64, 256)],
    ("coe", 64), ("coe", 256), ("symmetric", 64), ("symmetric", 256),
]


class TestEigensolveBackends:
    """Every eigensolve is one Hermitian ``eigh`` on numpy's LAPACK: real with time reversal, else complex."""

    @pytest.mark.parametrize("kind,d", NUMPY_EIGH_CASES, ids=[f"{k}-{d}" for k, d in NUMPY_EIGH_CASES])
    def test_reversible_inputs_solve_by_numpy_eigh(self, monkeypatch, kind, d):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.eigh was called")

        def counted(a):
            calls.append(a.shape)
            return numpy_eigh(a)

        calls, numpy_eigh = [], np.linalg.eigh
        monkeypatch.setattr("scipy.linalg.eigh", refuse)
        monkeypatch.setattr("numpy.linalg.eigh", counted)
        if kind in ("coe", "symmetric"):
            u = bl.sample_ensemble(kind, d, bl.RngStream(412, d))
        else:
            u = bl.make_map(kind, d)
        eig = bl.eigensystem(u)
        monkeypatch.undo()  # the oracle below may use either library
        assert calls
        assert circular_gap(eig.phases, schur_oracle(u).phases).max() < 1e-12
        diag = bl.eigensystem_diagnostics(u, eig)
        assert diag["max_residual"] < 1e-12
        assert diag["orthonormality_defect"] < 1e-12

    def test_cue_takes_the_complex_eigenbasis(self, monkeypatch):
        calls = []

        def counted(x, real=False):
            calls.append((x.shape, real))
            return solve(x, real=real)

        solve = linalg._eigenbasis
        monkeypatch.setattr(linalg, "_eigenbasis", counted)
        u = bl.sample_cue(64, bl.RngStream(413))
        eig = bl.eigensystem(u)  # raises unless the vectors pass every gate
        assert calls == [((64, 64), False)]
        assert circular_gap(eig.phases, schur_oracle(u).phases).max() < 1e-12


def planted_case(kind, seed):
    """``Q diag(exp(i theta)) Q^dag``, Q a CUE sample of d = 32, with ``kind``'s structure planted in theta."""
    theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, 32)
    if kind == "degenerate-5":
        theta[:5] = 1.3
    elif kind == "degenerate-1e-13":
        theta[1:4] = theta[0] + np.array([1e-13, -1e-13, 5e-14])
    else:  # three phases and their folds about atan(c), which H does not tell apart
        theta[3:6] = 2 * np.arctan(linalg._MIX) - theta[:3]
    q = bl.sample_cue(32, bl.RngStream(seed))
    return (q * np.exp(1j * theta)) @ q.conj().T


def cue_parity_blocks(d, seed):
    """A reflection-symmetric unitary whose parity blocks are CUE samples: split, then complex eigh."""
    blocks = np.zeros((d, d), dtype=complex)
    blocks[: d // 2, : d // 2] = bl.sample_cue(d // 2, bl.RngStream(seed, 0))
    blocks[d // 2 :, d // 2 :] = bl.sample_cue(d // 2, bl.RngStream(seed, 1))
    lam = bl.lambda_basis(d)
    return lam @ blocks @ lam.conj().T


# (id, builder, split, degenerate): e_p(inf) is basis-free only without degeneracy
COMPLEX_CASES = [
    *[(f"cue-{d}", lambda d=d: bl.sample_cue(d, bl.RngStream(414, d)), split, False)
      for d, split in ((8, (2, 4)), (64, (8, 8)), (256, (16, 16)), (512, (16, 32)))],
    ("cue8-kron-cue16", lambda: np.kron(bl.sample_cue(8, bl.RngStream(415)), bl.sample_cue(16, bl.RngStream(416))),
     (8, 16), False),
    ("lambda-64", lambda: bl.make_map("lambda", 64), (8, 8), True),
    ("lambda-256", lambda: bl.make_map("lambda", 256), (16, 16), True),
    ("cue-parity-blocks", lambda: cue_parity_blocks(64, 417), (8, 8), False),
    ("degenerate-5", lambda: planted_case("degenerate-5", 418), (4, 8), True),
    ("degenerate-1e-13", lambda: planted_case("degenerate-1e-13", 419), (4, 8), True),
    ("fold-pairs", lambda: planted_case("fold-pairs", 420), (4, 8), False),
]


class TestComplexEigensolve:
    """Inputs without time reversal take the complex ``eigh``; the oracle is one dense Schur."""

    @pytest.mark.parametrize("build,split,degenerate", [c[1:] for c in COMPLEX_CASES],
                             ids=[c[0] for c in COMPLEX_CASES])
    def test_matches_dense_schur(self, monkeypatch, build, split, degenerate):
        u = build()
        calls = []

        def counted(x, real=False):
            calls.append(real)
            return solve(x, real=real)

        solve = linalg._eigenbasis
        monkeypatch.setattr(linalg, "_eigenbasis", counted)
        eig = bl.eigensystem(u)  # raises unless all three gates pass
        monkeypatch.undo()
        assert calls and not any(calls)
        ref = schur_oracle(u)
        assert circular_gap(eig.phases, ref.phases).max() < 1e-12
        diag = bl.eigensystem_diagnostics(u, eig)
        d = u.shape[0]
        assert diag["max_residual"] < bl.EIGEN_TOL * np.sqrt(d)
        assert diag["orthonormality_defect"] < bl.EIGEN_TOL
        assert diag["reconstruction_error"] < bl.EIGEN_TOL * d
        if not degenerate:  # inside a degenerate eigenspace the basis, and so e_p(inf), is arbitrary
            part = bl.Bipartition(*split)
            ep = bl.asymptotic_entangling_power(eig, part).value
            assert abs(ep - bl.asymptotic_entangling_power(ref, part).value) < 1e-12


TIME_REVERSAL_CASES = [
    ("dmap", 16, (4, 4)),
    ("dmap", 64, (8, 8)),
    ("dmap", 256, (16, 16)),
    ("dprime", 64, (8, 8)),
    ("baker", 256, (16, 16)),
    ("bbar", 256, (16, 16)),
]


def time_reversal_operator(kind, d):
    """The first V of the dispatch order that reverses this map: G_d, else 1_2 kron G_{d/2}."""
    if kind == "bbar":
        return np.kron(np.eye(2), bl.antiperiodic_fourier(d // 2))
    return bl.antiperiodic_fourier(d)


def reversal_defect(v, vectors):
    """max |V conj(vectors) - vectors|: zero for the basis W O of the time-reversal solve."""
    return bl.max_abs(v @ vectors.conj() - vectors)


class TestTimeReversalEigensolve:
    """Inputs with V U* V^dag = U^dag are solved by real eigh; the oracle is one dense Schur."""

    @pytest.mark.parametrize(
        "kind,d,split", TIME_REVERSAL_CASES, ids=[f"{k}-{d}" for k, d, _ in TIME_REVERSAL_CASES]
    )
    def test_matches_dense_schur(self, kind, d, split):
        u = bl.make_map(kind, d)
        v = time_reversal_operator(kind, d)
        assert bl.max_abs(v @ u.conj() @ v.conj().T - u.conj().T) < 1e-12
        part = bl.Bipartition(*split)
        eig = bl.eigensystem(u)
        ref = schur_oracle(u)
        assert circular_gap(eig.phases, ref.phases).max() < 1e-12
        ep = bl.asymptotic_entangling_power(eig, part)
        ep_ref = bl.asymptotic_entangling_power(ref, part)
        assert abs(ep.value - ep_ref.value) < 1e-12
        assert ep.resonance.violation_count == ep_ref.resonance.violation_count
        # the dispatch chose V: its basis is V-real, which Schur vectors are not
        assert reversal_defect(v, eig.vectors) < 1e-10
        assert reversal_defect(v, ref.vectors) > 1e-2

    def test_unsplit_solve_does_not_hold_v(self):
        # D is not reflection-symmetric, so it is solved whole with V = G_d:
        # once V's real eigenbasis is known V is dropped, and the solve holds
        # S, V's basis and eigh's arrays (3.6 complex d x d arrays; 4.6 with V)
        d = 512
        u = bl.d_map(d)
        tracemalloc.start()
        try:
            bl.eigensystem(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * d * d

    def test_symmetric_inputs_take_the_identity(self):
        u = bl.sample_symmetric(64, bl.RngStream(409))
        eig = bl.eigensystem(u)
        assert bl.max_abs(eig.vectors.imag) < 1e-10  # V = 1: the eigenbasis is real
        assert circular_gap(eig.phases, schur_oracle(u).phases).max() < 1e-12

    def test_reversal_breaking_takes_dense_schur(self):
        d = 64
        rng = np.random.default_rng(410)
        h = random_complex(rng, (d, d))
        h = (h + h.conj().T) / 2
        u = bl.d_map(d) @ expm(1e-6j * h)
        v = bl.antiperiodic_fourier(d)
        assert bl.max_abs(v @ u.conj() @ v.conj().T - u.conj().T) > 1e-8
        eig = bl.eigensystem(u)
        assert reversal_defect(v, eig.vectors) > 1e-2
        assert circular_gap(eig.phases, schur_oracle(u).phases).max() < 1e-12
        diag = bl.eigensystem_diagnostics(u, eig)
        assert diag["max_residual"] < 1e-12
        assert diag["orthonormality_defect"] < 1e-12

    @pytest.mark.parametrize("planted", ["fold-and-degenerate-pair", "fold-with-near-neighbour"])
    def test_planted_clusters_resolved(self, planted):
        # U = O diag(e^{i theta}) O^T with O real orthogonal is a symmetric unitary
        # (V = 1).  A phase t and its fold 2 atan(c) - t land on one eigenvalue
        # of Re U + c Im U, and so does an exactly degenerate pair, so eigh alone
        # returns arbitrary mixtures of their vectors.  In the second case the
        # fold sits a quarter turn from atan(c), next to a phase 2e-9 away on the
        # same side, which the rotation pi/2 would not tell apart.
        d = 12
        rng = np.random.default_rng(411)
        o, _ = np.linalg.qr(rng.standard_normal((d, d)))
        center = np.arctan(linalg._MIX)
        t = 0.7 if planted == "fold-and-degenerate-pair" else center + np.pi / 2 + 1e-9
        fourth = 2.5 if planted == "fold-and-degenerate-pair" else t - 2e-9
        theta = np.concatenate([[t, 2 * center - t, 2.5, fourth], rng.uniform(3.0, 6.0, d - 4)])
        theta = np.mod(theta, 2 * np.pi)
        mixed = np.cos(theta) + linalg._MIX * np.sin(theta)
        assert abs(mixed[0] - mixed[1]) < 1e-15
        u = (o * np.exp(1j * theta)) @ o.T
        assert bl.reflection_commutator(u) > 1e-2  # no parity split: one eigh at full size
        eig = bl.eigensystem(u)
        assert circular_gap(eig.phases, np.sort(theta)).max() < 1e-12
        diag = bl.eigensystem_diagnostics(u, eig)
        assert diag["max_residual"] < 1e-12
        assert diag["orthonormality_defect"] < 1e-12


def dense_reversal_figures(u):
    """The dense time-reversal gate: ``max |V U* V^dag - U^dag|`` for V = 1, G_d and (d even) 1_2 kron G_{d/2}."""
    d = u.shape[0]
    candidates = [np.eye(d), bl.antiperiodic_fourier(d)]
    if d % 2 == 0:
        candidates.append(np.kron(np.eye(2), bl.antiperiodic_fourier(d // 2)))
    return [(v, bl.max_abs(v @ u.conj() @ v.conj().T - u.conj().T)) for v in candidates]


def dense_time_reversal(u):
    """``(True, V)`` for the first V the dense gate accepts (None for the identity), else ``(False, None)``."""
    for k, (v, figure) in enumerate(dense_reversal_figures(u)):
        if figure < bl.UNITARY_TOL:
            return True, None if k == 0 else v
    return False, None


def reversal_input(name, d):
    if name in {kind.value for kind in bl.MapKind}:
        return bl.make_map(name, d)
    return bl.sample_ensemble(name, d, bl.RngStream(412))


class TestTimeReversalGate:
    """The FFT gate of ``linalg._time_reversal`` against the dense V U* V^dag - U^dag."""

    @pytest.mark.parametrize("d", [16, 64, 256, 300])
    @pytest.mark.parametrize("name", ["baker", "dmap", "dprime", "bbar", "fourier", "identity", "coe",
                                      "symmetric", "cue"])
    def test_figure_and_choice_match_the_dense_gate(self, name, d):
        u = reversal_input(name, d)
        dense = dense_reversal_figures(u)
        assert abs(bl.max_abs(u - u.T) - dense[0][1]) < 1e-14
        for n, (_, figure) in zip((d, d // 2), dense[1:]):
            assert abs(linalg._reversal_defect(u, n) - figure) < 1e-14
        reversible, v = linalg._time_reversal(u)
        ref_reversible, ref_v = dense_time_reversal(u)
        assert reversible == ref_reversible
        assert (v is None) == (ref_v is None)
        if v is not None:
            assert bl.max_abs(v - ref_v) < 1e-14

    @pytest.mark.parametrize("scale, reversible", [(2.0, False), (0.5, True)])
    def test_perturbation_is_judged_at_the_unchanged_tolerance(self, scale, reversible):
        # D diag(e^{i eps theta}) breaks V = G_d at first order in eps; eps is
        # tuned so that the dense figure reads scale * UNITARY_TOL
        d = 64
        theta = np.random.default_rng(413).uniform(-1.0, 1.0, d)

        def perturbed(eps):
            return bl.d_map(d) * np.exp(1j * eps * theta)

        unit = dense_reversal_figures(perturbed(1e-6))[1][1] / 1e-6
        u = perturbed(scale * bl.UNITARY_TOL / unit)
        figures = [figure for _, figure in dense_reversal_figures(u)]
        assert abs(figures[1] / bl.UNITARY_TOL - scale) < 0.05 * scale
        assert figures[0] > 1e-2 and figures[2] > 1e-2  # the other candidates fail by far
        assert bl.unitarity_defect(u) < bl.UNITARY_TOL
        got, v = linalg._time_reversal(u)
        assert got is reversible
        assert (v is not None) is reversible

    @pytest.mark.parametrize("name, built", [("bbar", [32]), ("baker", [64]), ("cue", []), ("symmetric", [])])
    def test_only_the_accepted_candidate_is_built(self, monkeypatch, name, built):
        calls = []
        kernel = linalg._fourier_kernel
        monkeypatch.setattr(linalg, "_fourier_kernel", lambda n: calls.append(n) or kernel(n))
        linalg._time_reversal(reversal_input(name, 64))
        assert calls == built


def certificate_input(kind, d):
    if kind == "cue":
        return bl.sample_cue(d, bl.RngStream(421, d))
    return bl.make_map(kind, d)


CERTIFICATE_CASES = [(kind, d) for kind in ("baker", "bbar", "dmap", "dprime", "cue", "lambda")
                     for d in (16, 64, 256, 512)]


class TestEigensystemCertificate:
    """``eigensystem`` keeps the figures its gates passed; a byte-identical ``u`` looks them up."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """The matrices ``linalg._diagnostics`` runs on, one entry per computation."""
        calls, compute = [], linalg._diagnostics
        monkeypatch.setattr(linalg, "_diagnostics", lambda u, eig: calls.append(u) or compute(u, eig))
        return calls

    @pytest.mark.parametrize("kind,d", CERTIFICATE_CASES, ids=[f"{k}-{d}" for k, d in CERTIFICATE_CASES])
    def test_looked_up_figures_equal_a_fresh_computation(self, computed, kind, d):
        u = certificate_input(kind, d)
        eig = bl.eigensystem(u)
        assert len(computed) == 1  # the gates
        looked_up = bl.eigensystem_diagnostics(u, eig)
        assert len(computed) == 1
        assert looked_up == dict(eig.diagnostics)
        assert looked_up == bl.eigensystem_diagnostics(u, bl.EigenSystem(eig.phases, eig.vectors))
        assert len(computed) == 2

    def test_changed_entry_is_recomputed(self, computed):
        u = bl.baker(64)
        eig = bl.eigensystem(u)
        u[3, 5] += 1e-6
        diag = bl.eigensystem_diagnostics(u, eig)
        assert len(computed) == 2
        assert eig.diagnostics["reconstruction_error"] < 1e-13
        assert diag["reconstruction_error"] == pytest.approx(1e-6, rel=1e-6)

    def test_equal_bytes_hit_the_certificate(self, computed):
        u = bl.bbar(64)
        eig = bl.eigensystem(u)
        copy = u.copy()
        copy.setflags(write=False)
        assert bl.eigensystem_diagnostics(copy, eig) == dict(eig.diagnostics)
        assert len(computed) == 1

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_u_gives_the_same_figures(self, layout):
        u = bl.d_map(64)
        eig = bl.eigensystem(u)
        if layout == "fortran":
            other = u.T.copy().T
        else:
            other = np.zeros((64, 128), dtype=complex)[:, ::2]
            other[:] = u
        assert not other.flags.c_contiguous
        assert bl.eigensystem_diagnostics(other, eig) == dict(eig.diagnostics)

    def test_hand_built_and_replaced_eigensystems_recompute(self, computed):
        u = bl.baker(32)
        eig = bl.eigensystem(u)
        for other in (bl.EigenSystem(eig.phases, eig.vectors), dataclasses.replace(eig)):
            assert other.diagnostics is None
            assert other == eig
            bl.eigensystem_diagnostics(u, other)
        assert len(computed) == 3

    def test_certificate_is_read_only(self):
        eig = bl.eigensystem(bl.baker(16))
        with pytest.raises(TypeError):
            eig.diagnostics["max_residual"] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            eig.diagnostics = {}
        assert "diagnostics" not in repr(eig)

    @pytest.mark.parametrize("u", [bl.baker(8), bl.baker(16)[:, :8], np.eye(32)], ids=["d8", "16x8", "eye32"])
    def test_mismatched_u_is_refused_by_name(self, monkeypatch, u):
        eig = bl.eigensystem(bl.baker(16))

        def refuse(*args):
            raise AssertionError("a product or hash ran on a mismatched u")

        monkeypatch.setattr(linalg, "_diagnostics", refuse)
        monkeypatch.setattr(linalg, "_digest", refuse)
        with pytest.raises(ValueError, match=rf"shape \({u.shape[0]}, {u.shape[1]}\) does not match "
                                             r"eigensystem dimension 16"):
            bl.eigensystem_diagnostics(u, eig)
