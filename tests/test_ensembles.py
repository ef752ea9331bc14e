import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

import bakerlab as bl
from bakerlab.ensembles import _coe


def reference_haar(gen, d):
    """The per-state draw every stored artifact was made with."""
    z = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    return z / np.linalg.norm(z)


class TestRngStream:
    def test_same_address_same_draws(self):
        a = bl.haar_state(8, bl.RngStream(42, 3))
        b = bl.haar_state(8, bl.RngStream(42, 3))
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = bl.haar_state(8, bl.RngStream(42, 3))
        b = bl.haar_state(8, bl.RngStream(42, 4))
        c = bl.haar_state(8, bl.RngStream(43, 3))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_offset(self):
        base = bl.RngStream(7, 10)
        assert base.offset(5) == bl.RngStream(7, 15)
        assert base.offset(0) == base

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -2), (2**64, 0), (0, 2**64)])
    def test_rejects_out_of_range_fields(self, seed, stream):
        with pytest.raises(ValueError, match="64-bit"):
            bl.RngStream(seed, stream)


class TestHaarState:
    def test_normalized(self):
        for d in (1, 2, 7, 64):
            psi = bl.haar_state(d, bl.RngStream(1, d))
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 7, 64, 256, 1024])
    def test_bitwise_equal_to_reference_draw(self, d):
        for stream in range(10):
            rng = bl.RngStream(30, stream)
            assert bl.haar_state(d, rng).tobytes() == reference_haar(rng.generator(), d).tobytes()

    def test_one_dimensional_state_is_a_phase(self):
        psi = bl.haar_state(1, bl.RngStream(9))
        assert abs(abs(psi[0]) - 1.0) < 1e-12

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            bl.haar_state(0, bl.RngStream(1))

    def test_component_probabilities_are_uniform(self):
        # Haar states have E|<j|psi>|^2 = 1/d for every j
        d, n = 16, 100_000
        probs = np.empty((n, d))
        for i in range(n):
            psi = bl.haar_state(d, bl.RngStream(2024, i))
            probs[i] = np.abs(psi) ** 2
        mean = probs.mean(axis=0)
        se = probs.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(mean - 1.0 / d) < 4.0 * se).all()


class TestProductState:
    def test_zero_entanglement(self):
        for split in [(2, 2), (4, 4), (3, 5)]:
            part = bl.Bipartition(*split)
            psi = bl.product_state(part, bl.RngStream(3, split[0]))
            assert bl.linear_entropy(psi, part) < 1e-12

    def test_amplitudes_factorize(self):
        part = bl.Bipartition(2, 2)
        psi = bl.product_state(part, bl.RngStream(8))
        singular = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        assert singular[1] < 1e-12

    def test_deterministic(self):
        part = bl.Bipartition(4, 4)
        assert np.array_equal(
            bl.product_state(part, bl.RngStream(5, 1)),
            bl.product_state(part, bl.RngStream(5, 1)),
        )


class TestProductStates:
    SPLITS = [(2, 2), (2, 4), (3, 5), (4, 4), (8, 8), (5, 2), (16, 16)]

    @pytest.mark.parametrize("split", SPLITS)
    def test_single_state_batch_is_bitwise_product_state(self, split):
        part = bl.Bipartition(*split)
        for stream in range(20):
            rng = bl.RngStream(31, stream)
            gen = rng.generator()
            expected = np.kron(reference_haar(gen, part.d_a), reference_haar(gen, part.d_b))
            batch = bl.product_states(part, 1, rng)
            assert batch.shape == (part.d, 1)
            assert batch[:, 0].tobytes() == expected.tobytes()
            assert bl.product_state(part, rng).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("split", SPLITS)
    def test_columns_are_normalized_product_states(self, split):
        part = bl.Bipartition(*split)
        cols = bl.product_states(part, 40, bl.RngStream(32, split[0]))
        assert cols.shape == (part.d, 40)
        assert_allclose(np.linalg.norm(cols, axis=0), 1.0, atol=1e-13)
        assert (np.abs(bl.linear_entropies(cols, part)) < 1e-12).all()

    def test_columns_are_distinct_and_deterministic(self):
        part = bl.Bipartition(4, 4)
        cols = bl.product_states(part, 5, bl.RngStream(33))
        assert np.array_equal(cols, bl.product_states(part, 5, bl.RngStream(33)))
        assert np.linalg.matrix_rank(cols) == 5

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_batch(self, n):
        with pytest.raises(ValueError, match="at least one state"):
            bl.product_states(bl.Bipartition(2, 2), n, bl.RngStream(1))


class TestCue:
    @pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
    def test_unitary(self, d):
        assert bl.unitarity_defect(bl.sample_cue(d, bl.RngStream(11, d))) < 1e-10

    def test_deterministic(self):
        assert np.array_equal(bl.sample_cue(8, bl.RngStream(4, 2)), bl.sample_cue(8, bl.RngStream(4, 2)))

    def test_entry_moment_matches_haar(self):
        # E|U_00|^2 = 1/d for Haar; check at d = 2 over 1e5 draws
        n = 100_000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(bl.sample_cue(2, bl.RngStream(77, i))[0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 0.5) < 4.0 * se

    def test_eigenphases_uniform(self):
        # pooled eigenphases over many draws fill [0, 2pi) uniformly;
        # spectral repulsion only shrinks the bin variance, so a chi-squared
        # gate at the 99% point of the independent model is conservative
        d, n, bins = 8, 10_000, 16
        phases = np.empty((n, d))
        for i in range(n):
            u = bl.sample_cue(d, bl.RngStream(123, i))
            phases[i] = np.angle(np.linalg.eigvals(u))
        counts, _ = np.histogram(np.mod(phases.ravel(), 2 * np.pi), bins=bins, range=(0, 2 * np.pi))
        expected = n * d / bins
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.99, bins - 1)

    def test_no_preferred_basis(self):
        # |U_00|^2 and |(R U)_00|^2 are identically distributed
        n = 10_000
        top = np.empty(n)
        bottom = np.empty(n)
        r = bl.reflection(4).real
        for i in range(n):
            u = bl.sample_cue(4, bl.RngStream(31, i))
            top[i] = abs(u[0, 0]) ** 2
            bottom[i] = abs((r @ u)[0, 0]) ** 2
        se = np.hypot(top.std(ddof=1), bottom.std(ddof=1)) / np.sqrt(n)
        assert abs(top.mean() - bottom.mean()) < 4.0 * se

    def test_generically_breaks_reflection_symmetry(self):
        for i in range(5):
            u = bl.sample_cue(8, bl.RngStream(90, i))
            assert bl.reflection_commutator(u) > 0.1

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            bl.sample_cue(0, bl.RngStream(1))


class TestCoe:
    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_unitary_and_symmetric(self, d):
        v = bl.sample_coe(d, bl.RngStream(13, d))
        assert bl.unitarity_defect(v) < 1e-10
        assert bl.max_abs(v - v.T) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(bl.sample_coe(6, bl.RngStream(2, 9)), bl.sample_coe(6, bl.RngStream(2, 9)))


class TestSymmetricEnsemble:
    @pytest.mark.parametrize("d", [2, 8, 16, 64])
    def test_unitary_and_reflection_symmetric(self, d):
        u = bl.sample_symmetric(d, bl.RngStream(17, d))
        assert bl.unitarity_defect(u) < 1e-10
        assert bl.reflection_commutator(u) < 1e-9

    def test_parity_blocks_are_the_two_coe_draws(self):
        stream = bl.RngStream(5, 3)
        gen = stream.generator()
        w1 = _coe(gen, 4)
        w2 = _coe(gen, 4)
        minus, plus = bl.reduce_by_symmetry(bl.sample_symmetric(8, stream))
        assert_allclose(minus, w1, atol=1e-12)
        assert_allclose(plus, w2, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_matches_dense_lambda_rotation(self, d):
        stream = bl.RngStream(6, d)
        gen = stream.generator()
        half = d // 2
        blocks = np.zeros((d, d), dtype=complex)
        blocks[:half, :half] = _coe(gen, half)
        blocks[half:, half:] = _coe(gen, half)
        lam = bl.lambda_basis(d)
        assert_allclose(bl.sample_symmetric(d, stream), lam @ blocks @ lam.conj().T, rtol=0, atol=1e-15)

    def test_deterministic(self):
        assert np.array_equal(
            bl.sample_symmetric(8, bl.RngStream(21, 0)), bl.sample_symmetric(8, bl.RngStream(21, 0))
        )

    @pytest.mark.parametrize("d", [0, 3, 7])
    def test_rejects_bad_dimensions(self, d):
        with pytest.raises(ValueError):
            bl.sample_symmetric(d, bl.RngStream(1))


class TestSampleEnsemble:
    def test_dispatch(self):
        stream = bl.RngStream(33, 1)
        assert np.array_equal(bl.sample_ensemble("cue", 6, stream), bl.sample_cue(6, stream))
        assert np.array_equal(bl.sample_ensemble("coe", 6, stream), bl.sample_coe(6, stream))
        assert np.array_equal(
            bl.sample_ensemble(bl.EnsembleKind.SYMMETRIC, 6, stream), bl.sample_symmetric(6, stream)
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bl.sample_ensemble("gue", 6, bl.RngStream(1))
