import numpy as np
import pytest
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose
from scipy.linalg import expm

import bakerlab as bl

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

EVEN_DIMS = [4, 6, 8, 10, 16, 30, 64, 128]


class TestAntiperiodicFourier:
    def test_two_dimensional_kernel_entries(self):
        # exp(i pi (j+1/2)(k+1/2)) / sqrt(2), written out by hand
        expected = 0.5 * np.array([[1 + 1j, -1 + 1j], [-1 + 1j, 1 + 1j]])
        assert_allclose(bl.antiperiodic_fourier(2), expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 17, 64])
    def test_unitary_and_symmetric(self, d):
        g = bl.antiperiodic_fourier(d)
        assert bl.unitarity_defect(g) < 1e-10
        assert_allclose(g, g.T, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_reflection_conjugates_the_kernel(self, d):
        # R G = G R = -conj(G): the kernel's antiperiodic reflection property
        g = bl.antiperiodic_fourier(d)
        r = bl.reflection(d)
        assert_allclose(r @ g, -g.conj(), atol=1e-13)
        assert_allclose(g @ r, -g.conj(), atol=1e-13)

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ValueError):
            bl.antiperiodic_fourier(1)


PI = np.longdouble("3.14159265358979323846264338327950288")


def exact_kernel(d):
    """G_d in extended precision, its phase index (2j + 1)(2k + 1) reduced mod 4d in integers."""
    odd = 2 * np.arange(d) + 1
    theta = PI * (np.multiply.outer(odd, odd) % (4 * d)) / (2 * d)
    return (np.cos(theta) + 1j * np.sin(theta)) / np.sqrt(np.longdouble(d))


def exact_baker_family(d, sign):
    """B (sign 0), D (+1) or D' (-1) in closed form, in extended precision.

    Column k < h = d/2 of ``G_d diag(G_h^-1, .)`` is a geometric sum,
    ``sum_m exp(i pi (2m + 1) n / 2d) / sqrt(d h)`` over m < h with
    ``n = 2j - 4k - 1``, which is ``exp(i pi n / 4) sin(pi n / 4) / sin(pi n / 2d)``
    over ``sqrt(d h)``.  The second half picks up ``G_d[j, h + m] = i (-1)^j G_d[j, m]``
    and, for ``sign G_h`` in place of ``G_h^-1``, ``n = 2j + 4k + 3``.
    """
    h = d // 2
    j, k = np.arange(d)[:, None], np.arange(h)[None, :]

    def columns(n):
        return np.exp(1j * PI * n / 4) * np.sin(PI * n / 4) / (np.sqrt(np.longdouble(d * h)) * np.sin(PI * n / (2 * d)))

    first = columns(2 * j - 4 * k - 1)
    second = first if sign == 0 else sign * columns(2 * j + 4 * k + 3)
    return np.hstack([first, 1j * (-1.0) ** j * second])


EXACT_DIMS = [4, 6, 12, 64, 238, 1024]


class TestIntegerReducedPhases:
    """Kernel, FFT transform and baker-family maps within a few ulp of their exact values."""

    @pytest.mark.parametrize("d", EXACT_DIMS)
    def test_kernel(self, d):
        assert bl.max_abs(bl.antiperiodic_fourier(d) - exact_kernel(d)) < 1e-15

    @pytest.mark.parametrize("d", EXACT_DIMS)
    @pytest.mark.parametrize("inverse", [False, True])
    def test_fft_transform(self, d, inverse):
        g = exact_kernel(d)
        got = bl.linalg._fourier_apply(np.eye(d, dtype=complex), inverse=inverse)
        assert bl.max_abs(got - (g.conj() if inverse else g)) < 1e-15

    @pytest.mark.parametrize("d", EXACT_DIMS)
    @pytest.mark.parametrize("kind", ["baker", "dmap", "dprime"])
    def test_maps(self, d, kind):
        u = bl.make_map(kind, d)
        sign = {"baker": 0, "dmap": +1, "dprime": -1}[kind]
        assert bl.max_abs(u - exact_baker_family(d, sign)) < 1.5e-15
        assert bl.unitarity_defect(u) < 2e-15
        assert u.flags.c_contiguous

    def test_closed_form_matches_the_kernel_product(self):
        d, half = 12, 6
        g = exact_kernel(half).astype(complex)
        factor = np.zeros((d, d), dtype=complex)
        factor[:half, :half] = g.conj()
        factor[half:, half:] = -g
        product = exact_kernel(d).astype(complex) @ factor
        assert bl.max_abs(product - exact_baker_family(d, -1)) < 1e-15


class TestReflection:
    def test_four_dimensional_permutation(self):
        r = bl.reflection(4)
        expected = np.zeros((4, 4))
        for j in range(4):
            expected[3 - j, j] = 1.0
        assert_allclose(r, expected)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_squares_to_identity(self, d):
        r = bl.reflection(d)
        assert_allclose(r @ r, np.eye(d), atol=1e-15)

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_factorizes_for_even_dimensions(self, d):
        assert_allclose(bl.reflection(d), bl.kron(bl.reflection(2), bl.reflection(d // 2)), atol=1e-15)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            bl.reflection(0)


class TestBaker:
    @pytest.mark.parametrize("d", EVEN_DIMS)
    def test_unitary(self, d):
        assert bl.unitarity_defect(bl.baker(d)) < 1e-10

    @pytest.mark.parametrize("d", [4, 8, 12, 20])
    def test_matches_block_assembled_construction(self, d):
        # independently assemble G_d . blockdiag(G_{d/2}^-1, G_{d/2}^-1)
        half = d // 2
        g_inv = bl.antiperiodic_fourier(half).conj().T
        blocks = np.zeros((d, d), dtype=complex)
        blocks[:half, :half] = g_inv
        blocks[half:, half:] = g_inv
        assert_allclose(bl.baker(d), bl.antiperiodic_fourier(d) @ blocks, atol=1e-14)

    @pytest.mark.parametrize("d", EVEN_DIMS)
    def test_commutes_with_reflection(self, d):
        assert bl.reflection_commutator(bl.baker(d)) < 1e-10

    @pytest.mark.parametrize("d", [4, 8, 16, 30])
    def test_time_reversal_identity(self, d):
        # conj(G^-1 B G) = B^-1
        b = bl.baker(d)
        g = bl.antiperiodic_fourier(d)
        assert_allclose((g.conj().T @ b @ g).conj(), b.conj().T, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 7, 9])
    def test_rejects_bad_dimensions(self, d):
        with pytest.raises(ValueError, match="even"):
            bl.baker(d)


class TestDMaps:
    @pytest.mark.parametrize("d", [4, 8, 16, 30])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_unitary(self, d, sign):
        assert bl.unitarity_defect(bl.d_map(d, sign)) < 1e-10

    @pytest.mark.parametrize("d", [8, 16])
    def test_breaks_reflection_symmetry(self, d):
        assert bl.reflection_commutator(bl.d_map(d, +1)) > 0.1
        assert bl.reflection_commutator(bl.d_map(d, -1)) > 0.1

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_time_reversal_identity(self, d, sign):
        m = bl.d_map(d, sign)
        g = bl.antiperiodic_fourier(d)
        assert_allclose((g.conj().T @ m @ g).conj(), m.conj().T, atol=1e-12)

    def test_signs_give_different_maps(self):
        assert bl.max_abs(bl.d_map(8, +1) - bl.d_map(8, -1)) > 0.1

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            bl.d_map(8, 2)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            bl.d_map(7)


class TestLambdaBasis:
    def test_four_dimensional_block_form(self):
        # (1/sqrt2) [[1, R], [-R, 1]] with R the 2-dim reflection
        s = 1 / np.sqrt(2)
        expected = s * np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, -1, 1, 0],
                [-1, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert_allclose(bl.lambda_basis(4), expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 4, 6, 16, 64])
    def test_unitary(self, d):
        assert bl.unitarity_defect(bl.lambda_basis(d)) < 1e-10

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_intertwines_reflection_and_parity(self, d):
        # R Lambda = -Lambda (Z kron 1): columns are parity eigenvectors
        lam = bl.lambda_basis(d)
        r = bl.reflection(d)
        z_blocks = bl.kron(PAULI_Z, np.eye(d // 2))
        assert_allclose(r @ lam, -lam @ z_blocks, atol=1e-14)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            bl.lambda_basis(5)


class TestSlicedParityRotation:
    """The sliced Lambda rotations used by the package against dense products."""

    @pytest.mark.parametrize("d", [2, 4, 10, 64])
    def test_conjugations_match_dense_lambda(self, d):
        from bakerlab.linalg import _from_parity_blocks, _parity_blocks

        half = d // 2
        x = bl.sample_cue(half, bl.RngStream(31, d))
        y = bl.sample_cue(half, bl.RngStream(32, d))
        lam = bl.lambda_basis(d)
        blocks = np.zeros((d, d), dtype=complex)
        blocks[:half, :half] = x
        blocks[half:, half:] = y
        assert_allclose(_from_parity_blocks(x, y), lam @ blocks @ lam.conj().T, rtol=0, atol=1e-15)
        u = bl.sample_cue(d, bl.RngStream(33, d))
        dense = lam.conj().T @ u @ lam
        minus, plus = _parity_blocks(u)
        assert_allclose(minus, dense[:half, :half], rtol=0, atol=1e-15)
        assert_allclose(plus, dense[half:, half:], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 10, 64])
    def test_blocks_may_be_views_of_the_output(self, d):
        from bakerlab.linalg import _from_parity_blocks

        half = d // 2
        x = bl.sample_cue(half, bl.RngStream(35, d))
        y = bl.sample_cue(half, bl.RngStream(36, d))
        out = np.empty((d, d), dtype=complex)
        out[half:, half:], out[half:, :half] = x, y[::-1, ::-1]
        got = _from_parity_blocks(out[half:, half:], out[half:, :half][::-1, ::-1], out)
        assert got is out
        assert out.tobytes() == _from_parity_blocks(x, y).tobytes()

    @pytest.mark.parametrize("d", [3, 8, 64])
    def test_reflection_commutator_equals_dense_products(self, d):
        u = bl.sample_cue(d, bl.RngStream(34, d))
        r = bl.reflection(d)
        assert bl.reflection_commutator(u) == bl.max_abs(u @ r - r @ u)

    def test_reflection_commutator_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            bl.reflection_commutator(np.ones((2, 3)))


class TestReduceBySymmetry:
    def test_identity_reduces_to_identities(self):
        minus, plus = bl.reduce_by_symmetry(np.eye(8))
        assert_allclose(minus, np.eye(4), atol=1e-14)
        assert_allclose(plus, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("d", [8, 16, 64])
    def test_baker_blocks_are_unitary_and_reassemble(self, d):
        b = bl.baker(d)
        minus, plus = bl.reduce_by_symmetry(b)
        assert bl.unitarity_defect(minus) < 1e-9
        assert bl.unitarity_defect(plus) < 1e-9
        half = d // 2
        blocks = np.zeros((d, d), dtype=complex)
        blocks[:half, :half] = minus
        blocks[half:, half:] = plus
        lam = bl.lambda_basis(d)
        assert_allclose(lam @ blocks @ lam.conj().T, b, atol=1e-12)

    @pytest.mark.parametrize("target", [1e-14, 1e-12, 1e-10])
    @pytest.mark.parametrize("d", [8, 32, 128])
    def test_commutator_bounds_the_dropped_off_diagonal_blocks(self, d, target):
        # only the diagonal blocks of Lambda^dag U Lambda are returned; each entry
        # of the off-diagonal ones is half a sum of two entries of U - R U R, so
        # the commutator gate bounds what is dropped
        rng = np.random.default_rng(d)
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h += h.conj().T
        s = bl.sample_symmetric(d, bl.RngStream(61, d))

        def perturbed(eps):
            return s @ expm(1j * eps * h)

        u = perturbed(target * 1e-6 / bl.reflection_commutator(perturbed(1e-6)))
        commutator = bl.reflection_commutator(u)
        assert target / 2 < commutator < 2 * target
        half = d // 2
        lam = bl.lambda_basis(d)
        dense = lam.conj().T @ u @ lam
        assert max(bl.max_abs(dense[:half, half:]), bl.max_abs(dense[half:, :half])) <= commutator
        if commutator < bl.UNITARY_TOL:
            minus, plus = bl.reduce_by_symmetry(u)
            assert_allclose(minus, dense[:half, :half], rtol=0, atol=1e-15)
            assert_allclose(plus, dense[half:, half:], rtol=0, atol=1e-15)

    def test_rejects_asymmetric_map_with_measured_norm(self):
        u = bl.sample_cue(8, bl.RngStream(5))
        with pytest.raises(LinAlgError, match=r"commute.*\d\.\d+e"):
            bl.reduce_by_symmetry(u)

    def test_rejects_non_unitary(self):
        with pytest.raises(LinAlgError, match="not unitary"):
            bl.reduce_by_symmetry(np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            bl.reduce_by_symmetry(np.eye(5))


class TestBBar:
    @pytest.mark.parametrize("d", [8, 12, 16, 32])
    def test_unitary_and_reflection_symmetric(self, d):
        m = bl.bbar(d)
        assert bl.unitarity_defect(m) < 1e-10
        assert bl.reflection_commutator(m) < 1e-10

    def test_parity_blocks_are_the_two_d_maps(self):
        minus, plus = bl.reduce_by_symmetry(bl.bbar(8))
        r = bl.reflection(4)
        assert_allclose(minus, bl.d_map(4, +1), atol=1e-13)
        assert_allclose(plus, r @ bl.d_map(4, -1) @ r, atol=1e-13)

    @pytest.mark.parametrize("d", [8, 16, 64])
    def test_matches_dense_lambda_construction(self, d):
        half = d // 2
        r = bl.reflection(half)
        blocks = np.zeros((d, d), dtype=complex)
        blocks[:half, :half] = bl.d_map(half, +1)
        blocks[half:, half:] = r @ bl.d_map(half, -1) @ r
        lam = bl.lambda_basis(d)
        assert_allclose(bl.bbar(d), lam @ blocks @ lam.conj().T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [4, 6, 10, 9])
    def test_rejects_bad_dimensions(self, d):
        with pytest.raises(ValueError):
            bl.bbar(d)


class TestMakeMap:
    @pytest.mark.parametrize(
        "kind,d",
        [
            ("baker", 8),
            ("dmap", 8),
            ("dprime", 8),
            ("bbar", 8),
            ("reflection", 5),
            ("fourier", 5),
            ("lambda", 8),
            ("identity", 5),
        ],
    )
    def test_dispatch_returns_square_matrix(self, kind, d):
        m = bl.make_map(kind, d)
        assert m.shape == (d, d)
        assert bl.unitarity_defect(m) < 1e-10

    def test_accepts_enum_members(self):
        assert_allclose(bl.make_map(bl.MapKind.BAKER, 8), bl.baker(8))

    def test_dprime_differs_from_dmap(self):
        assert bl.max_abs(bl.make_map("dmap", 8) - bl.make_map("dprime", 8)) > 0.1

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bl.make_map("tent", 8)


class TestRowTransforms:
    """The FFT actions of B, D and D' on rows, and of their transposes."""

    @pytest.mark.parametrize("kind, sign", [("baker", 0), ("dmap", +1), ("dprime", -1)])
    @pytest.mark.parametrize("d", [8, 300])
    def test_rows_match_the_dense_map_and_its_transpose(self, kind, sign, d):
        u = bl.make_map(kind, d)
        x = bl.product_states(bl.Bipartition(2, d // 2), 3, bl.RngStream(40)).T
        assert_allclose(bl.maps._baker_rows(x.copy(), sign), x @ u.T, rtol=0, atol=1e-14)
        assert_allclose(bl.maps._baker_rows_t(x.copy(), sign), x @ u, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind, sign", [("baker", 0), ("dmap", +1), ("dprime", -1)])
    @pytest.mark.parametrize("d", [6, 64, 256, 300])  # 300 = 2 blocks of 128 and a remainder of 44
    def test_built_map_is_the_step_applied_to_the_identity(self, kind, sign, d):
        u = bl.make_map(kind, d)
        step = bl.maps._baker_rows(np.eye(d, dtype=complex), sign).T
        assert u.tobytes() == np.ascontiguousarray(step).tobytes()
