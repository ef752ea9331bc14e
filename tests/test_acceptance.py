"""End-to-end acceptance suite.

Each criterion test prints a single ``ACCEPTANCE n: PASS/FAIL`` line
(visible with ``pytest -s``), so the whole contract can be audited at a
glance.  The
Monte-Carlo gates use generous multiples of measured standard errors; the
exact gates use the package-wide numerical tolerances.
"""

import contextlib
from fractions import Fraction

import numpy as np
import pytest

import bakerlab as bl
from bakerlab.cli import main


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


SYMMETRY_DIMS = [4, 8, 16, 32, 64, 128, 256]


def test_criterion_1_symmetry_suite():
    with criterion(1, "unitarity, reflection commutation, time reversal, block reduction"):
        for d in SYMMETRY_DIMS:
            g = bl.antiperiodic_fourier(d)
            b = bl.baker(d)
            d_plus = bl.d_map(d, +1)
            d_minus = bl.d_map(d, -1)
            lam = bl.lambda_basis(d)
            r = bl.reflection(d)
            for m in (g, b, d_plus, d_minus, lam, r):
                assert bl.unitarity_defect(m) < 1e-10
            assert bl.reflection_commutator(b) < 1e-10
            for m in (b, d_plus):
                assert bl.max_abs((g.conj().T @ m @ g).conj() - m.conj().T) < 1e-10
            rotated = lam.conj().T @ b @ lam
            half = d // 2
            off = max(bl.max_abs(rotated[:half, half:]), bl.max_abs(rotated[half:, :half]))
            assert off < 1e-9


def test_criterion_2_haar_state_mean_entropy():
    with criterion(2, "mean linear entropy of 1e5 Haar states at 16x16 hits (d_a-1)(d_b-1)/(d+1)"):
        part = bl.Bipartition(16, 16)
        n, chunk = 100_000, 1000
        values = np.empty(n)
        for start in range(0, n, chunk):
            cols = np.column_stack(
                [bl.haar_state(part.d, bl.RngStream(20240, start + i)) for i in range(chunk)]
            )
            values[start : start + chunk] = bl.linear_entropies(cols, part)
        mean = values.mean()
        se = values.std(ddof=1) / np.sqrt(n)
        assert abs(mean - 225.0 / 257.0) < 4.0 * se


def test_criterion_3_formula_matches_brute_force():
    with criterion(3, "spectral asymptotic power agrees with 500-state window Monte Carlo at d=16"):
        part = bl.Bipartition(4, 4)
        maps = {
            "baker": bl.baker(16),
            "dmap": bl.d_map(16),
            "symmetric": bl.sample_symmetric(16, bl.RngStream(316)),
        }
        for label, u in maps.items():
            spectral = bl.asymptotic_entangling_power(bl.eigensystem(u), part)
            mc_mean, mc_se = bl.asymptotic_power_mc(u, part, 500, 513, 2512, bl.RngStream(1003))
            assert abs(spectral.value - mc_mean) < 3.0 * mc_se, (
                f"{label}: spectral {spectral.value:.6f} vs MC {mc_mean:.6f} +/- {mc_se:.2g}"
            )


def test_criterion_4_qubit_baker_anomaly():
    with criterion(4, "256-dimensional baker and D map sit below the random-state mean at 16x16"):
        part = bl.Bipartition(16, 16)
        cue_mean = bl.cue_mean_entropy(part)
        baker_power = bl.asymptotic_entangling_power(bl.eigensystem(bl.baker(256)), part)
        dmap_power = bl.asymptotic_entangling_power(bl.eigensystem(bl.d_map(256)), part)
        # the Monte-Carlo yardstick: criterion-3-style estimation at this size
        _, mc_se = bl.asymptotic_power_mc(bl.baker(256), part, 500, 513, 2512, bl.RngStream(1004))
        assert cue_mean - baker_power.value > 5.0 * mc_se
        assert dmap_power.value < cue_mean
        assert abs(dmap_power.value - baker_power.value) < 0.01


def test_criterion_5_non_qubit_bakers_reach_the_random_mean():
    with criterion(5, "bakers at d=238 (14x17) and d=162 (9x18) sit within 0.005 of the random mean"):
        for d, split, mean in [(238, (14, 17), 208.0 / 239.0), (162, (9, 18), 136.0 / 163.0)]:
            part = bl.Bipartition(*split)
            power = bl.asymptotic_entangling_power(bl.eigensystem(bl.baker(d)), part)
            assert abs(power.value - mean) < 0.005, f"d={d}: {power.value:.6f} vs {mean:.6f}"


def symmetric_ensemble_offset(d_a: int, d_b: int) -> Fraction:
    """Exact offset of the symmetric ensemble's single-application mean from CUE.

    The mean linear entropy of ``U (a kron b)`` over ``U`` from
    :func:`bakerlab.sample_symmetric` and Haar ``a``, ``b`` equals
    ``cue_mean_entropy + delta`` with, for d = d_a d_b,

        delta = -N / [d (d_a+1)(d_b+1)(d+1)(d+2)^2 (d+6)],
        N = 4 d_a^4 d_b^4 + 22 d_a^3 d_b^3 - 5 d_a^4 d_b^2 - 5 d_a^2 d_b^4
            + 32 d_a^2 d_b^2 - 18 d_a^3 d_b - 18 d_a d_b^3 + 56 d_a d_b
            - 8 d_a^2 - 8 d_b^2 + 32.

    Derivation (two-copy product-state average, Zanardi, Zalka & Faoro,
    PRA 62, 030301, 2000):

    - U = Lambda (W_- + W_+) Lambda^dag with COE blocks W_+-, and
      Lambda Lambda^T = 1, so U = U^T and the parity sector of a state's
      complex conjugate is the complex conjugate of its parity sector.
    - COE column law on a block of size n = d/2: W x = w x* +
      sqrt(1 - |w|^2) |x| eta, with E|w|^2 = 2/(n+1),
      E|w|^4 = 8/((n+1)(n+3)), and eta Haar in the complement of x*,
      independent of w.  For a product input psi = a kron b, each sector
      returns a share |w|^2 of its weight to its part of psi*, and psi* is
      again a product state.
    - The reflection is R = R_a kron R_b, and R_a, R_b are traceless when
      both factors are even.  The sector weights are (1 +- rho_a rho_b)/2
      with rho_a = <a|R_a|a>, rho_b = <b|R_b|b>.
    - The purity is of degree 2 in rho_a and in rho_b, and
      E rho_a^2 = 1/(d_a+1), E rho_b^2 = 1/(d_b+1); the Haar averages over
      eta, a and b are then exact.

    With an odd factor the reflection has a trace and the formula no longer
    holds, so odd factors raise ``ValueError``.
    """
    if d_a < 2 or d_b < 2 or d_a % 2 or d_b % 2:
        raise ValueError(f"offset is derived for even factors >= 2, got {d_a}x{d_b}")
    d = d_a * d_b
    n = (
        4 * d_a**4 * d_b**4 + 22 * d_a**3 * d_b**3 - 5 * d_a**4 * d_b**2 - 5 * d_a**2 * d_b**4
        + 32 * d_a**2 * d_b**2 - 18 * d_a**3 * d_b - 18 * d_a * d_b**3 + 56 * d_a * d_b
        - 8 * d_a**2 - 8 * d_b**2 + 32
    )
    return -Fraction(n, d * (d_a + 1) * (d_b + 1) * (d + 1) * (d + 2) ** 2 * (d + 6))


def test_symmetric_ensemble_offset_values():
    assert symmetric_ensemble_offset(2, 4) == Fraction(-12, 875)
    assert symmetric_ensemble_offset(4, 4) == Fraction(-3239, 504900)
    assert symmetric_ensemble_offset(8, 8) == Fraction(-4181, 6115824)
    assert symmetric_ensemble_offset(16, 16) == Fraction(-181051499, 3454143703104)
    for split in [(3, 4), (4, 3), (1, 2), (0, 4)]:
        with pytest.raises(ValueError):
            symmetric_ensemble_offset(*split)


@pytest.mark.parametrize("split", [(2, 4), (4, 4)])
def test_symmetric_ensemble_offset_matches_small_splits(split):
    # |delta| is 1.4e-2 at 2x4 and 6.4e-3 at 4x4, far above the Monte-Carlo
    # error of 400 maps x 50 states, so the closed form is checked here
    # independently of criterion 6
    part = bl.Bipartition(*split)
    values = bl.ensemble_entropies("symmetric", part.d, part, 400, 50, bl.RngStream(608))
    per_map = values.mean(axis=1)
    mean, se = per_map.mean(), per_map.std(ddof=1) / np.sqrt(len(per_map))
    cue = bl.cue_mean_entropy(part)
    expected = cue + float(symmetric_ensemble_offset(*split))
    assert abs(mean - expected) < 3.0 * se, f"{mean:.6f} vs {expected:.6f}, SE {se:.2g}"
    assert cue - mean > 3.0 * se, f"{mean:.6f} not below CUE {cue:.6f}, SE {se:.2g}"


def test_criterion_6_symmetric_ensemble_matches_cue():
    with criterion(6, "symmetric ensemble mean sits delta(8,8) below CUE at d=64 (200 maps x 200 states)"):
        part = bl.Bipartition(8, 8)
        n_maps, n_states = 200, 200

        def ensemble_mean(kind, seed):
            per_map = np.empty(n_maps)
            for m in range(n_maps):
                u = bl.sample_ensemble(kind, 64, bl.RngStream(seed, m))
                cols = np.column_stack(
                    [
                        bl.product_state(part, bl.RngStream(seed, n_maps + m * n_states + s))
                        for s in range(n_states)
                    ]
                )
                per_map[m] = bl.linear_entropies(u @ cols, part).mean()
            return per_map.mean(), per_map.std(ddof=1) / np.sqrt(n_maps)

        mean_sym, se_sym = ensemble_mean("symmetric", 606)
        mean_cue, se_cue = ensemble_mean("cue", 607)
        combined = float(np.hypot(se_sym, se_cue))
        delta = float(symmetric_ensemble_offset(8, 8))
        # the gate must tell delta from zero, or an ensemble without the
        # offset would pass too
        assert abs(delta) > 3.0 * combined, f"delta {delta:.3g} vs combined SE {combined:.2g}"
        assert abs((mean_sym - mean_cue) - delta) < 3.0 * combined, (
            f"symmetric {mean_sym:.6f} vs cue {mean_cue:.6f} (offset {delta:+.3g}), "
            f"combined SE {combined:.2g}"
        )


def test_criterion_7_commensurability():
    with criterion(7, "baker spectra are resonance-free; tensor products are not"):
        for d in (32, 64):
            report = bl.commensurability_check(bl.eigensystem(bl.baker(d)).phases, tol=1e-8)
            assert report.exhaustive
            assert report.violation_count == 0
        u = bl.kron(bl.sample_cue(8, bl.RngStream(700)), bl.sample_cue(8, bl.RngStream(701)))
        report = bl.commensurability_check(bl.eigensystem(u).phases, tol=1e-8)
        assert report.has_nontrivial_resonance


def test_criterion_8_property_suite(tmp_path):
    with criterion(8, "swap identity, entropy bounds, stationary eigenvectors, bit-reproducibility"):
        # swap identity: cross reductions agree between the two subsystems
        part = bl.Bipartition(3, 4)
        eig = bl.eigensystem(bl.baker(12))
        data = bl.ReducedEigenData.from_eigensystem(eig, part)
        for i, j in [(0, 1), (3, 8), (5, 11)]:
            rho_ij = bl.partial_trace(np.outer(eig.vectors[:, i], eig.vectors[:, j].conj()), part, "A")
            rho_ji = bl.partial_trace(np.outer(eig.vectors[:, j], eig.vectors[:, i].conj()), part, "A")
            assert float(np.trace(rho_ij @ rho_ji).real) == pytest.approx(
                np.trace(data.rho_b[i] @ data.rho_b[j]).real, abs=1e-10
            )

        # entropy range bounds on real samples
        part16 = bl.Bipartition(4, 4)
        samples = bl.empirical_asymptotic_distribution(bl.baker(16), part16, 10, 200, 20, bl.RngStream(808))
        assert (samples.value > -1e-12).all()
        assert (samples.value < 1.0 - 1.0 / 4 + 1e-12).all()
        power = bl.asymptotic_entangling_power(bl.eigensystem(bl.baker(16)), part16)
        assert 0.0 <= power.value <= 1.0 - 1.0 / 4

        # stationary eigenvector identity
        e_0 = bl.eigensystem(bl.baker(16)).vectors[:, 0]
        stationary = bl.asymptotic_entropy(bl.eigensystem(bl.baker(16)), e_0, part16)
        rho = bl.partial_trace(np.outer(e_0, e_0.conj()), part16, "A")
        assert stationary.value == pytest.approx(1.0 - float(np.trace(rho @ rho).real), abs=1e-10)

        # determinism: samplers are bit-stable ...
        assert np.array_equal(bl.haar_state(16, bl.RngStream(9, 9)), bl.haar_state(16, bl.RngStream(9, 9)))
        assert np.array_equal(bl.sample_cue(8, bl.RngStream(9, 1)), bl.sample_cue(8, bl.RngStream(9, 1)))
        assert np.array_equal(
            bl.sample_symmetric(8, bl.RngStream(9, 2)), bl.sample_symmetric(8, bl.RngStream(9, 2))
        )
        # ... and every seeded CLI artifact reruns byte-identically
        def run_twice(*argv):
            paths = [tmp_path / f"{abs(hash(argv))}_{i}.out" for i in (0, 1)]
            for p in paths:
                assert main([str(a) for a in argv] + ["--out", str(p)]) == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()

        run_twice("gen-map", "--kind", "baker", "--d", 16)
        run_twice(
            "timeseries", "--kind", "baker", "--d", 16, "--split", "4x4",
            "--states", 2, "--nmax", 10, "--seed", 13,
        )
        run_twice(
            "histogram", "--kind", "dmap", "--d", 16, "--split", "4x4",
            "--states", 2, "--nmin", 3, "--nmax", 12, "--seed", 13,
        )
        run_twice("epinf", "--kind", "baker", "--d", 16, "--split", "4x4", "--seed", 13)
