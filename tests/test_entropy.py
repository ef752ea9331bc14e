import numpy as np
import pytest
from numpy.testing import assert_allclose

import bakerlab as bl


def swap_subsystems(part):
    """Permutation matrix sending index j_a * d_b + j_b to j_b * d_a + j_a."""
    d = part.d
    s = np.zeros((d, d), dtype=complex)
    for ja in range(part.d_a):
        for jb in range(part.d_b):
            s[jb * part.d_a + ja, ja * part.d_b + jb] = 1.0
    return s


def local_pair(part, stream):
    gen_a = bl.sample_cue(part.d_a, stream)
    gen_b = bl.sample_cue(part.d_b, stream.offset(1))
    return bl.kron(gen_a, gen_b)


def entropy_via_partial_trace(psi, part):
    """Independent path: S_L from the full reduced density matrix."""
    rho = np.outer(psi, psi.conj())
    rho_b = bl.partial_trace(rho, part, "B")
    return 1.0 - float(np.trace(rho_b @ rho_b).real)


class TestLinearEntropy:
    def test_product_states_have_zero_entropy(self):
        for split in [(2, 2), (3, 4), (4, 3)]:
            part = bl.Bipartition(*split)
            psi = bl.product_state(part, bl.RngStream(1, split[0] * split[1]))
            assert abs(bl.linear_entropy(psi, part)) < 1e-12

    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
        assert bl.linear_entropy(psi, bl.Bipartition(2, 2)) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("d_a,d_b", [(2, 5), (4, 4), (3, 7)])
    def test_maximally_entangled(self, d_a, d_b):
        part = bl.Bipartition(d_a, d_b)
        m = min(d_a, d_b)
        psi = np.zeros(part.d, dtype=complex)
        for j in range(m):
            psi[j * d_b + j] = 1.0 / np.sqrt(m)
        assert bl.linear_entropy(psi, part) == pytest.approx(1.0 - 1.0 / m, abs=1e-13)

    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (3, 9), (9, 3), (4, 7)])
    def test_agrees_with_partial_trace_path(self, d_a, d_b):
        part = bl.Bipartition(d_a, d_b)
        psi = bl.haar_state(part.d, bl.RngStream(6, d_a * 100 + d_b))
        assert bl.linear_entropy(psi, part) == pytest.approx(entropy_via_partial_trace(psi, part), abs=1e-10)

    def test_invariant_under_subsystem_swap(self):
        part = bl.Bipartition(3, 4)
        psi = bl.haar_state(12, bl.RngStream(61))
        swapped = swap_subsystems(part) @ psi
        assert bl.linear_entropy(psi, part) == pytest.approx(
            bl.linear_entropy(swapped, part.swapped()), abs=1e-12
        )

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            bl.linear_entropy(np.ones(4), bl.Bipartition(2, 2))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="shape"):
            bl.linear_entropy(np.array([1.0, 0.0]), bl.Bipartition(2, 2))

    def test_batch_matches_single(self):
        part = bl.Bipartition(4, 4)
        cols = np.column_stack([bl.haar_state(16, bl.RngStream(7, i)) for i in range(5)])
        batch = bl.linear_entropies(cols, part)
        singles = [bl.linear_entropy(cols[:, i], part) for i in range(5)]
        assert_allclose(batch, singles, atol=1e-13)

    def test_batch_rejects_unnormalized_columns(self):
        with pytest.raises(ValueError, match="normalized"):
            bl.linear_entropies(np.ones((4, 2)), bl.Bipartition(2, 2))


class TestCueMeanEntropy:
    @pytest.mark.parametrize(
        "d_a,d_b,expected",
        [
            (2, 2, 1.0 / 5.0),
            (16, 16, 225.0 / 257.0),
            (14, 17, 208.0 / 239.0),
            (9, 18, 136.0 / 163.0),
        ],
    )
    def test_known_values(self, d_a, d_b, expected):
        assert bl.cue_mean_entropy(bl.Bipartition(d_a, d_b)) == pytest.approx(expected, rel=1e-14)


class TestEntropyTimeseries:
    def test_identity_map_keeps_product_states_unentangled(self):
        part = bl.Bipartition(4, 4)
        psi = bl.product_state(part, bl.RngStream(2))
        ts = bl.entropy_timeseries(np.eye(16), psi, part, 20)
        assert (np.abs(ts.value) < 1e-12).all()
        assert np.array_equal(ts.time_step, np.arange(1, 21))
        assert (ts.state_id == 0).all()

    def test_local_map_generates_no_entanglement(self):
        part = bl.Bipartition(3, 4)
        u = local_pair(part, bl.RngStream(9))
        psi = bl.product_state(part, bl.RngStream(10))
        ts = bl.entropy_timeseries(u, psi, part, 30)
        assert (np.abs(ts.value) < 1e-10).all()

    def test_baker_entropy_rises_to_a_plateau_below_the_random_mean(self):
        part = bl.Bipartition(16, 16)
        u = bl.baker(256)
        psi = bl.product_state(part, bl.RngStream(12))
        ts = bl.entropy_timeseries(u, psi, part, 80, state_id=3)
        plateau = ts.value[40:].mean()
        assert ts.value[0] < plateau
        assert 0.75 < plateau < bl.cue_mean_entropy(part)
        assert (ts.state_id == 3).all()

    def test_unitarity_is_enforced(self):
        part = bl.Bipartition(2, 2)
        psi = bl.product_state(part, bl.RngStream(1))
        with pytest.raises(np.linalg.LinAlgError):
            bl.entropy_timeseries(np.diag([1.0, 1.0, 1.0, 0.5]), psi, part, 5)

    def test_rejects_bad_window(self):
        part = bl.Bipartition(2, 2)
        psi = bl.product_state(part, bl.RngStream(1))
        with pytest.raises(ValueError):
            bl.entropy_timeseries(np.eye(4), psi, part, 0)


class TestEntropySamples:
    def test_rows_iterate_typed_tuples(self):
        samples = bl.EntropySamples(
            state_id=np.array([0, 0, 1]),
            time_step=np.array([1, 2, 1]),
            value=np.array([0.1, 0.2, 0.3]),
        )
        rows = list(samples.rows())
        assert rows[0] == bl.EntropySample(0, 1, 0.1)
        assert len(samples) == 3

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            bl.EntropySamples(np.array([0]), np.array([1, 2]), np.array([0.1]))

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            bl.EntropySamples(np.array([0]), np.array([1]), np.array([np.nan]))


class TestEntanglingPowerMc:
    def test_local_map_has_zero_power(self):
        part = bl.Bipartition(3, 4)
        u = local_pair(part, bl.RngStream(14))
        mean, se = bl.entangling_power_mc(u, part, 20, bl.RngStream(15))
        assert abs(mean) < 1e-12

    def test_subsystem_swap_map_has_zero_power(self):
        part = bl.Bipartition(3, 3)
        mean, _ = bl.entangling_power_mc(swap_subsystems(part), part, 20, bl.RngStream(16))
        assert abs(mean) < 1e-12

    def test_matches_quadrature_oracle_on_qubit_pair(self):
        # exact product-state average on 2x2: Gauss-Legendre in each Bloch
        # colatitude (the integrand is polynomial in u of low degree) and a
        # trapezoid rule in each azimuth (exact for trigonometric polynomials)
        part = bl.Bipartition(2, 2)
        u = bl.sample_cue(4, bl.RngStream(40))

        def bloch_states(n_u, n_phi):
            nodes, weights = np.polynomial.legendre.leggauss(n_u)
            out = []
            for x, w in zip(nodes, weights):
                for phi in 2.0 * np.pi * np.arange(n_phi) / n_phi:
                    amp = np.array(
                        [np.sqrt((1 + x) / 2), np.sqrt((1 - x) / 2) * np.exp(1j * phi)]
                    )
                    out.append((w / (2.0 * n_phi), amp))
            return out

        def quadrature_power(n_u, n_phi):
            total = 0.0
            for wa, a in bloch_states(n_u, n_phi):
                for wb, b in bloch_states(n_u, n_phi):
                    total += wa * wb * bl.linear_entropy(u @ np.kron(a, b), part)
            return total

        exact = quadrature_power(4, 8)
        # quadrature self-consistency: higher orders change nothing
        assert quadrature_power(6, 12) == pytest.approx(exact, abs=1e-12)

        mean, se = bl.entangling_power_mc(u, part, 4000, bl.RngStream(41))
        assert abs(mean - exact) < 3.0 * se

    def test_deterministic(self):
        part = bl.Bipartition(4, 4)
        u = bl.baker(16)
        assert bl.entangling_power_mc(u, part, 50, bl.RngStream(42)) == bl.entangling_power_mc(
            u, part, 50, bl.RngStream(42)
        )

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="2 samples"):
            bl.entangling_power_mc(np.eye(4), bl.Bipartition(2, 2), 1, bl.RngStream(1))


class TestEnsembleEntropies:
    def test_cue_mean_matches_random_state_mean(self):
        part = bl.Bipartition(4, 4)
        values = bl.ensemble_entropies("cue", 16, part, 200, 100, bl.RngStream(50))
        assert values.shape == (200, 100)
        per_map = values.mean(axis=1)
        se = per_map.std(ddof=1) / np.sqrt(per_map.size)
        assert abs(per_map.mean() - bl.cue_mean_entropy(part)) < 4.0 * se

    def test_stream_layout(self):
        # map m on stream m, its whole state batch on stream n_maps + m
        part = bl.Bipartition(2, 4)
        rng = bl.RngStream(51, 7)
        values = bl.ensemble_entropies("symmetric", 8, part, 3, 5, rng)
        for m in range(3):
            u = bl.sample_symmetric(8, rng.offset(m))
            cols = bl.product_states(part, 5, rng.offset(3 + m))
            assert np.array_equal(values[m], bl.linear_entropies(u @ cols, part))

    @pytest.mark.parametrize("n_maps,n_states", [(0, 3), (3, 0)])
    def test_rejects_empty_runs(self, n_maps, n_states):
        with pytest.raises(ValueError):
            bl.ensemble_entropies("cue", 4, bl.Bipartition(2, 2), n_maps, n_states, bl.RngStream(1))

    def test_rejects_split_mismatch(self):
        with pytest.raises(ValueError, match="multiply"):
            bl.ensemble_entropies("cue", 8, bl.Bipartition(2, 2), 1, 1, bl.RngStream(1))


class TestEmpiricalAsymptoticDistribution:
    def test_identity_map_keeps_initial_entropies(self):
        part = bl.Bipartition(2, 2)
        samples = bl.empirical_asymptotic_distribution(np.eye(4), part, 3, 7, 4, bl.RngStream(18))
        assert len(samples) == 4 * 5
        assert (np.abs(samples.value) < 1e-12).all()

    def test_sample_layout_is_state_major(self):
        part = bl.Bipartition(2, 2)
        samples = bl.empirical_asymptotic_distribution(bl.baker(4), part, 5, 14, 3, bl.RngStream(19))
        assert np.array_equal(samples.state_id, np.repeat(np.arange(3), 10))
        assert np.array_equal(samples.time_step, np.tile(np.arange(5, 15), 3))

    def test_matches_direct_timeseries(self):
        part = bl.Bipartition(4, 4)
        u = bl.d_map(16)
        samples = bl.empirical_asymptotic_distribution(u, part, 4, 9, 2, bl.RngStream(20))
        for s in range(2):
            psi = bl.product_state(part, bl.RngStream(20, s))
            ts = bl.entropy_timeseries(u, psi, part, 9)
            got = samples.value.reshape(2, 6)[s]
            assert_allclose(got, ts.value[3:], atol=1e-12)

    def test_rejects_bad_window(self):
        part = bl.Bipartition(2, 2)
        with pytest.raises(ValueError):
            bl.empirical_asymptotic_distribution(np.eye(4), part, 5, 4, 2, bl.RngStream(1))


class TestCommensurability:
    @pytest.mark.parametrize("d", [16, 32])
    def test_baker_phases_are_resonance_free(self, d):
        eig = bl.eigensystem(bl.baker(d))
        report = bl.commensurability_check(eig.phases)
        assert report.exhaustive
        assert report.checked == d**4
        assert report.violation_count == 0
        assert not report.has_nontrivial_resonance

    def test_tensor_product_spectrum_resonates(self):
        u = local_pair(bl.Bipartition(4, 4), bl.RngStream(23))
        phases = bl.eigensystem(u).phases
        report = bl.commensurability_check(phases)
        assert report.has_nontrivial_resonance
        assert report.violation_count > 0
        assert len(report.violations) > 0
        for k, l, m, n, residual in report.violations:
            # examples must be genuine and nontrivial
            assert not (k == l and m == n)
            assert not (k == n and l == m)
            delta = phases[k] - phases[l] + phases[m] - phases[n]
            circ = abs((delta + np.pi) % (2 * np.pi) - np.pi)
            assert circ < report.tol
            assert residual == pytest.approx(circ, abs=1e-12)

    def test_degenerate_phases_resonate(self):
        report = bl.commensurability_check(np.array([0.3, 1.1, 1.1, 2.5]))
        assert report.has_nontrivial_resonance

    def test_identity_spectrum_is_fully_resonant(self):
        report = bl.commensurability_check(np.zeros(4))
        assert report.violation_count > 0

    def test_single_phase_is_trivially_clean(self):
        report = bl.commensurability_check(np.array([1.0]))
        assert report.violation_count == 0
        assert report.checked == 1

    def test_tensor_resonances_found_above_64(self):
        u = bl.kron(bl.sample_cue(8, bl.RngStream(24)), bl.sample_cue(16, bl.RngStream(25)))
        phases = bl.eigensystem(u).phases
        report = bl.commensurability_check(phases)
        assert report.exhaustive
        assert report.checked == 128**4
        assert report.has_nontrivial_resonance

    def test_scan_above_64_is_deterministic(self):
        phases = bl.eigensystem(bl.baker(128)).phases
        a = bl.commensurability_check(phases)
        b = bl.commensurability_check(phases)
        assert a == b
        assert a.exhaustive
        assert a.checked == 128**4
        assert a.violation_count == 0

    def test_count_grows_with_tolerance(self):
        phases = bl.eigensystem(bl.baker(32)).phases
        loose = bl.commensurability_check(phases, tol=1e-2)
        tight = bl.commensurability_check(phases, tol=1e-12)
        assert loose.violation_count >= tight.violation_count
        assert loose.violation_count > 0  # 1e-2 is far above the typical phase spacing

    def test_report_serializes(self):
        report = bl.commensurability_check(np.array([0.1, 0.1, 2.0]))
        obj = report.to_dict()
        assert obj["violation_count"] == report.violation_count
        assert obj["exhaustive"] is True
        assert isinstance(obj["examples"], list)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            bl.commensurability_check(np.array([0.1, 0.2]), tol=0.0)


def brute_force_collisions(phases, tol):
    """Nontrivial unordered collisions of ordered phase-difference pairs, in O(d^4).

    Ordered pairs ``(k, l)`` and ``(n, m)`` collide when their differences
    agree within ``tol`` on the circle, i.e. ``phi_k - phi_l + phi_m - phi_n``
    is within ``tol`` of a multiple of 2 pi.  Returns a dict keyed by
    ``frozenset({(k, l), (n, m)})`` holding the circular residual.
    """
    d = len(phases)
    pairs = [(k, l) for k in range(d) for l in range(d)]
    out = {}
    for p in pairs:
        for q in pairs:
            if p == q or (p[0] == p[1] and q[0] == q[1]):
                continue  # the same pair, or two trivially equal zero differences
            delta = phases[p[0]] - phases[p[1]] - (phases[q[0]] - phases[q[1]])
            circ = abs((delta + np.pi) % (2 * np.pi) - np.pi)
            if circ < tol:
                out[frozenset((p, q))] = circ
    return out


def oracle_phase_sets():
    gen = np.random.default_rng(2024)
    planted = gen.uniform(0, 2 * np.pi, 6)
    planted[3] = planted[0] - planted[1] + planted[2]  # phi_0 - phi_1 + phi_2 - phi_3 = 0
    degenerate = gen.uniform(0, 2 * np.pi, 7)
    degenerate[4] = degenerate[1]
    wrapped = gen.uniform(0, 2 * np.pi, 5)
    wrapped[:2] = [0.0, 2 * np.pi - 3e-9]  # a difference within tol of 2 pi
    return {
        "random-5": gen.uniform(0, 2 * np.pi, 5),
        "random-8": gen.uniform(0, 2 * np.pi, 8),
        "planted": planted,
        "degenerate": degenerate,
        "wrapped": wrapped,
        "zeros": np.zeros(8),
    }


class TestResonanceScanOracle:
    @pytest.mark.parametrize("tol", [1e-8, 1e-1])
    @pytest.mark.parametrize("name", sorted(oracle_phase_sets()))
    def test_matches_brute_force(self, name, tol):
        phases = oracle_phase_sets()[name]
        oracle = brute_force_collisions(phases, tol)
        report = bl.commensurability_check(phases, tol=tol)
        assert report.checked == len(phases) ** 4
        assert report.violation_count == len(oracle)
        assert len(report.violations) == min(len(oracle), bl.entropy.MAX_RESONANCE_EXAMPLES)
        seen = set()
        for k, l, m, n, residual in report.violations:
            key = frozenset(((k, l), (n, m)))
            assert key in oracle
            assert key not in seen
            seen.add(key)
            assert residual == pytest.approx(oracle[key], abs=1e-12)

    def test_oracle_cases_are_not_vacuous(self):
        sets = oracle_phase_sets()
        for name in ("planted", "degenerate", "wrapped", "zeros"):
            assert len(brute_force_collisions(sets[name], 1e-8)) > 0, name
        assert len(brute_force_collisions(sets["random-8"], 1e-8)) == 0
        assert len(brute_force_collisions(sets["random-8"], 1e-1)) > 0
        assert len(brute_force_collisions(sets["zeros"], 1e-8)) > bl.entropy.MAX_RESONANCE_EXAMPLES


class TestReducedEigenData:
    def test_grams_match_partial_trace_oracle(self):
        part = bl.Bipartition(3, 4)
        eig = bl.eigensystem(bl.baker(12))
        data = bl.ReducedEigenData.from_eigensystem(eig, part)
        for i in (0, 5, 11):
            rho_i = bl.partial_trace(np.outer(eig.vectors[:, i], eig.vectors[:, i].conj()), part, "A")
            assert_allclose(data.rho_a[i], rho_i, atol=1e-12)
            for j in (0, 5, 11):
                rho_j = bl.partial_trace(np.outer(eig.vectors[:, j], eig.vectors[:, j].conj()), part, "A")
                assert data.gram_a[i, j] == pytest.approx(float(np.trace(rho_i @ rho_j).real), abs=1e-11)

    def test_gram_matrices_are_symmetric(self):
        part = bl.Bipartition(4, 4)
        data = bl.ReducedEigenData.from_eigensystem(bl.eigensystem(bl.d_map(16)), part)
        assert bl.max_abs(data.gram_a - data.gram_a.T) < 1e-12
        assert bl.max_abs(data.gram_b - data.gram_b.T) < 1e-12

    def test_swap_identity_for_cross_reductions(self):
        # tr_A(rho_A^{ij} rho_A^{ji}) equals tr_B(rho_B^i rho_B^j)
        part = bl.Bipartition(3, 4)
        eig = bl.eigensystem(bl.baker(12))
        data = bl.ReducedEigenData.from_eigensystem(eig, part)
        for i, j in [(0, 1), (2, 7), (4, 11)]:
            e_i, e_j = eig.vectors[:, i], eig.vectors[:, j]
            rho_a_ij = bl.partial_trace(np.outer(e_i, e_j.conj()), part, "A")
            rho_a_ji = bl.partial_trace(np.outer(e_j, e_i.conj()), part, "A")
            lhs = float(np.trace(rho_a_ij @ rho_a_ji).real)
            assert lhs == pytest.approx(data.gram_b[i, j], abs=1e-10)

    def test_rejects_dimension_mismatch(self):
        eig = bl.eigensystem(bl.baker(12))
        with pytest.raises(ValueError, match="does not match"):
            bl.ReducedEigenData.from_eigensystem(eig, bl.Bipartition(4, 4))


class TestAsymptoticEntropy:
    def test_eigenvectors_are_stationary(self):
        part = bl.Bipartition(4, 4)
        u = bl.baker(16)
        eig = bl.eigensystem(u)
        for k in (0, 7, 15):
            e_k = eig.vectors[:, k]
            result = bl.asymptotic_entropy(eig, e_k, part)
            assert result.value == pytest.approx(entropy_via_partial_trace(e_k, part), abs=1e-10)
            # and the entropy really is constant in time
            ts = bl.entropy_timeseries(u, e_k, part, 5)
            assert_allclose(ts.value, result.value, atol=1e-10)

    @pytest.mark.parametrize("build", [bl.baker, bl.d_map])
    def test_matches_long_time_average(self, build):
        part = bl.Bipartition(4, 4)
        u = build(16)
        psi = bl.product_state(part, bl.RngStream(26))
        predicted = bl.asymptotic_entropy(bl.eigensystem(u), psi, part)
        assert not predicted.assumptions_violated
        ts = bl.entropy_timeseries(u, psi, part, 11_000)
        observed = ts.value[1000:].mean()
        # late-time averages drift at the per-mille level over finite windows
        assert abs(observed - predicted.value) < 2e-3

    def test_rejects_unnormalized_state(self):
        part = bl.Bipartition(4, 4)
        eig = bl.eigensystem(bl.baker(16))
        with pytest.raises(ValueError, match="normalized"):
            bl.asymptotic_entropy(eig, np.ones(16), part)


class TestAsymptoticEntanglingPower:
    def test_regression_value_for_baker_16(self):
        # golden value pinned from this implementation; guards refactors
        part = bl.Bipartition(4, 4)
        power = bl.asymptotic_entangling_power(bl.eigensystem(bl.baker(16)), part)
        assert power.value == pytest.approx(0.5002991129346521, abs=1e-12)
        assert not power.assumptions_violated
        assert float(power) == power.value

    def test_matches_explicit_double_sum(self):
        # independent slow path built from partial traces only
        part = bl.Bipartition(4, 4)
        u = bl.d_map(16)
        eig = bl.eigensystem(u)
        d, dp = part.d, part.d_prime
        rho_a = [
            bl.partial_trace(np.outer(eig.vectors[:, i], eig.vectors[:, i].conj()), part, "A")
            for i in range(d)
        ]
        rho_b = [
            bl.partial_trace(np.outer(eig.vectors[:, i], eig.vectors[:, i].conj()), part, "B")
            for i in range(d)
        ]
        diag_sum = sum(float(np.trace(r @ r).real) ** 2 for r in rho_a)
        off_sum = 0.0
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                s_ij = float(np.trace(rho_a[i] @ rho_a[j]).real + np.trace(rho_b[i] @ rho_b[j]).real)
                off_sum += s_ij**2
        expected = (d + 1) / dp - 2.0 * diag_sum / (d * dp) - off_sum / (d * dp)
        power = bl.asymptotic_entangling_power(eig, part)
        assert power.value == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_average(self):
        part = bl.Bipartition(4, 4)
        u = bl.baker(16)
        spectral = bl.asymptotic_entangling_power(bl.eigensystem(u), part)
        mc_mean, mc_se = bl.asymptotic_power_mc(u, part, 150, 513, 1012, bl.RngStream(27))
        assert abs(spectral.value - mc_mean) < 3.0 * mc_se

    def test_invariant_under_local_conjugation(self):
        part = bl.Bipartition(4, 4)
        u = bl.baker(16)
        locals_ = local_pair(part, bl.RngStream(28))
        conjugated = locals_ @ u @ locals_.conj().T
        a = bl.asymptotic_entangling_power(bl.eigensystem(u), part)
        b = bl.asymptotic_entangling_power(bl.eigensystem(conjugated), part)
        assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_single_application_power_invariant_under_two_sided_locals(self):
        # one application of (V U W) on product input entangles exactly like U
        part = bl.Bipartition(3, 3)
        u = bl.sample_cue(9, bl.RngStream(29))
        v = local_pair(part, bl.RngStream(30))
        w = local_pair(part, bl.RngStream(31))
        m0, s0 = bl.entangling_power_mc(u, part, 800, bl.RngStream(32))
        m1, s1 = bl.entangling_power_mc(v @ u @ w, part, 800, bl.RngStream(33))
        assert abs(m0 - m1) < 4.0 * np.hypot(s0, s1)

    def test_invariant_under_subsystem_swap(self):
        part = bl.Bipartition(3, 4)
        u = bl.baker(12)
        s = swap_subsystems(part)
        direct = bl.asymptotic_entangling_power(bl.eigensystem(u), part)
        relabeled = bl.asymptotic_entangling_power(bl.eigensystem(s @ u @ s.conj().T), part.swapped())
        assert direct.value == pytest.approx(relabeled.value, abs=1e-10)

    def test_tensor_product_map_is_flagged(self):
        part = bl.Bipartition(4, 4)
        u = local_pair(part, bl.RngStream(34))
        power = bl.asymptotic_entangling_power(bl.eigensystem(u), part)
        assert power.assumptions_violated
        assert power.resonance.violation_count > 0

    def test_values_stay_in_entropy_range(self):
        for u, split in [(bl.baker(16), (4, 4)), (bl.d_map(16), (4, 4)), (bl.bbar(16), (4, 4))]:
            part = bl.Bipartition(*split)
            power = bl.asymptotic_entangling_power(bl.eigensystem(u), part)
            assert 0.0 <= power.value <= 1.0 - 1.0 / min(split)

    def test_asymptotic_power_mc_needs_two_states(self):
        with pytest.raises(ValueError, match="2 states"):
            bl.asymptotic_power_mc(bl.baker(16), bl.Bipartition(4, 4), 1, 10, 20, bl.RngStream(1))
