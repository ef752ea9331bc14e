import dataclasses
import functools
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

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


def patch_steps(monkeypatch, rows=None, rows_t=None):
    """Make every FFT step of the engine's kinds table call ``rows(psi, sign, work)``, its transposes ``rows_t``."""
    table = {kind: row if row.step is None else
             row._replace(step=functools.partial(rows or row.step.func, **row.step.keywords),
                          step_t=functools.partial(rows_t or row.step_t.func, **row.step_t.keywords))
             for kind, row in bl.maps._KINDS.items()}
    monkeypatch.setattr(bl.entropy, "_KINDS", table)


def local_pair(part, stream):
    gen_a = bl.sample_cue(part.d_a, stream)
    gen_b = bl.sample_cue(part.d_b, stream.offset(1))
    return bl.kron(gen_a, gen_b)


def entropy_timeseries(u, psi0, part, n_max):
    """Reference: linear entropy of ``u^n psi0`` for n = 1 .. n_max, one dense product per step, as a one-row grid."""
    u = bl.as_matrix(u)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if u.shape != (part.d, part.d):
        raise ValueError(f"map shape {u.shape} does not match split {part.d_a}x{part.d_b}")
    bl.assert_unitary(u, name="map")
    psi = np.asarray(psi0, dtype=complex)
    values = np.empty(n_max)
    for n in range(n_max):
        psi = u @ psi
        values[n] = bl.linear_entropies(psi[:, None], part)[0]
    return bl.EntropySamples(values[None])


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
            assert abs(bl.linear_entropies(psi[:, None], part)[0]) < 1e-12

    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
        assert bl.linear_entropies(psi[:, None], bl.Bipartition(2, 2))[0] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("d_a,d_b", [(2, 5), (4, 4), (3, 7)])
    def test_maximally_entangled(self, d_a, d_b):
        part = bl.Bipartition(d_a, d_b)
        m = min(d_a, d_b)
        psi = np.zeros(part.d, dtype=complex)
        for j in range(m):
            psi[j * d_b + j] = 1.0 / np.sqrt(m)
        assert bl.linear_entropies(psi[:, None], part)[0] == pytest.approx(1.0 - 1.0 / m, abs=1e-13)

    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (3, 9), (9, 3), (4, 7)])
    def test_agrees_with_partial_trace_path(self, d_a, d_b):
        part = bl.Bipartition(d_a, d_b)
        psi = bl.haar_state(part.d, bl.RngStream(6, d_a * 100 + d_b))
        assert bl.linear_entropies(psi[:, None], part)[0] == pytest.approx(
            entropy_via_partial_trace(psi, part), abs=1e-10
        )

    def test_invariant_under_subsystem_swap(self):
        part = bl.Bipartition(3, 4)
        psi = bl.haar_state(12, bl.RngStream(61))
        swapped = swap_subsystems(part) @ psi
        assert bl.linear_entropies(psi[:, None], part)[0] == pytest.approx(
            bl.linear_entropies(swapped[:, None], bl.Bipartition(part.d_b, part.d_a))[0], abs=1e-12
        )

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            bl.linear_entropies(np.ones(4)[:, None], bl.Bipartition(2, 2))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="shape"):
            bl.linear_entropies(np.array([1.0, 0.0])[:, None], bl.Bipartition(2, 2))

    def test_batch_matches_single(self):
        part = bl.Bipartition(4, 4)
        cols = np.column_stack([bl.haar_state(16, bl.RngStream(7, i)) for i in range(5)])
        batch = bl.linear_entropies(cols, part)
        singles = [bl.linear_entropies(cols[:, i:i + 1], part)[0] for i in range(5)]
        assert_allclose(batch, singles, atol=1e-13)

    def test_batch_rejects_unnormalized_columns(self):
        with pytest.raises(ValueError, match="normalized"):
            bl.linear_entropies(np.ones((4, 2)), bl.Bipartition(2, 2))

    def test_rejects_a_nan_column(self):
        cols = np.column_stack([bl.haar_state(4, bl.RngStream(8)), np.full(4, np.nan)])
        with pytest.raises(ValueError, match="normalized"):
            bl.linear_entropies(cols, bl.Bipartition(2, 2))


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
        ts = entropy_timeseries(np.eye(16), psi, part, 20)
        assert (np.abs(ts.values) < 1e-12).all()
        assert ts.values.shape == (1, 20) and ts.n_min == 1

    def test_local_map_generates_no_entanglement(self):
        part = bl.Bipartition(3, 4)
        u = local_pair(part, bl.RngStream(9))
        psi = bl.product_state(part, bl.RngStream(10))
        ts = entropy_timeseries(u, psi, part, 30)
        assert (np.abs(ts.values) < 1e-10).all()

    def test_baker_entropy_rises_to_a_plateau_below_the_random_mean(self):
        part = bl.Bipartition(16, 16)
        u = bl.baker(256)
        psi = bl.product_state(part, bl.RngStream(12))
        ts = entropy_timeseries(u, psi, part, 80)
        plateau = ts.values[0, 40:].mean()
        assert ts.values[0, 0] < plateau
        assert 0.75 < plateau < bl.cue_mean_entropy(part)

    def test_unitarity_is_enforced(self):
        part = bl.Bipartition(2, 2)
        psi = bl.product_state(part, bl.RngStream(1))
        with pytest.raises(np.linalg.LinAlgError):
            entropy_timeseries(np.diag([1.0, 1.0, 1.0, 0.5]), psi, part, 5)

    def test_rejects_bad_window(self):
        part = bl.Bipartition(2, 2)
        psi = bl.product_state(part, bl.RngStream(1))
        with pytest.raises(ValueError):
            entropy_timeseries(np.eye(4), psi, part, 0)


class TestEntropySamples:
    def test_grid_is_typed_and_read_only(self):
        samples = bl.EntropySamples([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], n_min=np.int64(5))
        assert [f.name for f in dataclasses.fields(samples)] == ["values", "n_min"]
        assert samples.values.dtype == np.float64 and samples.values.shape == (2, 3)
        assert samples.values.tolist() == [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]
        assert not samples.values.flags.writeable
        assert type(samples.n_min) is int and samples.n_min == 5
        assert len(samples) == 6
        assert bl.EntropySamples([[0.1]]).n_min == 1

    @pytest.mark.parametrize("values", [[0.1, 0.2], 0.1, [[[0.1]]], [[]], np.empty((0, 3))],
                             ids=["1-d", "0-d", "3-d", "no-steps", "no-states"])
    def test_rejects_anything_but_a_non_empty_grid(self, values):
        with pytest.raises(ValueError, match="grid"):
            bl.EntropySamples(values)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            bl.EntropySamples([[0.1, np.nan]])

    @pytest.mark.parametrize("n_min", [0, -1, 1.0, "1", None])
    def test_rejects_n_min_other_than_an_integer_of_at_least_one(self, n_min):
        with pytest.raises(ValueError, match="n_min"):
            bl.EntropySamples([[0.1]], n_min)


class TestEntanglingPowerMc:
    def test_local_map_has_zero_power(self):
        part = bl.Bipartition(3, 4)
        u = local_pair(part, bl.RngStream(14))
        mean, se = bl.asymptotic_power_mc(u, part, 20, 1, 1, bl.RngStream(15))
        assert abs(mean) < 1e-12

    def test_subsystem_swap_map_has_zero_power(self):
        part = bl.Bipartition(3, 3)
        mean, _ = bl.asymptotic_power_mc(swap_subsystems(part), part, 20, 1, 1, bl.RngStream(16))
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
                    total += wa * wb * bl.linear_entropies(u @ np.kron(a, b)[:, None], part)[0]
            return total

        exact = quadrature_power(4, 8)
        # quadrature self-consistency: higher orders change nothing
        assert quadrature_power(6, 12) == pytest.approx(exact, abs=1e-12)

        mean, se = bl.asymptotic_power_mc(u, part, 4000, 1, 1, bl.RngStream(41))
        assert abs(mean - exact) < 3.0 * se

    def test_deterministic(self):
        part = bl.Bipartition(4, 4)
        u = bl.baker(16)
        assert bl.asymptotic_power_mc(u, part, 50, 1, 1, bl.RngStream(42)) == bl.asymptotic_power_mc(
            u, part, 50, 1, 1, bl.RngStream(42)
        )

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="2 states"):
            bl.asymptotic_power_mc(np.eye(4), bl.Bipartition(2, 2), 1, 1, 1, bl.RngStream(1))


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
        assert (np.abs(samples.values) < 1e-12).all()

    def test_sample_layout_is_state_major(self):
        part = bl.Bipartition(2, 2)
        samples = bl.empirical_asymptotic_distribution(bl.baker(4), part, 5, 14, 3, bl.RngStream(19))
        assert samples.values.shape == (3, 10) and samples.n_min == 5

    # d = 16 takes the dense step; 256 and 300 (not a power of two) the FFT step
    @pytest.mark.parametrize("kind, d, d_a", [
        ("dmap", 16, 4),
        ("baker", 256, 16),
        ("dprime", 256, 16),
        ("baker", 300, 15),
        ("dprime", 300, 15),
    ])
    def test_matches_direct_timeseries(self, kind, d, d_a):
        part = bl.Bipartition(d_a, d // d_a)
        u = bl.make_map(kind, d)
        samples = bl.empirical_asymptotic_distribution(u, part, 4, 9, 2, bl.RngStream(20))
        for s in range(2):
            psi = bl.product_state(part, bl.RngStream(20, s))
            ts = entropy_timeseries(u, psi, part, 9)
            assert_allclose(samples.values[s], ts.values[0, 3:], atol=1e-12)

    def test_rejects_bad_window(self):
        part = bl.Bipartition(2, 2)
        with pytest.raises(ValueError):
            bl.empirical_asymptotic_distribution(np.eye(4), part, 5, 4, 2, bl.RngStream(1))


class TestTransformDispatch:
    """Which inputs ``empirical_asymptotic_distribution`` iterates by FFT."""

    @pytest.mark.parametrize("kind", ["baker", "dmap", "dprime"])
    @pytest.mark.parametrize("d", [bl.entropy._TRANSFORM_MIN_D, 300])
    def test_baker_family_takes_the_transform(self, kind, d):
        u = bl.make_map(kind, d)
        step = bl.entropy._transform_step(u)
        assert step is not None
        psi = bl.product_states(bl.Bipartition(2, d // 2), 3, bl.RngStream(21))
        assert_allclose(step(psi.T.copy()), (u @ psi).T, atol=1e-13)

    @pytest.mark.parametrize("kind", ["baker", "dmap", "dprime"])
    def test_built_map_matches_its_step_exactly(self, kind):
        d = bl.entropy._TRANSFORM_MIN_D
        u = bl.make_map(kind, d)
        step = bl.entropy._transform_step(u)
        assert step is bl.maps._KINDS[bl.MapKind(kind)].step
        rows = bl.entropy._GATE_ROWS
        figure = max(bl.max_abs(x - u[:, start:start + len(x)].T)
                     for start, x in bl.maps._unit_steps(step, d, range(0, d, rows), rows))
        assert figure == 0.0

    def test_other_inputs_take_the_dense_step(self, monkeypatch):
        d = bl.entropy._TRANSFORM_MIN_D
        assert bl.entropy._transform_step(bl.sample_cue(d, bl.RngStream(22))) is None
        assert bl.entropy._transform_step(bl.bbar(d)) is None

        def refuse(u):
            raise AssertionError("a matrix below _TRANSFORM_MIN_D or of odd d was offered to recognition")

        # B below _TRANSFORM_MIN_D, and an odd d above it, are iterated densely without being recognised
        monkeypatch.setattr(bl.entropy, "_transform_step", refuse)
        for u, part in ((bl.baker(d - 2), bl.Bipartition(2, 127)), (bl.baker(d // 2), bl.Bipartition(8, 16)),
                        (bl.sample_cue(261, bl.RngStream(22)), bl.Bipartition(9, 29))):
            samples = bl.empirical_asymptotic_distribution(u, part, 1, 3, 2, bl.RngStream(22))
            psi = bl.product_state(part, bl.RngStream(22, 1))
            assert_allclose(samples.values[1], entropy_timeseries(u, psi, part, 3).values[0], atol=1e-12)

    def test_map_one_phase_off_b_takes_the_dense_step(self):
        d = bl.entropy._TRANSFORM_MIN_D
        b = bl.baker(d)
        u = b * np.exp(1j * np.r_[np.zeros(d - 1), 1e-8])  # B diag(1, ..., 1, e^{i 1e-8})
        assert bl.unitarity_defect(u) < bl.UNITARY_TOL
        assert bl.max_abs(u - b) > bl.UNITARY_TOL
        assert bl.entropy._transform_step(u) is None
        part = bl.Bipartition(16, d // 16)
        samples = bl.empirical_asymptotic_distribution(u, part, 1, 3, 2, bl.RngStream(23))
        for s in range(2):
            psi = bl.product_state(part, bl.RngStream(23, s))
            assert_allclose(samples.values[s], entropy_timeseries(u, psi, part, 3).values[0], atol=1e-12)

    def test_one_phase_off_b_in_the_last_block_is_rejected(self):
        # the test above plants the phase in column d - 1, the first gate block;
        # column 0 is in the last one
        d = bl.entropy._TRANSFORM_MIN_D
        u = bl.baker(d) * np.exp(1j * np.r_[1e-8, np.zeros(d - 1)])
        assert bl.unitarity_defect(u) < bl.UNITARY_TOL
        assert bl.entropy._transform_step(u) is None

    def test_wrong_signs_are_refused_at_their_first_block(self, monkeypatch):
        # D' is the last candidate: B and D differ from it only in the second
        # half of the columns, which the first block covers, so each of them
        # costs one block and D' all of them
        d = bl.entropy._TRANSFORM_MIN_D
        u = bl.d_map(d, sign=-1)
        signs = []
        rows = bl.maps._baker_rows
        patch_steps(monkeypatch, lambda psi, sign, work=None: signs.append(sign) or rows(psi, sign, work))
        step = bl.entropy._transform_step(u)
        assert step is not None and step.keywords == {"sign": -1}
        assert signs == [0, +1] + [-1] * (d // bl.entropy._GATE_ROWS)


@pytest.fixture
def forced_blocks(monkeypatch):
    """Three workers, and blocks of any size: every FFT run with S >= 3 splits."""
    monkeypatch.setattr(bl.entropy, "_worker_count", lambda: 3)
    monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)


class TestBlockedIteration:
    """The FFT step iterates contiguous row blocks of states in threads."""

    @pytest.mark.parametrize("kind", ["baker", "dprime"])
    @pytest.mark.parametrize("d, d_a", [(256, 16), (300, 15)])
    def test_blocks_give_the_one_block_entropies(self, monkeypatch, kind, d, d_a):
        part = bl.Bipartition(d_a, d // d_a)
        u = bl.make_map(kind, d)

        def run(workers):
            monkeypatch.setattr(bl.entropy, "_worker_count", lambda: workers)
            assert bl.entropy._block_count(7, d) == workers  # 3 workers: blocks of 3, 2 and 2 states
            return bl.empirical_asymptotic_distribution(u, part, 3, 12, 7, bl.RngStream(24)).values

        monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)
        assert np.array_equal(run(1), run(3))

    @pytest.mark.parametrize("build", [
        lambda: bl.sample_cue(256, bl.RngStream(25)),  # no FFT step
        lambda: bl.baker(64),  # below _TRANSFORM_MIN_D
    ])
    def test_dense_step_never_blocks(self, monkeypatch, forced_blocks, build):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense step ran in a thread pool")

        monkeypatch.setattr(bl.entropy, "ThreadPoolExecutor", refuse)
        u = build()
        part = bl.Bipartition(8, u.shape[0] // 8)
        assert len(bl.empirical_asymptotic_distribution(u, part, 1, 2, 7, bl.RngStream(26))) == 14

    def test_worker_exception_propagates(self, monkeypatch, forced_blocks):
        step = bl.entropy._transform_step(bl.baker(256))

        def failing(rows, work=None):
            if rows.shape[0] == 2:  # the second and third of the blocks 3, 2, 2
                raise RuntimeError("step failed in a worker")
            return step(rows, work=work)

        monkeypatch.setattr(bl.entropy, "_transform_step", lambda u: failing)
        with pytest.raises(RuntimeError, match="in a worker"):
            bl.empirical_asymptotic_distribution(bl.baker(256), bl.Bipartition(16, 16), 1, 2, 7,
                                                 bl.RngStream(27))

    def test_more_workers_than_cores_with_a_short_switch_interval(self, monkeypatch):
        u, part = bl.baker(256), bl.Bipartition(16, 16)
        monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: 1)
        one = bl.empirical_asymptotic_distribution(u, part, 1, 20, 16, bl.RngStream(32)).values
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: 8)
        result = {}

        def run_eight():
            result["eight"] = bl.empirical_asymptotic_distribution(u, part, 1, 20, 16, bl.RngStream(32)).values

        caller = threading.Thread(target=run_eight, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert np.array_equal(one, result["eight"])

    def test_failure_wakes_an_idle_thread(self, monkeypatch):
        u, part = bl.baker(256), bl.Bipartition(16, 16)
        step = bl.entropy._transform_step(u)
        calls = []

        def late_failure(rows, work=None):  # the block of 3 fails after the block of 4 has finished
            if rows.shape[0] == 3:
                calls.append(1)
                time.sleep(0.002)
                if len(calls) == 20:
                    raise RuntimeError("late failure")
            return step(rows, work=work)

        monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: 2)
        monkeypatch.setattr(bl.entropy, "_transform_step", lambda u: late_failure)
        result = {}

        def run():
            try:
                bl.empirical_asymptotic_distribution(u, part, 1, 40, 7, bl.RngStream(34))
            except RuntimeError as exc:
                result["error"] = exc

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert "late failure" in str(result["error"])

    def test_drift_guard_sees_every_blocks_final_rows(self, monkeypatch):
        u, part = bl.baker(256), bl.Bipartition(16, 16)
        step = bl.entropy._transform_step(u)

        def last_block_grows(rows, work=None):  # only the block of 2 of the blocks 3, 3, 2 drifts
            step(rows, work=work)
            if rows.shape[0] == 2:
                rows *= 1 + 1e-9

        monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: 3)
        monkeypatch.setattr(bl.entropy, "_transform_step", lambda u: last_block_grows)
        with pytest.raises(np.linalg.LinAlgError, match="drifted"):
            bl.empirical_asymptotic_distribution(u, part, 1, 3, 8, bl.RngStream(36))

    def test_block_count_follows_cpus_and_block_size(self, monkeypatch):
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: 2)
        min_block = bl.entropy._MIN_BLOCK
        assert bl.entropy._block_count(1, 256) == 1
        assert bl.entropy._block_count(2 * min_block // 256 - 1, 256) == 1
        assert bl.entropy._block_count(2 * min_block // 256, 256) == 2
        assert bl.entropy._block_count(1000, 1024) == 2
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: 64)
        monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)
        assert bl.entropy._block_count(5, 256) == 5  # never more blocks than states

    def test_worker_count_reads_the_affinity_mask_else_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert bl.entropy._worker_count() == 2
        monkeypatch.delattr("os.sched_getaffinity")
        assert bl.entropy._worker_count() == 5


class TestNormDriftGuard:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_fires_on_a_step_that_grows_the_norm(self, monkeypatch, workers):
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: workers)
        monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)

        def grows(rows, work=None):
            rows *= 1 + 1e-9

        monkeypatch.setattr(bl.entropy, "_transform_step", lambda u: grows)
        with pytest.raises(np.linalg.LinAlgError, match="drifted"):  # a matrix is offered to recognition from d = 256
            bl.empirical_asymptotic_distribution(bl.baker(256), bl.Bipartition(16, 16), 1, 3, 5,
                                                 bl.RngStream(28))

    @pytest.mark.parametrize("d", [16, 256])
    def test_fires_on_a_nan_state(self, monkeypatch, d):
        # the dense step at d = 16, the FFT step at 256
        monkeypatch.setattr(bl.entropy, "product_state", lambda part, rng: np.full(part.d, np.nan, complex))
        with pytest.raises(np.linalg.LinAlgError, match="drifted by nan"):
            bl.empirical_asymptotic_distribution("baker", bl.Bipartition(4, d // 4), 1, 3, 2, bl.RngStream(28))

    @pytest.mark.parametrize("kind", [k.value for k in bl.MapKind])
    def test_passes_on_every_map(self, kind):
        part = bl.Bipartition(4, 4)
        samples = bl.empirical_asymptotic_distribution(bl.make_map(kind, 16), part, 1, 300, 4,
                                                       bl.RngStream(29))
        assert len(samples) == 4 * 300

    @pytest.mark.parametrize("kind", ["baker", "dmap", "dprime"])
    def test_passes_on_the_fft_step(self, forced_blocks, kind):
        samples = bl.empirical_asymptotic_distribution(bl.make_map(kind, 256), bl.Bipartition(16, 16),
                                                       1, 300, 4, bl.RngStream(30))
        assert len(samples) == 4 * 300


class TestBurnInJump:
    """n_min > 1: every state jumps to step n_min - 1 by one power of the map, when that is cheaper."""

    SPLITS = {64: (8, 8), 256: (16, 16), 300: (15, 20)}

    @staticmethod
    def count_jumps(monkeypatch):
        calls = []
        power = bl.entropy._matrix_power
        monkeypatch.setattr(bl.entropy, "_matrix_power", lambda base, m: calls.append(m) or power(base, m))
        return calls

    # B, D and D' take the FFT step at 256 and 300 and the dense one at 64;
    # the map file holds D as a matrix, which takes the FFT step once detected
    @pytest.mark.parametrize("name", ["baker", "dmap", "dprime", "bbar", "cue", "identity", "map-file"])
    @pytest.mark.parametrize("d", [64, 256, 300])
    @pytest.mark.parametrize("n_min", [2, 65, 513])
    def test_jump_equals_stepping(self, monkeypatch, tmp_path, name, d, n_min):
        part = bl.Bipartition(*self.SPLITS[d])
        if name == "cue":
            u = bl.sample_cue(d, bl.RngStream(50))
        elif name == "map-file":
            bl.save_cmatrix(tmp_path / "d.json", bl.d_map(d))
            u = bl.load_cmatrix(tmp_path / "d.json")
        else:
            u = name
        jumps = self.count_jumps(monkeypatch)

        def run(jump):
            monkeypatch.setattr(bl.entropy, "_jump_pays", lambda *args: jump)
            return bl.empirical_asymptotic_distribution(u, part, n_min, n_min + 3, 3, bl.RngStream(51))

        stepped = run(False)
        assert jumps == []
        jumped = run(True)
        assert jumps == [n_min - 1]
        assert jumped.n_min == stepped.n_min
        assert_allclose(jumped.values, stepped.values, rtol=0, atol=1e-12)

    # at d = 300 every product sums three runs of the inner dimension in two
    # blocks of rows (see entropy._product)
    @pytest.mark.parametrize("d, exponents", [(16, range(1, 40)), (300, (1, 2, 3, 6))])
    def test_matrix_power_matches_numpy(self, d, exponents):
        base = bl.sample_cue(d, bl.RngStream(52))
        for m in exponents:
            assert_allclose(bl.entropy._matrix_power(base, m), np.linalg.matrix_power(base, m),
                            rtol=0, atol=1e-13)

    def test_product_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS reads its thread count at start-up, so each count runs in
        # a process of its own; at d = 300 one GEMM gives other bits on one
        # thread than on two.  The engine run takes the dense step on B-bar
        code = ("import hashlib, numpy as np, bakerlab as bl, bakerlab.entropy as e; "
                "a = np.random.default_rng(62).standard_normal((300, 600)).view(complex); "
                "print(hashlib.sha256(e._product(a, a.T.copy(), np.empty_like(a)).tobytes()).hexdigest()); "
                "v = bl.empirical_asymptotic_distribution('bbar', bl.Bipartition(15, 20), 1, 20, 20, "
                "bl.RngStream(63)).values; "
                "print(hashlib.sha256(v.tobytes()).hexdigest())")
        src = str(Path(bl.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1

    def test_cost_rule(self):
        pays = bl.entropy._jump_pays
        assert pays(256, 100, 513, fft=True)  # the trajectory workload's d = 256 histogram
        assert pays(64, 100, 513, fft=False)  # the spectral workload's d = 64 cross-check
        assert not pays(1024, 50, 101, fft=True)  # the trajectory workload's d = 1024 histogram
        assert pays(512, 100, 513, fft=True) and not pays(2048, 100, 513, fft=True)
        assert not pays(256, 100, 1, fft=True)  # no burn-in
        assert not pays(64, 100, 2, fft=False)  # one step: the power is the map itself
        assert pays(1024, 50, 513, fft=False)  # a dense step costs d^2 per state
        assert not pays(1024, 50, 101, fft=False)

    @pytest.mark.parametrize("kind, d, d_a, states, n_min, jumps", [
        ("baker", 256, 16, 100, 513, True),
        ("baker", 64, 8, 100, 513, True),
        ("baker", 1024, 32, 50, 101, False),
        ("baker", 256, 16, 100, 1, False),
    ])
    def test_engine_follows_the_rule(self, monkeypatch, kind, d, d_a, states, n_min, jumps):
        calls = self.count_jumps(monkeypatch)
        part = bl.Bipartition(d_a, d // d_a)
        samples = bl.empirical_asymptotic_distribution(kind, part, n_min, n_min + 1, states, bl.RngStream(53))
        assert len(samples) == 2 * states
        assert calls == ([n_min - 1] if jumps else [])

    @pytest.mark.parametrize("u, dense", [("baker", False), (bl.baker(64), True)])
    def test_steps_when_the_squares_do_not_fit(self, monkeypatch, u, dense):
        d = 256 if isinstance(u, str) else 64
        n_states, n_min, window = 100, 513, 10
        part = bl.Bipartition(16 if d == 256 else 8, 16 if d == 256 else 8)
        need = 8 * n_states * window + 16 * (bl.entropy._BATCH_COPIES * n_states * d + (2 * d * d if dense else 0))
        squares = 16 * bl.entropy._JUMP_COPIES * d * d

        def physical_memory(nbytes):  # as that many 1-byte pages
            monkeypatch.setattr("os.sysconf", lambda name: nbytes if name == "SC_PHYS_PAGES" else 1)

        physical_memory(need + squares)
        assert bl.entropy._takes_jump(d, n_states, n_min, window, fft=not dense, dense=dense)
        physical_memory(need + squares - 1)  # a run that fits without the jump still runs, stepping
        assert not bl.entropy._takes_jump(d, n_states, n_min, window, fft=not dense, dense=dense)
        bl.entropy._check_memory(d, n_states, window, dense=dense)
        calls = self.count_jumps(monkeypatch)
        samples = bl.empirical_asymptotic_distribution(u, part, n_min, n_min + window - 1, n_states,
                                                       bl.RngStream(54))
        assert len(samples) == n_states * window and calls == []
        physical_memory(need - 1)
        with pytest.raises(ValueError, match="physical memory"):
            bl.entropy._check_memory(d, n_states, window, dense=dense)

    @pytest.mark.parametrize("kind", ["baker", "dprime"])
    def test_jumped_samples_are_the_same_at_any_worker_count(self, monkeypatch, kind):
        calls = self.count_jumps(monkeypatch)
        monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)
        monkeypatch.setattr(bl.entropy, "_jump_pays", lambda *args: True)

        def run(workers):
            monkeypatch.setattr(bl.entropy, "_worker_count", lambda: workers)
            return bl.empirical_asymptotic_distribution(kind, bl.Bipartition(16, 16), 513, 520, 7,
                                                        bl.RngStream(55)).values

        assert np.array_equal(run(1), run(3))
        assert calls == [512, 512]


class TestAllocationFreeStep:
    """The FFT step, its gate and the entropy reduction run in caller-owned buffers."""

    @pytest.mark.parametrize("sign", [0, +1, -1])
    def test_step_writes_its_result_over_the_input(self, sign):
        d = 300
        u = bl.maps._baker_family(d, sign)
        x = bl.product_states(bl.Bipartition(2, d // 2), 5, bl.RngStream(56)).T.copy()
        rows, work = x.copy(), np.empty_like(x)
        assert bl.maps._baker_rows(rows, sign, work) is rows
        assert_allclose(rows, x @ u.T, rtol=0, atol=1e-14)
        rows = x.copy()
        assert bl.maps._baker_rows_t(rows, sign, work) is rows
        assert_allclose(rows, x @ u, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (16, 16), (8, 32), (32, 8), (15, 20)])
    def test_buffered_reduction_has_the_bits_of_linear_entropies(self, d_a, d_b):
        part = bl.Bipartition(d_a, d_b)
        rows = bl.product_states(part, 9, bl.RngStream(57)).T.copy()
        rows = (rows @ bl.sample_cue(part.d, bl.RngStream(58)).T).copy()  # entangled states
        out = np.empty(9)
        got = bl.entropy._batch_entropy(rows, part, bl.entropy._entropy_buffers(9, part), out)
        assert got is out
        assert np.array_equal(out, bl.linear_entropies(rows.T, part))

    @pytest.mark.parametrize("kind, sign", [("baker", 0), ("dmap", +1), ("dprime", -1)])
    @pytest.mark.parametrize("d", [256, 300])
    def test_gate_figure_is_the_same_at_any_thread_count(self, monkeypatch, kind, sign, d):
        step = functools.partial(bl.maps._baker_rows, sign=sign)
        step_t = functools.partial(bl.maps._baker_rows_t, sign=sign)
        figures = []
        for workers in (1, 2, 3, 64):
            monkeypatch.setattr(bl.entropy, "_worker_count", lambda: workers)
            figures.append(bl.entropy._assert_unitary_step(step, step_t, d))
        assert figures == [figures[0]] * 4

    def test_gate_runs_on_every_worker(self, monkeypatch):
        # ThreadPoolExecutor gives a share to a worker that is already idle, so
        # a fast gate could finish on two threads; each thread's first step
        # waits until three step at once (a gate on fewer breaks the barrier)
        threads = set()
        barrier = threading.Barrier(3, timeout=10)

        def step(psi, sign, work=None):
            if threading.get_ident() not in threads:
                threads.add(threading.get_ident())
                barrier.wait()
            return bl.maps._baker_rows(psi, sign, work)

        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: 3)
        bl.entropy._assert_unitary_step(functools.partial(step, sign=0),
                                        functools.partial(bl.maps._baker_rows_t, sign=0), 256)
        assert len(threads) == 3


class TestMemoryPreflight:
    @pytest.mark.parametrize("n_max, n_states", [(10**15, 2), (2, 10**15)])
    def test_refuses_before_any_allocation(self, monkeypatch, n_max, n_states):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the preflight")

        for name in ("assert_unitary", "product_state", "_transform_step"):
            monkeypatch.setattr(bl.entropy, name, refuse)
        with pytest.raises(ValueError, match="physical memory"):
            bl.empirical_asymptotic_distribution(bl.baker(16), bl.Bipartition(4, 4), 1, n_max, n_states,
                                                 bl.RngStream(31))

    def test_estimate_counts_samples_batches_and_gates(self, monkeypatch):
        need = 8 * 3 * 10 + 16 * (bl.entropy._BATCH_COPIES * 3 * 16 + 2 * 16 * 16)

        def physical_memory(nbytes):  # as that many 1-byte pages
            monkeypatch.setattr("os.sysconf", lambda name: nbytes if name == "SC_PHYS_PAGES" else 1)

        physical_memory(need)
        bl.entropy._check_memory(16, 3, 10)
        physical_memory(need - 1)
        with pytest.raises(ValueError, match="physical memory"):
            bl.entropy._check_memory(16, 3, 10)

    @pytest.mark.parametrize("kind", ["bbar", "identity", "fourier"])
    def test_a_built_map_is_counted(self, monkeypatch, kind):
        # the engine builds these kinds: the map and the unitarity gate's two
        # temporaries are three d x d arrays, so a host with less memory than
        # the run's peak refuses it
        d, n_states, window = 512, 4, 3

        def run():
            return bl.empirical_asymptotic_distribution(kind, bl.Bipartition(16, 32), 1, window, n_states,
                                                        bl.RngStream(60))

        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr("os.sysconf", lambda name: peak - 1 if name == "SC_PHYS_PAGES" else 1)
        with pytest.raises(ValueError, match="physical memory"):
            run()
        assert bl.entropy._memory_need(d, n_states, window, dense=True, built=True) < 1.1 * peak


class TestMatrixFreeKinds:
    """B, D and D' given by kind at d >= 256: iterated and gated by FFT, never built."""

    @staticmethod
    def refuse(monkeypatch, *names):
        def refused(*args, **kwargs):
            raise AssertionError("a dense map was built or gated")

        for name in names:
            monkeypatch.setattr(bl.entropy, name, refused)

    @pytest.mark.parametrize("kind", ["baker", "dmap", "dprime"])
    @pytest.mark.parametrize("d, d_a", [(256, 16), (300, 15), (1024, 32)])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_samples_equal_the_dense_run(self, monkeypatch, kind, d, d_a, workers):
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: workers)
        monkeypatch.setattr(bl.entropy, "_MIN_BLOCK", 1)
        part = bl.Bipartition(d_a, d // d_a)
        dense = bl.empirical_asymptotic_distribution(bl.make_map(kind, d), part, 2, 6, 5, bl.RngStream(41))
        by_kind = bl.empirical_asymptotic_distribution(kind, part, 2, 6, 5, bl.RngStream(41))
        assert np.array_equal(by_kind.values, dense.values)
        assert by_kind.n_min == dense.n_min

    @pytest.mark.parametrize("kind", ["baker", "dmap", bl.MapKind.DPRIME])
    @pytest.mark.parametrize("d, d_a", [(256, 16), (300, 15)])
    def test_never_builds_or_gates_a_matrix(self, monkeypatch, kind, d, d_a):
        self.refuse(monkeypatch, "make_map", "assert_unitary", "_transform_step")
        samples = bl.empirical_asymptotic_distribution(kind, bl.Bipartition(d_a, d // d_a), 1, 3, 2,
                                                       bl.RngStream(42))
        assert len(samples) == 6

    @pytest.mark.parametrize("kind, d, d_a", [("bbar", 256, 16), ("identity", 256, 16), ("baker", 64, 8),
                                              ("dmap", 64, 8)])
    def test_other_kinds_and_small_d_build_the_map(self, monkeypatch, kind, d, d_a):
        seen = []

        def recorded(name):
            original = getattr(bl.entropy, name)

            def call(*args, **kwargs):
                seen.append(name)
                return original(*args, **kwargs)

            return call

        for name in ("make_map", "assert_unitary"):
            monkeypatch.setattr(bl.entropy, name, recorded(name))
        part = bl.Bipartition(d_a, d // d_a)
        by_kind = bl.empirical_asymptotic_distribution(kind, part, 1, 3, 2, bl.RngStream(43))
        assert seen == ["make_map", "assert_unitary"]
        dense = bl.empirical_asymptotic_distribution(bl.make_map(kind, d), part, 1, 3, 2, bl.RngStream(43))
        assert np.array_equal(by_kind.values, dense.values)

    @pytest.mark.parametrize("kind", [k.value for k in bl.MapKind])
    @pytest.mark.parametrize("d", [64, 256])
    def test_a_kind_never_reaches_recognition(self, monkeypatch, kind, d):
        # B, D and D' at 256 take their row's step; every other kind, and any kind at 64, is built and stepped densely
        self.refuse(monkeypatch, "_transform_step")
        part = bl.Bipartition(16, d // 16)
        by_kind = bl.empirical_asymptotic_distribution(kind, part, 1, 2, 2, bl.RngStream(43))
        monkeypatch.undo()
        dense = bl.empirical_asymptotic_distribution(bl.make_map(kind, d), part, 1, 2, 2, bl.RngStream(43))
        assert np.array_equal(by_kind.values, dense.values)

    def test_odd_dimension_is_refused_by_the_map_builder(self):
        with pytest.raises(ValueError, match="even dimension"):
            bl.empirical_asymptotic_distribution("baker", bl.Bipartition(15, 17), 1, 2, 2, bl.RngStream(44))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_scaled_step_fails_the_unitarity_gate(self, monkeypatch, workers):
        monkeypatch.setattr(bl.entropy, "_worker_count", lambda: workers)
        step = bl.maps._baker_rows
        patch_steps(monkeypatch, lambda psi, sign, work=None: step(psi, sign, work) * (1 + 2 * bl.UNITARY_TOL))
        with pytest.raises(np.linalg.LinAlgError, match=r"not unitary: max \|U U\^dag - 1\| = 2\.00\de-10"):
            bl.empirical_asymptotic_distribution("baker", bl.Bipartition(16, 16), 1, 2, 2, bl.RngStream(45))

    @pytest.mark.parametrize("kind", ["baker", "dprime"])
    def test_corrupted_column_fails_the_gate_with_the_dense_figure(self, monkeypatch, kind):
        d, col, eps = 256, 77, 1e-7
        scale = np.ones(d)
        scale[col] += eps  # B' = B diag(scale): column 77 of B scaled by 1 + eps
        corrupted = bl.make_map(kind, d) * scale
        dense = bl.unitarity_defect(corrupted)
        assert dense > bl.UNITARY_TOL
        step, step_t = bl.maps._baker_rows, bl.maps._baker_rows_t
        patch_steps(monkeypatch, lambda psi, sign, work=None: step(psi * scale, sign, work),
                    lambda psi, sign, work=None: step_t(psi, sign, work) * scale)
        part = bl.Bipartition(16, 16)
        with pytest.raises(np.linalg.LinAlgError, match="not unitary") as err:
            bl.empirical_asymptotic_distribution(kind, part, 1, 2, 2, bl.RngStream(46))
        figure = float(str(err.value).split("= ")[1].split()[0])
        assert figure == pytest.approx(dense, rel=1e-3)
        with pytest.raises(np.linalg.LinAlgError, match="not unitary"):  # the dense gate agrees
            bl.empirical_asymptotic_distribution(corrupted, part, 1, 2, 2, bl.RngStream(46))

    @pytest.mark.parametrize("kind, sign", [("baker", 0), ("dmap", +1), ("dprime", -1)])
    @pytest.mark.parametrize("d", [256, 300])
    def test_gate_figure_is_the_size_of_the_dense_defect(self, kind, sign, d):
        figure = bl.entropy._assert_unitary_step(functools.partial(bl.maps._baker_rows, sign=sign),
                                                 functools.partial(bl.maps._baker_rows_t, sign=sign), d)
        dense = bl.unitarity_defect(bl.make_map(kind, d))
        assert 0 < figure < 8 * dense < 1e-13

    def test_peak_memory_stays_below_one_dense_map(self):
        d, part = 1024, bl.Bipartition(32, 32)
        dense_map = 16 * d * d

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: bl.empirical_asymptotic_distribution("baker", part, 1, 3, 4,
                                                                 bl.RngStream(47))) < dense_map
        # the control: the same run from a dense map holds it and the gate's product
        assert peak(lambda: bl.empirical_asymptotic_distribution(bl.baker(d), part, 1, 3, 4,
                                                                 bl.RngStream(47))) > 2 * dense_map

    def test_preflight_holds_no_square_term(self, monkeypatch):
        d, n_states, window = 256, 3, 10
        need = 8 * n_states * window + 16 * bl.entropy._BATCH_COPIES * n_states * d
        monkeypatch.setattr("os.sysconf", lambda name: need if name == "SC_PHYS_PAGES" else 1)
        part = bl.Bipartition(16, 16)
        assert len(bl.empirical_asymptotic_distribution("baker", part, 1, window, n_states,
                                                        bl.RngStream(48))) == n_states * window
        with pytest.raises(ValueError, match="physical memory"):  # a matrix adds its gate temporaries
            bl.empirical_asymptotic_distribution(bl.baker(d), part, 1, window, n_states, bl.RngStream(48))
        bl.entropy._check_memory(d, n_states, window, dense=False)
        monkeypatch.setattr("os.sysconf", lambda name: need - 1 if name == "SC_PHYS_PAGES" else 1)
        with pytest.raises(ValueError, match="physical memory"):
            bl.entropy._check_memory(d, n_states, window, dense=False)

    def test_preflight_refuses_before_the_gate(self, monkeypatch):
        self.refuse(monkeypatch, "make_map", "_assert_unitary_step", "product_state")
        with pytest.raises(ValueError, match="physical memory"):
            bl.empirical_asymptotic_distribution("baker", bl.Bipartition(16, 16), 1, 10**15, 2,
                                                 bl.RngStream(49))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_phases(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bl.commensurability_check(np.array([0.1, bad, 2.0]))

    def test_rejects_complex_phases(self):
        # eigenvalues passed for phases would otherwise be scanned as cos(phi)
        eigenvalues = np.exp(1j * np.array([0.1, 1.3, 2.0]))
        with pytest.raises(ValueError, match="phases must be real"):
            bl.commensurability_check(eigenvalues)


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


def reference_resonance_scan(phases, tol):
    """The scan before its trivial partners were counted on the diagonal rows alone.

    Builds per-row arrays of length d^2 (rows, diag, diag_before, trivial,
    nontrivial, cum); kept to pin the slimmer scan to the same output.
    """
    cap = bl.entropy.MAX_RESONANCE_EXAMPLES
    d = phases.size
    n_pairs = d * d
    diff = np.mod(phases[:, None] - phases[None, :], 2 * np.pi).ravel()
    order = np.argsort(diff, kind="stable")
    ds = diff[order]
    ext = np.concatenate([ds, ds + 2 * np.pi])
    rows = np.arange(n_pairs)
    ends = np.searchsorted(ext, ds + tol, side="left")
    partners = ends - rows - 1
    diag = order % (d + 1) == 0
    diag_before = np.concatenate([[0], np.cumsum(np.tile(diag, 2))])
    trivial = np.where(diag, diag_before[ends] - diag_before[rows + 1], 0)
    nontrivial = partners - trivial
    count = int(nontrivial.sum())
    cum = np.cumsum(nontrivial)
    last = min(int(np.searchsorted(cum, cap)), n_pairs - 1)
    sel = np.nonzero(nontrivial[: last + 1])[0]
    take = np.minimum(partners[sel], cap + trivial[sel])
    i = np.repeat(sel, take)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(take) - take, take)
    k, l = np.divmod(order[i], d)
    n, m = np.divmod(order[j % n_pairs], d)
    keep = np.nonzero(~((k == l) & (n == m)))[0][:cap]
    residual = ext[j] - ds[i]
    return count, tuple((int(k[t]), int(l[t]), int(m[t]), int(n[t]), float(residual[t])) for t in keep)


@functools.lru_cache(maxsize=None)
def scan_phase_sets():
    sets = dict(oracle_phase_sets())
    sets["baker-512"] = bl.eigensystem(bl.baker(512)).phases
    sets["cue8-x-cue16"] = bl.eigensystem(
        bl.kron(bl.sample_cue(8, bl.RngStream(24)), bl.sample_cue(16, bl.RngStream(25)))
    ).phases
    sets["d1"] = np.array([1.0])
    sets["d2"] = np.array([0.25, 4.0])
    # every k = l row meets its trivial partners before its nontrivial ones
    sets["clustered-64"] = 1.0 + 1e-12 * np.arange(64)
    sets["zeros-64"] = np.zeros(64)
    return sets


class TestResonanceScanReference:
    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-3, 0.3])
    @pytest.mark.parametrize("name", ["baker-512", "cue8-x-cue16", "d1", "d2", "clustered-64", "zeros-64",
                                      *sorted(oracle_phase_sets())])
    def test_matches_the_full_length_scan(self, name, tol):
        phases = np.mod(scan_phase_sets()[name], 2 * np.pi)
        assert bl.entropy._exhaustive_resonance_scan(phases, tol) == reference_resonance_scan(phases, tol)

    @pytest.mark.parametrize("tol", [1e-8, 0.99])
    def test_peak_memory_per_phase_pair(self, tol):
        # the sorted differences, their wrap-around head, the sort permutation
        # and the partner counts: one copy of the differences, not two
        d = 512
        phases = np.random.default_rng(5).uniform(0, 2 * np.pi, d)
        tracemalloc.start()
        try:
            bl.entropy._exhaustive_resonance_scan(phases, tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 34 * d * d


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
                lhs = np.trace(data.rho_a[i] @ data.rho_a[j]).real
                assert lhs == pytest.approx(float(np.trace(rho_i @ rho_j).real), abs=1e-11)

    def test_gram_matrices_are_symmetric(self):
        part = bl.Bipartition(4, 4)
        for g in dense_grams(bl.eigensystem(bl.d_map(16)), part):
            assert bl.max_abs(g - g.T) < 1e-12

    @pytest.mark.parametrize("d, split", [(512, (16, 32)), (256, (2, 128))])
    def test_row_products_match_the_complex_product(self, d, split):
        part = bl.Bipartition(*split)
        data = bl.ReducedEigenData.from_eigensystem(bl.eigensystem(bl.baker(d)), part)
        for rho in (data.rho_a, data.rho_b):
            x = bl.entropy._rows(rho)
            rows = rho.reshape(d, -1)
            assert bl.max_abs(x @ x.T - (rows @ rows.conj().T).real) < 1e-15

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
            assert lhs == pytest.approx(np.trace(data.rho_b[i] @ data.rho_b[j]).real, abs=1e-10)

    def test_rejects_dimension_mismatch(self):
        eig = bl.eigensystem(bl.baker(12))
        with pytest.raises(ValueError, match="does not match"):
            bl.ReducedEigenData.from_eigensystem(eig, bl.Bipartition(4, 4))

    def test_holds_only_the_reductions(self):
        data = bl.ReducedEigenData.from_eigensystem(bl.eigensystem(bl.baker(16)), bl.Bipartition(4, 4))
        assert {name for name in dir(data) if not name.startswith("_")} == {"rho_a", "rho_b", "from_eigensystem"}
        assert not data.rho_a.flags.writeable and not data.rho_b.flags.writeable

    @pytest.mark.parametrize("column", [0, 5])
    def test_rejects_a_nan_eigenvector(self, column):
        # the hermiticity figure keeps a nan that comes after a finite block's
        eig = bl.eigensystem(bl.baker(8))
        vectors = eig.vectors.copy()
        vectors[:, column] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="hermiticity/trace"):
            bl.ReducedEigenData.from_eigensystem(bl.EigenSystem(eig.phases, vectors), bl.Bipartition(2, 4))


def dense_gram_power(eig, part):
    """e_p(inf) from the two d x d Gram matrices, summed whole."""
    g_a, g_b = dense_grams(eig, part)
    d, dp = part.d, part.d_prime
    s = g_a + g_b
    diag_term = float(np.sum(np.diagonal(g_a) ** 2))
    off_term = float(np.sum(s**2) - np.sum(np.diagonal(s) ** 2))
    return (d + 1) / dp - 2.0 * diag_term / (d * dp) - off_term / (d * dp)


def dense_grams(eig, part):
    """The d x d Gram matrices ``Re(R R^dag)`` of the rows ``R[i] = rho[i].ravel()``, for rho_a and rho_b."""
    data = bl.ReducedEigenData.from_eigensystem(eig, part)
    rows = (data.rho_a.reshape(part.d, -1), data.rho_b.reshape(part.d, -1))
    return [(r @ r.conj().T).real for r in rows]


def dense_gram_entropy(eig, psi, part):
    """asymptotic_entropy's formula on the two d x d Gram matrices."""
    g_a, g_b = dense_grams(eig, part)
    p = np.abs(eig.vectors.conj().T @ psi) ** 2
    s = g_a + g_b
    return 1.0 - np.dot(p**2, np.diagonal(g_a)) - (p @ s @ p - np.dot(p**2, np.diagonal(s)))


def spectral_source(source):
    """The map named ``kind-d``: a built kind, ``cue-d`` or ``kron-32`` (CUE_4 x CUE_8)."""
    name, d = source.split("-")
    if name == "cue":
        return bl.sample_cue(int(d), bl.RngStream(71))
    if name == "kron":
        return bl.kron(bl.sample_cue(4, bl.RngStream(72)), bl.sample_cue(8, bl.RngStream(73)))
    return bl.make_map(name, int(d))


#: the maps and splits the state and averaged formulas are checked on
#: against the dense Grams: B, Bbar and D at four splits, a CUE matrix whose
#: d = 200 joins a remainder to the last block of 128, and a tensor product
SPECTRAL_CASES = [
    *((f"{kind}-{d}", split) for kind in ("baker", "bbar", "dmap")
      for d, split in ((64, (8, 8)), (256, (16, 16)), (256, (2, 128)), (512, (16, 32)))),
    ("cue-200", (10, 20)),
    ("kron-32", (4, 8)),
]


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
            ts = entropy_timeseries(u, e_k, part, 5)
            assert_allclose(ts.values, result.value, atol=1e-10)

    @pytest.mark.parametrize("build", [bl.baker, bl.d_map])
    def test_matches_long_time_average(self, build):
        part = bl.Bipartition(4, 4)
        u = build(16)
        psi = bl.product_state(part, bl.RngStream(26))
        predicted = bl.asymptotic_entropy(bl.eigensystem(u), psi, part)
        assert not predicted.assumptions_violated
        ts = entropy_timeseries(u, psi, part, 11_000)
        observed = ts.values[0, 1000:].mean()
        # late-time averages drift at the per-mille level over finite windows
        assert abs(observed - predicted.value) < 2e-3

    def test_rejects_unnormalized_state(self):
        part = bl.Bipartition(4, 4)
        eig = bl.eigensystem(bl.baker(16))
        with pytest.raises(ValueError, match="normalized"):
            bl.asymptotic_entropy(eig, np.ones(16), part)

    def test_rejects_a_nan_state(self):
        eig = bl.eigensystem(bl.baker(16))
        with pytest.raises(ValueError, match="normalized"):
            bl.asymptotic_entropy(eig, np.full(16, np.nan), bl.Bipartition(4, 4))

    @pytest.mark.parametrize("source, split", SPECTRAL_CASES)
    def test_matches_the_dense_grams(self, source, split):
        part = bl.Bipartition(*split)
        eig = bl.eigensystem(spectral_source(source))
        for seed in (81, 82):
            psi = bl.product_state(part, bl.RngStream(seed))
            value = bl.asymptotic_entropy(eig, psi, part).value
            assert value == pytest.approx(dense_gram_entropy(eig, psi, part), abs=1e-12)

    def test_forms_no_d_by_d_array(self):
        d, part = 512, bl.Bipartition(16, 32)
        eig = bl.eigensystem(bl.baker(d))
        reduced = bl.ReducedEigenData.from_eigensystem(eig, part)
        resonance = bl.commensurability_check(eig.phases)
        psi = bl.product_state(part, bl.RngStream(83))
        tracemalloc.start()
        try:
            bl.asymptotic_entropy(eig, psi, part, reduced=reduced, resonance=resonance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 16 * d * d  # a tenth of one complex d x d array


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

    @pytest.mark.parametrize("source, split", SPECTRAL_CASES)
    def test_blocked_sums_match_the_dense_grams(self, source, split):
        # the sums run over row blocks of 128 (and a remainder joined to the
        # last block at d = 200), never forming a d x d Gram
        part = bl.Bipartition(*split)
        eig = bl.eigensystem(spectral_source(source))
        power = bl.asymptotic_entangling_power(eig, part)
        assert power.value == pytest.approx(dense_gram_power(eig, part), abs=1e-12)

    def test_formula_forms_no_d_by_d_array(self):
        d, part = 512, bl.Bipartition(16, 32)
        eig = bl.eigensystem(bl.baker(d))
        reduced = bl.ReducedEigenData.from_eigensystem(eig, part)
        resonance = bl.commensurability_check(eig.phases)
        tracemalloc.start()
        try:
            bl.asymptotic_entangling_power(eig, part, reduced=reduced, resonance=resonance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * d  # one real d x d array; two blocks of 128 rows take half that

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
        m0, s0 = bl.asymptotic_power_mc(u, part, 800, 1, 1, bl.RngStream(32))
        m1, s1 = bl.asymptotic_power_mc(v @ u @ w, part, 800, 1, 1, bl.RngStream(33))
        assert abs(m0 - m1) < 4.0 * np.hypot(s0, s1)

    def test_invariant_under_subsystem_swap(self):
        part = bl.Bipartition(3, 4)
        u = bl.baker(12)
        s = swap_subsystems(part)
        direct = bl.asymptotic_entangling_power(bl.eigensystem(u), part)
        relabeled = bl.asymptotic_entangling_power(bl.eigensystem(s @ u @ s.conj().T),
                                                   bl.Bipartition(part.d_b, part.d_a))
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
