import errno
import json
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bakerlab as bl
from bakerlab.cli import (
    _REFERENCE_CHUNK,
    _REFERENCE_STREAM_BASE,
    PROFILES,
    _write_json,
    build_parser,
    main,
    parse_split,
)
from bakerlab.entropy import _FIXED_BYTES, _STAGES


def run(*argv):
    return main([str(a) for a in argv])


class TestGenMap:
    def test_writes_loadable_baker(self, tmp_path):
        out = tmp_path / "b8.json"
        assert run("gen-map", "--kind", "baker", "--d", 8, "--out", out) == 0
        assert np.array_equal(bl.load_cmatrix(out), bl.baker(8))

    def test_reflection_is_the_antidiagonal_permutation(self, tmp_path):
        out = tmp_path / "r4.json"
        assert run("gen-map", "--kind", "reflection", "--d", 4, "--out", out) == 0
        m = bl.load_cmatrix(out)
        for j in range(4):
            assert m[3 - j, j] == 1.0
        assert np.count_nonzero(m) == 4

    def test_odd_dimension_is_a_config_error(self, tmp_path, capsys):
        assert run("gen-map", "--kind", "baker", "--d", 7, "--out", tmp_path / "x.json") == 2
        assert "even" in capsys.readouterr().err

    def test_unknown_kind_is_a_config_error(self, tmp_path):
        assert run("gen-map", "--kind", "tent", "--d", 8, "--out", tmp_path / "x.json") == 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen-map", "--kind", "dmap", "--d", 16, "--out", a)
        run("gen-map", "--kind", "dmap", "--d", 16, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestTimeseries:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "ts.csv"
        rc = run(
            "timeseries", "--kind", "baker", "--d", 16, "--split", "4x4",
            "--states", 3, "--nmax", 12, "--seed", 5, "--out", out,
        )
        assert rc == 0
        samples, metadata = bl.read_entropy_csv(out)
        assert len(samples) == 3 * 12
        assert metadata["kind"] == "baker"
        assert metadata["seed"] == "5"
        assert samples.values.shape == (3, 12) and samples.n_min == 1

    def test_identity_map_gives_zero_column(self, tmp_path):
        out = tmp_path / "id.csv"
        rc = run(
            "timeseries", "--kind", "identity", "--d", 16, "--split", "4x4",
            "--states", 2, "--nmax", 6, "--out", out,
        )
        assert rc == 0
        samples, _ = bl.read_entropy_csv(out)
        assert (np.abs(samples.values) < 1e-12).all()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["timeseries", "--kind", "dmap", "--d", 16, "--split", "4x4",
                "--states", 2, "--nmax", 8, "--seed", 9]
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_split_must_multiply_to_d(self, tmp_path, capsys):
        rc = run("timeseries", "--kind", "baker", "--d", 16, "--split", "4x5",
                 "--states", 1, "--nmax", 2, "--out", tmp_path / "x.csv")
        assert rc == 2
        assert "does not multiply" in capsys.readouterr().err

    def test_malformed_split_is_a_config_error(self, tmp_path):
        rc = run("timeseries", "--kind", "baker", "--d", 16, "--split", "16",
                 "--states", 1, "--nmax", 2, "--out", tmp_path / "x.csv")
        assert rc == 2

    def test_a_nan_state_is_a_numerical_failure(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("bakerlab.entropy.product_state", lambda part, rng: np.full(part.d, np.nan, complex))
        rc = run("timeseries", "--kind", "baker", "--d", 16, "--split", "4x4",
                 "--states", 2, "--nmax", 3, "--out", tmp_path / "x.csv")
        assert rc == 3
        assert "drifted by nan" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestHistogram:
    def test_report_schema_and_counts(self, tmp_path):
        out = tmp_path / "h.json"
        rc = run(
            "histogram", "--kind", "baker", "--d", 16, "--split", "4x4",
            "--states", 4, "--nmin", 5, "--nmax", 24, "--bins", 10,
            "--seed", 3, "--out", out,
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert sum(report["counts"]) == 4 * 20 == report["n_samples"]
        assert report["metadata"]["seed"] == 3
        assert report["cue_mean_entropy"] == pytest.approx(9.0 / 17.0)
        assert report["cue_reference"] is None
        summary = bl.HistogramSummary.from_dict(report)  # validates internally
        assert summary.n_samples == 80

    def test_raw_csv_matches_jsons_sample_count(self, tmp_path):
        out, raw = tmp_path / "h.json", tmp_path / "raw.csv"
        rc = run(
            "histogram", "--kind", "dmap", "--d", 16, "--split", "4x4",
            "--states", 3, "--nmin", 2, "--nmax", 11, "--seed", 4,
            "--raw-csv", raw, "--out", out,
        )
        assert rc == 0
        samples, _ = bl.read_entropy_csv(raw)
        assert len(samples) == json.loads(out.read_text())["n_samples"]
        assert samples.values.shape == (3, 10) and samples.n_min == 2

    def test_cue_reference_block(self, tmp_path):
        out = tmp_path / "h.json"
        rc = run(
            "histogram", "--kind", "baker", "--d", 16, "--split", "4x4",
            "--states", 2, "--nmin", 2, "--nmax", 6, "--cue-reference", 25,
            "--out", out,
        )
        assert rc == 0
        ref = json.loads(out.read_text())["cue_reference"]
        assert ref["n_samples"] == 25
        assert sum(ref["counts"]) == 25

    def test_cue_reference_is_drawn_a_chunk_per_stream(self, tmp_path):
        # layout 2: chunk c holds references c * _REFERENCE_CHUNK onward, drawn
        # as one batch from stream _REFERENCE_STREAM_BASE + c
        n, part = _REFERENCE_CHUNK + 5, bl.Bipartition(4, 4)
        out = tmp_path / "h.json"
        assert run("histogram", "--kind", "baker", "--d", 16, "--split", "4x4", "--states", 2, "--nmin", 2,
                   "--nmax", 6, "--cue-reference", n, "--seed", 7, "--out", out) == 0
        ref = json.loads(out.read_text())["cue_reference"]
        assert ref["metadata"] == {"samples": n, "reference_layout": 2}
        streams = [bl.RngStream(7, _REFERENCE_STREAM_BASE + c) for c in range(2)]
        values = np.concatenate([bl.linear_entropies(bl.ensembles._haar_rows(s.generator(), size, 16).T, part)
                                 for s, size in zip(streams, [_REFERENCE_CHUNK, 5])])
        assert ref == bl.HistogramSummary.from_values(values, 50, ref["metadata"]).to_dict()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["histogram", "--kind", "baker", "--d", 8, "--split", "2x4",
                "--states", 2, "--nmin", 2, "--nmax", 9, "--seed", 11]
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEnsemble:
    def test_small_cue_run(self, tmp_path):
        out = tmp_path / "e.json"
        rc = run(
            "ensemble", "--ensemble", "cue", "--d", 8, "--split", "2x4",
            "--samples", 3, "--states", 5, "--seed", 6, "--bins", 8, "--out", out,
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n_samples"] == 15
        assert report["metadata"]["ensemble"] == "cue"
        assert report["mean_std_error"] > 0

    def test_single_map_single_state(self, tmp_path):
        out = tmp_path / "e.json"
        rc = run(
            "ensemble", "--ensemble", "symmetric", "--d", 8, "--split", "2x4",
            "--samples", 1, "--states", 1, "--out", out,
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n_samples"] == 1
        assert sum(report["counts"]) == 1
        assert report["mean_std_error"] is None

    def test_reruns_are_byte_identical_and_record_the_stream_layout(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["ensemble", "--ensemble", "symmetric", "--d", 8, "--split", "2x4",
                "--samples", 4, "--states", 6, "--seed", 12]
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["metadata"]["stream_layout"] == 2
        values = bl.ensemble_entropies("symmetric", 8, bl.Bipartition(2, 4), 4, 6, bl.RngStream(12))
        assert report["mean"] == float(values.mean())

    @pytest.mark.parametrize("samples,states", [(0, 3), (3, 0)])
    def test_empty_run_is_a_config_error(self, tmp_path, samples, states):
        rc = run(
            "ensemble", "--ensemble", "cue", "--d", 4, "--split", "2x2",
            "--samples", samples, "--states", states, "--out", tmp_path / "x.json",
        )
        assert rc == 2
        assert not (tmp_path / "x.json").exists()

    def test_symmetric_needs_even_dimension(self, tmp_path):
        rc = run(
            "ensemble", "--ensemble", "symmetric", "--d", 9, "--split", "3x3",
            "--samples", 1, "--states", 1, "--out", tmp_path / "x.json",
        )
        assert rc == 2


class TestEpinf:
    def test_baker_16_report(self, tmp_path):
        out = tmp_path / "ep.json"
        rc = run("epinf", "--kind", "baker", "--d", 16, "--split", "4x4", "--out", out)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["entangling_power_asymptotic"] == pytest.approx(0.5002991129346521, abs=1e-9)
        assert report["assumptions_violated"] is False
        assert report["resonance"]["exhaustive"] is True
        assert report["eigensolver"]["max_residual"] < 1e-8
        assert report["cue_mean_entropy"] == pytest.approx(9.0 / 17.0)

    def test_cross_check_block(self, tmp_path):
        out = tmp_path / "ep.json"
        rc = run(
            "epinf", "--kind", "baker", "--d", 16, "--split", "4x4",
            "--cross-check", "--states", 40, "--nmin", 200, "--nmax", 500,
            "--seed", 8, "--out", out,
        )
        assert rc == 0
        cc = json.loads(out.read_text())["cross_check"]
        assert cc["n_states"] == 40
        assert cc["mc_std_error"] > 0
        assert cc["abs_difference"] < 0.05

    def test_map_file_with_tensor_product_is_flagged(self, tmp_path):
        u = bl.kron(bl.sample_cue(4, bl.RngStream(50)), bl.sample_cue(4, bl.RngStream(51)))
        map_path = tmp_path / "local.json"
        bl.save_cmatrix(map_path, u)
        out = tmp_path / "ep.json"
        rc = run("epinf", "--map-file", map_path, "--split", "4x4", "--out", out)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["assumptions_violated"] is True
        assert report["resonance"]["violation_count"] > 0

    def test_requires_kind_or_file(self, tmp_path, capsys):
        assert run("epinf", "--split", "4x4", "--out", tmp_path / "x.json") == 2
        assert "map-file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        pytest.param(["epinf", "--split", "4x4", "--d", 16, "--map-file"], "--d 16 conflicts", id="epinf-d"),
        pytest.param(["epinf", "--split", "2x3", "--map-file"], "non-square 2x3", id="epinf-non-square"),
        pytest.param(["spectrum-check"], "non-square 2x3", id="spectrum-check-non-square"),
    ])
    def test_map_file_shape_is_refused_from_its_header(self, monkeypatch, tmp_path, capsys, argv, error):
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, np.ones((2, 3)) if "non-square" in error else bl.baker(8))
        TestCountsRefusedUpFront.refuse_work(monkeypatch)  # load_cmatrix among them: no entry is parsed
        assert run(*argv, path, "--out", tmp_path / "x.json") == 2
        assert error in capsys.readouterr().err

    def test_map_file_without_header_is_refused_once_parsed(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": bl.cmatrix_to_dict(bl.baker(8))["entries"],
                                    "dim_rows": 8, "dim_cols": 8}))
        parsed = []
        monkeypatch.setattr("bakerlab.cli.load_cmatrix", lambda p: parsed.append(p) or bl.load_cmatrix(p))
        assert run("epinf", "--split", "4x4", "--d", 16, "--map-file", path, "--out", tmp_path / "x.json") == 2
        assert "--d 16 conflicts with map file dimension 8" in capsys.readouterr().err
        assert parsed == [str(path)]

    def test_dimension_conflict_with_file(self, tmp_path, capsys):
        map_path = tmp_path / "m.json"
        bl.save_cmatrix(map_path, bl.baker(8))
        rc = run("epinf", "--map-file", map_path, "--d", 16, "--split", "4x4",
                 "--out", tmp_path / "x.json")
        assert rc == 2
        assert "--d 16 conflicts with map file dimension 8" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["kind", "kind-cross-check", "map-file"])
    def test_map_is_dropped_before_the_reduction(self, monkeypatch, tmp_path, source):
        # only a --map-file cross-check keeps the matrix: it iterates what it read
        refs, seen = [], []
        for name, fn in (("make_map", bl.make_map), ("load_cmatrix", bl.load_cmatrix)):
            monkeypatch.setattr(f"bakerlab.cli.{name}",
                                lambda *a, fn=fn: refs.append(weakref.ref(out := fn(*a))) or out)

        class Reduced(bl.ReducedEigenData):
            @classmethod
            def from_eigensystem(cls, eig, part):
                seen.append([ref() is None for ref in refs])
                return bl.ReducedEigenData.from_eigensystem(eig, part)

        monkeypatch.setattr("bakerlab.cli.ReducedEigenData", Reduced)
        argv = ["--kind", "bbar", "--d", 16]
        if source == "map-file":
            bl.save_cmatrix(tmp_path / "m.json", bl.bbar(16))
            argv = ["--map-file", tmp_path / "m.json"]
        elif source == "kind-cross-check":
            argv += ["--cross-check", "--states", 3, "--nmin", 2, "--nmax", 4]
        assert run("epinf", *argv, "--split", "4x4", "--out", tmp_path / "x.json") == 0
        assert seen == [[True]]

    @pytest.mark.parametrize("kind, d, split", [("baker", 64, "8x8"), ("bbar", 64, "8x8"),
                                                ("dmap", 256, "16x16")])
    def test_cross_check_by_kind_matches_the_built_map(self, tmp_path, kind, d, split):
        # the cross-check iterates the kind once the map is gone: the same samples as the matrix gives
        out = tmp_path / "ep.json"
        assert run("epinf", "--kind", kind, "--d", d, "--split", split, "--cross-check", "--states", 4,
                   "--nmin", 11, "--nmax", 30, "--seed", 5, "--out", out) == 0
        cc = json.loads(out.read_text())["cross_check"]
        mean, se = bl.asymptotic_power_mc(bl.make_map(kind, d), parse_split(split), 4, 11, 30, bl.RngStream(5))
        assert (cc["mc_mean"], cc["mc_std_error"]) == (mean, se)

    def test_stdout_json_when_out_omitted(self, capsys):
        rc = run("epinf", "--kind", "baker", "--d", 8, "--split", "2x4")
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # stdout must be pure JSON
        assert "entangling_power_asymptotic" in report
        assert "asymptotic entangling power" in captured.err


class TestSpectrumCheck:
    def test_baker_is_clean(self, tmp_path, capsys):
        map_path = tmp_path / "b32.json"
        run("gen-map", "--kind", "baker", "--d", 32, "--out", map_path)
        out = tmp_path / "sc.json"
        assert run("spectrum-check", map_path, "--out", out) == 0
        captured = capsys.readouterr()
        assert "no nontrivial resonances" in captured.out
        report = json.loads(out.read_text())
        assert report["resonance"]["violation_count"] == 0
        assert len(report["phases"]) == 32

    def test_identity_resonates(self, tmp_path, capsys):
        map_path = tmp_path / "i4.json"
        run("gen-map", "--kind", "identity", "--d", 4, "--out", map_path)
        capsys.readouterr()  # drain the gen-map status line
        assert run("spectrum-check", map_path) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["resonance"]["violation_count"] > 0
        assert "nontrivial resonances" in captured.err

    def test_non_unitary_input_is_a_numerical_error(self, tmp_path, capsys):
        map_path = tmp_path / "bad.json"
        bl.save_cmatrix(map_path, 0.5 * np.eye(4))
        assert run("spectrum-check", map_path) == 3
        assert "not unitary" in capsys.readouterr().err

    def test_malformed_file_is_a_config_error(self, tmp_path):
        map_path = tmp_path / "broken.json"
        map_path.write_text("{')")
        assert run("spectrum-check", map_path) == 2


class TestCertifiedDiagnostics:
    """The report's eigensolver figures are eigensystem's certificate: one computation per run."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """The eigensystems ``linalg._diagnostics`` runs on, one entry per computation."""
        calls, compute = [], bl.linalg._diagnostics
        monkeypatch.setattr("bakerlab.linalg._diagnostics", lambda u, eig: calls.append(eig) or compute(u, eig))
        return calls

    @pytest.mark.parametrize("argv", [
        pytest.param(["epinf", "--split", "4x4", "--map-file"], id="epinf-map-file"),
        pytest.param(["spectrum-check"], id="spectrum-check"),
    ])
    def test_diagnostics_are_computed_once(self, computed, tmp_path, argv):
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, bl.bbar(16))
        out = tmp_path / "x.json"
        assert run(*argv, path, "--out", out) == 0
        assert len(computed) == 1
        assert json.loads(out.read_text())["eigensolver"] == dict(computed[0].diagnostics)

    def test_epinf_by_kind_computes_once(self, computed, tmp_path):
        assert run("epinf", "--kind", "dmap", "--d", 16, "--split", "4x4", "--out", tmp_path / "x.json") == 0
        assert len(computed) == 1


class TestParsing:
    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert "bakerlab" in capsys.readouterr().out

    def test_unknown_command(self):
        assert run("frobnicate") == 2

    def test_missing_required_flag(self):
        assert run("gen-map", "--kind", "baker") == 2

    def test_budget_flag_is_rejected(self, tmp_path, capsys):
        # the resonance scan is always exhaustive, so there is no sampling budget
        map_path = tmp_path / "b8.json"
        bl.save_cmatrix(map_path, bl.baker(8))
        assert run("epinf", "--kind", "baker", "--d", 8, "--split", "2x4", "--budget", 10) == 2
        assert run("spectrum-check", map_path, "--budget", 10) == 2
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_counts_both_profiles_share_are_flag_defaults(self, tmp_path, profile):
        # timeseries takes no profile: every count it has is a flag default
        out = tmp_path / "ts.csv"
        timeseries = ["timeseries", "--kind", "baker", "--d", 16, "--split", "4x4", "--out", out]
        assert run(*timeseries, "--profile", profile) == 2
        assert run(*timeseries) == 0
        samples, metadata = bl.read_entropy_csv(out)
        assert (metadata["states"], metadata["n_max"]) == ("5", "100")
        assert "profile" not in metadata
        assert len(samples) == 5 * 100
        for command in (["histogram", "--out", "h.json"], ["epinf"]):
            args = build_parser().parse_args([*command, "--kind", "baker", "--d", "16", "--split", "4x4"])
            assert args.nmin == 513

    @pytest.mark.parametrize("text", ["ax4", "4x", "4.0x4", "x"])
    def test_split_of_non_integers_is_a_config_error(self, tmp_path, capsys, text):
        with pytest.raises(ValueError, match="two integers"):
            parse_split(text)
        assert run("timeseries", "--kind", "baker", "--d", 16, "--split", text, "--out", tmp_path / "ts.csv") == 2
        assert "two integers" in capsys.readouterr().err
        assert not (tmp_path / "ts.csv").exists()

    @pytest.mark.parametrize("command", ["epinf", "spectrum-check"])
    def test_a_given_tol_reaches_the_report(self, tmp_path, command):
        # --tol given as text is parsed by _tolerance; the default is the float 1e-8
        path = tmp_path / "b16.json"
        bl.save_cmatrix(path, bl.baker(16))
        argv = ["epinf", "--map-file", path, "--split", "4x4"] if command == "epinf" else ["spectrum-check", path]
        out = tmp_path / "r.json"
        assert run(*argv, "--tol", "1e-6", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["metadata"]["tol"] == report["resonance"]["tol"] == 1e-6

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "bakerlab", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "bakerlab" in proc.stdout


def physical_memory(monkeypatch, nbytes):
    """Make ``os.sysconf`` report ``nbytes`` of physical memory, as that many 1-byte pages."""
    monkeypatch.setattr("os.sysconf", lambda name: nbytes if name == "SC_PHYS_PAGES" else 1)


def estimate(*stages):
    """What the preflight compares with physical memory: the largest stage plus the fixed term."""
    return max(stages) + _FIXED_BYTES


class TestMemoryPreflight:
    @pytest.mark.parametrize("argv", [
        ["histogram", "--nmin", 1],
        ["timeseries"],
        ["epinf", "--cross-check", "--nmin", 1],
    ])
    def test_run_beyond_physical_memory_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        rc = run(*argv, "--kind", "baker", "--d", 16, "--split", "4x4", "--states", 2,
                 "--nmax", 10**15, "--out", out)
        assert rc == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["epinf", "--kind", "baker", "--split", "1024x1024"],
        ["epinf", "--kind", "bbar", "--split", "2x524288"],
        ["epinf", "--map-file", "m.json", "--split", "1024x1024"],
        ["gen-map", "--kind", "dmap"],
    ])
    def test_dense_map_beyond_physical_memory_is_refused_before_it_is_built(self, monkeypatch, tmp_path,
                                                                              capsys, argv):
        TestCountsRefusedUpFront.refuse_work(monkeypatch)
        out = tmp_path / "x.out"
        assert run(*argv, "--d", 2**20, "--out", out) == 2
        err = capsys.readouterr().err
        assert "--d 1048576" in err
        assert "physical memory" in err
        assert not out.exists()

    def test_epinf_estimate_counts_eigensolve_and_reduced_data(self, monkeypatch, tmp_path, capsys):
        # the larger of the two stages: at 2x8 the vectors and reductions
        need = estimate(_STAGES["eigensolve"](16), _STAGES["reduction"](16, 2, 8))
        assert need > estimate(_STAGES["eigensolve"](16))
        physical_memory(monkeypatch, need)
        assert run("epinf", "--kind", "baker", "--d", 16, "--split", "2x8", "--out", tmp_path / "x.json") == 0
        physical_memory(monkeypatch, need - 1)
        out = tmp_path / "y.json"
        assert run("epinf", "--kind", "baker", "--d", 16, "--split", "2x8", "--out", out) == 2
        assert "--d 16 with split 2x8" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def preflight_needs(monkeypatch, *argv):
        """The estimates ``argv``'s preflights compare with physical memory; the run stops before any stage."""
        needs = []

        def fits(*stages):
            needs.append(max(stages) + _FIXED_BYTES)
            return True

        def stop(*args):
            raise ValueError("stopped after the preflight")

        monkeypatch.setattr(bl.entropy, "_fits", fits)
        monkeypatch.setattr("bakerlab.cli.make_map", stop)
        assert run(*argv) == 2
        return needs

    def test_epinf_admits_d_8192_on_eight_gib(self, monkeypatch, tmp_path):
        # the eigensolve's 6 GiB, not its sum with the 1 + 3.75 GiB of the
        # vectors and reductions, which no stage holds beside it
        needs = self.preflight_needs(monkeypatch, "epinf", "--kind", "baker", "--d", 8192, "--split", "64x128",
                                     "--out", tmp_path / "x.json")
        assert needs == [estimate(_STAGES["eigensolve"](8192))] and needs[0] < 7.84 * 2**30

    def test_cross_check_budget_does_not_count_the_jump(self, monkeypatch, tmp_path):
        # the jump is taken only where its arrays fit beside the engine's,
        # so a run with a burn-in is budgeted as the same window without one
        argv = ["epinf", "--kind", "baker", "--d", 64, "--split", "8x8", "--cross-check", "--states", 100,
                "--out", tmp_path / "x.json"]
        jumps = self.preflight_needs(monkeypatch, *argv, "--nmin", 513, "--nmax", 1512)  # the desk cross-check
        steps = self.preflight_needs(monkeypatch, *argv, "--nmin", 1, "--nmax", 1000)
        assert bl.entropy._jump_pays(64, 100, 513, fft=False)
        assert jumps == steps and jumps[-1] == estimate(*bl.entropy._engine_stages("baker", 64, 100, 1000))

    def test_epinf_with_map_file_and_d_counts_the_reader(self, monkeypatch, tmp_path, capsys):
        # a file without save_cmatrix's header is counted as json.load reads
        # it, which needs more than the eigensolve and reduction of its --d
        path = tmp_path / "m.json"
        text = json.dumps({"entries": bl.cmatrix_to_dict(bl.baker(16))["entries"], "dim_rows": 16, "dim_cols": 16})
        path.write_text(text)
        reader = estimate(_STAGES["json_load"](len(text), text.count(",")))
        assert reader > estimate(_STAGES["eigensolve"](16), _STAGES["reduction"](16, 4, 4),
                                 _STAGES["build"](16, "baker"))
        physical_memory(monkeypatch, reader - 1)
        assert run("epinf", "--kind", "baker", "--d", 16, "--split", "4x4", "--out", tmp_path / "kind.json") == 0
        TestCountsRefusedUpFront.refuse_work(monkeypatch)
        out = tmp_path / "file.json"
        assert run("epinf", "--map-file", path, "--d", 16, "--split", "4x4", "--out", out) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    def test_epinf_budgets_a_map_file_without_the_header_once_parsed(self, monkeypatch, tmp_path, capsys):
        # without save_cmatrix's header the dimension is known only after the
        # parse, so the stages are budgeted then: here the reader fits and
        # the eigensolve and reduction at split 2x64 do not
        d = 128
        path = tmp_path / "m.json"
        text = json.dumps({"entries": bl.cmatrix_to_dict(np.eye(d))["entries"], "dim_rows": d, "dim_cols": d})
        path.write_text(text)
        reader = estimate(_STAGES["json_load"](len(text), text.count(",")))
        stages = estimate(_STAGES["eigensolve"](d), _STAGES["reduction"](d, 2, 64))
        assert reader < stages
        loaded = []
        load = bl.cli.load_cmatrix
        TestCountsRefusedUpFront.refuse_work(monkeypatch)
        monkeypatch.setattr("bakerlab.cli.load_cmatrix", lambda p: loaded.append(p) or load(p))
        physical_memory(monkeypatch, stages - 1)
        out = tmp_path / "x.json"
        assert run("epinf", "--map-file", path, "--split", "2x64", "--out", out) == 2
        assert loaded == [str(path)]
        err = capsys.readouterr().err
        assert "--d 128 with split 2x64" in err and "physical memory" in err
        assert not out.exists()

    def test_spectrum_check_refuses_an_eigensolve_beyond_memory_before_reading(self, monkeypatch, tmp_path,
                                                                               capsys):
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, bl.baker(16))
        eigen = estimate(_STAGES["eigensolve"](16))
        assert eigen > estimate(_STAGES["read"](16 * 16))  # the reader fits, the eigensolve does not
        TestCountsRefusedUpFront.refuse_work(monkeypatch)
        physical_memory(monkeypatch, eigen - 1)
        out = tmp_path / "x.json"
        assert run("spectrum-check", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert "eigensolve of a 16x16 map" in err and "physical memory" in err
        assert not out.exists()

    def test_cue_reference_budget_counts_a_chunk_of_states(self, monkeypatch, tmp_path, capsys):
        # the engine, the samples and bins fit, the chunk's complex (_REFERENCE_CHUNK, d) arrays do not
        chunk = estimate(_STAGES["reference"](16, 4 + _REFERENCE_CHUNK, _REFERENCE_CHUNK))
        assert chunk > estimate(_STAGES["engine"](16, 2, 2, True), _STAGES["summary"](4 + _REFERENCE_CHUNK, 2))
        TestCountsRefusedUpFront.refuse_work(monkeypatch)
        physical_memory(monkeypatch, chunk - 1)
        assert run(*TestCountsRefusedUpFront.HISTOGRAM, "--states", 2, "--nmin", 1, "--nmax", 2, "--bins", 1,
                   "--cue-reference", _REFERENCE_CHUNK, "--out", tmp_path / "x.json") == 2
        assert f"--cue-reference {_REFERENCE_CHUNK}" in capsys.readouterr().err

    def test_histogram_budget_counts_the_summary(self, monkeypatch, tmp_path, capsys):
        # the engine's arrays fit, the window's samples with the summary's temporaries do not
        d, n_states, window = 16, 10, 1000
        engine = _STAGES["engine"](d, n_states, window, True)
        summary = _STAGES["summary"](n_states * window, 1)
        assert engine < summary
        physical_memory(monkeypatch, estimate((engine + summary) // 2))
        assert bl.entropy._fits(engine)
        drawn = []
        monkeypatch.setattr("bakerlab.entropy.product_state", lambda *args: drawn.append(args))
        out = tmp_path / "x.json"
        assert run(*TestCountsRefusedUpFront.HISTOGRAM, "--states", n_states, "--nmin", 1, "--nmax", window,
                   "--bins", 1, "--out", out) == 2
        assert "10000 samples with --bins 1" in capsys.readouterr().err
        assert drawn == [] and not out.exists()

    MAP_FILE_COMMANDS = [
        pytest.param(["epinf", "--split", "4x4", "--map-file"], id="epinf"),
        pytest.param(["spectrum-check"], id="spectrum-check"),
    ]

    @pytest.mark.parametrize("header", ["header", "no-header", "header-too-small"])
    @pytest.mark.parametrize("command", MAP_FILE_COMMANDS)
    def test_map_file_beyond_physical_memory_is_refused_before_it_is_parsed(self, monkeypatch, tmp_path,
                                                                            capsys, command, header):
        path = tmp_path / "m.json"
        entries = bl.cmatrix_to_dict(bl.baker(16))["entries"]
        if header == "header":
            bl.save_cmatrix(path, bl.baker(16))
            assert np.array_equal(bl.load_cmatrix(path), bl.baker(16))
        elif header == "no-header":  # a valid file with its keys in another order, counted as json.load reads it
            path.write_text(json.dumps({"entries": entries, "dim_rows": 16, "dim_cols": 16}))
            assert np.array_equal(bl.load_cmatrix(path), bl.baker(16))
        else:  # a header that understates the entries, counted as json.load reads it too
            path.write_text(json.dumps({"dim_rows": 1, "dim_cols": 1, "entries": entries}))
        reader = estimate(_STAGES["read"](16 * 16))
        TestCountsRefusedUpFront.refuse_work(monkeypatch)
        physical_memory(monkeypatch, reader - 1)
        out = tmp_path / "x.json"
        assert run(*command, path, "--out", out) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", MAP_FILE_COMMANDS)
    def test_map_file_header_budget_admits_what_fits(self, monkeypatch, tmp_path, command):
        # the streamed reader is the smaller stage: what the eigensolve needs
        # (for epinf at a 4x4 split, more than the reduction) is the whole budget
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, bl.baker(16))
        need = estimate(_STAGES["eigensolve"](16))
        assert need > estimate(_STAGES["reduction"](16, 4, 4), _STAGES["read"](16 * 16))
        physical_memory(monkeypatch, need)
        assert run(*command, path, "--out", tmp_path / "x.json") == 0

    def test_physical_memory_unknown_admits_the_run(self, monkeypatch, tmp_path):
        # without os.sysconf there is nothing to compare with: every preflight admits
        monkeypatch.delattr("os.sysconf")
        assert bl.entropy._physical_memory() is None
        assert bl.entropy._fits(10**30)
        assert run("gen-map", "--kind", "baker", "--d", 16, "--out", tmp_path / "x.json") == 0


class TestMemoryModel:
    """One estimate per run: the largest of its stages in ``entropy._STAGES`` plus ``_FIXED_BYTES``.

    Every subcommand, at d = 16..1024, holds a tracemalloc peak between half
    the estimate (less the fixed term's 1 MiB) and the estimate.  A run that
    jumps the burn-in is held to its engine and jump rows together.  The
    modules a process imports on first use are the process's, not a run's:
    every subcommand runs once at d = 16 before the measured runs.
    """

    @pytest.fixture(scope="class", autouse=True)
    def imported(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("imported")
        bl.save_cmatrix(tmp / "m.json", bl.baker(16))
        (tmp / "j.json").write_text(json.dumps({"entries": bl.cmatrix_to_dict(bl.baker(16))["entries"],
                                                "dim_rows": 16, "dim_cols": 16}))
        for argv in (["gen-map", "--kind", "fourier", "--d", 16],
                     ["epinf", "--kind", "baker", "--d", 16, "--split", "4x4", "--cross-check", "--states", 2,
                      "--nmin", 3, "--nmax", 4],
                     ["epinf", "--map-file", tmp / "j.json", "--split", "4x4"],
                     ["spectrum-check", tmp / "m.json"],
                     ["timeseries", "--kind", "baker", "--d", 16, "--split", "4x4", "--states", 2, "--nmax", 2],
                     ["histogram", "--kind", "baker", "--d", 16, "--split", "4x4", "--states", 2, "--nmin", 1,
                      "--nmax", 2, "--cue-reference", 2, "--raw-csv", tmp / "h.csv"],
                     ["ensemble", "--ensemble", "symmetric", "--d", 16, "--split", "4x4", "--samples", 2,
                      "--states", 2]):
            assert run(*argv, "--out", tmp / "out") == 0

    CASES = [
        # gen-map: the build, by unit rows for B, D, D' and Bbar; writing the
        # file under tracemalloc takes ~12 s at d = 1024
        ("gen-map", "--kind", "baker", "--d", 16),
        ("gen-map", "--kind", "identity", "--d", 64),
        ("gen-map", "--kind", "dmap", "--d", 128),
        ("gen-map", "--kind", "bbar", "--d", 128),
        ("gen-map", "--kind", "lambda", "--d", 128),
        ("gen-map", "--kind", "reflection", "--d", 128),
        ("gen-map", "--kind", "dprime", "--d", 130),
        ("gen-map", "--kind", "fourier", "--d", 130),
        ("gen-map", "--kind", "baker", "--d", 1024),
        # epinf by kind: the eigensolve, or the reduction at a lopsided split
        ("epinf", "--kind", "baker", "--d", 16, "--split", "4x4"),
        ("epinf", "--kind", "baker", "--d", 64, "--split", "8x8"),
        ("epinf", "--kind", "baker", "--d", 128, "--split", "8x16"),
        ("epinf", "--kind", "baker", "--d", 130, "--split", "2x65"),
        ("epinf", "--kind", "bbar", "--d", 256, "--split", "16x16"),
        ("epinf", "--kind", "dmap", "--d", 256, "--split", "16x16"),
        ("epinf", "--kind", "lambda", "--d", 256, "--split", "16x16"),
        ("epinf", "--kind", "baker", "--d", 256, "--split", "2x128"),
        ("epinf", "--kind", "bbar", "--d", 256, "--split", "2x128"),
        ("epinf", "--kind", "dmap", "--d", 256, "--split", "2x128"),
        ("epinf", "--kind", "lambda", "--d", 256, "--split", "2x128"),
        ("epinf", "--kind", "dprime", "--d", 300, "--split", "15x20"),
        ("epinf", "--kind", "bbar", "--d", 512, "--split", "16x32"),
        # cross-checks: the desk one jumps the dense map, d = 256 the FFT step
        ("epinf", "--kind", "baker", "--d", 64, "--split", "8x8", "--cross-check", "--states", 100),
        ("epinf", "--kind", "baker", "--d", 256, "--split", "16x16", "--cross-check", "--states", 20,
         "--nmin", 513, "--nmax", 520),
        ("epinf", "--map-file", "baker-300-header", "--split", "15x20", "--cross-check", "--states", 10,
         "--nmin", 1, "--nmax", 20),
        # map files in both layouts: streamed, or parsed whole by json.load
        ("epinf", "--map-file", "bbar-256-header", "--split", "16x16"),
        ("epinf", "--map-file", "dmap-128-json", "--split", "2x64"),
        ("spectrum-check", "bbar-128-header"),
        ("spectrum-check", "baker-130-json"),
        ("spectrum-check", "identity-64-json"),
        # the engine: dense, FFT and jumping runs, and the summaries
        ("timeseries", "--kind", "baker", "--d", 16, "--split", "4x4", "--states", 2, "--nmax", 10),
        ("timeseries", "--kind", "baker", "--d", 256, "--split", "16x16"),
        ("timeseries", "--kind", "bbar", "--d", 300, "--split", "15x20", "--states", 20, "--nmax", 20),
        ("histogram", "--kind", "baker", "--d", 64, "--split", "8x8", "--states", 100, "--nmin", 1, "--nmax", 200),
        ("histogram", "--kind", "baker", "--d", 128, "--split", "8x16", "--states", 4, "--nmin", 1, "--nmax", 3),
        ("histogram", "--kind", "baker", "--d", 130, "--split", "10x13", "--states", 30, "--nmin", 2, "--nmax", 40),
        ("histogram", "--kind", "baker", "--d", 256, "--split", "16x16", "--states", 100, "--nmin", 513,
         "--nmax", 520),
        ("histogram", "--kind", "bbar", "--d", 300, "--split", "15x20", "--states", 20, "--nmin", 1, "--nmax", 20,
         "--raw-csv", "raw.csv"),
        ("histogram", "--kind", "baker", "--d", 300, "--split", "15x20", "--states", 100, "--nmin", 513,
         "--nmax", 520),
        ("histogram", "--kind", "dprime", "--d", 512, "--split", "16x32", "--states", 10, "--nmin", 1, "--nmax", 5),
        ("histogram", "--kind", "baker", "--d", 1024, "--split", "32x32", "--states", 50, "--nmin", 101,
         "--nmax", 110, "--raw-csv", "raw.csv"),
        ("histogram", "--kind", "baker", "--d", 16, "--split", "4x4", "--states", 2, "--nmin", 2, "--nmax", 6,
         "--cue-reference", 300),
        ("histogram", "--kind", "baker", "--d", 256, "--split", "16x16", "--states", 4, "--nmin", 1, "--nmax", 3,
         "--cue-reference", 600),
        ("histogram", "--kind", "baker", "--d", 256, "--split", "2x128", "--states", 4, "--nmin", 1, "--nmax", 3,
         "--cue-reference", 300),
        # the three ensembles
        ("ensemble", "--ensemble", "cue", "--d", 64, "--split", "8x8", "--samples", 30),
        ("ensemble", "--ensemble", "coe", "--d", 128, "--split", "8x16", "--samples", 3, "--states", 50),
        ("ensemble", "--ensemble", "symmetric", "--d", 256, "--split", "16x16", "--samples", 5, "--states", 300),
        ("ensemble", "--ensemble", "cue", "--d", 300, "--split", "15x20", "--samples", 3, "--states", 500),
        ("ensemble", "--ensemble", "symmetric", "--d", 512, "--split", "16x32", "--samples", 3, "--states", 10),
    ]

    @staticmethod
    def map_file(tmp_path, name):
        """The map file ``kind-d-layout`` names: as save_cmatrix writes it, or its keys reordered for json.load."""
        kind, d, layout = name.split("-")
        path = tmp_path / f"{name}.json"
        bl.save_cmatrix(path, bl.make_map(kind, int(d)))
        if layout == "json":
            obj = json.loads(path.read_text())
            path.write_text(json.dumps({"entries": obj["entries"], "dim_rows": int(d), "dim_cols": int(d)}))
        return path

    @pytest.mark.parametrize("argv", [pytest.param(case, id="-".join(map(str, case))) for case in CASES])
    def test_estimate_bounds_the_peak(self, monkeypatch, tmp_path, argv):
        argv = [self.map_file(tmp_path, a) if str(a).endswith(("-header", "-json")) else a for a in argv]
        argv = [tmp_path / a if a == "raw.csv" else a for a in argv]
        needs = []
        fits = bl.entropy._fits

        def spy(*stages):  # the one test of memory every preflight and the jump's rule make
            needs.append(max(stages) + _FIXED_BYTES)
            return fits(*stages)

        monkeypatch.setattr(bl.entropy, "_fits", spy)
        tracemalloc.start()
        try:
            assert run(*argv, "--out", tmp_path / "out") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(needs) <= 2 * peak + 2**20, (peak, needs)


class TestMatrixFreeCommands:
    @pytest.mark.parametrize("argv", [
        ["histogram", "--kind", "baker", "--nmin", 2, "--nmax", 4, "--out", "h.json"],
        ["histogram", "--kind", "dprime", "--nmin", 2, "--nmax", 4, "--raw-csv", "h.csv", "--out", "h.json"],
        ["timeseries", "--kind", "dmap", "--nmax", 4, "--out", "ts.csv"],
    ])
    def test_baker_family_at_256_builds_no_matrix(self, monkeypatch, tmp_path, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense map was built or gated")

        for name in ("bakerlab.cli.make_map", "bakerlab.entropy.make_map", "bakerlab.entropy.assert_unitary"):
            monkeypatch.setattr(name, refuse)
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--d", 256, "--split", "16x16", "--states", 3) == 0


class TestCountsRefusedUpFront:
    HISTOGRAM = ["histogram", "--kind", "baker", "--d", 16, "--split", "4x4"]
    EPINF = ["epinf", "--kind", "baker", "--d", 16, "--split", "4x4", "--cross-check"]
    ENSEMBLE = ["ensemble", "--ensemble", "cue", "--d", 4, "--split", "2x2", "--samples", 2]
    TIMESERIES = ["timeseries", "--kind", "baker", "--d", 16, "--split", "4x4"]

    @staticmethod
    def refuse_work(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        for name in ("make_map", "load_cmatrix", "empirical_asymptotic_distribution", "ensemble_entropies",
                     "eigensystem", "save_cmatrix", "asymptotic_power_mc", "_haar_rows"):
            monkeypatch.setattr(f"bakerlab.cli.{name}", refuse)

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(HISTOGRAM + ["--bins", 0], "--bins", id="histogram-bins"),
        pytest.param(HISTOGRAM + ["--cue-reference", -3], "--cue-reference", id="histogram-cue-reference"),
        pytest.param(HISTOGRAM + ["--states", 0], "--states", id="histogram-states"),
        pytest.param(ENSEMBLE + ["--states", 2, "--bins", 0], "--bins", id="ensemble-bins"),
        pytest.param(EPINF + ["--states", 1, "--nmin", 1, "--nmax", 5], "--states", id="epinf-states"),
        pytest.param(EPINF + ["--nmin", 600, "--nmax", 500], "--nmin", id="epinf-empty-window"),
        pytest.param(EPINF + ["--nmin", 0, "--nmax", 5], "--nmin", id="epinf-nmin"),
        pytest.param(["timeseries", "--kind", "baker", "--d", 16, "--split", "4x4", "--nmax", 0], "--nmax",
                     id="timeseries-nmax"),
        pytest.param(EPINF + ["--tol", 0], "--tol", id="epinf-tol-zero"),
        pytest.param(EPINF + ["--tol", 1], "--tol", id="epinf-tol-one"),
        pytest.param(EPINF + ["--tol", "nan"], "--tol", id="epinf-tol-nan"),
        pytest.param(["spectrum-check", "m.json", "--tol", 2], "--tol", id="spectrum-check-tol"),
        pytest.param(["epinf", "--map-file", "m.json", "--kind", "baker", "--split", "4x4"], "--kind",
                     id="epinf-map-file-and-kind"),
        pytest.param(["epinf", "--kind", "baker", "--d", 16, "--split", "4x8"], "split 4x8", id="epinf-split"),
        pytest.param(ENSEMBLE + ["--states", 0], "--states", id="ensemble-states"),
        # counts whose arrays would exceed any physical memory: refused by size alone, so
        # nothing is allocated
        pytest.param(HISTOGRAM + ["--states", 2, "--nmin", 1, "--nmax", 2, "--cue-reference", 10**15],
                     "--cue-reference 1000000000000000", id="histogram-cue-reference-memory"),
        pytest.param(HISTOGRAM + ["--states", 2, "--nmin", 1, "--nmax", 2, "--bins", 10**15],
                     "--bins 1000000000000000", id="histogram-bins-memory"),
        pytest.param(["ensemble", "--ensemble", "cue", "--d", 4, "--split", "2x2", "--samples", 10**12,
                      "--states", 10**9], "--samples 1000000000000", id="ensemble-memory"),
        pytest.param(ENSEMBLE + ["--states", 2, "--bins", 10**15], "--bins 1000000000000000",
                     id="ensemble-bins-memory"),
        pytest.param(EPINF + ["--states", 10**12, "--nmin", 1, "--nmax", 10], "1000000000000 states",
                     id="epinf-cross-check-memory"),
    ])
    def test_before_any_map_is_built(self, monkeypatch, tmp_path, capsys, argv, flag):
        self.refuse_work(monkeypatch)
        out = tmp_path / "x.out"
        assert run(*argv, "--out", out) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(HISTOGRAM + ["--out", "{missing}"], "--out", id="histogram-out"),
        pytest.param(HISTOGRAM + ["--raw-csv", "{missing}", "--out", "{ok}"], "--raw-csv",
                     id="histogram-raw-csv"),
        pytest.param(HISTOGRAM + ["--out", "{dir}"], "--out", id="histogram-out-is-a-directory"),
        pytest.param(TIMESERIES + ["--out", "{missing}"], "--out", id="timeseries-out"),
        pytest.param(ENSEMBLE + ["--out", "{missing}"], "--out", id="ensemble-out"),
        pytest.param(EPINF + ["--out", "{missing}"], "--out", id="epinf-out"),
        pytest.param(["gen-map", "--kind", "baker", "--d", 16, "--out", "{missing}"], "--out",
                     id="gen-map-out"),
    ])
    def test_unwritable_output_before_any_work(self, monkeypatch, tmp_path, capsys, argv, flag):
        self.refuse_work(monkeypatch)
        paths = {"missing": tmp_path / "no-such-dir" / "x.out", "ok": tmp_path / "x.json", "dir": tmp_path}
        argv = [str(a).format(**paths) for a in argv]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert argv[argv.index(flag) + 1] in err
        assert sorted(tmp_path.iterdir()) == []

    def test_unwritable_directory_before_any_work(self, monkeypatch, tmp_path, capsys):
        # os.access grants root every write, so the directory is made to read as unwritable
        self.refuse_work(monkeypatch)
        monkeypatch.setattr("os.access", lambda path, mode: False)
        out = tmp_path / "x.json"
        assert run("gen-map", "--kind", "baker", "--d", 16, "--out", out) == 2
        assert f"cannot write --out {out}: directory {tmp_path} is not writable" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []


class TestAtomicWrites:
    def test_an_error_about_another_file_is_raised_as_it_is(self, tmp_path):
        error = OSError(errno.EIO, "Input/output error", str(tmp_path / "elsewhere"))
        with pytest.raises(OSError) as raised:
            with bl.matrixio.atomic_write(tmp_path / "x.json"):
                raise error
        assert raised.value is error
        assert sorted(tmp_path.iterdir()) == []

    def test_failed_json_dump_keeps_the_previous_file(self, tmp_path):
        out = tmp_path / "report.json"
        _write_json(out, {"metadata": {"seed": 1}})
        before = out.read_bytes()
        with pytest.raises(TypeError):
            # the dump gets partway before reaching the unserialisable value
            _write_json(out, {"counts": list(range(100)), "metadata": {"seed": object()}})
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_failed_csv_write_keeps_the_previous_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        out = tmp_path / "s.csv"
        samples = bl.EntropySamples([[0.25]])
        bl.write_entropy_csv(out, samples, {"seed": 1})
        before = out.read_bytes()
        with pytest.raises(RuntimeError):
            bl.write_entropy_csv(out, samples, {"seed": 2, "bad": Unprintable()})
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


class TestFileErrors:
    """An unreadable input or unwritable output is a configuration error (exit 2)."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["epinf", "--map-file", "{missing}", "--split", "4x4"], id="epinf-map-file"),
        pytest.param(["spectrum-check", "{missing}"], id="spectrum-check"),
        pytest.param(["gen-map", "--kind", "baker", "--d", 8, "--out", "{missing}"], id="gen-map-out"),
        pytest.param(["histogram", "--kind", "baker", "--d", 8, "--split", "2x4", "--states", 2,
                      "--nmin", 1, "--nmax", 3, "--out", "{missing}"], id="histogram-out"),
    ])
    def test_exit_code(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "no-such-dir" / "m.json")
        assert run(*[str(a).format(missing=missing) for a in argv]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["epinf", "--split", "1x1", "--map-file"], id="epinf-map-file"),
        pytest.param(["spectrum-check"], id="spectrum-check"),
    ])
    def test_boolean_dimensions_are_refused(self, tmp_path, capsys, argv):
        path = tmp_path / "m.json"
        path.write_text('{"entries": [[1, 0]], "dim_rows": true, "dim_cols": true}')
        assert run(*argv, path, "--out", tmp_path / "x.json") == 2
        assert "matrix dimensions must be positive integers" in capsys.readouterr().err

    def test_message_names_the_output_not_a_temporary_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("gen-map", "--kind", "baker", "--d", 8, "--out", "nodir/x.json") == 2
        err = capsys.readouterr().err
        assert "nodir/x.json" in err
        assert ".tmp" not in err

    @pytest.mark.parametrize("target", ["nodir/x.json", "adir"])
    def test_atomic_write_errors_name_the_target(self, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        with pytest.raises(OSError) as err:  # no directory to open in; a directory to rename onto
            bl.save_cmatrix(target, bl.baker(4))
        assert err.value.filename == target
        assert ".tmp" not in str(err.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
        assert list((tmp_path / "adir").iterdir()) == []

    def test_failed_save_cmatrix_keeps_the_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "m.json"
        bl.save_cmatrix(out, bl.baker(4))
        before = out.read_bytes()
        # an error partway through the write: text the file's encoding refuses
        monkeypatch.setattr("bakerlab.matrixio.json", SimpleNamespace(dumps=lambda obj: '{"dim_rows": \ud800'))
        with pytest.raises(UnicodeEncodeError):
            bl.save_cmatrix(out, bl.baker(8))
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


class TestMetadata:
    """Every artifact's metadata: command, the command's fields, seed, profile, version."""

    @staticmethod
    def _runs(tmp_path):
        b16 = tmp_path / "b16.json"
        bl.save_cmatrix(b16, bl.baker(16))
        hist = ["histogram", "--kind", "baker", "--d", 16, "--split", "4x4", "--states", 2,
                "--nmin", 1, "--nmax", 3, "--raw-csv", tmp_path / "h.csv", "--out", tmp_path / "h.json"]
        return {
            "timeseries": (["timeseries", "--kind", "baker", "--d", 16, "--split", "4x4", "--states", 2,
                            "--nmax", 3, "--out", tmp_path / "ts.csv"], "ts.csv"),
            "histogram": (hist, "h.json"),
            "histogram-raw-csv": (hist, "h.csv"),
            "ensemble": (["ensemble", "--ensemble", "cue", "--d", 4, "--split", "2x2", "--samples", 2,
                          "--states", 2, "--out", tmp_path / "e.json"], "e.json"),
            "epinf": (["epinf", "--kind", "baker", "--d", 16, "--split", "4x4", "--out", tmp_path / "ep.json"],
                      "ep.json"),
            "spectrum-check": (["spectrum-check", b16, "--out", tmp_path / "sc.json"], "sc.json"),
        }

    @staticmethod
    def _read(path):
        if path.suffix == ".csv":
            return bl.read_entropy_csv(path)[1]
        report = json.loads(path.read_text())
        return report["metadata"]

    @pytest.mark.parametrize("artifact", [
        "timeseries", "histogram", "histogram-raw-csv", "ensemble", "epinf", "spectrum-check",
    ])
    def test_layout(self, tmp_path, artifact):
        argv, name = self._runs(tmp_path)[artifact]
        assert run(*argv) == 0
        metadata = self._read(tmp_path / name)
        keys = list(metadata)
        assert keys[0] == "command"
        assert metadata["command"] == argv[0]
        tail = {"spectrum-check": ["version"], "timeseries": ["seed", "version"]}.get(
            argv[0], ["seed", "profile", "version"])
        assert keys[-len(tail):] == tail
        if artifact in ("ensemble", "spectrum-check"):  # no map kind built
            assert "map_version" not in metadata
        else:
            assert int(metadata["map_version"]) == bl.maps.MAP_VERSION == 2  # CSV: a string

    def test_map_file_epinf_records_no_map_version(self, tmp_path):
        path = tmp_path / "b16.json"
        bl.save_cmatrix(path, bl.baker(16))
        assert run("epinf", "--map-file", path, "--split", "4x4", "--out", tmp_path / "ep.json") == 0
        assert "map_version" not in self._read(tmp_path / "ep.json")

    def test_epinf_records_the_report_version_last_among_its_fields(self, tmp_path):
        argv, name = self._runs(tmp_path)["epinf"]
        assert run(*argv) == 0
        assert list(self._read(tmp_path / name)) == [
            "command", "kind", "d", "split", "tol", "map_version", "report_version", "seed", "profile", "version",
        ]
        assert self._read(tmp_path / name)["report_version"] == bl.cli._REPORT_VERSION == 2

    def test_ensemble_records_the_stream_layout_among_its_fields(self, tmp_path):
        argv, name = self._runs(tmp_path)["ensemble"]
        assert run(*argv) == 0
        assert list(self._read(tmp_path / name)) == [
            "command", "ensemble", "d", "split", "samples", "states", "bins", "stream_layout",
            "seed", "profile", "version",
        ]

    @pytest.mark.parametrize("artifact", ["timeseries", "histogram", "histogram-raw-csv", "epinf-cross-check"])
    def test_engine_artifacts_record_the_iteration_version(self, tmp_path, artifact):
        runs = self._runs(tmp_path)
        runs["epinf-cross-check"] = ([*runs["epinf"][0], "--cross-check", "--states", 3, "--nmin", 2,
                                      "--nmax", 4], "ep.json")
        argv, name = runs[artifact]
        assert run(*argv) == 0
        assert int(self._read(tmp_path / name)["iteration_version"]) == bl.entropy.ITERATION_VERSION == 3  # CSV: a string

    @pytest.mark.parametrize("artifact", ["ensemble", "epinf", "spectrum-check"])
    def test_artifacts_without_the_engine_do_not(self, tmp_path, artifact):
        argv, name = self._runs(tmp_path)[artifact]
        assert run(*argv) == 0
        assert "iteration_version" not in self._read(tmp_path / name)

    def test_split_is_recorded_in_lower_case(self, tmp_path):
        argv = ["histogram", "--kind", "baker", "--d", 16, "--split", "4X4", "--states", 2,
                "--nmin", 1, "--nmax", 3, "--raw-csv", tmp_path / "h.csv", "--out", tmp_path / "h.json"]
        assert run(*argv) == 0
        assert self._read(tmp_path / "h.json")["split"] == "4x4"
        assert self._read(tmp_path / "h.csv")["split"] == "4x4"
