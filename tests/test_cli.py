import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bakerlab as bl
from bakerlab.cli import _write_json, main


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
        assert set(np.unique(samples.state_id)) == {0, 1, 2}

    def test_identity_map_gives_zero_column(self, tmp_path):
        out = tmp_path / "id.csv"
        rc = run(
            "timeseries", "--kind", "identity", "--d", 16, "--split", "4x4",
            "--states", 2, "--nmax", 6, "--out", out,
        )
        assert rc == 0
        samples, _ = bl.read_entropy_csv(out)
        assert (np.abs(samples.value) < 1e-12).all()

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

    def test_dimension_conflict_with_file(self, tmp_path):
        map_path = tmp_path / "m.json"
        bl.save_cmatrix(map_path, bl.baker(8))
        rc = run("epinf", "--map-file", map_path, "--d", 16, "--split", "2x4",
                 "--out", tmp_path / "x.json")
        assert rc == 2

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

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "bakerlab", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "bakerlab" in proc.stdout


class TestAtomicWrites:
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
        samples = bl.EntropySamples(np.array([0]), np.array([1]), np.array([0.25]))
        bl.write_entropy_csv(out, samples, {"seed": 1})
        before = out.read_bytes()
        with pytest.raises(RuntimeError):
            bl.write_entropy_csv(out, samples, {"seed": 2, "bad": Unprintable()})
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]
