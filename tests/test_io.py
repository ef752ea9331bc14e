import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bakerlab as bl


class TestCmatrixJson:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, m)
        assert np.array_equal(bl.load_cmatrix(path), m)

    def test_rectangular_roundtrip(self, tmp_path):
        m = np.arange(6, dtype=float).reshape(2, 3) * (1 + 2j)
        path = tmp_path / "rect.json"
        bl.save_cmatrix(path, m)
        back = bl.load_cmatrix(path)
        assert back.shape == (2, 3)
        assert np.array_equal(back, m)

    def test_layout_is_row_major_pairs(self, tmp_path):
        m = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
        path = tmp_path / "layout.json"
        bl.save_cmatrix(path, m)
        obj = json.loads(path.read_text())
        assert obj["dim_rows"] == 2 and obj["dim_cols"] == 2
        assert obj["entries"] == [[1, 2], [3, 4], [5, 6], [7, 8]]

    def test_save_is_deterministic(self, tmp_path):
        m = bl.baker(8)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        bl.save_cmatrix(a, m)
        bl.save_cmatrix(b, m)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_equal_stdlib_json_dump(self, tmp_path):
        m = np.empty((2, 2), dtype=complex)
        m.real = [[-0.0, 1e300], [2.0, 0.1]]
        m.imag = [[5e-324, -3.0], [0.0, -1e-310]]
        path, reference = tmp_path / "m.json", tmp_path / "ref.json"
        bl.save_cmatrix(path, m)
        with open(reference, "w") as f:
            json.dump(bl.cmatrix_to_dict(m), f)
            f.write("\n")
        assert path.read_bytes() == reference.read_bytes()
        assert b"-0.0" in path.read_bytes() and b"5e-324" in path.read_bytes()
        assert np.array_equal(bl.load_cmatrix(path), m)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 64)])
    def test_row_by_row_writer_gives_the_bytes_of_one_dumps(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m[0, 0] = -0.0 + 5e-324j
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, m)
        assert path.read_text() == json.dumps(bl.cmatrix_to_dict(m)) + "\n"

    @pytest.mark.parametrize(
        "payload",
        [
            {"dim_rows": 2, "dim_cols": 2},  # missing entries
            {"dim_rows": 0, "dim_cols": 2, "entries": []},  # bad dimension
            {"dim_rows": 2.0, "dim_cols": 2, "entries": [[0, 0]] * 4},  # non-int dims
            {"dim_rows": 2, "dim_cols": 2, "entries": [[0, 0]] * 3},  # wrong count
            {"dim_rows": 1, "dim_cols": 1, "entries": [[0, 0, 0]]},  # not a pair
            {"dim_rows": 1, "dim_cols": 1, "entries": [["a", "b"]]},  # not numbers
            [1, 2, 3],  # not an object
        ],
    )
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            bl.cmatrix_from_dict(payload)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            bl.cmatrix_from_dict({"dim_rows": 1, "dim_cols": 1, "entries": [[np.inf, 0.0]]})

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            bl.load_cmatrix(path)


class TestEntropyCsv:
    def make_samples(self):
        return bl.EntropySamples(
            state_id=np.array([0, 0, 1, 1]),
            time_step=np.array([1, 2, 1, 2]),
            value=np.array([0.1, 0.12345678901234567, 0.0, 0.875]),
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.csv"
        samples = self.make_samples()
        bl.write_entropy_csv(path, samples, {"kind": "baker", "seed": 7})
        back, metadata = bl.read_entropy_csv(path)
        assert np.array_equal(back.state_id, samples.state_id)
        assert np.array_equal(back.time_step, samples.time_step)
        assert np.array_equal(back.value, samples.value)  # repr round-trips floats exactly
        assert metadata == {"kind": "baker", "seed": "7"}

    def test_header_and_comment_format(self, tmp_path):
        path = tmp_path / "s.csv"
        bl.write_entropy_csv(path, self.make_samples(), {"seed": 7})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed = 7"
        assert lines[1] == bl.ENTROPY_CSV_HEADER
        assert lines[2] == "0,1,0.1"

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        bl.write_entropy_csv(a, self.make_samples(), {"seed": 1})
        bl.write_entropy_csv(b, self.make_samples(), {"seed": 1})
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "content",
        [
            "state_id,n\n0,1\n",  # wrong header
            "0,1,0.5\n",  # missing header
            "state_id,n,S_L\n0,1\n",  # short row
            "state_id,n,S_L\n# late = 1\n0,1,0.5\n",  # metadata after header
            "state_id,n,S_L\n0,1,abc\n",  # non-numeric value
            "",  # empty file
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError):
            bl.read_entropy_csv(path)


class TestHistogramSummary:
    def test_moments_match_direct_formulas(self):
        values = np.array([0.1, 0.4, 0.4, 0.7, 0.9])
        summary = bl.HistogramSummary.from_values(values, bins=4)
        assert summary.n_samples == 5
        assert summary.mean == pytest.approx(values.mean())
        assert summary.variance == pytest.approx(values.var())
        centered = values - values.mean()
        assert summary.skewness == pytest.approx((centered**3).mean() / values.var() ** 1.5)
        assert summary.counts.sum() == 5
        assert len(summary.bin_edges) == 5

    def test_counts_cover_all_samples(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, size=1000)
        summary = bl.HistogramSummary.from_values(values, bins=32)
        assert summary.counts.sum() == 1000
        assert (np.diff(summary.bin_edges) > 0).all()

    def test_skewness_sign(self):
        right_tailed = bl.HistogramSummary.from_values([0.0, 0.0, 0.0, 1.0], bins=2)
        assert right_tailed.skewness > 0

    def test_degenerate_values_widen_range(self):
        summary = bl.HistogramSummary.from_values([0.5, 0.5, 0.5], bins=3)
        assert summary.counts.sum() == 3
        assert summary.variance == 0.0
        assert summary.skewness == 0.0
        assert summary.bin_edges[0] < 0.5 < summary.bin_edges[-1]

    def test_single_sample(self):
        summary = bl.HistogramSummary.from_values([0.3], bins=5)
        assert summary.n_samples == 1
        assert summary.counts.sum() == 1

    def test_dict_roundtrip(self):
        values = np.linspace(0, 1, 11)
        summary = bl.HistogramSummary.from_values(values, bins=5, metadata={"kind": "baker"})
        back = bl.HistogramSummary.from_dict(summary.to_dict())
        assert_allclose(back.bin_edges, summary.bin_edges)
        assert np.array_equal(back.counts, summary.counts)
        assert back.mean == summary.mean
        assert back.metadata == {"kind": "baker"}

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            bl.HistogramSummary.from_values([])

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            bl.HistogramSummary.from_values([1.0, 2.0], bins=0)

    def test_validate_catches_inconsistencies(self):
        summary = bl.HistogramSummary.from_values([0.1, 0.2, 0.3], bins=2)
        broken = bl.HistogramSummary(
            bin_edges=summary.bin_edges,
            counts=summary.counts,
            n_samples=summary.n_samples + 1,
            mean=summary.mean,
            variance=summary.variance,
            skewness=summary.skewness,
        )
        with pytest.raises(ValueError, match="sum"):
            broken.validate()

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            bl.HistogramSummary.from_dict({"mean": 0.5})
