import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bakerlab as bl
from bakerlab.cli import main
from bakerlab.entropy import _FIXED_BYTES, _STAGES
from bakerlab.matrixio import _header_dims


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
            {"dim_rows": True, "dim_cols": True, "entries": [[1, 0]]},  # JSON booleans as dims
        ],
    )
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            bl.cmatrix_from_dict(payload)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            bl.cmatrix_from_dict({"dim_rows": 1, "dim_cols": 1, "entries": [[np.inf, 0.0]]})

    @pytest.mark.parametrize("text", [
        pytest.param("{not json", id="not-json"),
        pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deep"),
    ])
    def test_rejects_invalid_json_file(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="JSON"):
            bl.load_cmatrix(path)

    @pytest.mark.parametrize("entry", [["1e0", 0.0], [True, 0.0], [0.0, False], [None, 0.0], [0.0, "nan"]])
    def test_rejects_entries_that_are_not_numbers(self, entry):
        with pytest.raises(ValueError, match="number pairs"):
            bl.cmatrix_from_dict({"dim_rows": 1, "dim_cols": 2, "entries": [[1, 0.0], entry]})

    def test_rejects_an_integer_beyond_float_range(self):
        with pytest.raises(ValueError, match="number pairs"):
            bl.cmatrix_from_dict({"dim_rows": 1, "dim_cols": 1, "entries": [[10**400, 0]]})


def bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


def json_load_reader(path):
    """The reader for any layout: the whole file parsed by json.load."""
    with open(path) as f:
        return bl.cmatrix_from_dict(json.load(f))


#: the opening save_cmatrix writes for a 4 x 4 matrix, and the identity's entries
HEADER_4 = '{"dim_rows": 4, "dim_cols": 4, "entries": ['
IDENTITY_4 = ["[1.0, 0.0]" if i % 5 == 0 else "[0.0, 0.0]" for i in range(16)]


def canonical_4(entries=IDENTITY_4, end="]}\n"):
    return HEADER_4 + ", ".join(entries) + end


class TestStreamedReader:
    """load_cmatrix streams files that open as save_cmatrix writes them."""

    KINDS_AND_DIMS = [(kind.value, d) for kind in bl.MapKind for d in [*range(1, 33), 48, 64, 100, 128, 256]]

    def test_gen_map_output_of_every_kind_reads_back_bit_for_bit(self, tmp_path):
        path = tmp_path / "m.json"
        for kind, d in self.KINDS_AND_DIMS:
            try:
                m = bl.make_map(kind, d)
            except ValueError:  # a dimension this kind does not exist at
                continue
            bl.save_cmatrix(path, m)  # the bytes gen-map writes
            assert _header_dims(path) == (d, d)
            streamed = bl.load_cmatrix(path)
            assert streamed.shape == (d, d) and streamed.flags.c_contiguous
            assert np.array_equal(bits(streamed), bits(m)), (kind, d)
            assert np.array_equal(bits(streamed), bits(json_load_reader(path))), (kind, d)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 11, 64])
    def test_entries_straddling_a_chunk(self, monkeypatch, tmp_path, chunk):
        rng = np.random.default_rng(chunk)
        m = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        m[0, 0], m[2, 3], m[5, 4] = complex(-0.0, 5e-324), complex(1e300, -1e-310), complex(-0.0, -0.0)
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, m)
        monkeypatch.setattr("bakerlab.matrixio._CHUNK_BYTES", chunk)
        assert np.array_equal(bits(bl.load_cmatrix(path)), bits(m))

    @pytest.mark.parametrize("layout", ["streamed", "reordered"])
    def test_signed_zeros_subnormals_and_extremes_keep_their_bits(self, tmp_path, layout):
        values = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, -1e-310, 2.2250738585072014e-308]
        m = np.array([complex(a, b) for a in values for b in values]).reshape(8, 8)
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, m)
        if layout == "reordered":
            obj = json.loads(path.read_text())
            path.write_text(json.dumps({"dim_cols": 8, "entries": obj["entries"], "dim_rows": 8}))
            assert _header_dims(path) is None
        assert np.array_equal(bits(bl.load_cmatrix(path)), bits(m))

    @pytest.mark.parametrize("text", [
        pytest.param(json.dumps({"entries": [[1, 0], [0, 1]], "dim_rows": 1, "dim_cols": 2}), id="key-order"),
        pytest.param(json.dumps({"dim_rows": 1, "dim_cols": 2, "entries": [[1, 0], [0, 1]]}, indent=1),
                     id="indented"),
        pytest.param('{"dim_rows":1,"dim_cols":2,"entries":[[1,0],[0,1]]}', id="compact"),
        pytest.param('{"dim_rows": 1, "dim_cols": 2, "entries": [[1, 0],[0, 1]]}', id="compact-entries"),
        pytest.param('{"dim_rows": 1, "dim_cols": 2, "entries": [ [1, 0] ,\n\t[0, 1] ] }', id="spaced-entries"),
        pytest.param('{"dim_rows": 1, "dim_cols": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}', id="no-newline"),
    ])
    def test_other_layouts_read_the_same_matrix(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        expected = np.array([[1, 1j]])
        assert np.array_equal(bits(bl.load_cmatrix(path)), bits(expected))
        assert np.array_equal(bits(json_load_reader(path)), bits(expected))

    #: files that open as save_cmatrix writes and must be refused; None marks
    #: a JSON error, whose message names the byte instead of json.load's column
    MALFORMED = [
        pytest.param(canonical_4(end="")[:-3], None, id="truncated-mid-entry"),
        pytest.param(canonical_4(end=""), None, id="no-closing-brackets"),
        pytest.param(canonical_4(end="]"), None, id="no-closing-brace"),
        pytest.param(canonical_4(end="}\n"), None, id="no-closing-bracket"),
        pytest.param(canonical_4(IDENTITY_4[:-1]), "expected 16 entries, got 15", id="one-short"),
        pytest.param(canonical_4(IDENTITY_4 + ["[0.0, 0.0]"]), "expected 16 entries, got 17", id="one-extra"),
        pytest.param(canonical_4(end=", ]}"), None, id="trailing-comma"),
        pytest.param(canonical_4(["[1.0]"] + IDENTITY_4[1:]), "number pairs", id="single"),
        pytest.param(canonical_4(IDENTITY_4[:-1] + ["[1, 2, 3]"]), "number pairs", id="triple"),
        pytest.param(canonical_4(["[NaN, 0]"] + IDENTITY_4[1:]), "finite", id="nan"),
        pytest.param(canonical_4(IDENTITY_4[:-1] + ["[0, Infinity]"]), "finite", id="infinity"),
        pytest.param(canonical_4(["[+1, 0]"] + IDENTITY_4[1:]), None, id="plus-sign"),
        pytest.param(canonical_4(["[01, 0]"] + IDENTITY_4[1:]), None, id="leading-zero"),
        pytest.param(canonical_4(end="]}\njunk"), None, id="trailing-junk"),
        pytest.param(canonical_4(end="]}]}"), None, id="closed-twice"),
        pytest.param(canonical_4([f"[1{'0' * 400}, 0]"] + IDENTITY_4[1:]), "number pairs", id="integer-overflow"),
        pytest.param(canonical_4(["[" * 100000 + "]" * 100000] + IDENTITY_4[1:]), None, id="nested-too-deep"),
        # the count is checked before the pairs, and the pairs before finiteness
        pytest.param(canonical_4(["[NaN, 0]", "[1]"] + IDENTITY_4[2:-1]), "expected 16 entries, got 15",
                     id="short-bad-pair"),
        pytest.param(canonical_4(["[NaN, 0]"] + IDENTITY_4[1:-1] + ["[1]"]), "number pairs", id="nan-and-pair"),
        # JSON values that float conversion would take as numbers
        pytest.param(canonical_4(['["1e0", 0.0]'] + IDENTITY_4[1:]), "number pairs", id="string"),
        pytest.param(canonical_4(IDENTITY_4[:-1] + ["[0.0, true]"]), "number pairs", id="true"),
        pytest.param(canonical_4(["[false, 0.0]"] + IDENTITY_4[1:]), "number pairs", id="false"),
        pytest.param(canonical_4(IDENTITY_4[:5] + ["[null, 0.0]"] + IDENTITY_4[6:]), "number pairs", id="null"),
        pytest.param(canonical_4(['[{"re": 1}, 0]'] + IDENTITY_4[1:]), "number pairs", id="object"),
        pytest.param(canonical_4(["[NaN, 0]"] + IDENTITY_4[1:-1] + ["[true, 0]"]), "number pairs",
                     id="nan-and-boolean"),
    ]

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed_files_are_refused(self, tmp_path, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        assert _header_dims(path) == (4, 4)
        with pytest.raises(ValueError) as streamed:
            bl.load_cmatrix(path)
        if message is None:
            assert str(streamed.value).startswith(f"{path} is not valid JSON: ")
        else:  # the message the json.load path gives
            assert message in str(streamed.value)
            with pytest.raises(ValueError, match=re.escape(str(streamed.value))):
                json_load_reader(path)

    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_chunk_size_does_not_change_the_verdict(self, monkeypatch, tmp_path, chunk, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        monkeypatch.setattr("bakerlab.matrixio._CHUNK_BYTES", chunk)
        with pytest.raises(ValueError, match="is not valid JSON" if message is None else message):
            bl.load_cmatrix(path)

    @pytest.mark.parametrize("argv", [["spectrum-check"], ["epinf", "--split", "2x2", "--map-file"]])
    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_commands_exit_2_on_a_malformed_file(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        out = tmp_path / "x.json"
        assert main([*argv, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("is not valid JSON" if message is None else message) in err
        assert not out.exists()

    #: the same 1 x 2 matrix of non-numbers, in the layout save_cmatrix writes and in another
    NOT_NUMBERS = {
        "streamed": '{"dim_rows": 1, "dim_cols": 2, "entries": [["1e0", true], [false, "2"]]}\n',
        "reordered": '{"entries": [["1e0", true], [false, "2"]], "dim_rows": 1, "dim_cols": 2}\n',
    }

    @pytest.mark.parametrize("layout", sorted(NOT_NUMBERS))
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, layout):
        path = tmp_path / "m.json"
        path.write_text(self.NOT_NUMBERS[layout])
        assert (_header_dims(path) is None) == (layout == "reordered")
        for reader in (bl.load_cmatrix, json_load_reader):
            with pytest.raises(ValueError, match="must be \\[real, imag\\] number pairs"):
                reader(path)

    @pytest.mark.parametrize("argv", [["spectrum-check"], ["epinf", "--split", "2x2", "--map-file"]])
    @pytest.mark.parametrize("layout", ["streamed", "reordered"])
    def test_commands_exit_2_on_entries_that_are_not_numbers(self, tmp_path, capsys, argv, layout):
        entries = ['["1e0", true]', '[false, "2"]'] + IDENTITY_4[2:]
        text = canonical_4(entries)
        if layout == "reordered":
            text = json.dumps({"entries": json.loads(text)["entries"], "dim_rows": 4, "dim_cols": 4})
        path = tmp_path / "m.json"
        path.write_text(text)
        assert (_header_dims(path) is None) == (layout == "reordered")
        out = tmp_path / "x.json"
        assert main([*argv, str(path), "--out", str(out)]) == 2
        assert "error: matrix entries must be [real, imag] number pairs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gap", [" ", "\n", " \t\r\n "])
    def test_whitespace_before_commas_is_cut_there(self, tmp_path, gap):
        d = 256
        m = bl.baker(d)
        path = tmp_path / "m.json"
        bl.save_cmatrix(path, m)
        text = path.read_bytes()
        assert text.count(b"], [") == d * d - 1
        path.write_bytes(text.replace(b"], [", b"]" + gap.encode() + b",["))
        assert _header_dims(path) == (d, d)
        tracemalloc.start()
        try:
            streamed = bl.load_cmatrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(bits(streamed), bits(m))
        assert np.array_equal(bits(streamed), bits(json_load_reader(path)))
        assert peak < _STAGES["read"](d * d) + _FIXED_BYTES

    def test_header_overstating_its_entries_is_refused_by_the_count(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim_rows": 100000000, "dim_cols": 100000000, "entries": [[1.0, 0.0]]}\n')
        with pytest.raises(ValueError, match="expected 10000000000000000 entries, got 1"):
            bl.load_cmatrix(path)


class TestEntropyCsv:
    def make_samples(self, n_min=1):
        return bl.EntropySamples([[0.1, 0.12345678901234567, 0.5], [0.0, 0.875, 0.25]], n_min)

    @pytest.mark.parametrize("n_min", [1, 513])
    def test_roundtrip(self, tmp_path, n_min):
        path = tmp_path / "s.csv"
        samples = self.make_samples(n_min)
        bl.write_entropy_csv(path, samples, {"kind": "baker", "seed": 7})
        assert path.read_text().splitlines()[3:6] == [f"0,{n_min},0.1", f"0,{n_min + 1},{0.12345678901234567!r}",
                                                      f"0,{n_min + 2},0.5"]
        back, metadata = bl.read_entropy_csv(path)
        assert back.n_min == n_min
        assert np.array_equal(back.values, samples.values)  # repr round-trips floats exactly
        assert metadata == {"kind": "baker", "seed": "7"}

    @pytest.mark.parametrize("metadata", [
        {"note": "two\nlines"},  # read back as a header line 'lines'
        {"note": "two\rlines"},
        {"a=b": 1},  # read back as {"a": "b = 1"}
        {"a\nb": 1},
        {" k": "x"},  # read back stripped, as {"k": "x"}
        {"k ": "x"},
        {"k": " x "},
        {"k": "x\t"},
    ])
    def test_refuses_metadata_it_cannot_read_back(self, tmp_path, metadata):
        path = tmp_path / "s.csv"
        bl.write_entropy_csv(path, self.make_samples(), {"seed": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="would not read back"):
            bl.write_entropy_csv(path, self.make_samples(), {"seed": 2, **metadata})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    def test_header_and_comment_format(self, tmp_path):
        path = tmp_path / "s.csv"
        bl.write_entropy_csv(path, self.make_samples(), {"seed": 7})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed = 7"
        assert lines[1] == bl.ENTROPY_CSV_HEADER
        assert lines[2] == "0,1,0.1"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        bl.write_entropy_csv(path, self.make_samples(), {"seed": 7})
        path.write_text("\n" + path.read_text().replace("\n", "\n\n"))
        samples, metadata = bl.read_entropy_csv(path)
        assert np.array_equal(samples.values, self.make_samples().values) and metadata == {"seed": "7"}

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
            "# seed = 1\nstate_id,n,S_L\n",  # header only
            "state_id,n,S_L\n0,1,0.5\n0,2,0.5\n1,1,0.5\n",  # ragged: state 1 lacks step 2
            "state_id,n,S_L\n0,1,0.5\n1,1,0.5\n0,2,0.5\n1,2,0.5\n",  # step-major, not state-major
            "state_id,n,S_L\n0,2,0.5\n0,1,0.5\n1,2,0.5\n1,1,0.5\n",  # steps out of order
            "state_id,n,S_L\n1,1,0.5\n0,1,0.5\n",  # states out of order
            "state_id,n,S_L\n0,1,0.5\n0,3,0.5\n",  # a step skipped
            "state_id,n,S_L\n1,1,0.5\n1,2,0.5\n",  # no state 0
            "state_id,n,S_L\n0,0,0.5\n0,1,0.5\n",  # step 0
            "# seed 1\nstate_id,n,S_L\n0,1,0.5\n",  # metadata line without '='
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

    @pytest.mark.parametrize("change, message", [
        ({"bin_edges": [0.0, 1.0]}, r"len\(bin_edges\) == len\(counts\) \+ 1"),
        ({"bin_edges": [0.0, 0.5, 0.5]}, "strictly increasing"),
        ({"counts": [4, -1]}, "nonnegative and sum"),  # sums to n_samples
        ({"counts": [1, 1]}, "nonnegative and sum"),
        ({"mean": 2.0}, "outside the binned range"),
        ({"variance": -1e-3}, "variance must be nonnegative"),
    ])
    def test_from_dict_refuses_each_inconsistency(self, change, message):
        good = bl.HistogramSummary.from_values([0.1, 0.2, 0.3], bins=2).to_dict()
        assert bl.HistogramSummary.from_dict(good).to_dict() == good
        with pytest.raises(ValueError, match=message):
            bl.HistogramSummary.from_dict({**good, **change})

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            bl.HistogramSummary.from_dict({"mean": 0.5})
