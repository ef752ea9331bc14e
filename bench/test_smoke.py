"""Smoke test of the benchmark itself at toy sizes.

    python3 -m pytest -q bench

Checks that every metric named in BENCHMARK.json comes out with its unit,
that traced runs write well-formed spans with valid parent links, and that
tracing leaves no wrapper behind.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SPAN_KEYS = {"id", "parent", "job", "name", "start", "end", "kind", "d", "split"}


def _check_metrics(line: dict, spec: list):
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    record = run.run(workload, seed=3, seconds=0.01, trace=False, root=ROOT, tiny=True)
    line = run.final_line(record)
    _check_metrics(line, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert json.loads(json.dumps(line)) == line


def _load_spans(path: Path) -> list[dict]:
    with gzip.open(path, "rt") as f:
        return [json.loads(line) for line in f]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_linked_spans(workload):
    record = run.run(workload, seed=3, seconds=0.01, trace=True, root=ROOT, tiny=True)
    _check_metrics(run.final_line(record), SPEC["per_layer"])

    rows = _load_spans(ROOT / record["spans_file"])
    assert len(rows) == record["span_count"] > 0
    by_id = {r["id"]: r for r in rows}
    assert len(by_id) == len(rows)
    for r in rows:
        assert set(r) >= SPAN_KEYS
        assert r["start"] <= r["end"]
        if r["parent"] is None:
            assert r["name"] == spans.ROOT
            continue
        p = by_id[r["parent"]]
        assert p["job"] == r["job"]
        assert p["start"] <= r["start"] and r["end"] <= p["end"]

    names = {r["name"] for r in rows}
    parents = {(by_id[r["parent"]]["name"], r["name"]) for r in rows if r["parent"] is not None}
    assert (spans.ROOT, "cli.main") in parents
    if workload == "spectral":
        # both bindings of eigensystem_diagnostics are patched: cli's and linalg's own
        assert ("linalg.eigensystem", "linalg.eigensystem_diagnostics") in parents
        assert ("cli.cmd_epinf", "linalg.eigensystem_diagnostics") in parents
        assert {"matrixio.save_cmatrix", "matrixio.load_cmatrix"} <= names
    if workload == "ensemble":
        assert ("cli.cmd_ensemble", "ensembles.product_state") in parents


def test_unpatch_restores_every_binding():
    import bakerlab.cli
    import bakerlab.entropy
    import bakerlab.linalg

    original = bakerlab.linalg.eigensystem_diagnostics
    from_eig = bakerlab.entropy.ReducedEigenData.__dict__["from_eigensystem"]
    rec = spans.Recorder()
    rec.patch()
    try:
        assert bakerlab.cli.eigensystem_diagnostics is bakerlab.linalg.eigensystem_diagnostics
        assert bakerlab.linalg.eigensystem_diagnostics is not original
        assert bakerlab.entropy.product_state is bakerlab.cli.product_state
    finally:
        rec.unpatch()
    assert bakerlab.cli.eigensystem_diagnostics is original
    assert bakerlab.linalg.eigensystem_diagnostics is original
    assert bakerlab.entropy.ReducedEigenData.__dict__["from_eigensystem"] is from_eig
