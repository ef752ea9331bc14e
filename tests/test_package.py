import json
import os
import subprocess
import sys
from pathlib import Path

import bakerlab as bl

# the public names bakerlab exported before it re-exported the module __all__s,
# less entropy_timeseries, which moved into tests/test_entropy.py as a reference,
# and the callerless aliases matmul, dagger and is_unitary and the wrappers
# entangling_power_mc (asymptotic_power_mc's one-step window), linear_entropy
# (one column of linear_entropies) and EntropySample (a row of EntropySamples),
# which were removed
LEGACY_EXPORTS = {
    "__version__",
    "EIGEN_TOL", "NORM_TOL", "UNITARY_TOL", "Bipartition", "EigenSystem", "as_matrix", "assert_unitary",
    "eigensystem", "eigensystem_diagnostics", "kron", "max_abs",
    "partial_trace", "unitarity_defect",
    "MapKind", "antiperiodic_fourier", "baker", "bbar", "d_map", "lambda_basis", "make_map",
    "reduce_by_symmetry", "reflection", "reflection_commutator",
    "EnsembleKind", "RngStream", "haar_state", "product_state", "sample_coe", "sample_cue",
    "sample_ensemble", "sample_symmetric",
    "AsymptoticValue", "CommensurabilityReport", "EntropySamples", "ReducedEigenData",
    "asymptotic_entangling_power", "asymptotic_entropy", "asymptotic_power_mc", "commensurability_check",
    "cue_mean_entropy", "empirical_asymptotic_distribution",
    "linear_entropies",
    "ENTROPY_CSV_HEADER", "HistogramSummary", "cmatrix_from_dict", "cmatrix_to_dict", "load_cmatrix",
    "read_entropy_csv", "save_cmatrix", "write_entropy_csv",
}


def test_exports_are_the_legacy_names_plus_batched_sampling():
    assert len(bl.__all__) == len(set(bl.__all__))
    assert set(bl.__all__) == LEGACY_EXPORTS | {"product_states", "ensemble_entropies"}


def test_every_export_resolves():
    for name in bl.__all__:
        assert hasattr(bl, name), name


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's bakerlab."""
    src = str(Path(bl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env)


def test_import_loads_no_scipy():
    # scipy is the tests' oracle, not a runtime dependency
    proc = run_python("import sys, bakerlab, bakerlab.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_reversible_epinf_runs_without_scipy(tmp_path):
    # dmap is time-reversal symmetric (real eigh), lambda is not (complex eigh)
    for kind in ("dmap", "lambda"):
        out = tmp_path / f"ep-{kind}.json"
        proc = run_python(
            "import sys; sys.modules['scipy'] = None\n"
            "from bakerlab.cli import main\n"
            "sys.exit(main(['epinf', '--kind', sys.argv[1], '--d', '32', '--split', '4x8', '--out', sys.argv[2]]))",
            kind, out,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_every_subcommand_runs_without_scipy(tmp_path):
    cue = tmp_path / "cue.json"
    commands = [
        ["gen-map", "--kind", "lambda", "--d", "16", "--out", tmp_path / "lambda.json"],
        ["timeseries", "--kind", "baker", "--d", "16", "--split", "4x4", "--nmax", "3", "--out", tmp_path / "t.csv"],
        ["histogram", "--kind", "baker", "--d", "16", "--split", "4x4", "--states", "2", "--nmin", "1",
         "--nmax", "3", "--cue-reference", "4", "--out", tmp_path / "h.json"],
        ["ensemble", "--ensemble", "cue", "--d", "16", "--split", "4x4", "--samples", "2", "--states", "2",
         "--out", tmp_path / "e.json"],
        ["epinf", "--map-file", cue, "--split", "4x4", "--cross-check", "--states", "2", "--nmin", "1",
         "--nmax", "3", "--out", tmp_path / "ep.json"],
        ["spectrum-check", cue, "--out", tmp_path / "sc.json"],
    ]
    bl.save_cmatrix(cue, bl.sample_cue(16, bl.RngStream(3)))
    proc = run_python(
        "import json, sys; sys.modules['scipy'] = None\n"
        "from bakerlab.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))",
        json.dumps([[str(a) for a in argv] for argv in commands]),
    )
    assert proc.returncode == 0, proc.stderr
