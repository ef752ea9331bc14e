"""Command-line interface: generate maps and reproduce the entropy
experiments as deterministic CSV/JSON files.

Exit codes: 0 on success, 2 for configuration errors (bad flags, impossible
dimensions, malformed, unreadable or unwritable files), 3 for numerical
failures (non-unitary inputs, eigensolver rejections).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
from numpy.linalg import LinAlgError

from . import __version__
# product_state is no longer called here; bench/test_smoke.py checks that it
# stays bound in this module
from .ensembles import EnsembleKind, RngStream, _haar_rows, product_state  # noqa: F401
from .entropy import (
    ENSEMBLE_STREAM_LAYOUT,
    ITERATION_VERSION,
    asymptotic_entangling_power,
    asymptotic_power_mc,
    commensurability_check,
    cue_mean_entropy,
    empirical_asymptotic_distribution,
    ensemble_entropies,
    linear_entropies,
    ReducedEigenData,
    _check_memory,
    _require_memory,
)
from .linalg import Bipartition, eigensystem, eigensystem_diagnostics
from .maps import MAP_VERSION, MapKind, make_map
from .matrixio import _MIN_ENTRY_BYTES, _header_dims, atomic_write, load_cmatrix, save_cmatrix
from .reports import HistogramSummary, write_entropy_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: workload presets: "desk" finishes in seconds, "paper" matches the
#: publication-scale protocols (10^6 .. 2x10^6 samples).  The counts both
#: presets share (timeseries --states 5 and --nmax 100, window --nmin 513)
#: are the flags' defaults.
PROFILES = {
    "desk": {
        "window_nmax": 1512,
        "window_states": 100,
        "ensemble_samples": 300,
        "ensemble_states": 300,
        "crosscheck_states": 100,
    },
    "paper": {
        "window_nmax": 2512,
        "window_states": 1000,
        "ensemble_samples": 1000,
        "ensemble_states": 1000,
        "crosscheck_states": 500,
    },
}

#: complex d x d arrays alive at once while epinf builds, solves and checks a
#: map, the map included.  tracemalloc reads at most 5.3 in ``eigensystem``
#: (D' at d = 300 and D at 256, whose unsplit solve holds the map, V's real
#: basis, S and eigh's arrays; 4.5 at d = 512 and 1024, B, Bbar and the
#: complex eigh 3.4-3.8), 2.0 in the diagnostics and 3.0 in the resonance
#: scan, which runs with the eigenvectors once the map is gone; at
#: d <= 128, where each block is the whole matrix, up to 7.3
_EIGEN_COPIES = 6
#: epinf's reduced eigenvector data holds d (d_a^2 + d_b^2) complex entries,
#: and its eigenvector blocks add at most 0.34 times that (tracemalloc at
#: d = 64..1024, splits 2x128..32x32) next to the eigenvectors; the formula
#: adds two blocks of Gram rows, no d x d array.  Over every stage of B,
#: Bbar, D and the complex eigh at d = 256, splits 16x16 and 2x128, the peak
#: stays between 0.5 and 1 of the larger stage the two constants give
#: (tests/test_cli.py)
_REDUCED_COPIES = 1.5
#: ``load_cmatrix`` streams a map file that opens as ``save_cmatrix`` writes
#: it into the matrix it returns, one 16 KiB chunk of entries at a time:
#: tracemalloc reads 1.24 and 1.06 complex d x d arrays at d = 256 and 512,
#: the chunk's ~240 KiB of Python lists beyond the matrix
_READ_COPIES = 2
#: a map file in any other layout is parsed whole by ``json.load``: the text
#: and one Python ``[re, im]`` list per entry, 11.8-12.05 complex d x d
#: arrays' worth by tracemalloc for B at d = 16..1024 and 10.9 for Bbar at
#: d = 256, whose shorter text leaves the conversion to the array as the
#: peak.  Either reader is done before the eigensolve starts, so a map file
#: run needs the larger of its reader's budget and the eigensolve's
_JSON_LOAD_COPIES = 12.5
#: more than the 54 bytes ``save_cmatrix`` writes per entry at most; a file
#: longer than its header's entries take at this width is budgeted from its
#: size, like a file without the header
_MAX_ENTRY_BYTES = 64
#: gen-map holds the map, its builder's temporaries and one row as Python
#: floats and JSON text: tracemalloc reads 1.0-2.4 complex d x d arrays'
#: worth at d = 256..1024, the most for D and D' at 256, whose 128 unit rows
#: and their scratch make one more d x d array
_GEN_MAP_COPIES = 3
#: bytes per float64 sample summarized (a histogram's window, ensemble
#: entropies, --cue-reference draws) with the summary's temporaries, and per
#: histogram bin (counts, edges and their JSON lists): tracemalloc reads at
#: most 28 and 57, and each count above 256 adds a 28-byte Python int
_SAMPLE_BYTES, _BIN_BYTES = 32, 96
#: complex (S, d) state batches and d x d arrays alive at once per ensemble
#: map: tracemalloc reads at most 3.1 and 4.1 at d = 16..256
_ENSEMBLE_COPIES = 5

# reference draws (for --cue-reference) use stream ids in a disjoint block so
# they can never collide with the per-state streams of the main sweep
_REFERENCE_STREAM_BASE = 2**32
#: --cue-reference states drawn from one stream as one batch
_REFERENCE_CHUNK = 256
#: complex (_REFERENCE_CHUNK, d) arrays alive at once while a chunk is drawn
#: and reduced: tracemalloc reads at most 3.0 at d = 256..1024 (at d = 16
#: fixed overheads dominate, under 1 MB in all)
_REFERENCE_COPIES = 4
#: version of the --cue-reference stream layout, recorded in the report.
#: Layout 1 (unrecorded) drew reference i from stream _REFERENCE_STREAM_BASE + i;
#: layout 2 draws chunk c, references c * _REFERENCE_CHUNK onward, as one
#: batch from stream _REFERENCE_STREAM_BASE + c
REFERENCE_STREAM_LAYOUT = 2
#: version of the epinf report's arithmetic, recorded in its metadata.
#: Version 1 (unrecorded) summed the squares of the two d x d Gram matrices
#: whole; version 2 sums them over row blocks (see
#: ``entropy._gram_sums``), which moves the last bits of e_p(inf)
_REPORT_VERSION = 2


def parse_split(text: str) -> Bipartition:
    """Parse an ``AxB`` subsystem split, e.g. ``16x16``."""
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"--split must look like AxB (e.g. 16x16), got {text!r}")
    try:
        d_a, d_b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--split must hold two integers, got {text!r}") from None
    return Bipartition(d_a, d_b)


def _resolve(explicit, profile: dict, key: str):
    return profile[key] if explicit is None else explicit


def _count(flag: str, value: int, low: int) -> int:
    """``value`` of a count flag, refused below ``low`` before any map is built."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")
    return value


def _window(args, profile: dict) -> tuple[int, int]:
    """The recorded window from --nmin/--nmax, refused unless 1 <= n_min <= n_max."""
    n_min = args.nmin
    n_max = _resolve(args.nmax, profile, "window_nmax")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= --nmin <= --nmax, got --nmin {n_min} --nmax {n_max}")
    return n_min, n_max


def _split(args, d: int) -> Bipartition:
    """The --split bipartition, refused unless it multiplies to ``d``."""
    part = parse_split(args.split)
    if part.d != d:
        raise ValueError(f"split {part.d_a}x{part.d_b} does not multiply to d = {d}")
    return part


def _check_epinf_memory(part: Bipartition, cross=None):
    """Refuse a split whose map, eigensolve and reduced data cannot fit in physical memory.

    The stages do not overlap: the map is dropped after the eigensolve and
    its certificate, the scan's arrays before the reduction.  So the
    estimate is the larger of the eigensolve's ``_EIGEN_COPIES`` d x d
    arrays, the map included, and the eigenvectors with the reduction's
    ``_REDUCED_COPIES`` sets of reduced density matrices.  ``cross`` holds
    the ``(n_states, n_min, n_max)`` of --cross-check, whose engine run is
    checked here too, before the eigensolve instead of after it, with the
    map counted: built by the engine from a kind, or held from the file.
    """
    d = part.d
    copies = max(_EIGEN_COPIES * d, d + _REDUCED_COPIES * (part.d_a**2 + part.d_b**2))
    _require_memory(16 * d * copies, f"--d {d} with split {part.d_a}x{part.d_b} needs")
    if cross is not None:
        n_states, n_min, n_max = cross
        _check_memory(d, n_states, n_max - n_min + 1, built=True)


def _tolerance(text: str) -> float:
    """Parse --tol, refused outside (0, 1) before any map is built or loaded."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _metadata(args, **fields) -> dict:
    """Artifact metadata: the command, its ``fields``, then ``seed`` and
    ``profile`` where the command takes them, then the package version."""
    run = {key: value for key, value in vars(args).items() if key in ("seed", "profile")}
    return {"command": args.command, **fields, **run, "version": __version__}


def _check_outputs(args):
    """Refuse an --out or --raw-csv whose directory is missing or unwritable, before any work."""
    for flag in ("out", "raw_csv"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        head = os.path.dirname(path) or "."
        if not os.path.isdir(head):
            problem = f"no directory {head}"
        elif os.path.isdir(path):
            problem = "it is a directory"
        elif not os.access(head, os.W_OK | os.X_OK):
            problem = f"directory {head} is not writable"
        else:
            continue
        raise ValueError(f"cannot write --{flag.replace('_', '-')} {path}: {problem}")


def _map_file_dim(path, d=None):
    """Refuse a map file that ``load_cmatrix`` cannot read in physical memory, before it parses an entry.

    A file that opens with the header ``save_cmatrix`` writes is budgeted at
    ``_READ_COPIES`` per ``dim_rows`` x ``dim_cols`` entry; one without it,
    or longer than its header's entries take, at ``_JSON_LOAD_COPIES`` per
    ``_MIN_ENTRY_BYTES`` of its size.  A header that fails
    :func:`_check_square` is refused here too.  Returns the dimension of the
    header, else None.
    """
    size = os.path.getsize(path)
    dims = _header_dims(path)
    if dims is not None and size > _MAX_ENTRY_BYTES * (dims[0] * dims[1] + 1):
        dims = None
    if dims is None:
        need, what = _JSON_LOAD_COPIES * (size // _MIN_ENTRY_BYTES + 1), f"{size} bytes"
    else:
        need, what = _READ_COPIES * dims[0] * dims[1], "{}x{}".format(*dims)
    _require_memory(16 * need, f"reading map file {path} ({what}) needs")
    if dims is not None:
        _check_square(*dims, d)
        return dims[0]


def _read_map_file(path, check, d=None):
    """Load the square map in the file ``path``, refused by ``check(dim)`` before it is parsed where that can be told.

    ``check`` budgets the stages after the read.  :func:`_map_file_dim`
    budgets the reader first and gives the header's dimension, which
    ``check`` is run on; a file without the header is checked once parsed.
    ``d`` is --d where given, which the file's dimension must match.
    """
    dim = _map_file_dim(path, d)
    if dim is not None:
        check(dim)
    u = load_cmatrix(path)
    _check_square(*u.shape, d)
    if dim is None:
        check(u.shape[0])
    return u


def _check_spectrum_memory(d):
    """Refuse a ``d`` x ``d`` map whose eigensolve, scan and diagnostics cannot fit in physical memory."""
    _require_memory(16 * _EIGEN_COPIES * d * d, f"the eigensolve of a {d}x{d} map needs")


def _check_square(rows, cols, d=None):
    """Refuse a map file's matrix unless it is square, and ``d`` x ``d`` when ``d`` is given."""
    if rows != cols:
        raise ValueError(f"map file holds a non-square {rows}x{cols} matrix")
    if d is not None and d != rows:
        raise ValueError(f"--d {d} conflicts with map file dimension {rows}")


def _write_json(path, obj):
    if path is None:
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _report(args, obj, line: str):
    """Write ``obj`` to --out and print ``line``; to stderr when stdout carries the JSON."""
    _write_json(args.out, obj)
    print(line, file=sys.stderr if args.out is None else sys.stdout)


def cmd_gen_map(args) -> int:
    _require_memory(16 * _GEN_MAP_COPIES * args.d**2, f"--d {args.d} needs")
    matrix = make_map(args.kind, args.d)
    save_cmatrix(args.out, matrix)
    print(f"wrote {args.kind} map, dimension {args.d}, to {args.out}")
    return EXIT_OK


def cmd_timeseries(args) -> int:
    part = _split(args, args.d)
    n_states = _count("--states", args.states, 1)
    n_max = _count("--nmax", args.nmax, 1)
    samples = empirical_asymptotic_distribution(args.kind, part, 1, n_max, n_states, RngStream(args.seed))
    metadata = _metadata(
        args, kind=args.kind, d=args.d, split=f"{part.d_a}x{part.d_b}", states=n_states, n_max=n_max,
        iteration_version=ITERATION_VERSION, map_version=MAP_VERSION,
    )
    write_entropy_csv(args.out, samples, metadata)
    print(f"wrote {len(samples)} entropy samples ({n_states} states x {n_max} steps) to {args.out}")
    return EXIT_OK


def cmd_histogram(args) -> int:
    profile = PROFILES[args.profile]
    part = _split(args, args.d)
    n_states = _count("--states", _resolve(args.states, profile, "window_states"), 1)
    n_min, n_max = _window(args, profile)
    _count("--bins", args.bins, 1)
    n_ref = _count("--cue-reference", args.cue_reference, 0)
    chunk = 16 * _REFERENCE_COPIES * min(n_ref, _REFERENCE_CHUNK) * part.d
    n_samples = n_states * (n_max - n_min + 1)
    _require_memory(_SAMPLE_BYTES * (n_samples + n_ref) + chunk + _BIN_BYTES * args.bins * (2 if n_ref else 1),
                    f"{n_samples} samples with --bins {args.bins} and --cue-reference {n_ref} need")
    samples = empirical_asymptotic_distribution(args.kind, part, n_min, n_max, n_states, RngStream(args.seed))
    metadata = _metadata(
        args, kind=args.kind, d=args.d, split=f"{part.d_a}x{part.d_b}", states=n_states,
        n_min=n_min, n_max=n_max, bins=args.bins, iteration_version=ITERATION_VERSION,
        map_version=MAP_VERSION,
    )
    summary = HistogramSummary.from_values(samples.values, args.bins, metadata)
    report = summary.to_dict()
    report["cue_mean_entropy"] = cue_mean_entropy(part)
    report["cue_reference"] = None
    if n_ref:
        ref = np.empty(n_ref)
        for c, start in enumerate(range(0, n_ref, _REFERENCE_CHUNK)):
            gen = RngStream(args.seed, _REFERENCE_STREAM_BASE + c).generator()
            states = _haar_rows(gen, min(_REFERENCE_CHUNK, n_ref - start), part.d)
            ref[start:start + len(states)] = linear_entropies(states.T, part)
        report["cue_reference"] = HistogramSummary.from_values(
            ref, args.bins, {"samples": n_ref, "reference_layout": REFERENCE_STREAM_LAYOUT}
        ).to_dict()
    if args.raw_csv:
        write_entropy_csv(args.raw_csv, samples, metadata)
    _report(args, report, (
        f"{len(samples)} samples in window [{n_min}, {n_max}]: mean {summary.mean:.6f} "
        f"(random-state reference {report['cue_mean_entropy']:.6f}) -> {args.out}"
    ))
    return EXIT_OK


def cmd_ensemble(args) -> int:
    profile = PROFILES[args.profile]
    kind = EnsembleKind(args.ensemble)
    part = _split(args, args.d)
    _count("--bins", args.bins, 1)
    n_maps = _count("--samples", _resolve(args.samples, profile, "ensemble_samples"), 1)
    n_states = _count("--states", _resolve(args.states, profile, "ensemble_states"), 1)
    need = _SAMPLE_BYTES * n_maps * n_states + 16 * _ENSEMBLE_COPIES * args.d * (n_states + args.d)
    _require_memory(need + _BIN_BYTES * args.bins,
                    f"--samples {n_maps} x --states {n_states} at --d {args.d} with --bins {args.bins} need")
    values = ensemble_entropies(kind, args.d, part, n_maps, n_states, RngStream(args.seed))
    metadata = _metadata(
        args, ensemble=kind.value, d=args.d, split=f"{part.d_a}x{part.d_b}", samples=n_maps,
        states=n_states, bins=args.bins, stream_layout=ENSEMBLE_STREAM_LAYOUT,
    )
    summary = HistogramSummary.from_values(values.ravel(), args.bins, metadata)
    report = summary.to_dict()
    report["cue_mean_entropy"] = cue_mean_entropy(part)
    per_map = values.mean(axis=1)
    report["mean_std_error"] = (
        float(per_map.std(ddof=1) / np.sqrt(n_maps)) if n_maps >= 2 else None
    )
    _report(args, report, f"{kind.value} ensemble, {n_maps} maps x {n_states} states: "
                          f"mean {summary.mean:.6f} -> {args.out}")
    return EXIT_OK


def cmd_epinf(args) -> int:
    profile = PROFILES[args.profile]
    cross = None
    if args.cross_check:  # refused before the map, the eigensolve and the scan
        n_states = _count("--states", _resolve(args.states, profile, "crosscheck_states"), 2)
        cross = (n_states, *_window(args, profile))
    if args.map_file is None and (args.kind is None or args.d is None):
        raise ValueError("need either --map-file or both --kind and --d")

    def check(dim):  # with --d the file's dimension must equal it, so the file's check repeats this one
        _check_epinf_memory(_split(args, dim), cross)

    if args.d is not None:  # refused before the map is built or loaded
        check(args.d)
    if args.map_file is not None:
        u, label = _read_map_file(args.map_file, check, args.d), f"file:{args.map_file}"
    else:
        u, label = make_map(args.kind, args.d), args.kind
    d = u.shape[0]
    part = _split(args, d)
    eig = eigensystem(u)  # refuses a non-unitary u with LinAlgError (exit 3)
    certificate = eigensystem_diagnostics(u, eig)  # eigensystem's certificate, by one hash of u
    # the map goes once its certificate is read; a cross-check by kind iterates the kind
    source = u if args.map_file is not None and cross is not None else args.kind
    del u
    resonance = commensurability_check(eig.phases, tol=args.tol)
    # the reduced data is dropped before the cross-check below runs
    reduced = ReducedEigenData.from_eigensystem(eig, part)
    power = asymptotic_entangling_power(eig, part, reduced=reduced, resonance=resonance)
    del reduced
    # the engine's version is recorded only where the engine ran, the map's where a kind was built
    engine = {} if cross is None else {"iteration_version": ITERATION_VERSION}
    built = {} if args.map_file is not None else {"map_version": MAP_VERSION}
    report = {
        "metadata": _metadata(args, kind=label, d=d, split=f"{part.d_a}x{part.d_b}", tol=args.tol,
                              **engine, **built, report_version=_REPORT_VERSION),
        "entangling_power_asymptotic": power.value,
        "assumptions_violated": power.assumptions_violated,
        "resonance": resonance.to_dict(),
        "eigensolver": certificate,
        "cue_mean_entropy": cue_mean_entropy(part),
    }
    flag = " [resonances flagged]" if power.assumptions_violated else ""
    line = f"asymptotic entangling power of {label} ({part.d_a}x{part.d_b}): {power.value:.6f}{flag}"
    if cross is not None:
        n_states, n_min, n_max = cross
        mc_mean, mc_se = asymptotic_power_mc(source, part, n_states, n_min, n_max, RngStream(args.seed))
        report["cross_check"] = {
            "mc_mean": mc_mean,
            "mc_std_error": mc_se,
            "n_states": n_states,
            "n_min": n_min,
            "n_max": n_max,
            "abs_difference": abs(mc_mean - power.value),
            "sigma": abs(mc_mean - power.value) / mc_se if mc_se > 0 else None,
        }
        line += f"; Monte-Carlo {mc_mean:.6f} +/- {mc_se:.6f}"
    _report(args, report, line)
    return EXIT_OK


def cmd_spectrum_check(args) -> int:
    u = _read_map_file(args.map_file, _check_spectrum_memory)
    eig = eigensystem(u)  # refuses a non-unitary u with LinAlgError (exit 3)
    resonance = commensurability_check(eig.phases, tol=args.tol)
    report = {
        "metadata": _metadata(args, map_file=args.map_file, d=int(u.shape[0]), tol=args.tol),
        "phases": [float(p) for p in eig.phases],
        "eigensolver": eigensystem_diagnostics(u, eig),  # eigensystem's certificate, by one hash of u
        "resonance": resonance.to_dict(),
    }
    found = resonance.violation_count if resonance.has_nontrivial_resonance else "no"
    _report(args, report, f"d={resonance.dim}: {found} nontrivial resonances within {args.tol:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bakerlab",
        description="Quantized baker maps, random ensembles, and entangling-power measurements.",
    )
    parser.add_argument("--version", action="version", version=f"bakerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in MapKind]

    # shared by every command that records a split and a seed; preset by the
    # ones whose counts default to a workload profile
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--split", required=True, help="subsystem split AxB with A*B = d")
    run.add_argument("--seed", type=int, default=1)
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    # the flags of the two commands that scan eigenphases and may report to stdout
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--tol", type=_tolerance, default=1e-8, help="resonance tolerance, in (0, 1)")
    scan.add_argument("--out", default=None, help="output JSON path (stdout when omitted)")

    p = sub.add_parser("gen-map", help="write a named map as a cmatrix-json file")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--d", required=True, type=int, help="Hilbert-space dimension")
    p.add_argument("--out", required=True, help="output cmatrix-json path")
    p.set_defaults(func=cmd_gen_map)

    p = sub.add_parser("timeseries", parents=[run], help="entropy of iterated product states, as CSV")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--states", type=int, default=5, help="number of initial product states")
    p.add_argument("--nmax", type=int, default=100, help="number of map applications")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_timeseries)

    p = sub.add_parser("histogram", parents=[run, preset],
                       help="late-time entropy histogram of one map, as JSON")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--states", type=int, default=None)
    p.add_argument("--nmin", type=int, default=513, help="first recorded application count")
    p.add_argument("--nmax", type=int, default=None, help="last recorded application count")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--cue-reference", type=int, default=0, metavar="N",
                   help="also histogram N Haar-random full-space states")
    p.add_argument("--raw-csv", default=None, help="optionally dump the raw samples as CSV")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("ensemble", parents=[run, preset],
                       help="single-application entropy histogram over a random-map ensemble")
    p.add_argument("--ensemble", required=True, choices=[k.value for k in EnsembleKind])
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--samples", type=int, default=None, help="number of maps to draw")
    p.add_argument("--states", type=int, default=None, help="product states per map")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("epinf", parents=[run, preset, scan],
                       help="closed-form asymptotic entangling power, as JSON")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--kind", choices=kinds, default=None)
    source.add_argument("--map-file", default=None, help="cmatrix-json map to analyze instead of --kind/--d")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--cross-check", action="store_true",
                   help="also run the brute-force late-time Monte-Carlo estimate")
    p.add_argument("--states", type=int, default=None, help="cross-check states")
    p.add_argument("--nmin", type=int, default=513, help="cross-check window start")
    p.add_argument("--nmax", type=int, default=None, help="cross-check window end")
    p.set_defaults(func=cmd_epinf)

    p = sub.add_parser("spectrum-check", parents=[scan], help="eigenphase resonance scan of a stored map")
    p.add_argument("map_file", help="cmatrix-json file holding a unitary matrix")
    p.set_defaults(func=cmd_spectrum_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        _check_outputs(args)
        return args.func(args)
    except LinAlgError as exc:  # subclasses ValueError, so catch it first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # bad input, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
