"""Command-line interface: generate maps and reproduce the entropy
experiments as deterministic CSV/JSON files.

Exit codes: 0 on success, 2 for configuration errors (bad flags, impossible
dimensions, malformed input files), 3 for numerical failures (non-unitary
inputs, eigensolver rejections).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from numpy.linalg import LinAlgError

from . import __version__
# product_state is no longer called here; bench/test_smoke.py checks that it
# stays bound in this module
from .ensembles import EnsembleKind, RngStream, haar_state, product_state  # noqa: F401
from .entropy import (
    ENSEMBLE_STREAM_LAYOUT,
    asymptotic_entangling_power,
    asymptotic_power_mc,
    commensurability_check,
    cue_mean_entropy,
    empirical_asymptotic_distribution,
    ensemble_entropies,
    linear_entropies,
    ReducedEigenData,
)
from .linalg import Bipartition, eigensystem, eigensystem_diagnostics
from .maps import MapKind, make_map
from .matrixio import load_cmatrix, save_cmatrix
from .reports import HistogramSummary, atomic_write, write_entropy_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: workload presets: "desk" finishes in seconds, "paper" matches the
#: publication-scale protocols (10^6 .. 2x10^6 samples).
PROFILES = {
    "desk": {
        "timeseries_states": 5,
        "timeseries_nmax": 100,
        "window_nmin": 513,
        "window_nmax": 1512,
        "window_states": 100,
        "ensemble_samples": 300,
        "ensemble_states": 300,
        "crosscheck_states": 100,
    },
    "paper": {
        "timeseries_states": 5,
        "timeseries_nmax": 100,
        "window_nmin": 513,
        "window_nmax": 2512,
        "window_states": 1000,
        "ensemble_samples": 1000,
        "ensemble_states": 1000,
        "crosscheck_states": 500,
    },
}

# reference draws (for --cue-reference) use stream ids in a disjoint block so
# they can never collide with the per-state streams of the main sweep
_REFERENCE_STREAM_BASE = 2**32


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
    n_min = _resolve(args.nmin, profile, "window_nmin")
    n_max = _resolve(args.nmax, profile, "window_nmax")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= --nmin <= --nmax, got --nmin {n_min} --nmax {n_max}")
    return n_min, n_max


def _require_split(args) -> Bipartition:
    if args.split is None:
        raise ValueError("this command needs --split AxB")
    part = parse_split(args.split)
    if part.d != args.d:
        raise ValueError(f"split {part.d_a}x{part.d_b} does not multiply to d = {args.d}")
    return part


def _write_json(path, obj):
    if path is None:
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def cmd_gen_map(args) -> int:
    matrix = make_map(args.kind, args.d)
    save_cmatrix(args.out, matrix)
    print(f"wrote {args.kind} map, dimension {args.d}, to {args.out}")
    return EXIT_OK


def cmd_timeseries(args) -> int:
    profile = PROFILES[args.profile]
    part = _require_split(args)
    n_states = _count("--states", _resolve(args.states, profile, "timeseries_states"), 1)
    n_max = _count("--nmax", _resolve(args.nmax, profile, "timeseries_nmax"), 1)
    u = make_map(args.kind, args.d)
    samples = empirical_asymptotic_distribution(u, part, 1, n_max, n_states, RngStream(args.seed))
    metadata = {
        "command": "timeseries",
        "kind": args.kind,
        "d": args.d,
        "split": f"{part.d_a}x{part.d_b}",
        "states": n_states,
        "n_max": n_max,
        "seed": args.seed,
        "profile": args.profile,
        "version": __version__,
    }
    write_entropy_csv(args.out, samples, metadata)
    print(f"wrote {len(samples)} entropy samples ({n_states} states x {n_max} steps) to {args.out}")
    return EXIT_OK


def cmd_histogram(args) -> int:
    profile = PROFILES[args.profile]
    part = _require_split(args)
    n_states = _count("--states", _resolve(args.states, profile, "window_states"), 1)
    n_min, n_max = _window(args, profile)
    _count("--bins", args.bins, 1)
    _count("--cue-reference", args.cue_reference, 0)
    u = make_map(args.kind, args.d)
    samples = empirical_asymptotic_distribution(u, part, n_min, n_max, n_states, RngStream(args.seed))
    metadata = {
        "command": "histogram",
        "kind": args.kind,
        "d": args.d,
        "split": f"{part.d_a}x{part.d_b}",
        "states": n_states,
        "n_min": n_min,
        "n_max": n_max,
        "bins": args.bins,
        "seed": args.seed,
        "profile": args.profile,
        "version": __version__,
    }
    summary = HistogramSummary.from_values(samples.value, args.bins, metadata)
    report = summary.to_dict()
    report["cue_mean_entropy"] = cue_mean_entropy(part)
    if args.cue_reference:
        ref = np.empty(args.cue_reference)
        for i in range(args.cue_reference):
            psi = haar_state(part.d, RngStream(args.seed, _REFERENCE_STREAM_BASE + i))
            ref[i] = linear_entropies(psi[:, None], part)[0]
        report["cue_reference"] = HistogramSummary.from_values(
            ref, args.bins, {"samples": args.cue_reference}
        ).to_dict()
    else:
        report["cue_reference"] = None
    if args.raw_csv:
        write_entropy_csv(args.raw_csv, samples, metadata)
    _write_json(args.out, report)
    print(
        f"{len(samples)} samples in window [{n_min}, {n_max}]: mean {summary.mean:.6f} "
        f"(random-state reference {report['cue_mean_entropy']:.6f}) -> {args.out}"
    )
    return EXIT_OK


def cmd_ensemble(args) -> int:
    profile = PROFILES[args.profile]
    kind = EnsembleKind(args.ensemble)
    part = _require_split(args)
    _count("--bins", args.bins, 1)
    n_maps = _resolve(args.samples, profile, "ensemble_samples")
    n_states = _resolve(args.states, profile, "ensemble_states")
    values = ensemble_entropies(kind, args.d, part, n_maps, n_states, RngStream(args.seed))
    metadata = {
        "command": "ensemble",
        "ensemble": kind.value,
        "d": args.d,
        "split": f"{part.d_a}x{part.d_b}",
        "samples": n_maps,
        "states": n_states,
        "bins": args.bins,
        "seed": args.seed,
        "profile": args.profile,
        "stream_layout": ENSEMBLE_STREAM_LAYOUT,
        "version": __version__,
    }
    summary = HistogramSummary.from_values(values.ravel(), args.bins, metadata)
    report = summary.to_dict()
    report["cue_mean_entropy"] = cue_mean_entropy(part)
    per_map = values.mean(axis=1)
    report["mean_std_error"] = (
        float(per_map.std(ddof=1) / np.sqrt(n_maps)) if n_maps >= 2 else None
    )
    _write_json(args.out, report)
    print(
        f"{kind.value} ensemble, {n_maps} maps x {n_states} states: "
        f"mean {summary.mean:.6f} -> {args.out}"
    )
    return EXIT_OK


def _load_map_for(args):
    """Resolve the map for epinf: either a named constructor or a file."""
    if args.map_file is not None:
        u = load_cmatrix(args.map_file)
        if u.shape[0] != u.shape[1]:
            raise ValueError(f"map file holds a non-square {u.shape[0]}x{u.shape[1]} matrix")
        if args.d is not None and args.d != u.shape[0]:
            raise ValueError(f"--d {args.d} conflicts with map file dimension {u.shape[0]}")
        return u, f"file:{args.map_file}"
    if args.kind is None or args.d is None:
        raise ValueError("need either --map-file or both --kind and --d")
    return make_map(args.kind, args.d), args.kind


def cmd_epinf(args) -> int:
    profile = PROFILES[args.profile]
    if args.cross_check:  # refused before the map, the eigensolve and the scan
        n_states = _count("--states", _resolve(args.states, profile, "crosscheck_states"), 2)
        n_min, n_max = _window(args, profile)
    u, kind_label = _load_map_for(args)
    d = u.shape[0]
    if args.split is None:
        raise ValueError("this command needs --split AxB")
    part = parse_split(args.split)
    if part.d != d:
        raise ValueError(f"split {part.d_a}x{part.d_b} does not multiply to map dimension {d}")
    eig = eigensystem(u)  # refuses a non-unitary u with LinAlgError (exit 3)
    resonance = commensurability_check(eig.phases, tol=args.tol)
    reduced = ReducedEigenData.from_eigensystem(eig, part)
    power = asymptotic_entangling_power(eig, part, reduced=reduced, resonance=resonance)
    report = {
        "metadata": {
            "command": "epinf",
            "kind": kind_label,
            "d": d,
            "split": f"{part.d_a}x{part.d_b}",
            "tol": args.tol,
            "seed": args.seed,
            "profile": args.profile,
            "version": __version__,
        },
        "entangling_power_asymptotic": power.value,
        "assumptions_violated": power.assumptions_violated,
        "resonance": resonance.to_dict(),
        "eigensolver": eigensystem_diagnostics(u, eig),
        "cue_mean_entropy": cue_mean_entropy(part),
    }
    if args.cross_check:
        mc_mean, mc_se = asymptotic_power_mc(u, part, n_states, n_min, n_max, RngStream(args.seed))
        report["cross_check"] = {
            "mc_mean": mc_mean,
            "mc_std_error": mc_se,
            "n_states": n_states,
            "n_min": n_min,
            "n_max": n_max,
            "abs_difference": abs(mc_mean - power.value),
            "sigma": abs(mc_mean - power.value) / mc_se if mc_se > 0 else None,
        }
    _write_json(args.out, report)
    flag = " [resonances flagged]" if power.assumptions_violated else ""
    line = f"asymptotic entangling power of {kind_label} ({part.d_a}x{part.d_b}): {power.value:.6f}{flag}"
    if args.cross_check:
        line += f"; Monte-Carlo {report['cross_check']['mc_mean']:.6f} +/- {report['cross_check']['mc_std_error']:.6f}"
    # keep stdout pure JSON when it doubles as the output file
    print(line, file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


def cmd_spectrum_check(args) -> int:
    u = load_cmatrix(args.map_file)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"map file holds a non-square {u.shape[0]}x{u.shape[1]} matrix")
    eig = eigensystem(u)  # refuses a non-unitary u with LinAlgError (exit 3)
    resonance = commensurability_check(eig.phases, tol=args.tol)
    report = {
        "metadata": {
            "command": "spectrum-check",
            "map_file": args.map_file,
            "d": int(u.shape[0]),
            "tol": args.tol,
            "version": __version__,
        },
        "phases": [float(p) for p in eig.phases],
        "eigensolver": eigensystem_diagnostics(u, eig),
        "resonance": resonance.to_dict(),
    }
    _write_json(args.out, report)
    if resonance.has_nontrivial_resonance:
        line = f"d={resonance.dim}: {resonance.violation_count} nontrivial resonances within {args.tol:g}"
    else:
        line = f"d={resonance.dim}: no nontrivial resonances within {args.tol:g}"
    print(line, file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bakerlab",
        description="Quantized baker maps, random ensembles, and entangling-power measurements.",
    )
    parser.add_argument("--version", action="version", version=f"bakerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in MapKind]

    p = sub.add_parser("gen-map", help="write a named map as a cmatrix-json file")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--d", required=True, type=int, help="Hilbert-space dimension")
    p.add_argument("--out", required=True, help="output cmatrix-json path")
    p.set_defaults(func=cmd_gen_map)

    p = sub.add_parser("timeseries", help="entropy of iterated product states, as CSV")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--split", required=True, help="subsystem split AxB with A*B = d")
    p.add_argument("--states", type=int, default=None, help="number of initial product states")
    p.add_argument("--nmax", type=int, default=None, help="number of map applications")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_timeseries)

    p = sub.add_parser("histogram", help="late-time entropy histogram of one map, as JSON")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--split", required=True)
    p.add_argument("--states", type=int, default=None)
    p.add_argument("--nmin", type=int, default=None, help="first recorded application count")
    p.add_argument("--nmax", type=int, default=None, help="last recorded application count")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--cue-reference", type=int, default=0, metavar="N",
                   help="also histogram N Haar-random full-space states")
    p.add_argument("--raw-csv", default=None, help="optionally dump the raw samples as CSV")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("ensemble", help="single-application entropy histogram over a random-map ensemble")
    p.add_argument("--ensemble", required=True, choices=[k.value for k in EnsembleKind])
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--split", required=True)
    p.add_argument("--samples", type=int, default=None, help="number of maps to draw")
    p.add_argument("--states", type=int, default=None, help="product states per map")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("epinf", help="closed-form asymptotic entangling power, as JSON")
    p.add_argument("--kind", choices=kinds, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--map-file", default=None, help="cmatrix-json map to analyze instead of --kind/--d")
    p.add_argument("--split", required=True)
    p.add_argument("--tol", type=float, default=1e-8, help="resonance tolerance")
    p.add_argument("--cross-check", action="store_true",
                   help="also run the brute-force late-time Monte-Carlo estimate")
    p.add_argument("--states", type=int, default=None, help="cross-check states")
    p.add_argument("--nmin", type=int, default=None, help="cross-check window start")
    p.add_argument("--nmax", type=int, default=None, help="cross-check window end")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--out", default=None, help="output JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_epinf)

    p = sub.add_parser("spectrum-check", help="eigenphase resonance scan of a stored map")
    p.add_argument("map_file", help="cmatrix-json file holding a unitary matrix")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="output JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_spectrum_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except LinAlgError as exc:  # subclasses ValueError, so catch it first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
