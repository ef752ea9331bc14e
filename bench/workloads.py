"""Workload job lists, the reference values they are checked against, and
the per-job output checks.

Each workload is a fixed list of ``bakerlab`` command lines.  The workload
seed only picks the ``--seed`` handed to each command, so the same seed gives
the same inputs.  ``tiny=True`` builds the same job list at toy sizes; the
benchmark runs it as warm-up and the smoke test runs it on its own.

Why each workload (times per pass on a 2-core Xeon, single process):

* ``spectral`` (~9 s): closed-form e_p(inf) only.  The Schur eigensolve and
  the resonance scan do almost all the work.  d=64 is the one job on the
  exhaustive-scan branch; dmap is not reflection-symmetric, so it is the
  control for a parity-reduced eigensolve; bbar d=256 goes through
  ``gen-map`` and ``--map-file`` to exercise the cmatrix reader and writer.
* ``trajectory`` (~5 s): batched map iteration, no eigensolve.  d=256 and
  d=1024 sit on either side of the measured dense/FFT crossover;
  ``timeseries`` adds the per-state path and the CSV writer.
* ``ensemble`` (~10 s): ~120k per-state ``RngStream`` + ``product_state``
  calls on small matrices; the symmetric sampler adds ``lambda_basis`` GEMMs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: e_p(inf) per (map label, d, split), recorded from this package's
#: closed form; "file" marks a map read back through ``--map-file``.
REFERENCE_EPINF = {
    ("baker", 64, "8x8"): 0.7381155983182693,
    ("baker", 256, "16x16"): 0.8687659935875487,
    ("file:bbar", 256, "16x16"): 0.8693027813770589,
    ("baker", 512, "16x32"): 0.9026493826250609,
    ("bbar", 512, "16x32"): 0.9028844014368644,
    ("dmap", 512, "16x32"): 0.9029431744146277,
    # toy sizes used by warm-up and the smoke test
    ("baker", 12, "3x4"): 0.4533723273887169,
    ("baker", 8, "2x4"): 0.3080189125930011,
    ("file:bbar", 8, "2x4"): 0.30768927620246245,
    ("baker", 16, "4x4"): 0.5002991129346521,
    ("bbar", 16, "4x4"): 0.4977900857379992,
    ("dmap", 16, "4x4"): 0.5065429458275528,
}
EPINF_TOL = 1e-10
#: Monte-Carlo means must sit within this many standard errors of their target
SIGMA_LIMIT = 5.0

#: the unit each workload's throughput counts, as it is reported
THROUGHPUT_NAME = {
    "spectral": "spectra_per_s",
    "trajectory": "state_steps_per_s",
    "ensemble": "entropy_samples_per_s",
}


@dataclass
class Job:
    """One CLI invocation plus what its output must satisfy."""

    label: str
    argv: list
    kind: str
    d: int
    split: str
    work: int = 0  # throughput units this job completes (0: not counted)
    out: Path | None = None
    expect: dict = field(default_factory=dict)


def _split_dims(split: str) -> tuple[int, int]:
    a, b = split.split("x")
    return int(a), int(b)


def _max_entropy(split: str) -> float:
    return 1.0 - 1.0 / min(_split_dims(split))


def _seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def _epinf(work: Path, label, kind, d, split, *, seed=1, cross_check=None, map_file=None):
    out = work / f"epinf-{label}.json"
    argv = ["epinf", "--split", split, "--seed", str(seed), "--out", str(out)]
    argv += ["--map-file", str(map_file)] if map_file else ["--kind", kind, "--d", str(d)]
    expect = {"check": "epinf", "ref": ("file:" + kind if map_file else kind, d, split)}
    if cross_check is not None:
        states, n_min, n_max = cross_check
        argv += ["--cross-check", "--states", str(states), "--nmin", str(n_min), "--nmax", str(n_max)]
        expect["cross_check"] = True
    return Job(f"epinf {label}", argv, kind, d, split, work=1, out=out, expect=expect)


def spectral(seed: int, work: Path, tiny: bool = False) -> list[Job]:
    (s0,) = _seeds("spectral", seed, 1)
    if tiny:
        (small, split_small), (mid, split_mid), (big, split_big) = (12, "3x4"), (8, "2x4"), (16, "4x4")
        cross = (20, 11, 60)
    else:
        (small, split_small), (mid, split_mid), (big, split_big) = (64, "8x8"), (256, "16x16"), (512, "16x32")
        cross = (100, 513, 1512)  # the desk profile's cross-check
    map_file = work / f"bbar-{mid}.json"
    return [
        _epinf(work, f"baker-{small}", "baker", small, split_small, seed=s0, cross_check=cross),
        _epinf(work, f"baker-{mid}", "baker", mid, split_mid),
        Job(f"gen-map bbar-{mid}", ["gen-map", "--kind", "bbar", "--d", str(mid), "--out", str(map_file)],
            "bbar", mid, split_mid, out=map_file, expect={"check": "exists"}),
        _epinf(work, f"file-bbar-{mid}", "bbar", mid, split_mid, map_file=map_file),
        *(_epinf(work, f"{kind}-{big}", kind, big, split_big) for kind in ("baker", "bbar", "dmap")),
    ]


def trajectory(seed: int, work: Path, tiny: bool = False) -> list[Job]:
    s0, s1, s2 = _seeds("trajectory", seed, 3)
    if tiny:
        windows = [(16, "4x4", 5, 11, 30), (8, "2x4", 4, 5, 20)]
        series = (16, "4x4", 3, 25)
    else:
        windows = [(256, "16x16", 100, 513, 1512), (1024, "32x32", 50, 101, 300)]
        series = (256, "16x16", 20, 1000)
    jobs = []
    for (d, split, states, n_min, n_max), s in zip(windows, (s0, s1)):
        out = work / f"histogram-{d}.json"
        argv = ["histogram", "--kind", "baker", "--d", str(d), "--split", split, "--states", str(states),
                "--nmin", str(n_min), "--nmax", str(n_max), "--seed", str(s), "--out", str(out)]
        jobs.append(Job(f"histogram baker-{d}", argv, "baker", d, split, work=states * n_max, out=out,
                        expect={"check": "histogram", "n_samples": states * (n_max - n_min + 1)}))
    d, split, states, n_max = series
    out = work / f"timeseries-{d}.csv"
    argv = ["timeseries", "--kind", "baker", "--d", str(d), "--split", split, "--states", str(states),
            "--nmax", str(n_max), "--seed", str(s2), "--out", str(out)]
    jobs.append(Job(f"timeseries baker-{d}", argv, "baker", d, split, work=states * n_max, out=out,
                    expect={"check": "csv", "rows": states * n_max}))
    return jobs


def ensemble(seed: int, work: Path, tiny: bool = False) -> list[Job]:
    s0, s1 = _seeds("ensemble", seed, 2)
    d, split = (8, "2x4") if tiny else (64, "8x8")
    sizes = [("symmetric", 6, 5, s0), ("cue", 20, 10, s1)] if tiny else [
        ("symmetric", 300, 300, s0), ("cue", 100, 300, s1)]
    jobs = []
    for name, maps, states, s in sizes:
        out = work / f"ensemble-{name}.json"
        argv = ["ensemble", "--ensemble", name, "--d", str(d), "--split", split, "--samples", str(maps),
                "--states", str(states), "--seed", str(s), "--out", str(out)]
        expect = {"check": "histogram", "n_samples": maps * states, "cue_mean": name == "cue"}
        jobs.append(Job(f"ensemble {name}-{d}", argv, name, d, split, work=maps * states, out=out,
                        expect=expect))
    return jobs


WORKLOADS = {"spectral": spectral, "trajectory": trajectory, "ensemble": ensemble}


def _check_histogram(job: Job, report: dict) -> list[str]:
    errors = []
    n = report["n_samples"]
    if n != job.expect["n_samples"]:
        errors.append(f"n_samples {n} != {job.expect['n_samples']}")
    if sum(report["counts"]) != n:
        errors.append(f"counts sum to {sum(report['counts'])}, not n_samples {n}")
    top = _max_entropy(job.split)
    if not (0.0 <= report["mean"] <= top + 1e-12):
        errors.append(f"mean {report['mean']!r} outside [0, {top}]")
    if job.expect.get("cue_mean"):
        se = report["mean_std_error"]
        dev = abs(report["mean"] - report["cue_mean_entropy"])
        if not (se and se > 0 and dev <= SIGMA_LIMIT * se):
            errors.append(f"CUE mean {report['mean']!r} is {dev:.3g} from cue_mean_entropy (se {se})")
    return errors


def _check_epinf(job: Job, report: dict) -> list[str]:
    errors = []
    label, d, split = job.expect["ref"]
    ref = REFERENCE_EPINF.get((label, d, split))
    value = report["entangling_power_asymptotic"]
    if ref is None:
        errors.append(f"no reference e_p(inf) for {label} d={d} {split}")
    elif not abs(value - ref) <= EPINF_TOL:
        errors.append(f"e_p(inf) {value!r} differs from reference {ref!r} by {abs(value - ref):.3g}")
    if job.expect.get("cross_check"):
        cc = report["cross_check"]
        se = cc["mc_std_error"]
        if not (se > 0 and cc["abs_difference"] <= SIGMA_LIMIT * se):
            errors.append(f"cross-check mean {cc['mc_mean']!r} is {cc['abs_difference']:.3g} "
                          f"from the closed form (se {se:.3g})")
    return errors


def _check_csv(job: Job) -> list[str]:
    rows, lo, hi = 0, math.inf, -math.inf
    with open(job.out) as f:
        for line in f:
            if line.startswith("#") or line.startswith("state_id"):
                continue
            value = float(line.rsplit(",", 1)[1])
            lo, hi = min(lo, value), max(hi, value)
            rows += 1
    errors = []
    if rows != job.expect["rows"]:
        errors.append(f"{rows} CSV rows, expected {job.expect['rows']}")
    top = _max_entropy(job.split)
    if rows and not (lo >= -1e-12 and hi <= top + 1e-12):
        errors.append(f"CSV entropies span [{lo!r}, {hi!r}], outside [0, {top}]")
    return errors


def check_output(job: Job) -> list[str]:
    """Problems with a finished job's output file; empty when it is correct."""
    kind = job.expect["check"]
    if not job.out.is_file():
        return [f"{job.out.name} was not written"]
    if kind == "exists":
        return []
    if kind == "csv":
        return _check_csv(job)
    with open(job.out) as f:
        report = json.load(f)
    if kind == "epinf":
        return _check_epinf(job, report)
    return _check_histogram(job, report)
