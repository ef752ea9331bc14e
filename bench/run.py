"""End-to-end and per-layer benchmark of the ``bakerlab`` command line.

Run from the root of a bakerlab checkout::

    python3 bench/run.py --workload spectral --seed 1 --seconds 35 --trace 0
    python3 -m pytest -q bench      # the benchmark's own smoke test

Every job of the workload is a ``bakerlab.cli.main(argv)`` call made in this
one process, with every OpenBLAS library limited to ``nproc`` threads.
Passes over the job list repeat while they fit in ``--seconds``; every job's
output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics: median pass wall time, set-up
time (median of repeated imports, plus the median of input generation and a
warm-up at toy sizes), peak RSS, and the workload's throughput: spectra,
state steps (states x map applications) or entropy samples (maps x states)
per second of the jobs doing that work.  ``--trace 1`` alternates untraced
passes with passes in which every public bakerlab function is wrapped in a
span (see ``spans.py``), reports the per-layer metrics and the tracing
overhead, then runs one pass of the ``trajectory`` jobs with single-threaded
BLAS as the plain baseline.

The report ends with one JSON line holding ``correct``, ``attempted``,
``failed`` (their ratio is the printed ``fail_ratio``) and ``metrics``.
Results, the environment block and, for traced runs, the spans go to
``.bench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import machine
import spans
import workloads

SETUP_REPEATS = 3
_CHILD_IMPORT = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import numpy, scipy.linalg, bakerlab.cli; print(time.perf_counter() - t)"
)

#: end-to-end metric -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s"}
BASELINE_METRICS = {"baseline_1t.wall_s": "s", "baseline_1t.state_steps_per_s": "1/s",
                    "trace.overhead_s": "s"}


class SetupError(RuntimeError):
    pass


def _import_in_child(root: Path) -> float:
    done = subprocess.run([sys.executable, "-c", _CHILD_IMPORT], cwd=root, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import bakerlab.cli
    elapsed = time.perf_counter() - t0
    where = Path(bakerlab.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"bakerlab was imported from {where}, not from {src}")
    return bakerlab.cli, elapsed


def run_pass(cli, jobs, rec=None, check=True) -> list[dict]:
    """Run each job once; returns per-job wall time and problems found.

    With ``check=False`` only the exit code is checked, not the output.
    """
    results = []
    for job in jobs:
        if job.out is not None and job.out.exists():
            job.out.unlink()
        sink = io.StringIO()
        errors = []
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                sid = rec.begin_job({"label": job.label, "kind": job.kind, "d": job.d,
                                     "split": job.split}) if rec is not None else None
                try:
                    code = cli.main(job.argv)
                finally:
                    if rec is not None:
                        rec.end_job(sid)
        except Exception:  # a job that raises is a failed job; keep measuring the rest
            code = None
            errors.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        if code not in (0, None):
            errors.append(f"exit code {code}: {sink.getvalue().strip()[-500:]}")
        elif code == 0 and check:
            try:
                errors += workloads.check_output(job)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors.append(f"unreadable output: {exc!r}")
        results.append({"job": job.label, "wall_s": wall, "work": job.work, "errors": errors})
    return results


def _pass_wall(res) -> float:
    return sum(r["wall_s"] for r in res)


def _pass_throughput(res) -> float:
    counted = [r for r in res if r["work"]]
    return sum(r["work"] for r in counted) / sum(r["wall_s"] for r in counted)


def _setup(cli, workload, seed, root, work, tiny):
    imports, preps = [], []
    for _ in range(SETUP_REPEATS - 1):
        imports.append(_import_in_child(root))
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = workloads.WORKLOADS[workload](seed, work, tiny)
        warm = workloads.WORKLOADS[workload](seed, work / "warm", tiny=True)
        (work / "warm").mkdir(parents=True, exist_ok=True)
        for r in run_pass(cli, warm, check=False):
            if r["errors"]:
                raise SetupError(f"warm-up job {r['job']} failed: {r['errors'][0]}")
        preps.append(time.perf_counter() - t0)
    return jobs, imports, preps


def _passes(seconds, step):
    """Call ``step()`` while another call is expected to end within ``seconds``."""
    t0 = time.perf_counter()
    out = [step()]
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(out) > seconds:
            return out
        out.append(step())


def _summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    origin = time.perf_counter()
    cli, import_s = _import_program(root)
    for lib in machine.blas_libraries():
        lib.threads = machine.nproc()
    env = machine.environment()
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs, imports, preps = _setup(cli, workload, seed, root, work, tiny)
        imports.insert(0, import_s)
        setup_s = statistics.median(imports) + statistics.median(preps)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": env, "jobs": [j.argv for j in jobs],
            "setup": {"import_s": imports, "prepare_s": preps},
        }
        if trace:
            _traced(cli, jobs, seed, seconds, work, tiny, record, origin, out_dir)
        else:
            passes = _passes(seconds, lambda: run_pass(cli, jobs))
            record["passes"] = passes
            walls = [_pass_wall(p) for p in passes]
            rates = [_pass_throughput(p) for p in passes]
            record["summary"] = {"wall_s": _summary(walls), "throughput_per_s": _summary(rates),
                                 "setup_s": {"median": setup_s, "n": SETUP_REPEATS}}
            record["metrics"] = {
                "wall_s": statistics.median(walls),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "throughput_per_s": statistics.median(rates),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    all_results = [r for p in record["passes"] for r in p]
    record["attempted"] = len(all_results)
    record["failures"] = [{"job": r["job"], "errors": r["errors"]} for r in all_results if r["errors"]]
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{name}.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def _traced(cli, jobs, seed, seconds, work, tiny, record, origin, out_dir):
    rec = spans.Recorder()
    traced_jobs: list[range] = []

    def pair():
        plain = run_pass(cli, jobs)
        first = len(rec.jobs)
        rec.patch()
        try:
            traced = run_pass(cli, jobs, rec)
        finally:
            rec.unpatch()
        traced_jobs.append(range(first, len(rec.jobs)))
        return plain, traced

    pairs = _passes(seconds, pair)
    plain_walls = [_pass_wall(p) for p, _ in pairs]
    traced_walls = [_pass_wall(t) for _, t in pairs]

    traj_dir = work / "blas1"
    traj_dir.mkdir()
    traj = workloads.trajectory(seed, traj_dir, tiny)
    with machine.blas_threads(1):
        single = run_pass(cli, traj)

    figures = [spans.layer_figures(rec, ids) for ids in traced_jobs]
    summary = {name: _summary([f[name] for f in figures]) for name in spans.LAYER_METRICS}
    summary["untraced_wall_s"] = _summary(plain_walls)
    summary["traced_wall_s"] = _summary(traced_walls)
    metrics = {name: summary[name]["median"] for name in spans.LAYER_METRICS}
    metrics["trace.overhead_s"] = summary["traced_wall_s"]["median"] - summary["untraced_wall_s"]["median"]
    metrics["baseline_1t.wall_s"] = _pass_wall(single)
    metrics["baseline_1t.state_steps_per_s"] = _pass_throughput(single)
    per_job = spans.per_job_rows(rec, traced_jobs[0])
    for i, row in enumerate(per_job):
        row["untraced_ms"] = 1e3 * statistics.median(p[i]["wall_s"] for p, _ in pairs)
    record.update(passes=[p for pr in pairs for p in pr] + [single], summary=summary, metrics=metrics,
                  per_job=per_job,
                  baseline_rows=spans.baseline_rows(rec, [j for ids in traced_jobs for j in ids]))
    rec.check_links()
    path = out_dir / f"spans-{record['workload']}-seed{seed}.jsonl.gz"
    rec.write_jsonl(path, origin)
    record["spans_file"] = str(path.relative_to(out_dir.parent))
    record["span_count"] = len(rec)


def metric_units(trace: bool) -> dict:
    return {**spans.LAYER_METRICS, **BASELINE_METRICS} if trace else dict(END_TO_END)


def final_line(record: dict) -> dict:
    units = metric_units(bool(record["trace"]))
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def _print_report(record: dict):
    env = record["environment"]
    print(f"bakerlab benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas_name']} {env['blas_version']}, nproc {env['nproc']}, cpu {env['cpu_model']}")
    for lib in env["blas_libraries"]:
        print(f"  blas {lib['library']}: {lib['threads']} threads")
    failed = len(record["failures"])
    print(f"  fail_ratio {failed / record['attempted']:.4f} ({failed} of {record['attempted']} jobs)")
    for fail in record["failures"][:5]:
        print(f"    FAILED {fail['job']}: {fail['errors'][0]}")
    units = metric_units(bool(record["trace"]))
    summary = record["summary"]
    for name, unit in units.items():
        value = record["metrics"][name]
        s = summary.get(name, {"n": 1})
        extra = f"  (median of n={s['n']}" + (f", range {s['min']:.4g}..{s['max']:.4g})" if "min" in s else ")")
        alias = f" [{workloads.THROUGHPUT_NAME[record['workload']]}]" if name == "throughput_per_s" else ""
        print(f"  {name}{alias} = {value:.6g} {unit}{extra}")
    if record["trace"]:
        u, t = summary["untraced_wall_s"], summary["traced_wall_s"]
        print(f"  untraced pass {u['median']:.4f} s, traced pass {t['median']:.4f} s (n={u['n']})")
        print("  per job: untraced wall (median), traced wall, sum of span self times, "
              "traced wall not covered by them, largest self times (first traced pass)")
        for row in record["per_job"]:
            top = ", ".join(f"{k} {v:.1f}" for k, v in row["top_self_ms"].items())
            print(f"    {row['job']}: {row['untraced_ms']:.1f} ms untraced, {row['wall_ms']:.1f} ms traced, "
                  f"self {row['self_sum_ms']:.1f} ms, uncovered {row['uncovered_ms']:.2f} ms; {top}")
        print("  layer rows (median per call; product_state per 1000 calls)")
        for row in record["baseline_rows"]:
            print(f"    {row['span']} d={row['d']}: {row['ms']:.3f} ms over {row['calls']} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bakerlab" / "__init__.py").is_file():
        print("bench: run from the root of a bakerlab checkout (src/bakerlab not found)", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    _print_report(record)
    print(json.dumps(final_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
