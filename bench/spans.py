"""In-memory span recorder that wraps the public functions of every
``bakerlab`` module from outside, and the per-layer figures derived from the
recorded spans.

Modules import functions by value (``from .linalg import eigensystem``), so
a wrapper is installed on every module attribute that is bound to the
original function: ``bakerlab.linalg.eigensystem`` and
``bakerlab.cli.eigensystem`` alike.  Calls between functions of one module
go through the module globals too, so the ``eigensystem_diagnostics`` call
inside ``eigensystem`` becomes a child span.  Public methods and classmethods
of public classes are patched on the class.

A span is ``(id, parent, job, name, start, end, d, split)``; ``kind`` comes
from the job.  Spans of one thread nest strictly, so a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

#: layer name -> module; the order is the order of the report
LAYERS = ("maps", "linalg", "ensembles", "entropy", "reports", "matrixio", "cli")
ROOT = "bench.job"

#: which argument carries the span's dimension / split, by parameter name
_DIM_PARAMS = ("part", "u", "eig", "d", "phases", "m")


def _public_callables(mod):
    """``(owner, attr, function, wrap_kind)`` for every public function of ``mod``."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield mod, name, obj, "function"
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    yield obj, attr, member.__func__, "classmethod"
                elif inspect.isfunction(member):
                    yield obj, attr, member, "method"


def _dim_getter(fn):
    """Return ``f(args, kwargs) -> (d, split)`` for the function's first sized argument."""
    params = list(inspect.signature(fn).parameters)
    for pname in _DIM_PARAMS:
        if pname in params:
            pos = params.index(pname)
            break
    else:
        return None

    def get(args, kwargs):
        value = args[pos] if pos < len(args) else kwargs.get(pname)
        if value is None:
            return -1, ""
        if pname == "part":
            return value.d, f"{value.d_a}x{value.d_b}"
        if pname == "eig":
            return value.dim, ""
        if pname == "d":
            return int(value), ""
        shape = getattr(value, "shape", None)
        if shape:
            return int(shape[0]), ""
        return (len(value), "") if pname == "phases" else (-1, "")

    return get


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


#: span name -> f(args, kwargs, result) giving the work counts the span carries
_EXTRAS = {
    "entropy.commensurability_check":
        lambda args, kwargs, r: {"checked": r.checked, "hits": r.violation_count, "dim": r.dim},
    # empirical_asymptotic_distribution(u, part, n_min, n_max, n_states, rng)
    "entropy.empirical_asymptotic_distribution":
        lambda args, kwargs, r: {"states": args[4], "steps": args[3]},
    # entropy_timeseries(u, psi0, part, n_max, *, state_id)
    "entropy.entropy_timeseries":
        lambda args, kwargs, r: {"states": 1, "steps": args[3] if len(args) > 3 else kwargs["n_max"]},
    "reports.write_entropy_csv": _file_bytes,
    "matrixio.save_cmatrix": _file_bytes,
    "matrixio.load_cmatrix": _file_bytes,
}


class Recorder:
    """Spans of one run, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.d = array("i")
        self.split: list[str] = []
        self.extra: dict[int, dict] = {}
        self.jobs: list[dict] = []  # job attributes, indexed by job id
        self._stack: list[int] = []
        self._job = -1
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, d: int, split: str) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.d.append(d)
        self.split.append(split)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def begin_job(self, attrs: dict) -> int:
        """Open the root span of a new job; returns its span id."""
        self._job = len(self.jobs)
        self.jobs.append(attrs)
        return self.open(self._name_id(ROOT), attrs["d"], attrs["split"])

    def end_job(self, sid: int):
        self.close(sid)
        self._job = -1

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        dims = _dim_getter(fn)
        extras = _EXTRAS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            d, split = dims(args, kwargs) if dims is not None else (-1, "")
            sid = rec.open(nid, d, split)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if extras is not None:
                rec.extra[sid] = extras(args, kwargs, result)
            return result

        return traced

    def patch(self):
        """Install wrappers on every binding of every public bakerlab function."""
        if self._patches:
            raise RuntimeError("already patched")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bakerlab.{layer}")
            for owner, attr, fn, how in _public_callables(mod):
                qual = fn.__qualname__
                wrapped = self._wrap(f"{layer}.{qual}", fn)
                if how == "function":
                    wrappers[id(fn)] = (fn, wrapped)
                else:
                    original = vars(owner)[attr]
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, classmethod(wrapped) if how == "classmethod" else wrapped)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bakerlab" or modname.startswith("bakerlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def check_links(self):
        """Raise ``ValueError`` unless every span is closed and nests in its parent."""
        n = len(self)
        for sid in range(n):
            p = self.parent[sid]
            if self.end[sid] < self.start[sid]:
                raise ValueError(f"span {sid} ends before it starts")
            if p == -1:
                if self.names[self.name[sid]] != ROOT:
                    raise ValueError(f"span {sid} has no parent but is not a job root")
                continue
            if not (0 <= p < sid):
                raise ValueError(f"span {sid} has parent {p}, which does not precede it")
            if not (self.start[p] <= self.start[sid] and self.end[sid] <= self.end[p]):
                raise ValueError(f"span {sid} is not inside its parent {p}")
            if self.job[p] != self.job[sid]:
                raise ValueError(f"span {sid} and its parent {p} belong to different jobs")

    def write_jsonl(self, path, origin: float):
        """Write one JSON object per span; times are seconds after ``origin``."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for sid in range(len(self)):
                job = self.jobs[self.job[sid]] if self.job[sid] >= 0 else {}
                rec = {
                    "id": sid,
                    "parent": self.parent[sid] if self.parent[sid] >= 0 else None,
                    "job": self.job[sid],
                    "name": self.names[self.name[sid]],
                    "start": self.start[sid] - origin,
                    "end": self.end[sid] - origin,
                    "kind": job.get("kind"),
                    "d": self.d[sid] if self.d[sid] >= 0 else job.get("d"),
                    "split": self.split[sid] or job.get("split"),
                }
                extra = self.extra.get(sid)
                if extra:
                    rec.update(extra)
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


# -- per-layer figures ------------------------------------------------------

#: metric -> (span names summed, "total" or "self" time)
_TIMES = {
    "linalg.eigensystem_ms": (["linalg.eigensystem"], "total"),
    "linalg.diagnostics_ms": (["linalg.eigensystem_diagnostics"], "total"),
    "linalg.unitarity_ms": (["linalg.unitarity_defect"], "total"),
    "entropy.resonance_ms": (["entropy.commensurability_check"], "total"),
    "entropy.reduced_ms": (["entropy.ReducedEigenData.from_eigensystem"], "total"),
    "entropy.formula_ms": (["entropy.asymptotic_entangling_power", "entropy.asymptotic_entropy"], "total"),
    "entropy.window_ms": (["entropy.empirical_asymptotic_distribution"], "self"),
    "entropy.timeseries_ms": (["entropy.entropy_timeseries"], "self"),
    "entropy.linear_entropies_ms": (["entropy.linear_entropies"], "total"),
    "ensembles.product_state_ms": (["ensembles.product_state"], "total"),
    "ensembles.rng_ms": (["ensembles.RngStream.generator"], "total"),
    "ensembles.sample_ms": (["ensembles.sample_ensemble"], "total"),
    "maps.build_ms": (["maps.make_map"], "total"),
    "reports.histogram_ms": (["reports.HistogramSummary.from_values"], "total"),
    "reports.csv_ms": (["reports.write_entropy_csv"], "total"),
    "matrixio.save_ms": (["matrixio.save_cmatrix"], "total"),
    "matrixio.load_ms": (["matrixio.load_cmatrix"], "total"),
}
_CALLS = {
    "linalg.eigensystem_calls": "linalg.eigensystem",
    "linalg.diagnostics_calls": "linalg.eigensystem_diagnostics",
    "linalg.unitarity_calls": "linalg.unitarity_defect",
    "ensembles.product_state_calls": "ensembles.product_state",
    "ensembles.rng_streams": "ensembles.RngStream.generator",
    "ensembles.sample_calls": "ensembles.sample_ensemble",
    "maps.build_calls": "maps.make_map",
}
_ITERATION = ("entropy.empirical_asymptotic_distribution", "entropy.entropy_timeseries")

#: every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {
    **{name: "ms" for name in _TIMES},
    **{name: "count" for name in _CALLS},
    "entropy.state_steps": "count",
    "entropy.iterate_gflop_computed": "GFLOP",
    "entropy.iterate_gb_computed": "GB",
    "entropy.iterate_gflops": "GFLOP/s",
    "entropy.resonance_quadruples": "count",
    "entropy.resonance_coverage": "ratio",
    "entropy.resonance_hits": "count",
    "reports.csv_bytes": "bytes",
    "matrixio.bytes": "bytes",
    "cli.self_ms": "ms",
    **{f"self.{layer}_ms": "ms" for layer in LAYERS if layer != "cli"},
    "trace.spans": "count",
    "trace.uncovered_ms": "ms",
}


def span_table(rec: Recorder):
    """Arrays ``(name_id, job, d, duration_s, self_s)`` over all spans."""
    import numpy as np

    n = len(rec)
    name, job, d, parent = (np.array(a, dtype=np.int64) for a in (rec.name, rec.job, rec.d, rec.parent))
    dur = np.array(rec.end) - np.array(rec.start)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=n)
    return name, job, d, dur, dur - child


def layer_figures(rec: Recorder, job_ids) -> dict:
    """Per-layer metric values over the spans of the given jobs."""
    import numpy as np

    name, job, d, dur, self_t = span_table(rec)
    mask = np.isin(job, list(job_ids))
    ids = {n: i for i, n in enumerate(rec.names)}
    n_names = len(rec.names)
    total_by = np.bincount(name[mask], weights=dur[mask], minlength=n_names)
    self_by = np.bincount(name[mask], weights=self_t[mask], minlength=n_names)
    calls_by = np.bincount(name[mask], minlength=n_names)

    def pick(arr, span):
        i = ids.get(span)
        return float(arr[i]) if i is not None else 0.0

    out = {}
    for metric, (spans, how) in _TIMES.items():
        arr = total_by if how == "total" else self_by
        out[metric] = 1e3 * sum(pick(arr, s) for s in spans)
    for metric, span in _CALLS.items():
        out[metric] = int(pick(calls_by, span))

    steps = flop = nbytes = 0.0
    checked = quartic = hits = csv_bytes = io_bytes = 0
    for sid, extra in rec.extra.items():
        if not mask[sid]:
            continue
        span = rec.names[name[sid]]
        if span in _ITERATION:
            dim, s, n = int(d[sid]), extra["states"], extra["steps"]
            steps += s * n
            flop += 8.0 * dim * dim * s * n
            nbytes += (16.0 * dim * dim + 32.0 * dim * s) * n
        elif span == "entropy.commensurability_check":
            checked += extra["checked"]
            quartic += extra["dim"] ** 4
            hits += extra["hits"]
        elif span == "reports.write_entropy_csv":
            csv_bytes += extra["bytes"]
        else:
            io_bytes += extra["bytes"]
    iterate_s = sum(pick(self_by, s) for s in _ITERATION)
    out["entropy.state_steps"] = int(steps)
    out["entropy.iterate_gflop_computed"] = flop / 1e9
    out["entropy.iterate_gb_computed"] = nbytes / 1e9
    out["entropy.iterate_gflops"] = flop / 1e9 / iterate_s if iterate_s > 0 else 0.0
    out["entropy.resonance_quadruples"] = checked
    out["entropy.resonance_coverage"] = checked / quartic if quartic else 0.0
    out["entropy.resonance_hits"] = hits
    out["reports.csv_bytes"] = csv_bytes
    out["matrixio.bytes"] = io_bytes

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(rec.names):
        layer = span.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += float(self_by[i])
    for layer, seconds in layer_self.items():
        out["cli.self_ms" if layer == "cli" else f"self.{layer}_ms"] = 1e3 * seconds
    out["trace.spans"] = int(mask.sum())
    out["trace.uncovered_ms"] = 1e3 * pick(self_by, ROOT)
    return out


def per_job_rows(rec: Recorder, job_ids) -> list[dict]:
    """Each job's root-span wall time, the self times inside it, and the gap."""
    import numpy as np

    name, job, _, dur, self_t = span_table(rec)
    root = rec.names.index(ROOT)
    rows = []
    for j in job_ids:
        sel = np.nonzero(job == j)[0]
        is_root = name[sel] == root
        wall = float(dur[sel][is_root].sum())
        inner = sel[~is_root]
        by_name: dict[str, float] = {}
        for sid in inner:
            span = rec.names[name[sid]]
            by_name[span] = by_name.get(span, 0.0) + float(self_t[sid])
        top = sorted(by_name.items(), key=lambda kv: -kv[1])[:3]
        self_sum = float(self_t[inner].sum())
        rows.append({
            "job": rec.jobs[j]["label"],
            "wall_ms": 1e3 * wall,
            "self_sum_ms": 1e3 * self_sum,
            "uncovered_ms": 1e3 * (wall - self_sum),
            "top_self_ms": {k: 1e3 * v for k, v in top},
        })
    return rows


#: the re-anchor layer table in ROADMAP.md, as (span, per-call scale) rows
BASELINE_ROWS = (
    ("linalg.eigensystem", 1),
    ("entropy.commensurability_check", 1),
    ("entropy.ReducedEigenData.from_eigensystem", 1),
    ("entropy.asymptotic_power_mc", 1),
    ("entropy.empirical_asymptotic_distribution", 1),
    ("ensembles.product_state", 1000),
)


def baseline_rows(rec: Recorder, job_ids) -> list[dict]:
    """Median time per call (per 1000 calls for product_state) by dimension."""
    import numpy as np

    name, job, d, dur, _ = span_table(rec)
    mask = np.isin(job, list(job_ids))
    rows = []
    for span, scale in BASELINE_ROWS:
        if span not in rec.names:
            continue
        sel = mask & (name == rec.names.index(span))
        for dim in sorted(set(d[sel].tolist())):
            times = dur[sel & (d == dim)]
            rows.append({"span": span, "d": int(dim), "calls": int(times.size),
                         "ms": 1e3 * scale * float(np.median(times)), "per_calls": scale})
    return rows
