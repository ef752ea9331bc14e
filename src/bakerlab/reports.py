"""Histogram summaries and deterministic text output.

Two interchange forms are provided: a histogram-summary JSON object (bin
edges, counts, moments, plus a free-form metadata echo) and a flat CSV of
entropy samples with ``#``-prefixed metadata headers.  Neither embeds
timestamps, so identical runs produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import EntropySamples
from .matrixio import atomic_write

__all__ = ["ENTROPY_CSV_HEADER", "HistogramSummary", "read_entropy_csv", "write_entropy_csv"]

ENTROPY_CSV_HEADER = "state_id,n,S_L"


@dataclass(frozen=True)
class HistogramSummary:
    """Binned view of a sample set together with its first three moments."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_samples: int
    mean: float
    variance: float
    skewness: float
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, values, bins: int = 50, metadata: dict | None = None) -> "HistogramSummary":
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            raise ValueError("cannot summarize an empty sample set")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:  # degenerate spread; widen so the histogram stays well formed
            lo, hi = lo - 0.5, hi + 0.5
        counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
        mean = float(values.mean())
        var = float(values.var())
        if var > 0.0:
            skew = float(np.mean((values - mean) ** 3) / var**1.5)
        else:
            skew = 0.0
        summary = cls(
            bin_edges=edges,
            counts=counts,
            n_samples=int(values.size),
            mean=mean,
            variance=var,
            skewness=skew,
            metadata=dict(metadata or {}),
        )
        summary.validate()
        return summary

    def validate(self):
        """Check internal consistency; raises ``ValueError`` when broken."""
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise ValueError("need len(bin_edges) == len(counts) + 1")
        if not (np.diff(edges) > 0).all():
            raise ValueError("bin edges must be strictly increasing")
        if (counts < 0).any() or int(counts.sum()) != self.n_samples:
            raise ValueError("histogram counts must be nonnegative and sum to n_samples")
        if not (edges[0] <= self.mean <= edges[-1]):
            raise ValueError("mean lies outside the binned range")
        if self.variance < 0.0:
            raise ValueError("variance must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "bin_edges": [float(x) for x in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "n_samples": self.n_samples,
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "HistogramSummary":
        try:
            summary = cls(
                bin_edges=np.asarray(obj["bin_edges"], dtype=np.float64),
                counts=np.asarray(obj["counts"], dtype=np.int64),
                n_samples=int(obj["n_samples"]),
                mean=float(obj["mean"]),
                variance=float(obj["variance"]),
                skewness=float(obj["skewness"]),
                metadata=dict(obj.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed histogram summary: {exc}") from exc
        summary.validate()
        return summary


def write_entropy_csv(path, samples: EntropySamples, metadata: dict | None = None):
    """Write entropy samples as state-major ``state_id,n,S_L`` rows, one state at a time, atomically.

    Metadata is echoed as ``# key = value`` header lines; a key with ``=``
    or a line break, a value with a line break, or either with leading or
    trailing whitespace, which the reader strips, would not read back and
    raises ``ValueError``.  Values use the shortest round-trip float repr.
    """
    with atomic_write(path, newline="") as f:
        for key, value in (metadata or {}).items():
            texts = (str(key), str(value))
            if "=" in texts[0] or any("\r" in t or "\n" in t or t != t.strip() for t in texts):
                raise ValueError(f"metadata {key!r} = {value!r} would not read back")
            f.write(f"# {key} = {value}\n")
        f.write(ENTROPY_CSV_HEADER + "\n")
        for s, row in enumerate(samples.values):
            for n, entropy in enumerate(row.tolist(), samples.n_min):
                f.write(f"{s},{n},{entropy!r}\n")


def read_entropy_csv(path):
    """Read a samples CSV back; returns ``(EntropySamples, metadata_dict)``.

    The rows must form one full state-major grid (see the README's file
    formats); metadata values come back as strings.
    """
    metadata, vals, n_min, window = {}, [], 1, 0
    with open(path) as f:
        header_seen = False
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if header_seen:
                    raise ValueError("metadata lines must precede the column header")
                key, sep, value = line[1:].partition("=")
                if not sep:
                    raise ValueError(f"malformed metadata line: {line!r}")
                metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                if line != ENTROPY_CSV_HEADER:
                    raise ValueError(f"expected header {ENTROPY_CSV_HEADER!r}, got {line!r}")
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ValueError(f"malformed sample row: {line!r}")
            s, n, i = int(fields[0]), int(fields[1]), len(vals)
            if not i:
                n_min = n
            elif s == 1 and not window:  # state 1 opens: state 0's rows are the window
                window = i
            if (s, n - n_min) != (divmod(i, window) if window else (0, i)):
                raise ValueError(f"sample row {line!r} breaks the state-major grid")
            vals.append(float(fields[2]))
    if not header_seen:
        raise ValueError("missing column header")
    if not vals or (window and len(vals) % window):
        raise ValueError("the sample rows are not one full state-major grid")
    return EntropySamples(np.array(vals).reshape(-1, window or len(vals)), n_min), metadata
