"""
Entanglement relaxation of iterated product states.

Applies a chaotic unitary repeatedly to random product states and tracks
the linear entropy of the left subsystem.  The entropy rises from zero
and saturates just below the random-state benchmark, with persistent
fluctuations.  Writes one CSV with all trajectories.

Run:  python3 demos/relaxation_timeseries.py [--d D] [--states K] [--nmax N]
"""
import argparse
import os

import numpy as np

import bakerlab as bl


def main(d, n_states, n_max, seed):
    da = int(round(np.sqrt(d)))
    if da * da == d:
        part = bl.Bipartition(da, da)
    else:
        raise ValueError("this demo wants a square split; pick d a perfect square")

    u = bl.baker(d)
    # state s starts from stream s of the seed; samples.values[s, n - 1] is its entropy after n steps
    samples = bl.empirical_asymptotic_distribution(u, part, 1, n_max, n_states, bl.RngStream(seed))

    outdir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"relaxation_baker{d}.csv")
    bl.write_entropy_csv(path, samples, {
        "kind": "baker", "d": d, "split": f"{part.d_a}x{part.d_b}",
        "states": n_states, "n_max": n_max, "seed": seed,
    })

    bench = bl.cue_mean_entropy(part)
    v = samples.values
    print(f"baker map, d={d}, split {part.d_a}x{part.d_b}, {n_states} states, {n_max} steps")
    print(f"random-state benchmark   : {bench:.6f}")
    print(f"mean entropy at n=1      : {v[:, 0].mean():.6f}")
    print(f"mean entropy at n=5      : {v[:, 4].mean():.6f}")
    late = v[:, n_max // 2:]
    print(f"late-time plateau        : {late.mean():.6f} +- {late.std():.6f}")
    print(f"wrote {len(samples)} rows to {path}")
    print()
    print("gnuplot one-liner:")
    print(f"  plot '{path}' using 2:3 with dots")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--d", type=int, default=256, help="Hilbert space dimension (perfect square)")
    ap.add_argument("--states", type=int, default=5)
    ap.add_argument("--nmax", type=int, default=300)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    main(args.d, args.states, args.nmax, args.seed)
