"""
Does reflection symmetry tame a random map's entangling power?

Samples two random-matrix ensembles - plain Haar (CUE) unitaries and
reflection-symmetric unitaries assembled from two time-reversal-invariant
parity blocks - applies each map once to random product states, and
compares the mean linear entropy.

At histogram resolution the two distributions coincide.  Looking closely
at the means, the symmetric ensemble sits a fraction of a percent below
CUE (the time-reversal-invariant blocks return slightly more weight to
the initial product form); the shift shrinks quickly with dimension and
is invisible next to the baker's anomaly at the same size.

Run:  python3 demos/symmetric_ensemble.py
"""
import json
import os

import numpy as np

import bakerlab as bl

D = 64
PART = bl.Bipartition(8, 8)
N_MAPS = 150
N_STATES = 150
SEEDS = {"cue": 1001, "symmetric": 1002}


outdir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(outdir, exist_ok=True)

bench = bl.cue_mean_entropy(PART)
print(f"d={D}, split {PART.d_a}x{PART.d_b}, {N_MAPS} maps x {N_STATES} states each")
print(f"exact random-state mean: {bench:.6f}")
print()

stats = {}
for kind, seed in SEEDS.items():
    values = bl.ensemble_entropies(kind, D, PART, N_MAPS, N_STATES, bl.RngStream(seed))
    per_map = values.mean(axis=1)
    mean = per_map.mean()
    se = per_map.std(ddof=1) / np.sqrt(N_MAPS)
    stats[kind] = (mean, se)
    summary = bl.HistogramSummary.from_values(
        values.ravel(), 50,
        {"ensemble": kind, "d": D, "maps": N_MAPS, "states": N_STATES, "seed": seed},
    )
    path = os.path.join(outdir, f"ensemble_{kind}.json")
    with open(path, "w") as f:
        json.dump(summary.to_dict(), f, indent=2)
    print(f"{kind:16s} mean {mean:.6f} +- {se:.6f}   (histogram -> {path})")

diff = stats["cue"][0] - stats["symmetric"][0]
comb = float(np.hypot(stats["cue"][1], stats["symmetric"][1]))
print()
print(f"cue - symmetric = {diff:+.6f} ({diff / comb:.1f} combined standard errors)")
print("for calibration, the baker map's deficit at the same size:")
ep = float(bl.asymptotic_entangling_power(bl.eigensystem(bl.baker(D)), PART))
print(f"  benchmark - e_p(inf)[baker] = {bench - ep:+.6f}  (~{(bench - ep) / max(diff, 1e-12):.0f}x larger)")
