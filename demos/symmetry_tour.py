"""
Tour of the map constructors and their symmetry relations.

Builds the antiperiodic Fourier transform G, the baker map B, the
approximate maps D/D', the composite Bbar, the reflection R and the
parity basis change Lambda, then checks every structural identity
numerically.  Finishes by writing the baker to a cmatrix-json file and
reading it back bit-exactly.

Run:  python3 demos/symmetry_tour.py
"""
import os

import numpy as np

import bakerlab as bl

d = 16
part = bl.Bipartition(4, 4)

g = bl.antiperiodic_fourier(d)
b = bl.baker(d)
r = bl.reflection(d)
lam = bl.lambda_basis(d)
dplus = bl.d_map(d, +1)
dminus = bl.d_map(d, -1)
bbar = bl.bbar(d)

print(f"dimension d = {d}")
print()
print("unitarity defects (should all be ~1e-15):")
for name, m in [("G", g), ("B", b), ("R", r), ("Lambda", lam),
                ("D", dplus), ("D'", dminus), ("Bbar", bbar)]:
    print(f"  {name:7s} {bl.unitarity_defect(m):.2e}")

print()
print("reflection symmetry [M, R] = 0:")
for name, m in [("G", g), ("B", b), ("Bbar", bbar)]:
    print(f"  {name:7s} {bl.reflection_commutator(m):.2e}")
# D and D' deliberately break it:
print(f"  D       {bl.reflection_commutator(dplus):.2e}   (not symmetric, by construction)")

# The antiperiodic transform anticommutes with conjugation-reflection:
# R G = G R = -G*.
print()
print(f"max |R G - G R|        = {bl.max_abs(r @ g - g @ r):.2e}")
print(f"max |R G + conj(G)|    = {bl.max_abs(r @ g + g.conj()):.2e}")

# Time reversal: (G^-1 M G)* = M^-1 for every map in the family.
print()
print("time reversal (G^-1 M G)* = M^-1:")
ginv = g.conj().T
for name, m in [("B", b), ("D", dplus), ("D'", dminus)]:
    defect = bl.max_abs((ginv @ m @ g).conj() - m.conj().T)
    print(f"  {name:4s} {defect:.2e}")

# Lambda block-diagonalizes any reflection-symmetric unitary.  The two
# blocks act on the odd / even parity subspaces.
w_odd, w_even = bl.reduce_by_symmetry(b)
print()
print(f"parity blocks of B: {w_odd.shape[0]}x{w_odd.shape[0]} each, both unitary:"
      f" {bl.unitarity_defect(w_odd) < bl.UNITARY_TOL} {bl.unitarity_defect(w_even) < bl.UNITARY_TOL}")
rebuilt = lam @ np.block([
    [w_odd, np.zeros_like(w_odd)],
    [np.zeros_like(w_even), w_even],
]) @ lam.conj().T
print(f"reassembly error: {bl.max_abs(rebuilt - b):.2e}")

# Bbar is built from the approximate maps on the parity blocks.
half = d // 2
b1, b2 = bl.reduce_by_symmetry(bbar)
rh = bl.reflection(half)
print(f"Bbar odd block  == D_{half}:        {bl.max_abs(b1 - bl.d_map(half, +1)):.2e}")
print(f"Bbar even block == R D'_{half} R:   {bl.max_abs(b2 - rh @ bl.d_map(half, -1) @ rh):.2e}")

# Round-trip through the matrix interchange format.
os.makedirs(os.path.join(os.path.dirname(__file__), "out"), exist_ok=True)
path = os.path.join(os.path.dirname(__file__), "out", "baker16.json")
bl.save_cmatrix(path, b)
again = bl.load_cmatrix(path)
print()
print(f"cmatrix-json round trip bit-exact: {np.array_equal(b, again)}  ({path})")
