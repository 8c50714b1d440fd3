"""The stationarity obstruction for the two-temperature gas.

With unequal species temperatures, a zero-velocity steady state forces the
boundary-driven field R(y) = int n f(n) e^(-A2 s(y,n)) dn to be divergence
free at every interior point.  One-sided slab illumination violates this by a
margin computable in closed form from a single 1-D quadrature, so the checker
must return NONEXISTENT there and EXISTS_POSSIBLE for the trivial profile.
The checker evaluates div R by the transport identity
div R = -A2 int f(n) e^(-A2 s(y,n)) dn, so the 3-D values match the 1-D
oracle up to the sphere quadrature alone.
"""

import math

import numpy as np
from scipy.special import expn

from radgas.domain3d import ConvexDomain, SphereGrid, nonexistence_check

sphere = SphereGrid(16, 32)
slab = ConvexDomain.box((-10.0, -10.0, 0.0), (10.0, 10.0, 1.0))
f_up = lambda n: (n[:, 2] > 0).astype(float)
a2 = 2.0

print("one-sided illumination of a wide slab (aspect ratio 20):")
samples = [[0.0, 0.0, z] for z in (0.2, 0.3, 0.5, 0.8)]
rep = nonexistence_check(slab, f_up, a2, samples, tol=1e-3, sphere=sphere)
print(f"verdict: {rep['verdict']}")
print("  z     div R (3D)     1-D oracle      rel. diff")
for row, (_, _, z) in zip(rep["samples"], samples):
    oracle = -2.0 * math.pi * a2 * float(expn(2, a2 * z))
    rel = abs(row["div_R"] - oracle) / abs(oracle)
    print(f"  {z:.1f}  {row['div_R']:+.6f}   {oracle:+.6f}   {rel:.2e}")

print("\ntrivial profile f = 0 on the unit ball:")
ball = ConvexDomain.ball((0.0, 0.0, 0.0), 1.0)
rep0 = nonexistence_check(ball, lambda n: np.zeros(len(n)), a2, [[0.0, 0.0, 0.0]],
                          tol=1e-3, sphere=sphere)
print(f"verdict: {rep0['verdict']}")
