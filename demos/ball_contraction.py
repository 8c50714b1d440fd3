"""The 3D contraction solver on the unit ball.

The stationary temperature variable w = e^theta solves a nonlocal fixed-point
equation whose kernel e^(-r)/(4 pi r^2) carries total mass < 1 over any
bounded domain -- at the center of the unit ball the mass is exactly
1 - e^(-1).  For an isotropic unit boundary profile the exact solution is the
radiation bath w = 1, which makes a sharp accuracy probe: the forcing
-div R / (4 pi) comes from the transport identity on the same sphere rule as
the kernel mass, so the lattice solution should equal 1 to round-off.
"""

import math

import numpy as np

from radgas.domain3d import ConvexDomain, LatticeSpec, SphereGrid, kernel_mass_at, solve_w

ball = ConvexDomain.ball((0.0, 0.0, 0.0), 1.0)
sphere = SphereGrid(16, 32)

mass0 = kernel_mass_at(ball, [[0.0, 0.0, 0.0]], sphere)[0]
print(f"kernel mass at the center: {mass0:.10f}  (exact 1 - 1/e = {1 - math.exp(-1):.10f})")

print("solving on a 32^3 lattice ...")
field = solve_w(ball, lambda n: np.ones(len(n)), LatticeSpec(32), sphere)
print(f"{len(field.points)} interior cells, {field.iterations} Picard sweeps "
      f"(converged: {field.converged}), "
      f"ratio {field.picard_ratio:.3f} (max kernel mass {field.kernel_mass.max():.3f})")
print(f"w range: [{field.values.min():.12f}, {field.values.max():.12f}]  (exact: 1)")

rr = np.linalg.norm(field.points, axis=1)
print("\nradial profile (shell means):")
for lo in np.arange(0.0, 1.0, 0.2):
    sel = (rr >= lo) & (rr < lo + 0.2)
    if np.any(sel):
        vals = field.values[sel]
        print(f"  r in [{lo:.1f}, {lo+0.2:.1f}): mean w = {vals.mean():.8f}, "
              f"spread = {np.ptp(vals):.2e} over {sel.sum()} cells")
