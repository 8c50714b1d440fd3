"""A genuine non-LTE stationary state of the three-level gas.

Two-level gases relax their stationary zero-velocity states back to the
Boltzmann ratio; with three levels the radiative balance only constrains the
weighted sum of the two line exchanges, so one-sided incoming radiation
sustains density perturbations that sit off the Boltzmann ratio.  The solver
couples a per-node 3x3 linear system to the slab transport of the radiation
perturbation h; eliminating the 3x3 node equations leaves one n x n solve
for the radiation source, and it and a fixed-point solve for the same source
must agree.

Switching the second line off (gamma2 = 0) restores the two-level situation:
the radiative subsystem then fixes sigma2 - sigma1 on its own, and feeding
the matching temperature field back in puts every level exactly in the
linearized Boltzmann ratio -- LTE recovered.
"""

import numpy as np

from radgas.slab import AngleGrid, BoundaryProfile, SlabGrid
from radgas.three_level import ThreeLevelParams, constant_state, lte_deviation, non_lte_curvature, solve_three_level

params = ThreeLevelParams(gamma1=0.7, gamma2=0.3, eps=1.0, T0=2.0, rho0=1.0, P12=1.0, P23=1.0)
grid = SlabGrid(L=1.0, n_y=65)
angles = AngleGrid(n_mu=32)
boundary = (BoundaryProfile.constant(0.1), BoundaryProfile.zero())

bg = constant_state(params)
print(f"background densities: {bg['rho1']:.4f}, {bg['rho2']:.4f}, {bg['rho3']:.4f} "
      f"(Boltzmann ladder), G_p = {bg['G_p']:.4f}")

sol = solve_three_level(0.0, boundary, params, grid, angles, mass_C0=0.0)
dev, where = lte_deviation(sol)
print(f"\ndriven run (one-sided h boundary 0.1):")
print(f"  direct vs Picard gap: {sol.path_gap:.2e} ({sol.picard_iterations} GMRES residuals)")
print(f"  equation residuals: {sol.eq1_residual:.1e} / {sol.eq2_residual:.1e} / {sol.eq3_residual:.1e}")
print(f"  non-LTE deviation max |sigma_j - sigma_i - (j - i) beta| = {dev:.4f} "
      f"(pair {where['pair']} at y = {where['y']:.3f}), beta = (2eps/T0) xi")
print(f"  non-LTE curvature max |sigma1 - 2 sigma2 + sigma3| = {non_lte_curvature(sol):.4f}")
print("\n  y      sigma1     sigma2     sigma3")
for i in range(0, grid.n_y, 16):
    print(f"  {grid.y[i]:.2f}  {sol.sigma1[i]:+.5f}  {sol.sigma2[i]:+.5f}  {sol.sigma3[i]:+.5f}")

print("\ngamma2 = 0 degeneration (second line off):")
p2 = ThreeLevelParams(gamma1=1.0, gamma2=0.0, eps=1.0, T0=2.0, rho0=1.0, P12=1.0, P23=1.0)
first = solve_three_level(0.0, boundary, p2, grid, angles)
xi_star = p2.T0 / (2 * p2.eps) * (first.sigma2 - first.sigma1)
sol2 = solve_three_level(xi_star, boundary, p2, grid, angles)
beta = 2 * p2.eps / p2.T0 * xi_star
print(f"  max |sigma2 - sigma1 - (2eps/T0) xi| = {np.max(np.abs(sol2.sigma2 - sol2.sigma1 - beta)):.2e}")
print(f"  max |sigma3 - sigma2 - (2eps/T0) xi| = {np.max(np.abs(sol2.sigma3 - sol2.sigma2 - beta)):.2e}")
print(f"  non-LTE deviation {lte_deviation(sol2)[0]:.2e}, curvature {non_lte_curvature(sol2):.2e}")
print("  -> densities in the linearized Boltzmann ratio at every node (LTE)")
