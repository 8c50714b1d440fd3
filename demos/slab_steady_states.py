"""Stationary slab states: the Planck fixed point and both perturbation solvers.

Three short experiments in plane-parallel geometry:

1. A constant gas column fed pseudo-Planck radiation from both walls stays
   exactly at the pseudo-Planck intensity with zero net flux -- the
   equilibrium the linearized solvers expand around.
2. The linearized-LTE solver: an incoming perturbation j0(psi) = cos(psi)
   at one wall determines the temperature perturbation theta through a
   Fredholm equation with kernel E1(|x|)/2.  Direct Nystroem and Picard
   iteration agree, and the reconstructed radiative flux is constant in
   depth, which is the stationarity statement.
3. The exponential-dependence solver: same kernel, now for w = e^theta with
   a normalized one-sided illumination; w stays positive and the contraction
   ratio sits below the kernel norm.
"""

import numpy as np

from radgas import PhysConsts, pseudo_planck
from radgas.slab import (
    AngleGrid,
    BoundaryProfile,
    SlabGrid,
    flux,
    kernel_sup,
    solve_exp_limit,
    solve_lte_fredholm,
    transport_solve,
)

consts = PhysConsts(epsilon0=1.0)

print("== 1. pseudo-Planck fixed point ==")
grid = SlabGrid(L=2.0, n_y=65)
angles = AngleGrid(n_mu=32)
T0 = 10.0
bc = (BoundaryProfile.planck(T0, consts), BoundaryProfile.planck(T0, consts))
G = transport_solve(1.0, T0, bc, consts, grid, angles)
g0 = float(pseudo_planck(T0, consts))
print(f"G0(T={T0}) = {g0:.7f}")
print(f"max |G - G0| = {np.max(np.abs(G.g_plus - g0)):.2e}, "
      f"max |J| = {np.max(np.abs(flux(G))):.2e}")

print("\n== 2. linearized-LTE Fredholm solve ==")
grid = SlabGrid(L=1.0, n_y=513)
angles = AngleGrid(n_mu=48)
print(f"kernel norm sup_x int K = {kernel_sup(grid.L):.6f} (< 1: contraction)")
res = solve_lte_fredholm(
    BoundaryProfile.from_function(lambda mu: mu, "cos"), grid, angles, consts, T0=1.0
)
print(f"theta(0) = {res.theta[0]:+.6f}, theta(L/2) = {res.theta[len(res.theta)//2]:+.6f}, "
      f"theta(L) = {res.theta[-1]:+.6f}")
print(f"Nystroem vs Picard gap = {res.picard_gap:.2e}")
print(f"recovered flux i0 = {res.i0:.8f}; depth variation of J = {np.ptp(res.flux_j):.2e}")

print("\n== 3. exponential-dependence solve ==")
res2 = solve_exp_limit(BoundaryProfile.constant(1.0), grid, angles)
print(f"w > 0 everywhere: {bool(np.all(res2.w > 0))}; "
      f"w range [{res2.w.min():.6f}, {res2.w.max():.6f}]")
print(f"measured contraction ratio {res2.picard_ratio:.4f} <= kernel norm {res2.kernel_sup:.4f}")
print(f"constant flux j0 = {res2.j0:.8f}; depth variation = {np.ptp(res2.flux_j):.2e}")
