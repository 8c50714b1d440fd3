"""Reduced collision integrals against their defining 6-fold forms.

The number/energy exchange between ground and excited molecules reduces, for
the simplified hard-sphere kernel, from 6-fold velocity integrals to 3-fold
integrals in (r, rho, theta), summed over one radial axis.  The Monte Carlo of `radgas verify` is the
independent referee: it samples the defining integrals through the weak form
of the collision operator, and its mass- and energy-exchange columns must
match the calibrated reduced closed forms (one sqrt(T1) and the constant
c0^2 restored) to Monte Carlo accuracy.  Also prints the auxiliary functions
H, S, L the level-curve scan consumes.
"""

import math

import numpy as np

from radgas import H_func, L_func, MaxwellianState, McPlan, PhysConsts, S_func, TripleQuadSpec
from radgas.kinetic import exchange_reduced, verify_checks

consts = PhysConsts(epsilon0=1.0, sigma=1.0)
plan = McPlan(n_samples=400_000, seed=1)
rest = np.zeros(3)

print("weak-form Monte Carlo of verify against the calibrated reduced integrals:")
print("  row     (T1, T2)      Monte Carlo               reduced          sigmas")
# the default verify pair, then T2 above and below T1 on the level-curve window
for (rho1, T1), (rho2, T2) in [((1.3, 4.0), (0.4, 7.0)), ((1.0, 10.0), (0.5, 12.0)), ((1.0, 12.0), (0.5, 10.0))]:
    pair = [MaxwellianState(rho1, rest, T1), MaxwellianState(rho2, rest, T2)]
    # detailed balance is checked on a Boltzmann-ratio pair at T1
    lte = (pair[0], MaxwellianState(rho1 * math.exp(-2.0 * consts.epsilon0 / T1), rest, T1))
    balance, (_, exchange, _) = verify_checks(lte, 10_000, pair, pair[0], plan, consts)
    for (name, est), red in zip(exchange.items(), exchange_reduced(*pair, consts)):
        sig = abs(est.value - red) / est.std_error
        print(f"  {name:6s}  ({T1:4.1f}, {T2:4.1f})  {est.value:+.6e} +- {est.std_error:.1e}  {red:+.6e}  {sig:5.2f}")
    print(f"  detailed-balance residual at T1: {balance:.1e}")

spec = TripleQuadSpec()
fig1 = PhysConsts(epsilon0=1.0, sigma=1.0, c0=1.0)
print("\nauxiliary functions on the level-curve window (epsilon0 = c0 = sigma = 1):")
for (t1, t2) in [(10.0, 10.0), (10.0, 12.0), (12.0, 10.0), (11.0, 11.5)]:
    H = H_func(t1, t2, fig1, spec)
    S = S_func(t1, t2, fig1, spec)
    L = L_func(t1, t2, fig1, spec)
    print(f"  (T1, T2) = ({t1:4.1f}, {t2:4.1f}):  H = {H:.6f}  S = {S:.6f}  L = {L:.6f}")
