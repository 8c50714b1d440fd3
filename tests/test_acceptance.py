"""Acceptance suite: the nine exit criteria at their stated tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s / in the captured
output).  Tolerances are pinned here, not configurable.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy.special import exp1, expn

import radgas.domain3d
import radgas.slab
import radgas.three_level
from radgas import PhysConsts, MaxwellianState
from radgas.cli import main as cli_main
from radgas.collision_reduction import functionals
from radgas.domain3d import (
    ConvexDomain,
    LatticeSpec,
    SphereGrid,
    kernel_mass_at,
    nonexistence_check,
    solve_w,
)
from radgas.kinetic import (
    McPlan,
    _exchange_problem,
    _weak_form_checks,
    _weak_form_moments,
    entropy_identity_check,
    exchange_reduced,
)
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
from radgas.three_level import ThreeLevelParams, lte_deviation, solve_three_level
from radgas.physics import pseudo_planck
from oracles import CollisionTuple, detailed_balance_residual, fredholm_kernel_K

FIG1 = PhysConsts(epsilon0=1.0, sigma=1.0, c0=1.0)
PHYS = PhysConsts(epsilon0=1.0, sigma=1.0)
#: Bits of the Figure-1 scan, stricter than the 1e-9 `bench/fig1_L.csv` oracle:
#: a change to the quadrature's arithmetic order shows here first.  Re-pinned
#: when the (r, rho) plane sums became one radial axis: L moved by <= 6.5e-15.
FIG1_SHA256 = {
    "grid.csv": "21e1c3e7f51b4bf47f0904f18aa8f0df7dc0a79d7a7fcc989c238df4fd776ffb",
    "contours.csv": "b43fdb67b513cfdc246e31c19e09662fadcff1f8c3b621b2ffb492a4400d3ce5",
}
#: Bits of the transport and volume artifacts at their default configs (domain3d
#: at lattice 24): the writers and the solves under these files must keep every
#: byte.  The domain3d w is the fixed-point solve's own result; it was re-pinned
#: when GMRES replaced the Anderson loop and moved w by 1.5e-11 relative.  The
#: slab and three-level pins moved by at most 2.1e-15 relative when the direct
#: solve gained its step of iterative refinement.
ARTIFACT_SHA256 = {
    ("slab-lte",): {"radiation.npz": "4105ac69f298ff204864d5b0d436cbbf62c001d294907fbaac4ad8dc75629425"},
    ("slab-exp",): {"radiation.npz": "0ba1eb2b3f4e8c7048bb9d83ff1f65d770d0ac988a6f49e8f7f62cb97f1bb657"},
    ("three-level",): {
        "solution.csv": "a468b8e732266b2af22d53621bb2785006267902c081c1b04284e4c4224374d1",
        "radiation.npz": "d27775991623597e87ea645365e817b1958df550bdac3db8141bbe5a91df27ac",
    },
    ("domain3d", "--lattice-n", "24"): {"w.npz": "b77c68dc675f5cebd341f84d16796e22cb556c19d85f1daf7ed03d95fca513d1"},
}


def _radiation(field) -> dict:
    return {"y": field.grid.y, "mu": field.angles.mu, "G_plus": field.g_plus, "G_minus": field.g_minus}


#: Per subcommand: the solve the CLI calls (module, name), the archive it
#: writes and the arrays of the solve's result that the archive holds.
SOLVER_ARRAYS = {
    "slab-lte": (radgas.slab, "solve_lte_fredholm", "radiation.npz", lambda res: _radiation(res.h_field)),
    "slab-exp": (radgas.slab, "solve_exp_limit", "radiation.npz", lambda res: _radiation(res.H)),
    "three-level": (radgas.three_level, "solve_three_level", "radiation.npz", lambda sol: _radiation(sol.h)),
    "domain3d": (radgas.domain3d, "solve_w", "w.npz", lambda field: {"points": field.points, "w": field.values}),
}


def report(number: int, description: str, ok: bool, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {description:58s} {status}  [{elapsed:.1f}s]")
    assert ok


class TestAcceptance:
    def test_01_figure1_reproduction(self, tmp_path):
        t0 = time.time()
        out = tmp_path / "fig1"
        code = cli_main(
            ["levelscan", "--c0", "1.0", "--epsilon0", "1.0", "--sigma", "1.0", "--out", str(out)]
        )
        grid_lines = (out / "grid.csv").read_text().splitlines()
        rep = json.loads((out / "report.json").read_text())
        sha = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in FIG1_SHA256}
        ok = (
            code == 0
            and sha == FIG1_SHA256
            and len(grid_lines) == 1 + 441  # header + 21x21
            and rep["n_failures"] == 0
            and len(rep["levels"]) == 8
            and all(r["components"] == 1 and r["saddles"] == 0 for r in rep["levels"])
        )
        report(1, "Figure-1 level curves: 21x21 grid, 8 clean contours", ok, time.time() - t0)

    def test_02_reduction_vs_oracle(self):
        # Each calibrated functional against its defining 6-fold integral, on
        # the mass and energy exchange columns of the `verify` Monte Carlo.
        # With rho2 = 1e-9 rho1 only the loss side is left: the columns are
        # rho1^2 q P11 and rho1^2 q A.  With rho1 = 1e-9 rho2 only the gain
        # side: -rho1 rho2 P21 and -rho1 rho2 [(A - eps0 P11) - (T2 - T1)
        # B_diff + eps0 P21], from which the quadrature's other three terms
        # leave (T2 - T1) B_diff.
        t0 = time.time()
        pairs = [(10.0, 10.0), (10.0, 12.0), (12.0, 10.0), (11.0, 11.5), (10.5, 11.0)]
        densities = [(1.0, 1e-9), (1e-9, 1.0)]
        problems = [
            _exchange_problem(MaxwellianState(rho1, np.zeros(3), T1), MaxwellianState(rho2, np.zeros(3), T2), PHYS)
            for T1, T2 in pairs
            for rho1, rho2 in densities
        ]
        columns = iter(_weak_form_moments(problems, PHYS, McPlan(n_samples=10**6, seed=2024)))
        eps0 = PHYS.epsilon0
        ok = True
        for T1, T2 in pairs:
            f = functionals(T1, T2, PHYS, mode="calibrated")
            (loss_mass, *_, loss_energy), (gain_mass, *_, gain_energy) = next(columns), next(columns)
            loss, gain = math.exp(-2.0 * eps0 / T1), 1e-9  # rho1^2 q and rho1 rho2
            # (estimate, its scale, the quadrature's other terms, the quantity):
            # gain_energy / gain = (T2 - T1) B_diff - (A - eps0 P11) - eps0 P21
            rows = [
                (loss_mass, loss, 0.0, f.P11),
                (loss_energy, loss, 0.0, f.A),
                (gain_mass, -gain, 0.0, f.P21),
                (gain_energy, gain, -(f.A - eps0 * f.P11) - eps0 * f.P21, (T2 - T1) * f.B_diff),
            ]
            for est, scale, other, quantity in rows:
                mc, se = est.value / scale - other, est.std_error / abs(scale)
                ok &= abs(mc - quantity) <= max(0.01 * abs(mc), 3.0 * se)
        report(2, "reduced P/A/B match the 6-D Monte Carlo of verify", ok, time.time() - t0)

    def test_03_planck_fixed_point(self):
        t0 = time.time()
        grid = SlabGrid(L=2.0, n_y=65)
        angles = AngleGrid(n_mu=32)
        T0, rho0 = 10.0, 1.0
        bc = (BoundaryProfile.planck(T0, PHYS), BoundaryProfile.planck(T0, PHYS))
        G = transport_solve(rho0, T0, bc, PHYS, grid, angles)
        g0 = float(pseudo_planck(T0, PHYS))
        ok = (
            np.max(np.abs(G.g_plus - g0)) < 1e-10
            and np.max(np.abs(G.g_minus - g0)) < 1e-10
            and np.max(np.abs(flux(G))) < 1e-10
        )
        report(3, "constant Planck-boundary state: G = G0, J = 0 (1e-10)", ok, time.time() - t0)

    def test_04_fredholm_solver(self):
        t0 = time.time()
        # integral of K over the line (graded composite quadrature oracle)
        edges = np.concatenate([[0.0], np.geomspace(1e-12, 40.0, 200)])
        x, w = np.polynomial.legendre.leggauss(16)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes = 0.5 * (hi - lo) * (x + 1.0) + lo
            total += 0.5 * (hi - lo) * float(np.sum(w * fredholm_kernel_K(nodes)))
        ok = abs(2.0 * total - 1.0) < 1e-8
        ok &= all(kernel_sup(L) < 1.0 for L in (0.5, 1.0, 5.0, 20.0))
        res = solve_lte_fredholm(
            BoundaryProfile.from_function(lambda m: m, "cos"),
            SlabGrid(L=1.0, n_y=2049),
            AngleGrid(n_mu=48),
            PHYS,
            T0=1.0,
        )
        ok &= res.picard_gap < 1e-8
        ok &= float(np.ptp(res.flux_j)) < 1e-6
        report(4, "Fredholm: K mass 1, sup<1, cross-method, constant flux", ok, time.time() - t0)

    def test_05_exp_limit_solver(self):
        t0 = time.time()
        grid = SlabGrid(L=1.0, n_y=513)
        res = solve_exp_limit(BoundaryProfile.constant(1.0), grid, AngleGrid(n_mu=48))
        ok = res.picard_ratio <= kernel_sup(grid.L) + 1e-3
        ok &= res.picard_ratio < 1.0
        ok &= float(np.ptp(res.flux_j)) < 1e-6
        ok &= bool(np.all(res.w > 0))
        report(5, "exp-limit: contraction ratio, constant flux, w > 0", ok, time.time() - t0)

    def test_06_contraction_3d(self):
        t0 = time.time()
        ball = ConvexDomain.ball((0.0, 0.0, 0.0), 1.0)
        sphere = SphereGrid(16, 32)
        mass0 = kernel_mass_at(ball, [[0.0, 0.0, 0.0]], sphere)[0]
        ok = abs(mass0 - (1.0 - math.exp(-1.0))) < 1e-4
        field = solve_w(ball, lambda n: np.ones(len(n)), LatticeSpec(32), sphere)
        ok &= field.picard_ratio < 1.0
        ok &= field.picard_ratio <= field.kernel_mass.max() + 1e-3
        # radial symmetry: spread within thin shells below 1% of the mean
        rr = np.linalg.norm(field.points, axis=1)
        mean_w = float(np.mean(field.values))
        for lo in np.arange(0.1, 0.9, 0.2):
            sel = (rr > lo) & (rr < lo + 0.1)
            if np.any(sel):
                ok &= float(np.ptp(field.values[sel])) < 0.01 * mean_w
        # independent 1-D radial oracle
        w_oracle = _radial_oracle_ball(radius=1.0, m=801)
        w_at = np.interp(rr, w_oracle[0], w_oracle[1])
        ok &= float(np.max(np.abs(field.values - w_at))) < 0.01 * float(np.max(np.abs(w_at)))
        report(6, "3D ball: kernel mass, geometric Picard, radial oracle", ok, time.time() - t0)

    def test_07_nonexistence_checker(self):
        t0 = time.time()
        slab = ConvexDomain.box((-10.0, -10.0, 0.0), (10.0, 10.0, 1.0))
        sphere = SphereGrid(16, 32)
        f_up = lambda n: (n[:, 2] > 0).astype(float)
        a2, z = 2.0, 0.3
        rep = nonexistence_check(slab, f_up, a2, [[0.0, 0.0, z]], tol=1e-3, sphere=sphere)
        oracle = -2.0 * math.pi * a2 * float(expn(2, a2 * z))
        ok = rep["verdict"] == "NONEXISTENT"
        ok &= abs(rep["witness_div_R"] - oracle) < 0.01 * abs(oracle)
        rep0 = nonexistence_check(
            ConvexDomain.ball((0, 0, 0), 1.0),
            lambda n: np.zeros(len(n)),
            a2,
            [[0.0, 0.0, 0.0]],
            tol=1e-3,
            sphere=sphere,
        )
        ok &= rep0["verdict"] == "EXISTS_POSSIBLE"
        report(7, "nonexistence: slab NONEXISTENT vs oracle, f=0 possible", ok, time.time() - t0)

    def test_08_three_level(self):
        t0 = time.time()
        params = ThreeLevelParams(0.7, 0.3, eps=1.0, T0=2.0, rho0=1.0, P12=1.0, P23=1.0)
        grid = SlabGrid(L=1.0, n_y=65)
        angles = AngleGrid(n_mu=32)
        bc = (BoundaryProfile.constant(0.1), BoundaryProfile.zero())
        sol = solve_three_level(0.0, bc, params, grid, angles, mass_C0=0.0)
        dev, _ = lte_deviation(sol)
        ok = sol.path_gap < 1e-8
        ok &= dev > 10 * 1e-8
        ok &= abs(dev - 2.2603879091357846) < 1e-8 * dev  # pinned generic run
        # two-level degeneration: gamma2 = 0 with the LTE-consistent
        # temperature field recovers the Boltzmann-ratio perturbation
        p2 = ThreeLevelParams(1.0, 0.0, eps=1.0, T0=2.0, rho0=1.0, P12=1.0, P23=1.0)
        first = solve_three_level(0.0, bc, p2, grid, angles)
        xi_star = p2.T0 / (2 * p2.eps) * (first.sigma2 - first.sigma1)
        sol2 = solve_three_level(xi_star, bc, p2, grid, angles)
        beta = 2 * p2.eps / p2.T0 * xi_star
        ok &= float(np.max(np.abs(sol2.sigma2 - sol2.sigma1 - beta))) < 1e-6
        ok &= float(np.max(np.abs(sol2.sigma3 - sol2.sigma2 - beta))) < 1e-6
        report(8, "three-level: pinned non-LTE run, LTE degeneration", ok, time.time() - t0)

    def test_09_kinetic_identities(self):
        t0 = time.time()
        consts = PHYS
        rng = np.random.default_rng(99)
        T = 4.0
        u = np.array([0.3, 0.0, 0.0])
        v1 = u + rng.normal(size=(10**5, 3)) * math.sqrt(T / 2)
        v2 = u + rng.normal(size=(10**5, 3)) * math.sqrt(T / 2)
        keep = np.sum((v1 - v2) ** 2, axis=1) > 4.0 * consts.epsilon0 + 1e-9
        om = rng.normal(size=(int(keep.sum()), 3))
        om /= np.linalg.norm(om, axis=1, keepdims=True)
        tup = CollisionTuple.nonelastic(v1[keep], v2[keep], om, consts)
        s1 = MaxwellianState(1.0, u, T)
        s2 = MaxwellianState(math.exp(-2.0 / T), u, T)
        ok = float(np.max(np.abs(detailed_balance_residual(s1, s2, tup, consts)))) < 1e-12

        plan = McPlan(n_samples=10**6, seed=7)
        g1 = MaxwellianState(1.3, np.zeros(3), 4.0)
        g2 = MaxwellianState(0.4, np.zeros(3), 7.0)
        conservation, exchange, kernel = _weak_form_checks((g1, g2), s1, plan, consts)
        ok &= all(e.consistent_with_zero() for e in [*conservation.values(), *kernel.values()])
        for est, red in zip(exchange.values(), exchange_reduced(g1, g2, consts)):
            ok &= abs(est.value - red) <= 3.0 * est.std_error
        ok &= entropy_identity_check([0.5, 2.0, 10.0, 50.0], consts)["max_rel_error"] < 1e-14
        report(9, "kinetic identities: balance, conservation, exchange", ok, time.time() - t0)


@pytest.mark.parametrize("argv", list(ARTIFACT_SHA256), ids=" ".join)
def test_artifacts_pinned(tmp_path, argv):
    out = tmp_path / "run"
    assert cli_main([*argv, "--out", str(out)]) == 0
    sha = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in ARTIFACT_SHA256[argv]}
    assert sha == ARTIFACT_SHA256[argv]


@pytest.mark.parametrize("argv", list(ARTIFACT_SHA256), ids=" ".join)
def test_archives_hold_the_solver_arrays_bit_for_bit(tmp_path, monkeypatch, argv):
    module, name, archive, arrays = SOLVER_ARRAYS[argv[0]]
    results, solve = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: results.append(solve(*a, **k)) or results[-1])
    out = tmp_path / "run"
    assert cli_main([*argv, "--out", str(out)]) == 0
    (result,) = results
    expected = arrays(result)
    with np.load(out / archive) as stored:
        assert stored.files == list(expected)
        for key, value in expected.items():
            got = stored[key]
            assert got.dtype == np.float64 and got.shape == value.shape and got.tobytes() == value.tobytes(), key


def _radial_oracle_ball(radius: float, m: int):
    """Independent 1-D solve of the radial reduction on a ball (isotropic f = 1).

    Works in v = r*w; kernel (1/2)[E1(|r-p|) - E1(r+p)] with product-integration
    moments of E1; forcing from the 1-D exit-distance quadrature.
    """
    r = np.linspace(0.0, radius, m)

    # forcing -(1/4pi) div R via the angular quadrature of the exact formulas
    x, wq = np.polynomial.legendre.leggauss(400)
    g = np.empty(m)
    for i, rv in enumerate(r):
        root = np.sqrt(rv * rv * x * x + radius * radius - rv * rv)
        s = rv * x + root
        e = np.exp(-s)
        if rv < 1e-12:
            g[i] = -3.0 * (-2.0 * math.pi * float(np.sum(wq * x * x * math.exp(-radius)))) / (
                4.0 * math.pi
            )
        else:
            Rr = 2.0 * math.pi * float(np.sum(wq * x * e))
            dsdr = x - rv * (1.0 - x * x) / root
            dRr = -2.0 * math.pi * float(np.sum(wq * x * e * dsdr))
            g[i] = -(dRr + 2.0 * Rr / rv) / (4.0 * math.pi)

    def m0(t):
        s = np.abs(t)
        val = np.where(s > 0, s * exp1(np.where(s > 0, s, 1.0)) - np.exp(-s) + 1.0, 0.0)
        return np.sign(t) * val

    def m1(t):
        s = np.abs(t)
        e1 = exp1(np.where(s > 0, s, 1.0))
        return np.where(s > 0, 0.5 * s * s * e1 - 0.5 * (s + 1.0) * np.exp(-s) + 0.5, 0.0)

    delta = np.diff(r)
    X = r[:, None]
    b = X - r[None, :-1]
    a = X - r[None, 1:]
    i0 = m0(b) - m0(a)
    i1 = (X - r[None, :-1]) * i0 - (m1(b) - m1(a))
    A1 = np.zeros((m, m))
    A1[:, :-1] += i0 - i1 / delta
    A1[:, 1:] += i1 / delta
    bp = X + r[None, 1:]
    ap = X + r[None, :-1]
    j0 = m0(bp) - m0(ap)
    j1 = (m1(bp) - m1(ap)) - (X + r[None, :-1]) * j0
    A2 = np.zeros((m, m))
    A2[:, :-1] += j0 - j1 / delta
    A2[:, 1:] += j1 / delta
    A = 0.5 * (A1 - A2)
    v = np.linalg.solve(np.eye(m) - A, r * g)
    w = np.empty(m)
    w[1:] = v[1:] / r[1:]
    w[0] = 2.0 * w[1] - w[2]
    return r, w
