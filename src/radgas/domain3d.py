"""Convex-domain ray geometry, the boundary-driven field R, and the 3D
contraction-mapping solver for the exponential-limit temperature variable.

The nonlocal fixed-point equation solved here is

    w(y) = int_Omega e^(-|y-eta|) / (4*pi*|y-eta|^2) w(eta) d(eta) - div(R)/(4*pi),

with R(y) = int_{S^2} n f(n) e^(-A2*s(y,n)) dn and s(y, n) the distance from y
back to the boundary against direction n.  The kernel mass over any bounded
domain is < 1, so Picard iteration contracts; the volume integral is a
translation-invariant convolution on the lattice and is applied by FFT with
per-cell kernel moments (the singular self-cell uses the analytic equal-volume
ball integral 1 - e^(-r_eq)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .errors import NonPositiveW, NotInterior
from .picard import fixed_point

__all__ = [
    "ConvexDomain",
    "SphereGrid",
    "LatticeSpec",
    "VolumeField",
    "exit_distance",
    "vector_R",
    "div_R",
    "solve_w",
    "nonexistence_check",
    "kernel_mass_at",
]


class ConvexDomain:
    """Convex region answering interior and ray-exit queries.

    Kinds: ball(center, radius), box(mins, maxs), implicit(sdf, bbox) where
    sdf is a signed-distance oracle (negative inside) and bbox a bounding box.
    """

    def __init__(self, kind, **geom):
        self.kind = kind
        self._geom = geom

    @classmethod
    def ball(cls, center, radius: float) -> "ConvexDomain":
        if not radius > 0:
            raise ValueError(f"radius must be > 0, got {radius}")
        return cls("ball", center=np.asarray(center, dtype=float).reshape(3), radius=float(radius))

    @classmethod
    def box(cls, mins, maxs) -> "ConvexDomain":
        mins = np.asarray(mins, dtype=float).reshape(3)
        maxs = np.asarray(maxs, dtype=float).reshape(3)
        if not np.all(maxs > mins):
            raise ValueError("box must satisfy maxs > mins componentwise")
        return cls("box", mins=mins, maxs=maxs)

    @classmethod
    def implicit(cls, sdf, bbox_mins, bbox_maxs) -> "ConvexDomain":
        return cls(
            "implicit",
            sdf=sdf,
            mins=np.asarray(bbox_mins, dtype=float).reshape(3),
            maxs=np.asarray(bbox_maxs, dtype=float).reshape(3),
        )

    @property
    def bounding_box(self):
        if self.kind == "ball":
            c, r = self._geom["center"], self._geom["radius"]
            return c - r, c + r
        return self._geom["mins"], self._geom["maxs"]

    def contains(self, points) -> np.ndarray:
        """Strict interior test; points is (..., 3)."""
        p = np.asarray(points, dtype=float)
        if self.kind == "ball":
            c, r = self._geom["center"], self._geom["radius"]
            return np.sum((p - c) ** 2, axis=-1) < r**2
        if self.kind == "box":
            mins, maxs = self._geom["mins"], self._geom["maxs"]
            return np.all(p > mins, axis=-1) & np.all(p < maxs, axis=-1)
        return np.asarray(self._geom["sdf"](p)) < 0

    def exit_distances(self, points, dirs) -> np.ndarray:
        """s(y, n) for a batch: points (P, 3), dirs (S, 3) -> (P, S).

        y - s*n lies on the boundary: s is the ray parameter toward the
        boundary point the radiation traveling along +n entered through.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        n = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.kind == "ball":
            c, r = self._geom["center"], self._geom["radius"]
            d = p - c
            nd = d @ n.T
            disc = nd**2 + r**2 - np.sum(d**2, axis=-1)[:, None]
            return nd + np.sqrt(np.maximum(disc, 0.0))
        if self.kind == "box":
            mins, maxs = self._geom["mins"], self._geom["maxs"]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_pos = (p[:, None, :] - mins) / n[None, :, :]
                t_neg = (p[:, None, :] - maxs) / n[None, :, :]
                t = np.where(n[None, :, :] > 0, t_pos, np.where(n[None, :, :] < 0, t_neg, np.inf))
            return np.min(t, axis=-1)
        return self._exit_bisection(p, n)

    def _exit_bisection(self, p, n, iters: int = 60):
        sdf = self._geom["sdf"]
        mins, maxs = self._geom["mins"], self._geom["maxs"]
        hi = float(np.linalg.norm(maxs - mins)) * np.ones((p.shape[0], n.shape[0]))
        lo = np.zeros_like(hi)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            pts = p[:, None, :] - mid[..., None] * n[None, :, :]
            inside = np.asarray(sdf(pts)) < 0
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)


def exit_distance(domain: ConvexDomain, y, n) -> float:
    """Ray-exit distance s > 0 with y - s*n on the boundary; y strictly interior."""
    y = np.asarray(y, dtype=float).reshape(3)
    n = np.asarray(n, dtype=float).reshape(3)
    if not bool(domain.contains(y)):
        raise NotInterior(f"point {y} is not strictly inside the domain")
    return float(domain.exit_distances(y[None, :], n[None, :])[0, 0])


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature on S^2: two-panel Gauss-Legendre in cos(theta)
    (panels split at the equator, so hemisphere-supported profiles integrate
    cleanly) times a uniform periodic grid in phi.  Weights sum to 4*pi.
    """

    n_theta: int = 16
    n_phi: int = 32

    def __post_init__(self):
        if self.n_theta < 2 or self.n_theta % 2:
            raise ValueError("n_theta must be even and >= 2")
        if self.n_phi < 4:
            raise ValueError("n_phi must be >= 4")
        if self.n_theta * self.n_phi < 26:
            raise ValueError("sphere grid needs at least 26 nodes")

    def nodes_weights(self):
        half = self.n_theta // 2
        x, w = np.polynomial.legendre.leggauss(half)
        ct = np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)])
        wt = np.concatenate([0.5 * w, 0.5 * w])
        phi = 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi
        wphi = 2.0 * math.pi / self.n_phi
        st = np.sqrt(1.0 - ct**2)
        nodes = np.stack(
            [
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
                np.outer(ct, np.ones_like(phi)).ravel(),
            ],
            axis=-1,
        )
        weights = np.outer(wt, np.full(self.n_phi, wphi)).ravel()
        return nodes, weights


def _profile_values(f, nodes) -> np.ndarray:
    vals = np.asarray(f(nodes) if callable(f) else f, dtype=float)
    if vals.shape != (nodes.shape[0],):
        raise ValueError(f"profile must give one value per sphere node, got {vals.shape}")
    if np.any(vals < 0):
        raise ValueError("boundary profile f must be >= 0")
    return vals


def vector_R(domain: ConvexDomain, f, A2: float, y, sphere: SphereGrid) -> np.ndarray:
    """R(y) = int_{S^2} n f(n) e^(-A2 s(y,n)) dn by sphere quadrature.

    f is either a callable on unit vectors or an array of values on the
    sphere nodes (nonnegative).
    """
    y = np.asarray(y, dtype=float).reshape(3)
    if not bool(domain.contains(y)):
        raise NotInterior(f"point {y} is not strictly inside the domain")
    nodes, weights = sphere.nodes_weights()
    fvals = _profile_values(f, nodes)
    s = domain.exit_distances(y[None, :], nodes)[0]
    return (weights * fvals * np.exp(-A2 * s)) @ nodes


#: Rays (point, sphere node) per block of the attenuation pass: 128 points
#: at the default 512-node sphere.  Every (points, nodes) temporary of the
#: exit-distance geometry lives only inside its block.
_RAY_BLOCK = 1 << 16


def _attenuation_pass(domain, points, nodes, weights, fvals=None, A2: float = 1.0):
    """Angular moments of e = e^(-A2 s(y,n)) at each point, from one blocked
    pass over the (point, node) rays.

    Returns (e @ (weights * fvals), (1 - e) @ weights), the first None when
    fvals is None.  Points go through in blocks of _RAY_BLOCK rays, so memory
    stays bounded whatever the number of points.  Each row takes the same
    operations as in one (P, S) pass; only the BLAS row grouping of the
    matrix-vector products, which can move a row's last bit, follows the
    blocks.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    step = max(1, _RAY_BLOCK // len(nodes))
    wf = None if fvals is None else weights * fvals
    flux = None if fvals is None else np.empty(len(pts))
    mass = np.empty(len(pts))
    for lo in range(0, len(pts), step):
        e = np.exp(-A2 * domain.exit_distances(pts[lo : lo + step], nodes))
        if wf is not None:
            flux[lo : lo + step] = e @ wf
        mass[lo : lo + step] = (1.0 - e) @ weights
    return flux, mass


def _div_R_batch(domain, fvals, A2, points, nodes, weights) -> np.ndarray:
    """div R at a batch of interior points by the transport identity.

    On a convex domain s(y + t*n, n) = s(y, n) + t, so n . grad_y s = 1 and
    div R(y) = -A2 * int_{S^2} f(n) e^(-A2 s(y,n)) dn: the radiative transfer
    equation n . grad I = -A2 I integrated over angle.
    """
    flux, _ = _attenuation_pass(domain, points, nodes, weights, fvals, A2)
    return -A2 * flux


def div_R(domain: ConvexDomain, f, A2: float, y, sphere: SphereGrid) -> float:
    """Divergence of R at y, -A2 * int_{S^2} f(n) e^(-A2 s(y,n)) dn, on the
    sphere rule that vector_R uses.

    Exact up to the sphere quadrature at every strictly interior point, the
    boundary skin included; never positive for f >= 0.
    """
    y = np.asarray(y, dtype=float).reshape(3)
    if not bool(domain.contains(y)):
        raise NotInterior(f"point {y} is not strictly inside the domain")
    nodes, weights = sphere.nodes_weights()
    fvals = _profile_values(f, nodes)
    return float(_div_R_batch(domain, fvals, A2, y[None, :], nodes, weights)[0])


def kernel_mass_at(domain: ConvexDomain, points, sphere: SphereGrid) -> np.ndarray:
    """int over the domain of e^(-r)/(4*pi*r^2) around each point.

    Uses the exact angular reduction (1/4pi) * int_{S^2} (1 - e^(-s(y,n))) dn,
    so only the sphere quadrature contributes error; at the center of a ball
    the exit distance is constant and the value is exact.  Every point must
    be strictly interior.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(domain.contains(pts)):
        raise NotInterior("all points must be strictly interior")
    nodes, weights = sphere.nodes_weights()
    _, mass = _attenuation_pass(domain, pts, nodes, weights)
    return mass / (4.0 * math.pi)


@dataclass(frozen=True)
class LatticeSpec:
    """Structured lattice resolution: n cells per axis over the bounding box."""

    n: int = 32

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"lattice needs n >= 8, got {self.n}")


@dataclass
class VolumeField:
    """Values at strictly interior cell centers of a structured lattice."""

    points: np.ndarray  # (P, 3) interior cell centers
    values: np.ndarray  # (P,)
    kernel_mass: np.ndarray | None = None
    picard_ratio: float | None = None
    iterations: int | None = None
    converged: bool = False
    picard_diffs: list | None = None  # max|w_k - w_(k-1)| per Picard sweep


def _build_lattice(domain: ConvexDomain, spec: LatticeSpec):
    mins, maxs = domain.bounding_box
    n = spec.n
    spacing = (maxs - mins) / n
    axes = [mins[i] + spacing[i] * (np.arange(n) + 0.5) for i in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([X, Y, Z], axis=-1)
    inside = domain.contains(centers)

    # 8-point subsampling for the interior volume fraction of every cell
    offsets = np.array(
        [[sx, sy, sz] for sx in (-0.25, 0.25) for sy in (-0.25, 0.25) for sz in (-0.25, 0.25)]
    )
    flat = centers.reshape(-1, 3)
    acc = np.zeros(len(flat))
    for off in offsets:
        acc += domain.contains(flat + off * spacing)
    frac_all = (acc / len(offsets)).reshape(centers.shape[:3])

    # clipped cells whose center fell outside still carry interior volume;
    # lump it onto the nearest interior lattice neighbor so the discrete
    # operator keeps the boundary-skin mass (mass-conserving, FFT-compatible)
    frac_grid = np.where(inside, frac_all, 0.0)
    orphans = (~inside) & (frac_all > 0)
    if np.any(orphans):
        from scipy.ndimage import distance_transform_edt

        _, nearest = distance_transform_edt(~inside, return_indices=True)
        oi = np.argwhere(orphans)
        ti = nearest[:, oi[:, 0], oi[:, 1], oi[:, 2]]
        np.add.at(frac_grid, (ti[0], ti[1], ti[2]), frac_all[orphans])
    return centers[inside], inside, frac_grid, spacing


def _kernel_table(n: int, spacing, near_range: int = 6):
    """Per-cell integrals of e^(-r)/(4*pi*r^2) over lattice offset cells, on a
    circular table of period L = next_fast_len(2n - 1) per axis: offset k sits
    at index k mod L, so the first n^3 block of a circular product with a
    zero-padded n^3 input is the linear convolution (Hockney and Eastwood
    1988).  Offsets |k| >= n fill the wrap gap and are never read.  Self cell:
    analytic over the equal-volume ball; cells within `near_range` of the
    origin: 4^3 Gauss-Legendre; beyond: 2^3.
    """
    L = next_fast_len(2 * n - 1, True)
    k = np.arange(L)
    k = np.where(k < n, k, k - L)  # signed offset at each index
    offs = [spacing[i] * k for i in range(3)]
    vol = float(np.prod(spacing))

    def cell_integrals(axes, m):
        """Integrals over the cells axes[0] x axes[1] x axes[2] (per-axis offsets) by the
        m^3 Gauss-Legendre rule, one broadcast sum per Gauss point.  No Gauss node
        sits on a cell centre, so r > 0 at every node, the self cell's included."""
        x, wq = np.polynomial.legendre.leggauss(m)
        w3 = np.einsum("i,j,k->ijk", wq, wq, wq) * (0.5**3) * vol
        out = np.zeros([len(a) for a in axes])
        for g in np.ndindex(w3.shape):
            dx, dy, dz = (a + 0.5 * h * x[j] for a, h, j in zip(axes, spacing, g))
            r2 = (dx * dx)[:, None, None] + (dy * dy)[None, :, None] + (dz * dz)[None, None, :]
            out += w3[g] * (np.exp(-np.sqrt(r2)) / (4.0 * math.pi * r2))
        return out

    table = cell_integrals(offs, 2)
    near = np.flatnonzero(np.abs(k) <= near_range)
    table[np.ix_(near, near, near)] = cell_integrals([o[near] for o in offs], 4)
    r_eq = (3.0 * vol / (4.0 * math.pi)) ** (1.0 / 3.0)
    table[0, 0, 0] = 1.0 - math.exp(-r_eq)
    return table


def fftconvolve(x, table_hat, period) -> np.ndarray:
    """Centred ("same") block of the linear convolution of the lattice array
    x with the kernel table, from table_hat = rfftn(table) of the circular
    table of shape `period`.
    """
    return irfftn(rfftn(x, period) * table_hat, period)[tuple(map(slice, x.shape))]


def solve_w(
    domain: ConvexDomain,
    f,
    lattice: LatticeSpec = LatticeSpec(),
    sphere: SphereGrid = SphereGrid(),
    tol: float = 1e-10,
    max_iter: int = 500,
) -> VolumeField:
    """Picard solve of the nonlocal fixed-point equation for w = e^theta.

    w is represented on a structured lattice clipped to the domain (zero
    outside), the convolution is applied by FFT with per-cell kernel moments,
    and the forcing -div(R)/(4*pi) comes from the transport identity on the
    same sphere rule as the kernel mass, so a constant isotropic profile
    reproduces its constant solution to round-off.  `converged` records
    whether the update fell below tol before max_iter.  Raises NonPositiveW
    if the final iterate dips <= 0 while not identically zero (inadmissible
    profile f).
    """
    pts, inside, frac_grid, spacing = _build_lattice(domain, lattice)
    nodes, weights = sphere.nodes_weights()
    fvals = _profile_values(f, nodes)

    # one attenuation pass gives both the forcing -div(R)/(4*pi) (transport
    # identity at A2 = 1) and the kernel mass by the exact angular reduction
    # int_Omega k(|y-x|) dx = (1/4pi) int_{S^2} (1 - e^(-s(y,n))) dn
    flux, mass = _attenuation_pass(domain, pts, nodes, weights, fvals)
    g_grid = np.zeros(inside.shape)
    g_grid[inside] = flux / (4.0 * math.pi)
    kernel_mass = mass / (4.0 * math.pi)

    table = _kernel_table(lattice.n, spacing)
    period = table.shape
    table_hat = rfftn(table)

    # renormalize each discrete operator row to the exact local kernel mass;
    # this removes the O(h) boundary-cell volume error (constants in the
    # kernel's range become exact fixed points) and keeps row sums < 1
    disc_mass = fftconvolve(frac_grid, table_hat, period)[inside]
    scale_grid = np.zeros(inside.shape)
    scale_grid[inside] = kernel_mass / disc_mass

    def sweep(w_grid):
        conv = fftconvolve(w_grid * frac_grid, table_hat, period)
        return np.where(inside, scale_grid * conv + g_grid, 0.0)

    picard = fixed_point(sweep, np.zeros(inside.shape), tol, max_iter)
    w = picard.x[inside]
    if float(np.max(np.abs(w))) > 0 and float(np.min(w)) <= 0:
        at = int(np.argmin(w))
        raise NonPositiveW(f"w{tuple(pts[at])} = {w[at]:.3e} <= 0: inadmissible profile")

    return VolumeField(
        points=pts,
        values=w,
        kernel_mass=kernel_mass,
        picard_ratio=picard.ratio(float(np.max(kernel_mass))),
        iterations=picard.iterations,
        converged=picard.converged,
        picard_diffs=picard.diffs,
    )


def nonexistence_check(
    domain: ConvexDomain,
    f,
    A2: float,
    samples,
    tol: float,
    sphere: SphereGrid = SphereGrid(),
) -> dict:
    """Evaluate the stationarity obstruction div(R) at sample points.

    Verdict: EXISTS_POSSIBLE when max |div R| < tol, otherwise NONEXISTENT
    with the witnessing point.  div R comes from the transport identity, so
    it carries only the sphere-quadrature error and any strictly interior
    sample is accepted.
    """
    nodes, weights = sphere.nodes_weights()
    fvals = _profile_values(f, nodes)
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if not np.all(domain.contains(pts)):
        raise NotInterior("all sample points must be strictly interior")
    vals = _div_R_batch(domain, fvals, A2, pts, nodes, weights)
    rows = [
        {
            "point": tuple(float(c) for c in p),
            "div_R": float(v),
            "exceeds_tol": bool(abs(v) >= tol),
        }
        for p, v in zip(pts, vals)
    ]
    worst = int(np.argmax(np.abs(vals)))
    verdict = "NONEXISTENT" if abs(vals[worst]) >= tol else "EXISTS_POSSIBLE"
    return {
        "verdict": verdict,
        "tol": float(tol),
        "witness_point": rows[worst]["point"],
        "witness_div_R": rows[worst]["div_R"],
        "samples": rows,
    }
