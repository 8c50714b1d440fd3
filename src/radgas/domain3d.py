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
from scipy.signal import fftconvolve

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


def _vector_R_batch(domain, fvals, A2, points, nodes, weights) -> np.ndarray:
    s = domain.exit_distances(points, nodes)
    return (weights * fvals * np.exp(-A2 * s)) @ nodes


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
    return _vector_R_batch(domain, fvals, A2, y[None, :], nodes, weights)[0]


def _div_R_batch(domain, fvals, A2, points, nodes, weights) -> np.ndarray:
    """div R at a batch of interior points by the transport identity.

    On a convex domain s(y + t*n, n) = s(y, n) + t, so n . grad_y s = 1 and
    div R(y) = -A2 * int_{S^2} f(n) e^(-A2 s(y,n)) dn: the radiative transfer
    equation n . grad I = -A2 I integrated over angle.
    """
    s = domain.exit_distances(points, nodes)
    return -A2 * (np.exp(-A2 * s) @ (weights * fvals))


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
    the exit distance is constant and the value is exact.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nodes, weights = sphere.nodes_weights()
    s = domain.exit_distances(pts, nodes)
    return ((1.0 - np.exp(-s)) @ weights) / (4.0 * math.pi)


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
    fractions: np.ndarray  # (P,) interior volume fraction of each cell
    origin: np.ndarray
    spacing: np.ndarray  # (3,) cell size
    shape: tuple
    inside: np.ndarray  # boolean mask over the full lattice, shape `shape`
    kernel_mass: np.ndarray | None = None
    picard_ratio: float | None = None
    iterations: int | None = None
    converged: bool = False


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
    return centers, inside, frac_grid[inside], np.asarray(mins, dtype=float), spacing


def _kernel_table(shape, spacing, near_range: int = 6):
    """Per-cell integrals of e^(-r)/(4*pi*r^2) over lattice offset cells.

    Self cell: analytic over the equal-volume ball.  Cells within
    `near_range` of the origin: 4^3 Gauss-Legendre; beyond: 2^3.
    """
    n = shape[0]
    offs = [spacing[i] * np.arange(-(n - 1), n) for i in range(3)]
    OX, OY, OZ = np.meshgrid(*offs, indexing="ij")
    centers = np.stack([OX, OY, OZ], axis=-1).reshape(-1, 3)
    vol = float(np.prod(spacing))

    def kern(r2):
        r = np.sqrt(r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r > 0, np.exp(-r) / (4.0 * math.pi * r2), 0.0)

    def cell_integrals(cells, m):
        x, wq = np.polynomial.legendre.leggauss(m)
        pts1d = [0.5 * spacing[i] * x for i in range(3)]
        w3 = (
            np.einsum("i,j,k->ijk", wq, wq, wq).ravel()
            * (0.5**3)
            * vol
        )
        gx, gy, gz = np.meshgrid(*pts1d, indexing="ij")
        gpts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        out = np.zeros(len(cells))
        chunk = 200_000 // max(len(gpts), 1) + 1
        for lo in range(0, len(cells), chunk):
            sub = cells[lo : lo + chunk]
            d = sub[:, None, :] + gpts[None, :, :]
            out[lo : lo + chunk] = kern(np.sum(d * d, axis=-1)) @ w3
        return out

    dist_cells = np.max(np.abs(centers / spacing), axis=-1)
    table = np.zeros(len(centers))
    near = (dist_cells > 0.5) & (dist_cells <= near_range + 0.5)
    far = dist_cells > near_range + 0.5
    table[near] = cell_integrals(centers[near], 4)
    table[far] = cell_integrals(centers[far], 2)
    r_eq = (3.0 * vol / (4.0 * math.pi)) ** (1.0 / 3.0)
    table[np.all(np.abs(centers) < 1e-12 * np.max(spacing), axis=-1)] = 1.0 - math.exp(-r_eq)
    return table.reshape(2 * n - 1, 2 * n - 1, 2 * n - 1)


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
    centers, inside, frac, origin, spacing = _build_lattice(domain, lattice)
    pts = centers[inside]
    nodes, weights = sphere.nodes_weights()
    fvals = _profile_values(f, nodes)

    g = -_div_R_batch(domain, fvals, 1.0, pts, nodes, weights) / (4.0 * math.pi)

    table = _kernel_table(inside.shape, spacing)
    frac_grid = np.zeros(inside.shape)
    frac_grid[inside] = frac

    # kernel mass by the exact angular reduction of the volume integral:
    # int_Omega k(|y-x|) dx = (1/4pi) int_{S^2} (1 - e^(-s(y,n))) dn
    kernel_mass = kernel_mass_at(domain, pts, sphere)

    # renormalize each discrete operator row to the exact local kernel mass;
    # this removes the O(h) boundary-cell volume error (constants in the
    # kernel's range become exact fixed points) and keeps row sums < 1
    disc_mass = fftconvolve(frac_grid, table, mode="same")[inside]
    scale_grid = np.zeros(inside.shape)
    scale_grid[inside] = kernel_mass / disc_mass

    # the constant kernel table is transformed once; each sweep then repeats
    # the arithmetic of fftconvolve(x, table, mode="same"): real FFTs padded
    # to the full length n + (2n - 1) - 1, cropped to the centred n^3 block
    fshape = [next_fast_len(3 * m - 2, True) for m in inside.shape]
    table_hat = rfftn(table, fshape)
    same = tuple(slice(m - 1, 2 * m - 1) for m in inside.shape)
    g_grid = np.zeros(inside.shape)
    g_grid[inside] = g

    def sweep(w_grid):
        conv = irfftn(rfftn(w_grid * frac_grid, fshape) * table_hat, fshape)[same]
        return np.where(inside, scale_grid * conv + g_grid, 0.0)

    picard = fixed_point(sweep, np.zeros(inside.shape), tol, max_iter)
    w = picard.x[inside]
    if float(np.max(np.abs(w))) > 0 and float(np.min(w)) <= 0:
        at = int(np.argmin(w))
        raise NonPositiveW(f"w{tuple(pts[at])} = {w[at]:.3e} <= 0: inadmissible profile")

    return VolumeField(
        points=pts,
        values=w,
        fractions=frac,
        origin=origin,
        spacing=spacing,
        shape=inside.shape,
        inside=inside,
        kernel_mass=kernel_mass,
        picard_ratio=picard.ratio(float(np.max(kernel_mass))),
        iterations=picard.iterations,
        converged=picard.converged,
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
