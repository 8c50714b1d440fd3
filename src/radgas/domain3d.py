"""Convex-domain ray geometry, the divergence of the boundary-driven field R,
and the 3D contraction-mapping solver for the exponential-limit temperature variable.

The nonlocal fixed-point equation solved here is

    w(y) = int_Omega e^(-|y-eta|) / (4*pi*|y-eta|^2) w(eta) d(eta) - div(R)/(4*pi),

with R(y) = int_{S^2} n f(n) e^(-A2*s(y,n)) dn and s(y, n) the distance from y
back to the boundary against direction n.  The kernel mass over any bounded
domain is < 1, so Picard iteration contracts; the volume integral is a
translation-invariant convolution on the lattice and is applied by FFT with
per-cell kernel moments (the singular self-cell uses the analytic equal-volume
ball integral 1 - e^(-r_eq)).

The module runs on numpy alone: the FFTs are `numpy.fft`, the FFT period
comes from `_next_fast_len` and the clipped boundary cells find their nearest
interior cell by a lattice search (`_nearest_interior`).  The inverse FFT
runs only over the lines whose output is read, the ball and box geometry
works one coordinate column at a time, and the attenuation pass works in
place on two threads; none of this changes a bit of the result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import ifft, irfft, rfftn
from numpy.polynomial.legendre import leggauss

from .errors import NonPositiveW, NotInterior
from .picard import fixed_point
from .twothreads import on_two_threads

__all__ = [
    "ConvexDomain",
    "SphereGrid",
    "LatticeSpec",
    "VolumeField",
    "solve_w",
    "nonexistence_check",
    "kernel_mass_at",
]


class ConvexDomain:
    """Convex region answering interior and ray-exit queries.

    Kinds: ball(center, radius) and box(mins, maxs).
    """

    def __init__(self, kind, **geom):
        self.kind = kind
        self._geom = geom

    @classmethod
    def ball(cls, center, radius: float) -> "ConvexDomain":
        if not radius > 0:
            raise ValueError(f"radius must be > 0, got {radius}")
        if not math.isfinite(radius * radius):  # `contains` compares squared distances
            raise ValueError(f"radius must have a finite square, got {radius}")
        return cls("ball", center=np.asarray(center, dtype=float).reshape(3), radius=float(radius))

    @classmethod
    def box(cls, mins, maxs) -> "ConvexDomain":
        mins = np.asarray(mins, dtype=float).reshape(3)
        maxs = np.asarray(maxs, dtype=float).reshape(3)
        if not np.all(maxs > mins):
            raise ValueError("box must satisfy maxs > mins componentwise")
        return cls("box", mins=mins, maxs=maxs)

    @property
    def bounding_box(self):
        if self.kind == "ball":
            c, r = self._geom["center"], self._geom["radius"]
            return c - r, c + r
        return self._geom["mins"], self._geom["maxs"]

    def contains(self, points) -> np.ndarray:
        """Strict interior test; points is (..., 3).  Ball and box work one
        coordinate column at a time, with no inner loop over the last axis."""
        p = np.asarray(points, dtype=float)
        if self.kind == "ball":
            c, r = self._geom["center"], self._geom["radius"]
            return _squared_distance(p, c) < r**2
        mins, maxs = self._geom["mins"], self._geom["maxs"]
        inside = (p[..., 0] > mins[0]) & (p[..., 0] < maxs[0])
        for i in (1, 2):
            inside &= p[..., i] > mins[i]
            inside &= p[..., i] < maxs[i]
        return inside

    def exit_distances(self, points, dirs) -> np.ndarray:
        """s(y, n) for a batch: points (P, 3), dirs (S, 3) -> (P, S).

        y - s*n lies on the boundary: s is the ray parameter toward the
        boundary point the radiation traveling along +n entered through.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        n = np.atleast_2d(np.asarray(dirs, dtype=float))
        return self._exit_distances(p, n)

    def _exit_distances(self, p, n) -> np.ndarray:
        """exit_distances of (P, 3) points and (S, 3) dirs, both float arrays;
        the (P, S) result is a new array."""
        if self.kind == "ball":
            # nd + sqrt(max(nd^2 + r^2 - |d|^2, 0)), one (P, S) array in place
            c, r = self._geom["center"], self._geom["radius"]
            nd = (p - c) @ n.T
            s = nd * nd
            s += r**2
            s -= _squared_distance(p, c)[:, None]
            np.maximum(s, 0.0, out=s)
            np.sqrt(s, out=s)
            s += nd
            return s
        mins, maxs = self._geom["mins"], self._geom["maxs"]
        s = np.full((p.shape[0], n.shape[0]), np.inf)
        for i in range(3):
            # per axis, the ray entered through mins[i] when n_i > 0 and
            # maxs[i] when n_i < 0; with n_i = 0 it meets neither face
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (p[:, i, None] - np.where(n[:, i] > 0, mins[i], maxs[i])) / n[:, i]
            t[:, n[:, i] == 0] = np.inf
            np.minimum(s, t, out=s)
        return s


def _squared_distance(p, c) -> np.ndarray:
    """|p - c|^2 over the last axis of p (..., 3), one coordinate column at a
    time: ((dx^2 + dy^2) + dz^2), the order of np.sum((p - c)**2, axis=-1)."""
    d = np.subtract(p[..., 0], c[0], out=np.empty(p.shape[:-1]))
    out = d * d
    for i in (1, 2):
        np.subtract(p[..., i], c[i], out=d)
        d *= d
        out += d
    return out


@functools.lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n (read-only)."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
        """(nodes (n_theta * n_phi, 3), weights), built once per grid (read-only)."""
        return _sphere_rule(self.n_theta, self.n_phi)


@functools.lru_cache(maxsize=8)
def _sphere_rule(n_theta: int, n_phi: int):
    x, w = _leggauss(n_theta // 2)
    ct = np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)])
    wt = np.concatenate([0.5 * w, 0.5 * w])
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi
    st = np.sqrt(1.0 - ct**2)
    nodes = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(ct, np.ones_like(phi)).ravel(),
        ],
        axis=-1,
    )
    weights = np.outer(wt, np.full(n_phi, wphi)).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _profile_values(f, nodes) -> np.ndarray:
    vals = np.asarray(f(nodes) if callable(f) else f, dtype=float)
    if vals.shape != (nodes.shape[0],):
        raise ValueError(f"profile must give one value per sphere node, got {vals.shape}")
    if np.any(vals < 0):
        raise ValueError("boundary profile f must be >= 0")
    return vals


#: Rays (point, sphere node) per block of the attenuation pass: 128 points
#: at the default 512-node sphere.  Every (points, nodes) temporary of the
#: exit-distance geometry lives only inside its block, and at most two
#: blocks, one per thread, are alive at once.
_RAY_BLOCK = 1 << 16


def _attenuation_pass(domain, points, nodes, weights, fvals=None, A2: float = 1.0):
    """Angular moments of e = e^(-A2 s(y,n)) at each point, from one blocked
    pass over the (point, node) rays.

    Returns (e @ (weights * fvals), (1 - e) @ weights), the first None when
    fvals is None.  Points go through in blocks of _RAY_BLOCK rays, so memory
    stays bounded whatever the number of points; each block turns its exit
    distances into e and then 1 - e in place.  The blocks alternate between
    the calling thread and one worker (`twothreads.on_two_threads`; a single
    block starts none), and each writes only its own rows of the results;
    the worker's blocks go straight to `ConvexDomain._exit_distances`.
    Each row takes the same operations as in one (P, S) pass; only the BLAS
    row grouping of the matrix-vector products, which can move a row's last
    bit, follows the blocks, never the threads.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    step = max(1, _RAY_BLOCK // len(nodes))
    wf = None if fvals is None else weights * fvals
    flux = None if fvals is None else np.empty(len(pts))
    mass = np.empty(len(pts))

    def block(item):
        rows, exit_distances = item
        e = exit_distances(pts[rows], nodes)
        e *= -A2
        np.exp(e, out=e)
        if wf is not None:
            flux[rows] = e @ wf
        np.subtract(1.0, e, out=e)
        mass[rows] = e @ weights

    # the odd blocks, on the worker, call no public function: a tracer that
    # wraps the public ones with one span stack would see them interleave
    exits = (domain.exit_distances, domain._exit_distances)
    blocks = [(slice(lo, lo + step), exits[k % 2]) for k, lo in enumerate(range(0, len(pts), step))]
    on_two_threads(block, blocks)
    return flux, mass


def _div_R_batch(domain, fvals, A2, points, nodes, weights) -> np.ndarray:
    """div R at a batch of interior points by the transport identity.

    On a convex domain s(y + t*n, n) = s(y, n) + t, so n . grad_y s = 1 and
    div R(y) = -A2 * int_{S^2} f(n) e^(-A2 s(y,n)) dn: the radiative transfer
    equation n . grad I = -A2 I integrated over angle.
    """
    flux, _ = _attenuation_pass(domain, points, nodes, weights, fvals, A2)
    return -A2 * flux


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
    picard_ratio: float | None = None  # max-norm contraction bound: max(kernel_mass)
    converged: bool = False
    picard_diffs: list | None = None  # max-norm residual at the zero start and after each product


def _build_lattice(domain: ConvexDomain, spec: LatticeSpec):
    mins, maxs = domain.bounding_box
    n = spec.n
    spacing = (maxs - mins) / n
    axes = [mins[i] + spacing[i] * (np.arange(n) + 0.5) for i in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([X, Y, Z], axis=-1)
    inside = domain.contains(centers)

    # 8-point subsampling for the interior volume fraction of every cell;
    # each shifted copy of the centres is written one coordinate column at a time
    offsets = np.array(
        [[sx, sy, sz] for sx in (-0.25, 0.25) for sy in (-0.25, 0.25) for sz in (-0.25, 0.25)]
    )
    flat = centers.reshape(-1, 3)
    shifted = np.empty_like(flat)
    acc = np.zeros(len(flat))
    for off in offsets:
        for i in range(3):
            np.add(flat[:, i], off[i] * spacing[i], out=shifted[:, i])
        acc += domain.contains(shifted)
    frac_all = (acc / len(offsets)).reshape(centers.shape[:3])

    # clipped cells whose center fell outside still carry interior volume;
    # lump it onto the nearest interior lattice neighbor so the discrete
    # operator keeps the boundary-skin mass (mass-conserving, FFT-compatible)
    frac_grid = np.where(inside, frac_all, 0.0)
    orphans = (~inside) & (frac_all > 0)
    if np.any(orphans) and np.any(inside):
        ti = _nearest_interior(inside, np.argwhere(orphans))
        np.add.at(frac_grid, (ti[0], ti[1], ti[2]), frac_all[orphans])
    return centers[inside], inside, frac_grid, spacing


def _nearest_interior(inside: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Index arrays (3, m) of the interior lattice cell nearest to each of the (m, 3) `cells`.

    Searches the cube of lattice offsets of half-width r = 1, 2, ... around
    each cell and accepts the nearest interior cell found once its distance
    is at most r, since every cell outside the cube lies farther than r.
    Distance ties go to the smallest (k, j, i), last axis first, as in
    scipy.ndimage.distance_transform_edt: the offsets are ordered that way
    and argmin keeps the first minimum.  `inside` must hold an interior cell.
    The candidates are held one coordinate at a time, as (cells, offsets)
    arrays, and looked up by their flat index.
    """
    out = np.empty((3, len(cells)), dtype=np.intp)
    todo = np.arange(len(cells))
    flat_inside = inside.ravel()
    r = 1
    while len(todo):
        span = np.arange(-r, r + 1)
        dk, dj, di = (d.ravel() for d in np.meshgrid(span, span, span, indexing="ij"))
        # one (m, offsets) array per coordinate, and the flat index of each candidate
        cand = [cells[todo, axis, None] + d for axis, d in enumerate((di, dj, dk))]
        ok = np.ones(cand[0].shape, dtype=bool)
        flat = np.zeros(cand[0].shape, dtype=np.intp)
        for c, n in zip(cand, inside.shape):
            ok &= c >= 0
            ok &= c < n
            flat *= n
            flat += c
        np.copyto(flat, 0, where=~ok)
        ok &= flat_inside[flat]
        dist = np.where(ok, di * di + dj * dj + dk * dk, np.iinfo(np.intp).max)
        best = np.argmin(dist, axis=1)
        rows = np.arange(len(todo))
        done = dist[rows, best] <= r * r
        for axis, c in enumerate(cand):
            out[axis, todo[done]] = c[rows[done], best[done]]
        todo = todo[~done]
        r += 1
    return out


def _next_fast_len(m: int) -> int:
    """The smallest 5-smooth integer 2^a 3^b 5^c >= m (scipy.fft.next_fast_len(m, real=True))."""
    best = 1 << (m - 1).bit_length()  # a power of two >= m
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _kernel_table(n: int, spacing):
    """Per-cell integrals of e^(-r)/(4*pi*r^2) over lattice offset cells, on a
    circular table of period L = _next_fast_len(2n - 1) per axis: offset k sits
    at index k mod L, so the first n^3 block of a circular product with a
    zero-padded n^3 input is the linear convolution (Hockney and Eastwood
    1988).  Offsets |k| >= n fill the wrap gap and are never read.  Self cell:
    analytic over the equal-volume ball; cells within 6 offsets of the origin
    in every axis: 4^3 Gauss-Legendre; beyond: 2^3.  The table is even in
    every axis, so the integrals are taken on the distinct |k| and gathered.
    """
    L = _next_fast_len(2 * n - 1)
    k = np.arange(L)
    a = np.minimum(k, L - k)  # |offset| at each index: k below n, L - k for the offset k - L
    offs = [spacing[i] * np.arange(a.max() + 1) for i in range(3)]
    vol = float(np.prod(spacing))

    def cell_integrals(axes, m):
        """Integrals over the cells axes[0] x axes[1] x axes[2] (per-axis offsets) by the
        m^3 Gauss-Legendre rule, one broadcast sum per Gauss point.  No Gauss node
        sits on a cell centre, so r > 0 at every node, the self cell's included."""
        x, wq = _leggauss(m)
        w3 = np.einsum("i,j,k->ijk", wq, wq, wq) * (0.5**3) * vol
        out = np.zeros([len(a) for a in axes])
        for g in np.ndindex(w3.shape):
            dx, dy, dz = (a + 0.5 * h * x[j] for a, h, j in zip(axes, spacing, g))
            r2 = (dx * dx)[:, None, None] + (dy * dy)[None, :, None] + (dz * dz)[None, None, :]
            out += w3[g] * (np.exp(-np.sqrt(r2)) / (4.0 * math.pi * r2))
        return out

    half = cell_integrals(offs, 2)
    near = slice(7)
    half[near, near, near] = cell_integrals([o[near] for o in offs], 4)
    r_eq = (3.0 * vol / (4.0 * math.pi)) ** (1.0 / 3.0)
    half[0, 0, 0] = 1.0 - math.exp(-r_eq)
    return half[np.ix_(a, a, a)]


def fftconvolve(x, table_hat, period) -> np.ndarray:
    """Centred ("same") block of the linear convolution of the lattice array
    x with the kernel table, from table_hat = rfftn(table) of the circular
    table of shape `period`.

    The forward rfftn pads one axis at a time.  The inverse is irfftn's
    per-axis transforms in irfftn's order, each over only the lines whose
    output is read: ifft along axis 0, keep the first n0 rows; ifft along
    axis 1 over those rows, keep n1; irfft along axis 2 over the n0 * n1
    kept lines.  Every kept line is computed as irfftn computes it, so the
    result equals irfftn(...)[:n0, :n1, :n2] bit for bit.
    """
    n0, n1, n2 = x.shape
    spec = rfftn(x, period, (0, 1, 2))
    spec *= table_hat
    spec = ifft(spec, axis=0)[:n0]
    spec = ifft(spec, axis=1)[:, :n1]
    return irfft(spec, period[2], axis=2)[:, :, :n2]


def solve_w(
    domain: ConvexDomain,
    f,
    lattice: LatticeSpec = LatticeSpec(),
    sphere: SphereGrid = SphereGrid(),
) -> VolumeField:
    """Solve the nonlocal fixed-point equation for w = e^theta.

    w is represented on a structured lattice clipped to the domain (zero
    outside), the convolution is applied by FFT with per-cell kernel moments,
    and the forcing -div(R)/(4*pi) comes from the transport identity on the
    same sphere rule as the kernel mass, so a constant isotropic profile
    reproduces its constant solution to round-off.  That attenuation pass
    runs on two threads and every convolution inverts only the kept lines;
    neither changes a bit of w (see `_attenuation_pass`, `fftconvolve`).
    The fixed point is solved by GMRES, so its diffs do not measure the
    operator; `picard_ratio` is the max-norm bound max(kernel_mass), which
    holds because each row is renormalised to its local kernel mass and the
    weights are non-negative.
    `converged` records whether the residual fell below 1e-10 (relative to
    max(1, max|w|)) within 500 recorded residuals.
    Raises NotInterior if no lattice cell centre lies inside the domain, and
    NonPositiveW if the final iterate dips <= 0 while not identically zero
    (inadmissible profile f).
    """
    pts, inside, frac_grid, spacing = _build_lattice(domain, lattice)
    if not len(pts):
        raise NotInterior(f"no cell centre of the {lattice.n}^3 lattice lies inside the domain")
    nodes, weights = sphere.nodes_weights()
    fvals = _profile_values(f, nodes)

    # one attenuation pass gives both the forcing -div(R)/(4*pi) (transport
    # identity at A2 = 1) and the kernel mass by the exact angular reduction
    # int_Omega k(|y-x|) dx = (1/4pi) int_{S^2} (1 - e^(-s(y,n))) dn
    flux, mass = _attenuation_pass(domain, pts, nodes, weights, fvals)
    forcing = flux / (4.0 * math.pi)
    kernel_mass = mass / (4.0 * math.pi)

    table = _kernel_table(lattice.n, spacing)
    period = table.shape
    table_hat = rfftn(table)

    # renormalize each discrete operator row to the exact local kernel mass;
    # this removes the O(h) boundary-cell volume error (constants in the
    # kernel's range become exact fixed points) and keeps row sums < 1
    scale = kernel_mass / fftconvolve(frac_grid, table_hat, period)[inside]

    # the iterate is w at the interior cells; frac_grid is zero outside them
    frac = frac_grid[inside]
    w_grid = np.zeros(inside.shape)

    def convolve(w):
        w_grid[inside] = w * frac
        return scale * fftconvolve(w_grid, table_hat, period)[inside]

    picard = fixed_point(convolve, forcing, tol=1e-10, max_iter=500)
    w = picard.x
    if float(np.max(np.abs(w))) > 0 and float(np.min(w)) <= 0:
        at = int(np.argmin(w))
        raise NonPositiveW(f"w{tuple(pts[at])} = {w[at]:.3e} <= 0: inadmissible profile")

    return VolumeField(
        points=pts,
        values=w,
        kernel_mass=kernel_mass,
        picard_ratio=float(np.max(kernel_mass)),
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
