"""Batch command-line driver: flat key = value configs, per-subcommand numeric
overrides, CSV/JSON artifacts with a manifest.

Exit codes: 0 success; 1 solver-reported nonconvergence or a NONEXISTENT
verdict (the report is still written); 2 configuration error.  Artifacts are
bit-identical for identical (config, seed): every float is serialized with 17
significant digits and all randomness is seeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .constants import C0_MAXWELLIAN
from .errors import ConfigError, RadgasError

_COMMON_SCHEMA = {
    "epsilon0": (float, 1.0, "energy quantum"),
    "sigma": (float, 1.0, "nonelastic/radiative scale ratio"),
    "c0": (float, C0_MAXWELLIAN, "Maxwellian normalization"),
    "c0_kernel": (float, 2.0, "hard-sphere cross-section constant"),
}

_SCHEMAS = {
    "levelscan": {
        **_COMMON_SCHEMA,
        "t1_min": (float, 10.0, "window lower T1"),
        "t1_max": (float, 12.0, "window upper T1"),
        "t2_min": (float, 10.0, "window lower T2"),
        "t2_max": (float, 12.0, "window upper T2"),
        "step": (float, 0.1, "grid step on both axes"),
        "n_levels": (int, 8, "number of evenly spaced contour levels"),
        "r_max": (float, 12.0, "radial truncation of the triple quadrature"),
        "n_r": (int, 96, "radial nodes (r)"),
        "n_rho": (int, 96, "radial nodes (rho)"),
    },
    "slab-lte": {
        "epsilon0": _COMMON_SCHEMA["epsilon0"],
        "slab_l": (float, 1.0, "slab width (rescaled units)"),
        "n_y": (int, 257, "spatial nodes"),
        "n_mu": (int, 48, "angular nodes"),
        "t0": (float, 1.0, "background temperature (sets the coupling)"),
        "j0_profile": (str, "cos", "incoming perturbation: cos|uniform|zero|<number>"),
        "zeta_mass": (str, "none", "prescribed integral of zeta, or none"),
    },
    "slab-exp": {
        "slab_l": (float, 1.0, "slab width (rescaled units)"),
        "n_y": (int, 257, "spatial nodes"),
        "n_mu": (int, 48, "angular nodes"),
        "a_plus_profile": (str, "uniform", "incoming profile: cos|uniform|zero|<number>"),
        "normalize": (str, "true", "rescale the profile to unit incoming flux: true|false"),
    },
    "domain3d": {
        "domain": (str, "ball", "ball|box"),
        "radius": (float, 1.0, "ball radius"),
        "box": (str, "-1,-1,-1,1,1,1", "box bounds: x0,y0,z0,x1,y1,z1"),
        "lattice_n": (int, 32, "lattice cells per axis"),
        "sphere_n_theta": (int, 16, "sphere polar nodes"),
        "sphere_n_phi": (int, 32, "sphere azimuthal nodes"),
        "f_profile": (str, "isotropic", "boundary profile: isotropic|up|zero"),
        "f_scale": (float, 1.0, "profile amplitude"),
    },
    "nonexist": {
        **_COMMON_SCHEMA,
        "domain": (str, "slab-box", "ball|box|slab-box"),
        "radius": (float, 1.0, "ball radius"),
        "box": (str, "-10,-10,0,10,10,1", "box bounds: x0,y0,z0,x1,y1,z1"),
        "a2": (float, 2.0, "absorption constant A2"),
        "tol": (float, 1e-3, "balance tolerance for the verdict"),
        "f_profile": (str, "up", "boundary profile: isotropic|up|zero"),
        "samples": (str, "0,0,0.3;0,0,0.5;1,-2,0.7", "semicolon-separated x,y,z"),
        "sphere_n_theta": (int, 16, "sphere polar nodes"),
        "sphere_n_phi": (int, 32, "sphere azimuthal nodes"),
    },
    "three-level": {
        "gamma1": (float, 0.7, "first line weight (gamma2 = 1 - gamma1)"),
        "eps": (float, 1.0, "level spacing"),
        "t0": (float, 2.0, "background temperature"),
        "rho0": (float, 1.0, "background ground density"),
        "p12": (float, 1.0, "exchange rate of the 1-2 channel"),
        "p23": (float, 1.0, "exchange rate of the 2-3 channel"),
        "slab_l": (float, 1.0, "slab width"),
        "n_y": (int, 65, "spatial nodes"),
        "n_mu": (int, 32, "angular nodes"),
        "j0": (float, 0.1, "one-sided incoming radiation perturbation"),
        "xi_const": (float, 0.0, "constant temperature-perturbation field"),
        "mass_c0": (str, "0.0", "pressure constant C0, or from-mass"),
        "m0": (str, "none", "total gas mass when mass_c0 = from-mass"),
    },
    "verify": {
        **_COMMON_SCHEMA,
        "n_samples": (int, 10**6, "Monte Carlo samples per estimator"),
        "n_tuples": (int, 10**5, "tuples for the detailed-balance sweep"),
        "t_lte": (float, 5.0, "temperature of the LTE annihilation check"),
        "t1": (float, 4.0, "ground temperature of the generic pair"),
        "t2": (float, 7.0, "excited temperature of the generic pair"),
        "rho1": (float, 1.3, "ground density of the generic pair"),
        "rho2": (float, 0.4, "excited density of the generic pair"),
        "t_entropy": (str, "0.5,2,10,50", "temperatures for the entropy identity"),
    },
}

SUBCOMMANDS = tuple(_SCHEMAS)


@dataclass
class RunConfig:
    """Fully resolved run: subcommand, validated values, output directory, seed."""

    subcommand: str
    values: dict
    out: str
    seed: int

    def lines(self):
        rows = [f"subcommand = {self.subcommand}", f"out = {self.out}", f"seed = {self.seed}"]
        for key in sorted(self.values):
            rows.append(f"{key} = {_fmt(self.values[key])}")
        return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _convert(key, raw, typ):
    try:
        if typ is float:
            return float(raw)
        if typ is int:
            return int(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {typ.__name__}") from exc


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, value = (part.strip() for part in body.split("=", 1))
            entries[key] = (value, lineno)
    return entries


def parse_config(subcommand: str, path: str | None, overrides: dict) -> RunConfig:
    """Resolve subcommand defaults, config-file entries, and flag overrides.

    Unknown keys are rejected with the offending line; flags win over the
    file; defaults fill the rest.
    """
    if subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    schema = _SCHEMAS[subcommand]
    values = {key: default for key, (_, default, _) in schema.items()}
    meta = {"out": None, "seed": 0}

    if path is not None:
        for key, (raw, lineno) in _read_config_file(path).items():
            if key in ("out",):
                meta["out"] = raw
            elif key == "seed":
                meta[key] = _convert(key, raw, int)
            elif key == "subcommand":
                if raw != subcommand:
                    raise ConfigError(
                        f"{path}:{lineno}: config is for subcommand {raw!r}, not {subcommand!r}"
                    )
            elif key in schema:
                values[key] = _convert(key, raw, schema[key][0])
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {subcommand}")

    for key, raw in overrides.items():
        if raw is None:
            continue
        if key in ("out", "seed"):
            meta[key] = raw
        elif key in schema:
            values[key] = _convert(key, raw, schema[key][0])
        else:
            raise ConfigError(f"unknown override {key!r} for {subcommand}")

    out = meta["out"] or os.environ.get("RADGAS_OUT") or "radgas_out"
    config = RunConfig(
        subcommand=subcommand,
        values=values,
        out=str(out),
        seed=int(meta["seed"]),
    )
    _validate(config)
    return config


_DOMAIN_KINDS = {"domain3d": ("ball", "box"), "nonexist": ("ball", "box", "slab-box")}
_SPHERE_PROFILES = ("isotropic", "up", "zero")


def _validate(config: RunConfig):
    v = config.values
    positive = [k for k in ("epsilon0", "sigma", "c0", "c0_kernel") if k in v]
    positive += [
        k
        for k in ("step", "slab_l", "t0", "radius", "a2", "tol", "eps", "rho0", "p12", "p23", "r_max")
        if k in v
    ]
    for key in positive:
        if not v[key] > 0:
            raise ConfigError(f"key {key!r} must be > 0, got {v[key]}")
    for key in ("n_r", "n_rho", "lattice_n", "n_levels", "n_samples"):
        if key in v and v[key] <= 0:
            raise ConfigError(f"key {key!r} must be positive, got {v[key]}")
    for key in ("n_y", "n_mu"):  # the SlabGrid and AngleGrid minimums
        if key in v and v[key] < 16:
            raise ConfigError(f"key {key!r} must be >= 16, got {v[key]}")
    if "gamma1" in v and not 0.0 <= v["gamma1"] <= 1.0:
        raise ConfigError(f"key 'gamma1' must lie in [0, 1], got {v['gamma1']}")
    if "j0" in v and not v["j0"] >= 0:
        raise ConfigError(f"key 'j0' must be >= 0, got {v['j0']}")
    for key in ("j0_profile", "a_plus_profile"):
        if key in v:
            _slab_profile(key, v[key])
    if "normalize" in v and v["normalize"] not in ("true", "false"):
        raise ConfigError(f"key 'normalize' must be true or false, got {v['normalize']!r}")
    for key, word in (("zeta_mass", "none"), ("mass_c0", "from-mass"), ("m0", "none")):
        if key in v:
            _number_or(key, v[key], word)
    if "domain" in v:
        kinds = _DOMAIN_KINDS[config.subcommand]
        if v["domain"] not in kinds:
            raise ConfigError(f"key 'domain' must be one of {'|'.join(kinds)}, got {v['domain']!r}")
    if "box" in v:
        _box_bounds(v["box"])
    if "f_profile" in v and v["f_profile"] not in _SPHERE_PROFILES:
        raise ConfigError(
            f"key 'f_profile' must be one of {'|'.join(_SPHERE_PROFILES)}, got {v['f_profile']!r}"
        )
    if config.subcommand == "levelscan":
        _scan_setup(v)
    if "samples" in v:
        domain = _domain_from_config(v)
        for point in _sample_points(v["samples"]):
            if not domain.contains(point):
                raise ConfigError(
                    f"key 'samples': point {','.join(map(repr, point))} is not strictly "
                    f"inside the {v['domain']} domain"
                )


def _scan_setup(v):
    """(ScanWindow, TripleQuadSpec) of a levelscan config; their checks become config errors."""
    from .collision_reduction import TripleQuadSpec
    from .levelscan import ScanWindow

    try:
        window = ScanWindow(v["t1_min"], v["t1_max"], v["t2_min"], v["t2_max"], v["step"])
        spec = TripleQuadSpec(r_max=v["r_max"], n_r=v["n_r"], n_rho=v["n_rho"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return window, spec


def _number_or(key: str, raw: str, word: str):
    """None when `raw` is the keyword `word`, else the finite number `raw` spells."""
    if raw == word:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} must be a number or {word!r}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
    return value


def _finite_floats(key: str, raw: str) -> list:
    try:
        nums = [float(x) for x in raw.split(",")]
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as comma-separated numbers") from None
    if not all(math.isfinite(x) for x in nums):
        raise ConfigError(f"key {key!r}: {raw!r} has a non-finite number")
    return nums


def _box_bounds(raw: str):
    """(mins, maxs) from 'x0,y0,z0,x1,y1,z1'."""
    bounds = _finite_floats("box", raw)
    if len(bounds) != 6:
        raise ConfigError(f"key 'box' needs 6 numbers x0,y0,z0,x1,y1,z1, got {raw!r}")
    if not all(hi > lo for lo, hi in zip(bounds[:3], bounds[3:])):
        raise ConfigError(f"key 'box' needs x1 > x0, y1 > y0 and z1 > z0, got {raw!r}")
    return bounds[:3], bounds[3:]


def _sample_points(raw: str) -> list:
    """[[x, y, z], ...] from 'x,y,z;x,y,z;...'; at least one point."""
    points = [_finite_floats("samples", triple) for triple in raw.split(";") if triple]
    if not points or any(len(p) != 3 for p in points):
        raise ConfigError(f"key 'samples' needs semicolon-separated x,y,z triples, got {raw!r}")
    return points


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------


class _Artifacts:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.records = []
        os.makedirs(out_dir, exist_ok=True)

    def csv(self, name: str, header: list, rows) -> None:
        path = os.path.join(self.out_dir, name)
        count = 0
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
                count += 1
        self.records.append({"name": name, "rows": count, "header": header})

    def json(self, name: str, payload: dict) -> None:
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        self.records.append({"name": name, "rows": None, "header": None})

    def manifest(self, config: RunConfig) -> None:
        import scipy

        from . import __version__

        resolved = "\n".join(config.lines())
        payload = {
            "subcommand": config.subcommand,
            "config_sha256": hashlib.sha256(resolved.encode()).hexdigest(),
            "resolved_config": config.lines(),
            "seed": config.seed,
            "versions": {
                "radgas": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            "artifacts": self.records,
        }
        with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _consts(values):
    from .constants import PhysConsts

    return PhysConsts(
        epsilon0=values["epsilon0"],
        sigma=values["sigma"],
        c0=values["c0"],
        C0_kernel=values["c0_kernel"],
    )


def _radiation_rows(field):
    y = field.grid.y
    mu = field.angles.mu
    for i, yi in enumerate(y):
        for j, mj in enumerate(mu):
            yield (yi, mj, 1, field.g_plus[i, j])
        for j, mj in enumerate(mu):
            yield (yi, mj, -1, field.g_minus[i, j])


# ---------------------------------------------------------------------------
# subcommand runners (return exit code)
# ---------------------------------------------------------------------------


def _run_levelscan(config: RunConfig, art: _Artifacts) -> int:
    from .levelscan import extract_contours, scan, smoothness_report

    v = config.values
    window, spec = _scan_setup(v)
    result = scan(window, _consts(v), spec)

    t1s, t2s = window.t1_values(), window.t2_values()
    art.csv(
        "grid.csv",
        ["T1", "T2", "L"],
        ((t1, t2, result.grid[i, j]) for i, t1 in enumerate(t1s) for j, t2 in enumerate(t2s)),
    )
    finite = result.grid[np.isfinite(result.grid)]
    levels = np.linspace(finite.min(), finite.max(), v["n_levels"] + 2)[1:-1]
    contours = extract_contours(result, levels)
    art.csv(
        "contours.csv",
        ["level", "chain", "T1", "T2"],
        (
            (level, ci, p[0], p[1])
            for level, chains in zip(contours.levels, contours.polylines)
            for ci, chain in enumerate(chains)
            for p in chain
        ),
    )
    report = smoothness_report(result, contours)
    art.json("report.json", report)
    return 1 if (result.failures or report["any_flagged"]) else 0


def _run_slab(config: RunConfig, art: _Artifacts) -> int:
    from .constants import PhysConsts
    from .slab import AngleGrid, SlabGrid, solve_exp_limit, solve_lte_fredholm

    v = config.values
    grid = SlabGrid(L=v["slab_l"], n_y=v["n_y"])
    angles = AngleGrid(n_mu=v["n_mu"])
    if config.subcommand == "slab-lte":
        profile = _slab_profile("j0_profile", v["j0_profile"])
        zeta_mass = _number_or("zeta_mass", v["zeta_mass"], "none")
        consts = PhysConsts(epsilon0=v["epsilon0"])
        res = solve_lte_fredholm(profile, grid, angles, consts, T0=v["t0"], zeta_mass=zeta_mass)
        art.csv("theta.csv", ["y", "value"], zip(grid.y, res.theta))
        art.csv("zeta.csv", ["y", "value"], zip(grid.y, res.zeta))
        field, report = res.h_field, {"i0": res.i0, "C0": res.C0, "alpha0": res.alpha0}
    else:
        profile = _slab_profile("a_plus_profile", v["a_plus_profile"])
        res = solve_exp_limit(profile, grid, angles, normalize=v["normalize"] == "true")
        art.csv("w.csv", ["y", "value"], zip(grid.y, res.w))
        field = res.H
        report = {
            "j0": res.j0,
            "energy_residual_max": float(np.max(np.abs(res.energy_residual[1:-1]))),
        }
    art.csv("radiation.csv", ["y", "mu", "sign", "G"], _radiation_rows(field))
    art.json(
        "report.json",
        {
            **report,
            "kernel_sup": res.kernel_sup,
            "picard_ratio": res.picard_ratio,
            "picard_gap": res.picard_gap,
            "residual_max": res.residual_max,
            "flux_ptp": float(np.ptp(res.flux_j)),
            "converged": res.converged,
        },
    )
    return 0 if (res.converged and res.picard_ratio < 1.0 and res.picard_gap < 1e-8) else 1


def _slab_profile(key: str, spec: str):
    """Incoming slab profile: cos, uniform, zero or a constant intensity >= 0."""
    from .slab import BoundaryProfile

    if spec == "zero":
        return BoundaryProfile.zero()
    if spec == "cos":
        return BoundaryProfile.from_function(lambda mu: mu, "cos")
    if spec == "uniform":
        return BoundaryProfile.constant(1.0 / (2.0 * math.pi))
    try:
        value = float(spec)
    except ValueError:
        raise ConfigError(f"key {key!r} must be cos|uniform|zero or a number, got {spec!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: constant intensity {spec!r} is not finite")
    if value < 0:
        raise ConfigError(f"key {key!r}: constant intensity {spec!r} is negative")
    return BoundaryProfile.constant(value)


def _domain_from_config(v):
    from .domain3d import ConvexDomain

    if v["domain"] == "ball":
        return ConvexDomain.ball((0.0, 0.0, 0.0), v["radius"])
    return ConvexDomain.box(*_box_bounds(v["box"]))


def _sphere_profile(spec: str, scale: float):
    if spec == "isotropic":
        return lambda n: scale * np.ones(len(n))
    if spec == "up":
        return lambda n: scale * (n[:, 2] > 0).astype(float)
    return lambda n: np.zeros(len(n))  # "zero": _validate admits only _SPHERE_PROFILES


def _run_domain3d(config: RunConfig, art: _Artifacts) -> int:
    from .domain3d import LatticeSpec, SphereGrid, solve_w

    v = config.values
    domain = _domain_from_config(v)
    sphere = SphereGrid(v["sphere_n_theta"], v["sphere_n_phi"])
    f = _sphere_profile(v["f_profile"], v["f_scale"])
    field = solve_w(domain, f, LatticeSpec(v["lattice_n"]), sphere)
    art.csv(
        "w.csv",
        ["x", "y", "z", "w"],
        ((p[0], p[1], p[2], val) for p, val in zip(field.points, field.values)),
    )
    art.json(
        "report.json",
        {
            "lattice_points": int(len(field.points)),
            "max_kernel_mass": float(field.kernel_mass.max()),
            "picard_ratio": field.picard_ratio,
            "iterations": field.iterations,
            "w_min": float(field.values.min()),
            "w_max": float(field.values.max()),
            "converged": field.converged,
        },
    )
    return 0 if (field.converged and field.picard_ratio < 1.0) else 1


def _run_nonexist(config: RunConfig, art: _Artifacts) -> int:
    from .domain3d import SphereGrid, nonexistence_check

    v = config.values
    domain = _domain_from_config(v)  # slab-box is a box with a slab-shaped default
    sphere = SphereGrid(v["sphere_n_theta"], v["sphere_n_phi"])
    f = _sphere_profile(v["f_profile"], 1.0)
    samples = _sample_points(v["samples"])
    report = nonexistence_check(domain, f, v["a2"], samples, tol=v["tol"], sphere=sphere)
    art.json("report.json", report)
    return 1 if report["verdict"] == "NONEXISTENT" else 0


def _run_three_level(config: RunConfig, art: _Artifacts) -> int:
    from .slab import AngleGrid, BoundaryProfile, SlabGrid
    from .three_level import ThreeLevelParams, lte_deviation, solve_three_level

    v = config.values
    params = ThreeLevelParams(
        gamma1=v["gamma1"],
        gamma2=1.0 - v["gamma1"],
        eps=v["eps"],
        T0=v["t0"],
        rho0=v["rho0"],
        P12=v["p12"],
        P23=v["p23"],
    )
    grid = SlabGrid(L=v["slab_l"], n_y=v["n_y"])
    angles = AngleGrid(n_mu=v["n_mu"])
    boundary = (BoundaryProfile.constant(v["j0"]), BoundaryProfile.zero())
    mass_c0 = _number_or("mass_c0", v["mass_c0"], "from-mass")
    m0 = _number_or("m0", v["m0"], "none")
    xi = np.full(grid.n_y, v["xi_const"])
    mass_c0 = "from-mass" if mass_c0 is None else mass_c0
    sol = solve_three_level(xi, boundary, params, grid, angles, mass_C0=mass_c0, m0=m0)
    art.csv(
        "solution.csv",
        ["y", "sigma1", "sigma2", "sigma3", "xi"],
        zip(grid.y, sol.sigma1, sol.sigma2, sol.sigma3, sol.xi),
    )
    art.csv("radiation.csv", ["y", "mu", "sign", "G"], _radiation_rows(sol.h))
    dev, where = lte_deviation(sol)
    art.json(
        "report.json",
        {
            "C0": sol.C0,
            "path_gap": sol.path_gap,
            "eq1_residual": sol.eq1_residual,
            "eq2_residual": sol.eq2_residual,
            "eq3_residual": sol.eq3_residual,
            "lte_deviation": dev,
            "lte_deviation_at": where,
            "picard_iterations": sol.picard_iterations,
            "converged": sol.converged,
        },
    )
    return 0 if (sol.converged and sol.path_gap < 1e-8) else 1


def _run_verify(config: RunConfig, art: _Artifacts) -> int:
    from .kinetic import (
        McPlan,
        detailed_balance_residual,
        entropy_identity_check,
        kernel_of_L_check,
        mass_exchange_estimate,
        mass_exchange_reduced,
        mc_conservation,
    )
    from .physics import CollisionTuple, MaxwellianState

    v = config.values
    consts = _consts(v)
    plan = McPlan(n_samples=v["n_samples"], seed=config.seed)
    checks = []

    # detailed balance on a Boltzmann-ratio pair
    rng = np.random.default_rng([config.seed, 1])
    T = v["t_lte"]
    u = np.array([0.3, 0.0, 0.0])
    v1 = u + rng.normal(size=(v["n_tuples"], 3)) * math.sqrt(T / 2)
    v2 = u + rng.normal(size=(v["n_tuples"], 3)) * math.sqrt(T / 2)
    keep = np.sum((v1 - v2) ** 2, axis=1) > 4 * consts.epsilon0 + 1e-9
    om = rng.normal(size=(int(keep.sum()), 3))
    om /= np.linalg.norm(om, axis=1, keepdims=True)
    tup = CollisionTuple.nonelastic(v1[keep], v2[keep], om, consts)
    s1 = MaxwellianState(1.0, u, T)
    s2 = MaxwellianState(math.exp(-2 * consts.epsilon0 / T), u, T)
    res = np.max(np.abs(detailed_balance_residual(s1, s2, tup, consts)))
    checks.append({"name": "detailed_balance", "value": float(res), "pass": bool(res < 1e-12)})

    # weak-form conservation on the generic pair
    g1 = MaxwellianState(v["rho1"], np.zeros(3), v["t1"])
    g2 = MaxwellianState(v["rho2"], np.zeros(3), v["t2"])
    rep = mc_conservation(g1, g2, plan, consts)
    checks.append(
        {
            "name": "weak_form_conservation",
            "rows": {name: {"value": e.value, "std_error": e.std_error} for name, e in rep.rows()},
            "pass": bool(rep.all_pass()),
        }
    )

    # mass exchange vs the calibrated reduced formula
    est = mass_exchange_estimate(g1, g2, plan, consts)
    red = mass_exchange_reduced(g1, g2, consts)
    ok = abs(est.value - red) <= 3.0 * est.std_error
    checks.append(
        {
            "name": "mass_exchange_vs_reduced",
            "mc": est.value,
            "std_error": est.std_error,
            "reduced": red,
            "pass": bool(ok),
        }
    )

    # kernel of the linearized operator at LTE
    chk = kernel_of_L_check(MaxwellianState(1.0, np.zeros(3), v["t_lte"]), consts, plan)
    checks.append(
        {
            "name": "kernel_of_L",
            "rows": {
                k: {"value": e.value, "std_error": e.std_error}
                for k, e in chk["projections"].items()
            },
            "pass": bool(chk["all_within_3_sigma"]),
        }
    )

    # entropy identity
    temps = [float(t) for t in v["t_entropy"].split(",")]
    ent = entropy_identity_check(temps, consts)
    checks.append(
        {
            "name": "entropy_identity",
            "max_rel_error": ent["max_rel_error"],
            "pass": bool(ent["max_rel_error"] < 1e-6),
        }
    )

    all_pass = all(c["pass"] for c in checks)
    art.json("report.json", {"checks": checks, "all_pass": all_pass})
    lines = [f"{c['name']:28s} {'PASS' if c['pass'] else 'FAIL'}" for c in checks]
    with open(os.path.join(art.out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    art.records.append({"name": "report.txt", "rows": len(lines), "header": None})
    print("\n".join(lines))
    return 0 if all_pass else 1


_RUNNERS = {
    "levelscan": _run_levelscan,
    "slab-lte": _run_slab,
    "slab-exp": _run_slab,
    "domain3d": _run_domain3d,
    "nonexist": _run_nonexist,
    "three-level": _run_three_level,
    "verify": _run_verify,
}


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; writes artifacts plus manifest.json."""
    art = _Artifacts(config.out)
    code = _RUNNERS[config.subcommand](config, art)
    art.manifest(config)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse that reports a bad command line like any other config error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"config error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radgas",
        description="Stationary gas-radiation solvers: batch runs with CSV/JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output directory (default $RADGAS_OUT)")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--print-config", action="store_true", help="echo the resolved config")
        for key, (typ, default, help_text) in schema.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, help=help_text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in list(_SCHEMAS[args.subcommand]) + ["out", "seed"]
        if getattr(args, key, None) is not None
    }
    try:
        config = parse_config(args.subcommand, args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.print_config:
        print("\n".join(config.lines()))
        return 0
    try:
        return run(config)
    except RadgasError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
