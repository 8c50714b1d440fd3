"""Batch command-line driver: flat key = value configs, per-subcommand numeric
overrides, CSV, JSON and .npz artifacts with a manifest.

`parse_config` builds each run's solver inputs once, with the builder of the
subcommand's record in `_COMMANDS`, and stores them on `RunConfig.inputs`, the
only thing its runner reads.  Those objects decide every range they receive; a
value one of them rejects is a config error naming it.  The builders check
only the keys no object reads, the words of word-valued keys (listed in
`_SCHEMAS`) and the lists `box`, `samples` and `t_entropy`.

Exit codes: 0 success; 1 solver-reported nonconvergence or a NONEXISTENT
verdict (the report is still written); 2 configuration error, which includes
an unreadable config file and an output directory that cannot be made.
Artifacts are bit-identical for identical (config, seed): a CSV or JSON float
is written with 17 significant digits, an .npz array keeps its float64 bits,
and all randomness is seeded.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# hashlib loads OpenSSL's libcrypto, several MB that no solver needs; the
# interpreter's own SHA-256 gives the same digest (random.py does the same
# for SHA-512)
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

from .collision_reduction import TripleQuadSpec
from .constants import C0_MAXWELLIAN, PhysConsts
from .domain3d import ConvexDomain, LatticeSpec, SphereGrid
from .errors import ConfigError, RadgasError, SingularDenominator
from .kinetic import McPlan
from .levelscan import ScanWindow
from .physics import MaxwellianState
from .slab import AngleGrid, BoundaryProfile, SlabGrid
from .three_level import ThreeLevelParams

#: Boundary profiles on the unit sphere, by the name `f_profile` takes.
_SPHERE_PROFILES = {
    "isotropic": lambda n: np.ones(len(n)),
    "up": lambda n: (n[:, 2] > 0).astype(float),
    "zero": lambda n: np.zeros(len(n)),
}

# key: (type, default, help); a tuple type lists the words a key may take
_COMMON_SCHEMA = {
    "epsilon0": (float, 1.0, "energy quantum"),
    "sigma": (float, 1.0, "nonelastic/radiative scale ratio"),
    "c0": (float, C0_MAXWELLIAN, "Maxwellian normalization"),
    "c0_kernel": (float, 2.0, "hard-sphere cross-section constant"),
}

_SCHEMAS = {
    "levelscan": {
        **{key: _COMMON_SCHEMA[key] for key in ("epsilon0", "sigma", "c0")},
        "t1_min": (float, 10.0, "window lower T1"),
        "t1_max": (float, 12.0, "window upper T1"),
        "t2_min": (float, 10.0, "window lower T2"),
        "t2_max": (float, 12.0, "window upper T2"),
        "step": (float, 0.1, "grid step on both axes"),
        "n_levels": (int, 8, "number of evenly spaced contour levels"),
        "r_max": (float, 12.0, "radial truncation of the triple quadrature"),
        "n_r": (int, 96, "radial nodes"),
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
        "normalize": (("true", "false"), "true", "rescale the profile to unit incoming flux: true|false"),
    },
    "domain3d": {
        "domain": (("ball", "box"), "ball", "ball|box"),
        "radius": (float, 1.0, "ball radius"),
        "box": (str, "-1,-1,-1,1,1,1", "box bounds: x0,y0,z0,x1,y1,z1"),
        "lattice_n": (int, 32, "lattice cells per axis"),
        "sphere_n_theta": (int, 16, "sphere polar nodes"),
        "sphere_n_phi": (int, 32, "sphere azimuthal nodes"),
        "f_profile": (tuple(_SPHERE_PROFILES), "isotropic", "boundary profile: isotropic|up|zero"),
        "f_scale": (float, 1.0, "profile amplitude"),
    },
    "nonexist": {
        "domain": (("ball", "box", "slab-box"), "slab-box", "ball|box|slab-box"),
        "radius": (float, 1.0, "ball radius"),
        "box": (str, "-10,-10,0,10,10,1", "box bounds: x0,y0,z0,x1,y1,z1"),
        "a2": (float, 2.0, "absorption constant A2"),
        "tol": (float, 1e-3, "balance tolerance for the verdict"),
        "f_profile": (tuple(_SPHERE_PROFILES), "up", "boundary profile: isotropic|up|zero"),
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
        **{key: _COMMON_SCHEMA[key] for key in ("epsilon0", "c0", "c0_kernel")},
        "n_samples": (int, McPlan.n_samples, "at least this many lattice points per side and in the balance sweep"),
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
    """Fully resolved run: subcommand, values, output directory, seed, solver inputs."""

    subcommand: str
    values: dict
    out: str
    seed: int
    inputs: SimpleNamespace

    def lines(self):
        rows = [f"subcommand = {self.subcommand}", f"out = {self.out}", f"seed = {self.seed}"]
        for key in sorted(self.values):
            rows.append(f"{key} = {_fmt(self.values[key])}")
        return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _finite(key: str, raw: str, accepts: str = "a finite number") -> float:
    """The finite float `raw` spells, else a ConfigError naming `key` and what it accepts."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be {accepts}, got {raw!r}")
    return value


def _convert(key, raw, typ):
    if isinstance(typ, tuple):
        if raw not in typ:
            raise ConfigError(f"key {key!r} must be one of {'|'.join(typ)}, got {raw!r}")
        return raw
    if typ is float:
        return _finite(key, raw)
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {typ.__name__}") from None


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} does not exist") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8: byte {exc.start} ({exc.reason})") from None
    entries = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        entries[key] = (value, lineno)
    return entries


def parse_config(subcommand: str, path: str | None, overrides: dict) -> RunConfig:
    """Resolve subcommand defaults, config-file entries, and flag overrides,
    then build the run's solver inputs.

    Unknown keys are rejected with the offending line; flags win over the
    file; defaults fill the rest.  A value a solver object rejects (its
    ValueError or OverflowError) is a ConfigError naming that object.
    """
    if subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    schema = _SCHEMAS[subcommand]
    values = {key: default for key, (_, default, _) in schema.items()}
    out, seed = None, 0
    # the file's entries, then the flags: a later entry wins, and every one is converted
    file_entries = _read_config_file(path).items() if path is not None else ()
    entries = [(f"{path}:{lineno}: ", "key", key, raw) for key, (raw, lineno) in file_entries]
    entries += [("", "override", key, raw) for key, raw in overrides.items() if raw is not None]
    for where, kind, key, raw in entries:
        if key == "out":
            out = raw
        elif key == "seed":
            seed = _convert(key, raw, int)
        elif key == "subcommand" and where:
            if raw != subcommand:
                raise ConfigError(f"{where}config is for subcommand {raw!r}, not {subcommand!r}")
        elif key in schema:
            values[key] = _convert(key, raw, schema[key][0])
        else:
            raise ConfigError(f"{where}unknown {kind} {key!r} for {subcommand}")

    out = out or os.environ.get("RADGAS_OUT") or "radgas_out"
    try:
        inputs = _COMMANDS[subcommand][0](values, seed)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{_raised_in(exc)}: {exc}") from None
    return RunConfig(subcommand=subcommand, values=values, out=str(out), seed=seed, inputs=inputs)


def _raised_in(exc) -> str:
    """Class (or function) name of the innermost radgas frame that raised `exc`."""
    frames = traceback.walk_tb(exc.__traceback__)
    code = [f for f, _ in frames if f.f_globals.get("__name__", "").startswith("radgas.")][-1].f_code
    return getattr(code, "co_qualname", code.co_name).split(".")[0]  # co_qualname: 3.11+


def _number_or(key: str, raw: str, word: str, word_value=None):
    """`word_value` when `raw` is the keyword `word`, else the finite number `raw` spells."""
    return word_value if raw == word else _finite(key, raw, f"a finite number or {word!r}")


def _finite_floats(key: str, raw: str) -> list:
    return [_finite(key, x, "comma-separated finite numbers") for x in raw.split(",")]


def _positive(v: dict, key: str):
    """`v[key]`, a value no solver object checks, when it is > 0."""
    if not v[key] > 0:
        raise ConfigError(f"key {key!r} must be > 0, got {v[key]}")
    return v[key]


def _box_bounds(raw: str):
    """(mins, maxs) from 'x0,y0,z0,x1,y1,z1'."""
    bounds = _finite_floats("box", raw)
    if len(bounds) != 6:
        raise ConfigError(f"key 'box' needs 6 numbers x0,y0,z0,x1,y1,z1, got {raw!r}")
    return bounds[:3], bounds[3:]


def _sample_points(raw: str) -> list:
    """[[x, y, z], ...] from 'x,y,z;x,y,z;...'; at least one point."""
    points = [_finite_floats("samples", triple) for triple in raw.split(";") if triple]
    if not points or any(len(p) != 3 for p in points):
        raise ConfigError(f"key 'samples' needs semicolon-separated x,y,z triples, got {raw!r}")
    return points


def _slab_profile(key: str, spec: str):
    """Incoming slab profile: cos, uniform, zero or a constant intensity >= 0."""
    if spec == "zero":
        return BoundaryProfile.zero()
    if spec == "cos":
        return BoundaryProfile.from_function(lambda mu: mu, "cos")
    if spec == "uniform":
        return BoundaryProfile.constant(1.0 / (2.0 * math.pi))
    return BoundaryProfile.constant(_finite(key, spec, "cos|uniform|zero or a finite number"))


def _consts(values):
    """PhysConsts from the constant keys a subcommand has; the others keep their defaults."""
    names = {"c0_kernel": "C0_kernel"}
    return PhysConsts(**{names.get(k, k): values[k] for k in _COMMON_SCHEMA if k in values})


def _domain(v):
    """The ConvexDomain `domain` names (slab-box is a box); both shapes are built,
    so `radius` and `box` are checked whichever is used."""
    ball = ConvexDomain.ball((0.0, 0.0, 0.0), v["radius"])
    box = ConvexDomain.box(*_box_bounds(v["box"]))
    return ball if v["domain"] == "ball" else box


def _slab_grids(v) -> dict:
    """The SlabGrid of `slab_l` and `n_y` and the AngleGrid of `n_mu`."""
    return {"grid": SlabGrid(L=v["slab_l"], n_y=v["n_y"]), "angles": AngleGrid(n_mu=v["n_mu"])}


# ---------------------------------------------------------------------------
# solver inputs, one builder per subcommand: (values, seed) -> SimpleNamespace
# holding all its runner reads; a key no object checks is checked first
# ---------------------------------------------------------------------------


def _levelscan_inputs(v, seed):
    return SimpleNamespace(
        n_levels=_positive(v, "n_levels"),
        window=ScanWindow(v["t1_min"], v["t1_max"], v["t2_min"], v["t2_max"], v["step"]),
        consts=_consts(v),
        spec=TripleQuadSpec(r_max=v["r_max"], n_r=v["n_r"]),
    )


def _slab_lte_inputs(v, seed):
    return SimpleNamespace(
        t0=_positive(v, "t0"),
        **_slab_grids(v),
        profile=_slab_profile("j0_profile", v["j0_profile"]),
        consts=_consts(v),
        zeta_mass=_number_or("zeta_mass", v["zeta_mass"], "none"),
    )


def _slab_exp_inputs(v, seed):
    return SimpleNamespace(
        **_slab_grids(v),
        profile=_slab_profile("a_plus_profile", v["a_plus_profile"]),
        normalize=v["normalize"] == "true",
    )


def _domain3d_inputs(v, seed):
    profile, scale = _SPHERE_PROFILES[v["f_profile"]], v["f_scale"]
    if not scale >= 0:
        raise ConfigError(f"key 'f_scale' must be >= 0, got {scale}")
    return SimpleNamespace(
        domain=_domain(v),
        f=lambda n: scale * profile(n),
        lattice=LatticeSpec(v["lattice_n"]),
        sphere=SphereGrid(v["sphere_n_theta"], v["sphere_n_phi"]),
    )


def _nonexist_inputs(v, seed):
    a2, tol = _positive(v, "a2"), _positive(v, "tol")
    domain = _domain(v)
    samples = _sample_points(v["samples"])
    for point in samples:
        if not domain.contains(point):
            raise ConfigError(
                f"key 'samples': point {','.join(map(repr, point))} is not strictly "
                f"inside the {v['domain']} domain"
            )
    return SimpleNamespace(
        a2=a2,
        tol=tol,
        domain=domain,
        f=_SPHERE_PROFILES[v["f_profile"]],
        samples=samples,
        sphere=SphereGrid(v["sphere_n_theta"], v["sphere_n_phi"]),
    )


def _three_level_inputs(v, seed):
    g1 = v["gamma1"]
    return SimpleNamespace(
        params=ThreeLevelParams(g1, 1.0 - g1, v["eps"], v["t0"], v["rho0"], v["p12"], v["p23"]),
        **_slab_grids(v),
        boundary=(BoundaryProfile.constant(v["j0"]), BoundaryProfile.zero()),
        mass_C0=_number_or("mass_c0", v["mass_c0"], "from-mass", "from-mass"),
        m0=_number_or("m0", v["m0"], "none"),
        xi_const=v["xi_const"],
    )


def _verify_inputs(v, seed):
    consts = _consts(v)
    temps = _finite_floats("t_entropy", v["t_entropy"])
    # entropy_identity_check's complex step T*2^-60 must be a normal float
    if not all(t >= 2.0**-962 for t in temps):
        raise ConfigError(f"key 't_entropy' needs temperatures >= 2^-962 (about 2.1e-290), got {v['t_entropy']!r}")
    u, T = np.array([0.3, 0.0, 0.0]), v["t_lte"]
    return SimpleNamespace(
        consts=consts,
        plan=McPlan(n_samples=v["n_samples"], seed=seed),
        # a Boltzmann-ratio pair drifting at u, for detailed balance
        lte_pair=(MaxwellianState(1.0, u, T), MaxwellianState(math.exp(-2 * consts.epsilon0 / T), u, T)),
        lte_at_rest=MaxwellianState(1.0, np.zeros(3), T),
        generic_pair=[MaxwellianState(v[f"rho{k}"], np.zeros(3), v[f"t{k}"]) for k in (1, 2)],
        temps=temps,
    )


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------


class _Artifacts:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.records = []
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir!r}: {exc.strerror}") from None

    def csv(self, name: str, header: list, columns) -> None:
        """One row per index of the equal-length columns, each value written
        by `_fmt` (a float64 column with %.17g) and joined by commas.  A
        header whose length is not the number of columns, or columns of
        unequal lengths, raise ValueError before the file is opened.
        """
        cols = [np.asarray(c) for c in columns]
        lengths = [len(c) for c in cols]
        if len(header) != len(cols) or len(set(lengths)) > 1:
            raise ValueError(f"{name}: {len(header)} header fields for columns of lengths {lengths}")
        # "%.17g" % x is _fmt(x) for a float; any other column is formatted first
        row = ",".join("%.17g" if c.dtype == np.float64 else "%s" for c in cols) + "\n"
        values = [c.tolist() if c.dtype == np.float64 else list(map(_fmt, c.tolist())) for c in cols]
        text = ",".join(header) + "\n" + "".join([row % r for r in zip(*values)])
        with open(os.path.join(self.out_dir, name), "wb") as fh:
            fh.write(text.encode())
        self.records.append({"name": name, "rows": lengths[0] if cols else 0, "header": header})

    def npz(self, name: str, **arrays) -> None:
        """The arrays in one uncompressed `np.savez` archive, each under its
        keyword; the manifest record gives every array's shape."""
        np.savez(os.path.join(self.out_dir, name), **arrays)
        shapes = {key: list(np.shape(a)) for key, a in arrays.items()}
        self.records.append({"name": name, "rows": None, "header": None, "shape": shapes})

    def json(self, name: str, payload: dict) -> None:
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        self.records.append({"name": name, "rows": None, "header": None})

    def manifest(self, config: RunConfig) -> None:
        from . import __version__

        resolved = "\n".join(config.lines())
        payload = {
            "subcommand": config.subcommand,
            "config_sha256": sha256(resolved.encode()).hexdigest(),
            "resolved_config": config.lines(),
            "seed": config.seed,
            "versions": {
                "radgas": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "artifacts": self.records,
        }
        with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _strict_json(obj):
    """`obj` with numpy arrays and scalars as Python values and every
    non-finite float as None, so the file is strict JSON (null, never
    Infinity or NaN)."""
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _radiation_arrays(field) -> dict:
    """The `radiation.npz` arrays of a RadiationField: y, mu, G_plus and G_minus."""
    return {"y": field.grid.y, "mu": field.angles.mu, "G_plus": field.g_plus, "G_minus": field.g_minus}


# ---------------------------------------------------------------------------
# subcommand runners (return exit code)
# ---------------------------------------------------------------------------


def _run_levelscan(config: RunConfig, art: _Artifacts) -> int:
    from .levelscan import extract_contours, scan, smoothness_report

    p = config.inputs
    result = scan(p.window, p.consts, p.spec)

    t1s, t2s = p.window.t1_values(), p.window.t2_values()
    art.csv(
        "grid.csv",
        ["T1", "T2", "L"],
        [np.repeat(t1s, len(t2s)), np.tile(t2s, len(t1s)), result.grid.ravel()],
    )
    finite = result.grid[np.isfinite(result.grid)]
    if not finite.size:
        raise SingularDenominator(f"L is singular at all {result.grid.size} grid nodes")
    levels = np.linspace(finite.min(), finite.max(), p.n_levels + 2)[1:-1]
    contours = extract_contours(result, levels)
    rows = [
        (level, ci, *pt)
        for level, chains in zip(contours.levels, contours.polylines)
        for ci, chain in enumerate(chains)
        for pt in chain
    ]
    art.csv("contours.csv", ["level", "chain", "T1", "T2"], zip(*rows))
    report = smoothness_report(result, contours)
    art.json("report.json", report)
    return 1 if (result.failures or report["any_flagged"]) else 0


def _run_slab(config: RunConfig, art: _Artifacts) -> int:
    from .slab import solve_exp_limit, solve_lte_fredholm

    p = config.inputs
    if config.subcommand == "slab-lte":
        res = solve_lte_fredholm(p.profile, p.grid, p.angles, p.consts, T0=p.t0, zeta_mass=p.zeta_mass)
        art.csv("theta.csv", ["y", "value"], [p.grid.y, res.theta])
        art.csv("zeta.csv", ["y", "value"], [p.grid.y, res.zeta])
        field, report = res.h_field, {"i0": res.i0, "C0": res.C0, "alpha0": res.alpha0}
    else:
        res = solve_exp_limit(p.profile, p.grid, p.angles, normalize=p.normalize)
        art.csv("w.csv", ["y", "value"], [p.grid.y, res.w])
        field = res.H
        report = {
            "j0": res.j0,
            "energy_residual_max": float(np.max(np.abs(res.energy_residual[1:-1]))),
        }
    art.npz("radiation.npz", **_radiation_arrays(field))
    art.json(
        "report.json",
        {
            **report,
            "picard_ratio": res.picard_ratio,
            "picard_gap": res.picard_gap,
            "direct_residual": res.direct_residual,
            "residual_max": res.residual_max,
            "flux_ptp": float(np.ptp(res.flux_j)),
            "converged": res.converged,
        },
    )
    return 0 if (res.converged and res.picard_gap < 1e-8) else 1


def _run_domain3d(config: RunConfig, art: _Artifacts) -> int:
    from .domain3d import solve_w

    p = config.inputs
    field = solve_w(p.domain, p.f, p.lattice, p.sphere)
    art.npz("w.npz", points=field.points, w=field.values)
    art.json(
        "report.json",
        {
            "lattice_points": int(len(field.points)),
            "picard_ratio": field.picard_ratio,
            "picard_diffs": field.picard_diffs,
            "iterations": len(field.picard_diffs),
            "w_min": float(field.values.min()),
            "w_max": float(field.values.max()),
            "converged": field.converged,
        },
    )
    return 0 if (field.converged and field.picard_ratio < 1.0) else 1


def _run_nonexist(config: RunConfig, art: _Artifacts) -> int:
    from .domain3d import nonexistence_check

    p = config.inputs
    report = nonexistence_check(p.domain, p.f, p.a2, p.samples, tol=p.tol, sphere=p.sphere)
    art.json("report.json", report)
    return 1 if report["verdict"] == "NONEXISTENT" else 0


def _run_three_level(config: RunConfig, art: _Artifacts) -> int:
    from .three_level import lte_deviation, non_lte_curvature, solve_three_level

    p = config.inputs
    xi = np.full(p.grid.n_y, p.xi_const)
    sol = solve_three_level(xi, p.boundary, p.params, p.grid, p.angles, mass_C0=p.mass_C0, m0=p.m0)
    art.csv(
        "solution.csv",
        ["y", "sigma1", "sigma2", "sigma3", "xi"],
        [p.grid.y, sol.sigma1, sol.sigma2, sol.sigma3, sol.xi],
    )
    art.npz("radiation.npz", **_radiation_arrays(sol.h))
    dev, where = lte_deviation(sol)
    art.json(
        "report.json",
        {
            "C0": sol.C0,
            "path_gap": sol.path_gap,
            "direct_residual": sol.direct_residual,
            "eq1_residual": sol.eq1_residual,
            "eq2_residual": sol.eq2_residual,
            "eq3_residual": sol.eq3_residual,
            "lte_deviation": dev,
            "lte_deviation_at": where,
            "non_lte_curvature": non_lte_curvature(sol),
            "picard_iterations": sol.picard_iterations,
            "converged": sol.converged,
        },
    )
    return 0 if (sol.converged and sol.path_gap < 1e-8) else 1


def _run_verify(config: RunConfig, art: _Artifacts) -> int:
    from .kinetic import GATE_QUANTILE, LATTICE_POINTS, entropy_identity_check, exchange_reduced, verify_checks

    p = config.inputs
    consts = p.consts
    # the calibrated reduced exchange rates first: a run where they are not
    # finite is a solver error before any sampling
    reduced = exchange_reduced(*p.generic_pair, consts)
    # detailed balance on a Boltzmann-ratio pair; weak-form conservation and
    # mass and energy exchange on the generic pair and the kernel of the
    # linearized operator at LTE, from one lattice pass per side
    res, (conservation, exchange, kernel) = verify_checks(p.lte_pair, p.generic_pair, p.lte_at_rest, p.plan, consts)

    def rows_check(name, estimates):
        return {
            "name": name,
            "rows": {k: {"value": e.value, "std_error": e.std_error} for k, e in estimates.items()},
            "pass": all(e.consistent_with_zero() for e in estimates.values()),
        }

    # None: no tuple above threshold, nothing was checked, so the check cannot pass
    checks = [{"name": "detailed_balance", "value": res, "pass": res is not None and res < 1e-12}]
    checks.append(rows_check("weak_form_conservation", conservation))

    # mass and energy exchange vs the calibrated reduced formulas
    for (name, est), red in zip(exchange.items(), reduced):
        checks.append(
            {
                "name": f"{name}_exchange_vs_reduced",
                "mc": est.value,
                "std_error": est.std_error,
                "reduced": red,
                "pass": est.consistent_with(red),
            }
        )

    # kernel of the linearized operator at LTE
    checks.append(rows_check("kernel_of_L", kernel))

    # entropy identity
    ent = entropy_identity_check(p.temps, consts)
    checks.append(
        {
            "name": "entropy_identity",
            "max_rel_error": ent["max_rel_error"],
            "pass": bool(ent["max_rel_error"] < 1e-14),
        }
    )

    all_pass = all(c["pass"] for c in checks)
    plan = {"n_shifts": p.plan.n_shifts, "lattice_points": LATTICE_POINTS, "gate_quantile": GATE_QUANTILE}
    art.json("report.json", {"checks": checks, "all_pass": all_pass, "plan": plan})
    lines = [f"{c['name']:28s} {'PASS' if c['pass'] else 'FAIL'}" for c in checks]
    with open(os.path.join(art.out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    art.records.append({"name": "report.txt", "rows": len(lines), "header": None})
    print("\n".join(lines))
    return 0 if all_pass else 1


#: one record per subcommand: (solver-input builder, runner)
_COMMANDS = {
    "levelscan": (_levelscan_inputs, _run_levelscan),
    "slab-lte": (_slab_lte_inputs, _run_slab),
    "slab-exp": (_slab_exp_inputs, _run_slab),
    "domain3d": (_domain3d_inputs, _run_domain3d),
    "nonexist": (_nonexist_inputs, _run_nonexist),
    "three-level": (_three_level_inputs, _run_three_level),
    "verify": (_verify_inputs, _run_verify),
}


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; writes artifacts plus manifest.json."""
    art = _Artifacts(config.out)
    code = _COMMANDS[config.subcommand][1](config, art)
    art.manifest(config)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse that reports a bad command line like any other config error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"config error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, with every subcommand
    registered; `_subcommand_parser` adds a subcommand's options."""
    parser = _Parser(
        prog="radgas",
        description="Stationary gas-radiation solvers: batch runs with CSV/JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = {name: sub.add_parser(name) for name in _SCHEMAS}
    return parser


@functools.cache
def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """`name`'s parser, its options added on the first call: a process pays
    only for the subcommands it runs."""
    p = _build_parser().subcommands[name]
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--out", default=None, help="output directory (default $RADGAS_OUT)")
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument("--print-config", action="store_true", help="echo the resolved config")
    for key, (typ, default, help_text) in _SCHEMAS[name].items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, help=help_text)
    return p


#: mallopt parameter numbers of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


@functools.cache
def _retain_freed_memory() -> None:
    """Let malloc keep the memory a job frees for the next job of the process.

    glibc maps every block over 128 KiB afresh and gives the top of the heap
    back to the kernel once 128 KiB of it is free; it raises both limits only
    after it frees a large mapped block, which plain numpy start-up never
    does.  The solvers free arrays of 0.1 to 10 MB on every call, so each job
    would page-fault its arrays in again (a benchmark levelscan window: 3400
    to 6400 minor faults at the default limits, about 20 with these).  Blocks up
    to 16 MiB come from the heap, and up to 32 MiB of its free top is kept.

    Every thread allocates from the one main arena.  `verify` runs its Monte
    Carlo loss side on a worker thread; with an arena of its own that thread
    cannot reuse the heap earlier jobs freed, and a benchmark `volume` batch
    peaked at 67 MB RSS instead of 59 MB.  Without glibc's mallopt nothing
    changes.

    The one arena is also why the 3-D convolution stays on one thread:
    `numpy.fft` allocates its work arrays per call, and two threads then
    queue for the arena's lock.  Sixty rfftn/irfftn pairs per thread on
    independent (32, 64, 33) arrays took 0.25-0.27 s on two threads with
    one arena against 0.14-0.17 s with glibc's default arenas, while the
    same work on one thread took 0.23-0.40 s (2-vCPU Xeon VM): under these
    settings a second FFT thread saves little or nothing, and the default
    arenas cost the RSS above.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _retain_freed_memory()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _SCHEMAS:
        _subcommand_parser(argv[0])
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in [*_SCHEMAS[args.subcommand], "out", "seed"]}
    try:
        config = parse_config(args.subcommand, args.config, overrides)
        if args.print_config:
            print("\n".join(config.lines()))
            return 0
        # in a run, only making the output directory raises ConfigError, before any solve
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RadgasError, MemoryError) as exc:
        reason = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"solver error: {reason}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
