"""Spans around the public functions of each radgas module, and the per-layer
metrics derived from them.

`install` wraps, from outside the library, every public function defined in
the layer modules, at every radgas module that holds a reference to it (so
``levelscan.triple_integral`` and ``kinetic.functionals`` are traced too), plus
``ConvexDomain.exit_distances`` and the ``fftconvolve`` that ``domain3d``
imports from scipy.  ``physics`` is folded into ``kinetic``: its functions are
small, are called in hot loops, and their time shows as the self time of the
caller.  Spans stay in memory as ``[name, start, end, parent, job, work]``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "collision_reduction", "levelscan", "slab", "three_level", "domain3d", "kinetic")
_ALL_MODULES = ("radgas",) + tuple(f"radgas.{m}" for m in LAYERS + ("physics", "constants", "errors"))


def _n_y_squared(args, kwargs, result):
    return kwargs.get("grid", args[1] if len(args) > 1 else None).n_y ** 2


def _ray_cells(args, kwargs, result):
    return 2 * (result.grid.n_y - 1) * result.angles.n_mu


def _quad_nodes(args, kwargs, result):
    spec = kwargs.get("spec", args[2])
    return spec.n_r * spec.n_rho * spec.n_theta


#: Work counted at a span boundary, from the call's arguments or result.
WORK = {
    "collision_reduction.triple_integral": _quad_nodes,
    "slab.ray_integrate": _ray_cells,
    "slab.solve_lte_fredholm": _n_y_squared,
    "slab.solve_exp_limit": _n_y_squared,
    "domain3d.exit_distances": lambda a, k, r: r.size,
    "levelscan.scan": lambda a, k, r: r.grid.size,
    "kinetic.mc_conservation": lambda a, k, r: len(list(r.rows())),
    "kinetic.mass_exchange_estimate": lambda a, k, r: 1,
    "kinetic.kernel_of_L_check": lambda a, k, r: len(r["projections"]),
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, 0]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        work = WORK.get(name)
        if work is not None:
            span[5] = work(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def install(tracer: Tracer) -> None:
    """Replace the traced functions in every radgas module by span wrappers."""
    modules = [importlib.import_module(m) for m in _ALL_MODULES]
    replace = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"radgas.{layer}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                replace[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
    domain3d = importlib.import_module("radgas.domain3d")
    replace[id(domain3d.fftconvolve)] = tracer.wrap("domain3d.fftconvolve", domain3d.fftconvolve)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replace and not inspect.ismodule(obj):
                setattr(mod, name, replace[id(obj)])
    cls = domain3d.ConvexDomain
    cls.exit_distances = tracer.wrap("domain3d.exit_distances", cls.exit_distances)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Span duration minus the time covered by its direct children.

    Calls are sequential, so children never overlap and their durations add.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_s") or name.endswith(".s_per_estimate"):
        return "s"
    if name.endswith(("_share", "_per_point", "_per_solve")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def layer_metrics(spans, reports: dict, artifacts: dict) -> dict:
    """Per-layer metrics of one traced batch.

    `reports` maps a subcommand to the report.json payloads of its jobs;
    `artifacts` holds the batch's artifact byte and row totals.
    """
    selfs = self_times(spans)
    calls, busy, self_s, work = {}, {}, {}, {}
    for idx, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[idx]
        work[name] = work.get(name, 0) + s[5]
        if all(spans[a][0] != name for a in _ancestors(spans, idx)):
            busy[name] = busy.get(name, 0.0) + (s[2] - s[1])

    def nested(child, parent):
        """Count and busy time of `child` spans that run inside a `parent` span."""
        n, t = 0, 0.0
        for idx, s in enumerate(spans):
            if s[0] == child and any(spans[a][0] == parent for a in _ancestors(spans, idx)):
                n += 1
                t += s[2] - s[1]
        return n, t

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    c, b, sf, w = calls.get, busy.get, self_s.get, work.get
    tri = "collision_reduction.triple_integral"
    first_tri = next((s[2] - s[1] for s in spans if s[0] == tri), 0.0)
    scan_triples, _ = nested(tri, "levelscan.scan")
    tl = "three_level.solve_three_level"
    tl_rays, tl_ray_s = nested("slab.ray_integrate", tl)
    slab_self = sf("slab.solve_lte_fredholm", 0.0) + sf("slab.solve_exp_limit", 0.0)
    slab_entries = w("slab.solve_lte_fredholm", 0) + w("slab.solve_exp_limit", 0)
    estimates = sum(w(f"kinetic.{n}", 0) for n in ("mc_conservation", "mass_exchange_estimate", "kernel_of_L_check"))
    estimate_s = sum(b(f"kinetic.{n}", 0.0) for n in ("mc_conservation", "mass_exchange_estimate", "kernel_of_L_check"))
    cli_self = sf("cli.run", 0.0)
    points = w("levelscan.scan", 0)
    return {
        f"{tri}.calls": c(tri, 0),
        f"{tri}.busy_s": b(tri, 0.0),
        f"{tri}.nodes": w(tri, 0),
        f"{tri}.ns_per_node": ratio(b(tri, 0.0), w(tri, 0), 1e9),
        f"{tri}.first_call_s": first_tri,
        "collision_reduction.functionals.busy_s": b("collision_reduction.functionals", 0.0),
        "collision_reduction.L_func.self_s": sf("collision_reduction.L_func", 0.0),
        "levelscan.scan.self_s": sf("levelscan.scan", 0.0),
        "levelscan.points": points,
        "levelscan.triples_per_point": ratio(scan_triples, points),
        "levelscan.extract_contours.busy_s": b("levelscan.extract_contours", 0.0),
        "levelscan.smoothness_report.busy_s": b("levelscan.smoothness_report", 0.0),
        "levelscan.failures": sum(r["n_failures"] for r in reports.get("levelscan", [])),
        "slab.ray_integrate.calls": c("slab.ray_integrate", 0),
        "slab.ray_integrate.busy_s": b("slab.ray_integrate", 0.0),
        "slab.ray_integrate.cell_updates": w("slab.ray_integrate", 0),
        "slab.ray_integrate.ns_per_cell_update": ratio(b("slab.ray_integrate", 0.0), w("slab.ray_integrate", 0), 1e9),
        "slab.solve_lte_fredholm.self_s": sf("slab.solve_lte_fredholm", 0.0),
        "slab.solve_exp_limit.self_s": sf("slab.solve_exp_limit", 0.0),
        "slab.solve.matrix_entries": slab_entries,
        "slab.solve.ns_per_entry": ratio(slab_self, slab_entries, 1e9),
        f"{tl}.calls": c(tl, 0),
        f"{tl}.self_s": sf(tl, 0.0),
        "three_level.ray_sweeps_per_solve": ratio(tl_rays, c(tl, 0)),
        "three_level.picard_iterations": sum(r["picard_iterations"] for r in reports.get("three-level", [])),
        "three_level.ray_share": ratio(tl_ray_s, b(tl, 0.0)),
        "domain3d.solve_w.calls": c("domain3d.solve_w", 0),
        "domain3d.solve_w.self_s": sf("domain3d.solve_w", 0.0),
        "domain3d.exit_distances.calls": c("domain3d.exit_distances", 0),
        "domain3d.exit_distances.busy_s": b("domain3d.exit_distances", 0.0),
        "domain3d.exit_distances.rays": w("domain3d.exit_distances", 0),
        "domain3d.exit_distances.ns_per_ray": ratio(b("domain3d.exit_distances", 0.0), w("domain3d.exit_distances", 0), 1e9),
        "domain3d.kernel_mass_at.busy_s": b("domain3d.kernel_mass_at", 0.0),
        "domain3d.fftconvolve.calls": c("domain3d.fftconvolve", 0),
        "domain3d.fftconvolve.busy_s": b("domain3d.fftconvolve", 0.0),
        "domain3d.picard_iterations": sum(r["iterations"] for r in reports.get("domain3d", [])),
        "domain3d.lattice_points": sum(r["lattice_points"] for r in reports.get("domain3d", [])),
        "domain3d.nonexistence_check.busy_s": b("domain3d.nonexistence_check", 0.0),
        "kinetic.mc_conservation.busy_s": b("kinetic.mc_conservation", 0.0),
        "kinetic.mass_exchange_estimate.busy_s": b("kinetic.mass_exchange_estimate", 0.0),
        "kinetic.kernel_of_L_check.busy_s": b("kinetic.kernel_of_L_check", 0.0),
        "kinetic.mass_exchange_reduced.busy_s": b("kinetic.mass_exchange_reduced", 0.0),
        "kinetic.detailed_balance_residual.busy_s": b("kinetic.detailed_balance_residual", 0.0),
        "kinetic.estimates": estimates,
        "kinetic.s_per_estimate": ratio(estimate_s, estimates),
        "cli.run.calls": c("cli.run", 0),
        "cli.self_s": cli_self,
        "cli.artifact_bytes": artifacts["bytes"],
        "cli.artifact_rows": artifacts["rows"],
        "cli.ns_per_row": ratio(cli_self, artifacts["rows"], 1e9),
        "trace.spans": len(spans),
    }
