"""Seeded job lists for the three workloads and the correctness oracle per job.

A job is a dict ``{"id", "argv"}``; ``argv`` is what a user would pass to
``radgas`` (without ``--out``).  The same seed always yields the same list.
Sizes are fixed per workload and only the parameters that leave the cost of a
job unchanged are drawn from the seed, so runs on different seeds measure the
same amount of work.  Quadrature, lattice, sample counts and tolerances stay at
the library defaults apart from the sizes named here.
"""

from __future__ import annotations

import csv
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

#: Figure-1 lattice: T1 and T2 in [10, 12] with step 0.1 (21 x 21 nodes).
FIG1_LO, FIG1_STEP, FIG1_N = 10.0, 0.1, 21
#: L on the Figure-1 lattice, from ``radgas levelscan --c0 1`` (grid.csv).
FIG1_REFERENCE = os.path.join(HERE, "fig1_L.csv")
L_RTOL = 1e-9  # tolerance of tests/test_levelscan.py::test_l_golden_value

#: The slab flux is pinned constant to 1e-6 at the acceptance grids
#: (n_y = 2049 for slab-lte, 513 for slab-exp).  Its deviation is a
#: second-order discretisation error, so the bound scales with (h / h_ref)^2.
FLUX_PTP_PINNED = 1e-6
FLUX_REF_NY = {"slab-lte": 2049, "slab-exp": 513}
#: The 3-D forcing is a Richardson finite difference with an error bar of
#: about 1e-4; on a ball with an isotropic profile the exact w is 1.
BALL_W_TOL = 1e-4
DOMAIN3D_MAX_ITER = 500  # solve_w default
GAP_TOL = 1e-8
RESIDUAL_TOL = 1e-9

#: Seeds of `radgas verify` on which all of its 3-sigma Monte Carlo gates pass.
#: Six gates at 3 sigma fail by chance on a few seeds in a hundred (seed 48
#: does), so an arbitrary seed would make the benchmark fail now and then with
#: no change in the program.  Seeds 1..48 were each run; 1..47 pass.
VERIFY_SEEDS = range(1, 48)

#: Measured cost of one batch (seconds, 2-vCPU Xeon VM, one BLAS thread);
#: sets how many batches fit in the requested measuring time.
NOMINAL_BATCH_S = {"scan": 8.0, "transport": 9.0, "volume": 19.0}


def _f(x: float) -> str:
    return f"{x:.4g}"


def _argv(subcommand: str, **options) -> list:
    """CLI arguments; ``--key=value`` keeps values that start with '-' intact."""
    return [subcommand] + [f"--{k.replace('_', '-')}={v}" for k, v in options.items()]


def _options(argv: list) -> dict:
    return dict(a[2:].split("=", 1) for a in argv[1:])


def _scan(rng: random.Random) -> list:
    # Wide windows: 2 T1 rows x 9 T2 columns; tall ones: 6 rows x 3 columns.
    # Both hold 18 points (54 triple integrals); each T1 row adds 3 more, so a
    # wide window costs 60 integrals and a tall one 72.  Windows take disjoint
    # T1 rows, so no job reuses another's per-row integrals.
    shapes = [(1, 8)] * 3 + [(5, 2)] * 2
    rng.shuffle(shapes)
    spare = FIG1_N - sum(n1 + 1 for n1, _ in shapes)
    gaps = [0] * (len(shapes) + 1)
    for _ in range(spare):
        gaps[rng.randrange(len(gaps))] += 1
    jobs, row = [], 0
    for k, (n1, n2) in enumerate(shapes):
        row += gaps[k]
        col = rng.randrange(FIG1_N - n2)
        t1, t2 = FIG1_LO + FIG1_STEP * row, FIG1_LO + FIG1_STEP * col
        jobs.append(_argv("levelscan", c0=1, epsilon0=1, sigma=1,
                          t1_min=f"{t1:.1f}", t1_max=f"{t1 + FIG1_STEP * n1:.1f}",
                          t2_min=f"{t2:.1f}", t2_max=f"{t2 + FIG1_STEP * n2:.1f}"))
        row += n1 + 1
    return jobs


def _interior_points(rng: random.Random, lo, hi, count: int = 3) -> str:
    """`count` points drawn in the box [lo + 0.1, hi - 0.1]."""
    pts = [[rng.uniform(a + 0.1, b - 0.1) for a, b in zip(lo, hi)] for _ in range(count)]
    return ";".join(",".join(f"{c:.3f}" for c in p) for p in pts)


def _transport(rng: random.Random) -> list:
    def lte(n_y, profile):
        zeta = {"zeta_mass": _f(rng.uniform(0.1, 0.5))} if rng.random() < 0.5 else {}
        return _argv("slab-lte", n_y=n_y, j0_profile=profile, t0=_f(rng.uniform(0.5, 2.0)), **zeta)

    const = lambda: _f(rng.uniform(0.2, 1.0))  # noqa: E731
    jobs = [lte(257, profile) for profile in ("cos", "uniform", const())]
    jobs.append(lte(1025, rng.choice(["cos", "uniform", const()])))
    jobs += [_argv("slab-exp", n_y=257, a_plus_profile=p) for p in ("uniform", const())]
    jobs.append(_argv("slab-exp", n_y=1025, a_plus_profile=rng.choice(["uniform", const()])))
    for n_y in (65, 65, 129):
        jobs.append(_argv("three-level", n_y=n_y, j0=_f(rng.uniform(0.02, 0.3)),
                          gamma1=_f(rng.uniform(0.2, 0.8)), xi_const=_f(rng.uniform(-0.05, 0.05))))
    profiles = ["up", "isotropic", "zero"]
    rng.shuffle(profiles)
    domains = [
        ({"domain": "ball"}, (-0.55,) * 3, (0.55,) * 3),
        ({"domain": "box", "box": "-1,-1,-1,1,1,1"}, (-1,) * 3, (1,) * 3),
        ({"domain": "slab-box"}, (-10, -10, 0), (10, 10, 1)),
    ]
    for (dom, lo, hi), profile in zip(domains, profiles):
        jobs.append(_argv("nonexist", **dom, f_profile=profile, samples=_interior_points(rng, lo, hi)))
    return jobs


def _volume(rng: random.Random) -> list:
    jobs = [_argv("domain3d", domain=domain, lattice_n=n, f_profile=rng.choice(["isotropic", "up"]))
            for domain, n in (("ball", 24), ("ball", 32), ("box", 12))]
    jobs.append(_argv("verify", seed=rng.choice(VERIFY_SEEDS)))
    return jobs


WORKLOADS = {"scan": _scan, "transport": _transport, "volume": _volume}


def make_jobs(workload: str, seed: int) -> list:
    """The job list of `workload` for `seed`, in execution order.

    The order is fixed per workload: peak RSS depends on it, through what
    the heap holds when the largest job starts.
    """
    argvs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    return [{"id": f"j{k:02d}-{argv[0]}", "argv": argv} for k, argv in enumerate(argvs)]


# ---------------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------------


def load_reference(path: str = FIG1_REFERENCE) -> dict:
    """{(i, j): L} on the Figure-1 lattice."""
    with open(path, newline="") as fh:
        return {_lattice_index(r["T1"], r["T2"]): float(r["L"]) for r in csv.DictReader(fh)}


def _lattice_index(t1: str, t2: str) -> tuple:
    return (round((float(t1) - FIG1_LO) / FIG1_STEP), round((float(t2) - FIG1_LO) / FIG1_STEP))


def _check_levelscan(opts, out, report, reference):
    problems = []
    with open(os.path.join(out, "grid.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    span = [float(opts[f"{t}-max"]) - float(opts[f"{t}-min"]) for t in ("t1", "t2")]
    expected = (round(span[0] / FIG1_STEP) + 1) * (round(span[1] / FIG1_STEP) + 1)
    if len(rows) != expected:
        problems.append(f"grid.csv has {len(rows)} rows, expected {expected}")
    for r in rows:
        ref = reference[_lattice_index(r["T1"], r["T2"])]
        got = float(r["L"])
        if not abs(got - ref) <= L_RTOL * abs(ref):
            problems.append(f"L({r['T1']}, {r['T2']}) = {got!r}, reference {ref!r}")
    want = 1 if (report["n_failures"] or report["any_flagged"]) else 0
    return problems, want


def _check_slab(sub, opts, report):
    n_y = int(opts["n-y"])
    ref = FLUX_REF_NY[sub]
    flux_tol = FLUX_PTP_PINNED * ((ref - 1) / (n_y - 1)) ** 2
    problems = []
    if not report["picard_gap"] < GAP_TOL:
        problems.append(f"picard_gap {report['picard_gap']}")
    if not report["picard_ratio"] < 1.0:
        problems.append(f"picard_ratio {report['picard_ratio']}")
    if not report["flux_ptp"] <= flux_tol:
        problems.append(f"flux_ptp {report['flux_ptp']} > {flux_tol}")
    return problems, 0


def _check_three_level(opts, report):
    problems = []
    if not report["path_gap"] < GAP_TOL:
        problems.append(f"path_gap {report['path_gap']}")
    for key in ("eq1_residual", "eq2_residual", "eq3_residual"):
        if not abs(report[key]) < RESIDUAL_TOL:
            problems.append(f"{key} {report[key]}")
    return problems, 0


def _check_domain3d(opts, report):
    problems = []
    if not report["picard_ratio"] < 1.0:
        problems.append(f"picard_ratio {report['picard_ratio']}")
    if not report["w_min"] > 0:
        problems.append(f"w_min {report['w_min']}")
    if report["iterations"] >= DOMAIN3D_MAX_ITER:
        problems.append(f"Picard loop stopped at max_iter ({report['iterations']})")
    if opts["domain"] == "ball" and opts["f-profile"] == "isotropic":
        dev = max(abs(report["w_min"] - 1.0), abs(report["w_max"] - 1.0))
        if not dev <= BALL_W_TOL:
            problems.append(f"isotropic ball: |w - 1| = {dev} > {BALL_W_TOL}")
    return problems, 0


def _check_nonexist(opts, report):
    verdict = "EXISTS_POSSIBLE" if opts["f-profile"] == "zero" else "NONEXISTENT"
    problems = [] if report["verdict"] == verdict else [f"verdict {report['verdict']}, expected {verdict}"]
    return problems, 1 if report["verdict"] == "NONEXISTENT" else 0


def _check_verify(opts, report):
    return ([] if report["all_pass"] else ["verify: not all checks pass"]), 0


def check_job(argv: list, out: str, code, reference: dict) -> list:
    """Problems found in one finished job (empty when it is correct).

    `code` is the exit code, or None when the job raised.  A job is correct
    when its artifacts pass the oracle of its subcommand and the exit code is
    the one its own report.json justifies.
    """
    if code is None:
        return ["raised an exception"]
    try:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        sub, opts = argv[0], _options(argv)
        if sub == "levelscan":
            problems, want = _check_levelscan(opts, out, report, reference)
        elif sub in FLUX_REF_NY:
            problems, want = _check_slab(sub, opts, report)
        elif sub == "three-level":
            problems, want = _check_three_level(opts, report)
        elif sub == "domain3d":
            problems, want = _check_domain3d(opts, report)
        elif sub == "nonexist":
            problems, want = _check_nonexist(opts, report)
        else:
            problems, want = _check_verify(opts, report)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {exc!r}"]
    if code != want:
        problems.append(f"exit code {code}, report justifies {want}")
    return problems
