"""radgas benchmark: batch job lists driven through ``radgas.cli.main``.

    python3 bench/run.py --workload scan|transport|volume|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each run is a fresh Python process
(``bench/runner.py``) that imports ``radgas.cli`` from ``src/`` and executes
the workload's job list one job after another: a closed loop with one client,
which pays the import and the lazy quadrature-grid set-up a CLI user pays.
The number of runs is the requested seconds over the workload's nominal batch
time, at least two, so every job runs twice and its artifacts can be compared
byte for byte.  One extra process only imports the library, to time set-up.

With ``--trace 0`` every run is untraced and the end-to-end metrics are
printed; with ``--trace 1`` runs alternate untraced and traced (spans from
``bench/spans.py``) and the per-layer metrics are printed, with the tracing
overhead.  The last line of standard output is the JSON result; the full
record (environment, per-run data, problems, spans) goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".bench_run")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s
SETUP_PROBES = 1

sys.path.insert(0, HERE)
import spans  # noqa: E402
from workloads import NOMINAL_BATCH_S, WORKLOADS, check_job, load_reference, make_jobs  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    """Environment of a run process: one BLAS thread.

    On a host of a few shared cores a second BLAS thread bought no wall time
    (the dense solves are small) but burned CPU and tied the run to a second
    core that other tenants also use.
    """
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(jobs: list, run_dir: str, trace: bool, env: dict, deadline: float) -> dict:
    """Run one fresh process over `jobs`; returns its result plus ``setup_s``."""
    os.makedirs(run_dir)
    spec_path, result_path = run_dir + ".json", run_dir + ".result.json"
    with open(spec_path, "w") as fh:
        json.dump({"jobs": jobs, "run_dir": run_dir, "trace": trace}, fh)
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), spec_path, result_path]
    with open(run_dir + ".log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"run in {run_dir} exceeded the {TIME_LIMIT_S:.0f} s limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(run_dir + ".log") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"run process exited with {code}:\n{tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - start
    src = os.path.join(ROOT, "src") + os.sep
    if not result["versions"]["radgas_file"].startswith(src):
        raise BenchError(f"radgas imported from {result['versions']['radgas_file']}, not {src}")
    return result


def _hash_dir(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def verify_runs(jobs: list, runs: list, run_dirs: list, reference: dict) -> list:
    """Problems per (run, job): oracle failures and artifacts that differ from run 0."""
    problems = []
    first_hashes = {}
    for k, (run, run_dir) in enumerate(zip(runs, run_dirs)):
        for job, rec in zip(jobs, run["jobs"]):
            out = os.path.join(run_dir, job["id"])
            found = check_job(job["argv"], out, rec["code"], reference)
            if rec["error"]:
                found.append(rec["error"].strip().splitlines()[-1])
            if os.path.isdir(out):
                hashes = _hash_dir(out)
                if k == 0:
                    first_hashes[job["id"]] = hashes
                elif hashes != first_hashes.get(job["id"]):
                    found.append("artifacts differ from the first run of this job")
            problems.append({"run": k, "job": job["id"], "argv": job["argv"], "problems": found})
    return problems


def _artifact_totals(run_dir: str, jobs: list) -> tuple:
    """(report.json payloads by subcommand, {"bytes", "rows"}) of one run."""
    reports, size, rows = {}, 0, 0
    for job in jobs:
        out = os.path.join(run_dir, job["id"])
        try:
            for name in os.listdir(out):
                size += os.path.getsize(os.path.join(out, name))
            with open(os.path.join(out, "report.json")) as fh:
                reports.setdefault(job["argv"][0], []).append(json.load(fh))
            with open(os.path.join(out, "manifest.json")) as fh:
                rows += sum(a["rows"] or 0 for a in json.load(fh)["artifacts"])
        except OSError:  # a failed job; verify_runs has counted it
            continue
    return reports, {"bytes": size, "rows": rows}


def _environment(versions: dict, env: dict) -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: env[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "mem_total_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "cpu_model": None,
        "git_sha": None,
        "git_dirty": None,
        **{k: v for k, v in versions.items() if k != "radgas_file"},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            info["git_dirty"] = bool(dirty.stdout.strip())
    return info


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload; returns (result line, full record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    jobs = make_jobs(workload, seed)
    n_runs = max(2, round(seconds / NOMINAL_BATCH_S[workload]))
    traced = [trace and k % 2 == 1 for k in range(n_runs)]
    reference = load_reference()
    env = _child_env()
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)

    probes = [_spawn([], os.path.join(RUN_DIR, f"probe{k}"), False, env, deadline) for k in range(SETUP_PROBES)]
    run_dirs = [os.path.join(RUN_DIR, f"run{k}") for k in range(n_runs)]
    runs = [_spawn(jobs, d, t, env, deadline) for d, t in zip(run_dirs, traced)]

    problems = verify_runs(jobs, runs, run_dirs, reference)
    attempted = len(problems)
    failed = sum(1 for p in problems if p["problems"])
    plain = [r for r, t in zip(runs, traced) if not t]
    if trace:
        per_run = []
        for run, run_dir, t in zip(runs, run_dirs, traced):
            if t:
                reports, artifacts = _artifact_totals(run_dir, jobs)
                per_run.append(spans.layer_metrics(run["spans"], reports, artifacts))
        values = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        values["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r, t in zip(runs, traced) if t
        ) - statistics.median(r["wall_s"] for r in plain)
        metrics = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in values.items()}
    else:
        # Each job's median wall time over the runs, then percentiles across
        # the jobs: a burst of load on the host during one job run then sets
        # no percentile, as it would in a pool of all job runs.
        per_job = sorted(statistics.median(r["jobs"][i]["wall_s"] for r in runs) for i in range(len(jobs)))
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            # the lower middle job: with an even count the mean of the two
            # middle ones would mix two job kinds in the volume workload
            "job_p50_s": statistics.median_low(per_job),
            "job_p90_s": statistics.quantiles(per_job, n=10, method="inclusive")[-1],
            "setup_s": statistics.median(r["setup_s"] for r in probes + runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": _environment(runs[0]["versions"], env),
        "jobs": jobs,
        "runs": [
            {k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "jobs", "spans")} | {"traced": t}
            for r, t in zip(runs, traced)
        ],
        "setup_samples_s": [r["setup_s"] for r in probes + runs],
        "problems": [p for p in problems if p["problems"]],
        "result": line,
    }
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh)
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    return line, record


def _print_summary(record: dict) -> None:
    line = record["result"]
    env = record["environment"]
    print(f"== {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{len(record['runs'])} runs x {len(record['jobs'])} jobs, "
          f"{line['failed']} of {line['attempted']} job runs failed")
    print(f"   python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')} threads {env['blas_threads']} "
          f"nproc {env['nproc']} cpu {env['cpu_model']!r} mem {env['mem_total_gb']:.1f} GB "
          f"git {env['git_sha']} dirty {env['git_dirty']}")
    for name, m in line["metrics"].items():
        extra = (f"  (n = {len(record['jobs'])} jobs, each the median of {len(record['runs'])} runs)"
                 if name in ("job_p50_s", "job_p90_s") else "")
        print(f"   {name:48s} {m['value']:>16.6g} {m['unit']}{extra}")
    for p in record["problems"]:
        print(f"   FAILED run {p['run']} {p['job']} {' '.join(p['argv'])}: {'; '.join(p['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "radgas", "cli.py")):
        print(f"bench: no radgas sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            lines[name], record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_summary(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
