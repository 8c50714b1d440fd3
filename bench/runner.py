"""One run process: import radgas.cli, then execute a job list one job at a time.

Started fresh for every run, from the checkout root, as

    python3 bench/runner.py <run.json> <result.json>

``run.json`` holds ``{"jobs": [...], "run_dir": ..., "trace": bool}``; each
job's artifacts go to ``<run_dir>/<job id>``, passed to the CLI as the relative
``--out <job id>`` so that the manifests of two runs of one job are identical.
With no jobs the process only measures its own start-up.  The result file
holds the start-up timestamp, per-job wall times and exit codes, the batch's
wall and CPU time, peak RSS, library versions and, when traced, the spans.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import radgas.cli  # noqa: E402  (start-up ends here; the parent times it)

READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "radgas_file": radgas.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    os.makedirs(spec["run_dir"], exist_ok=True)
    os.chdir(spec["run_dir"])
    jobs = []
    with open("cli.log", "w") as log:
        cpu0, wall0 = _cpu(), time.perf_counter()
        for job in spec["jobs"]:
            if tracer is not None:
                tracer.job = job["id"]
            t0 = time.perf_counter()
            error = None
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = radgas.cli.main(job["argv"] + ["--out", job["id"]])
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a job that raises is counted as failed
                code, error = None, traceback.format_exc()
            jobs.append({"id": job["id"], "wall_s": time.perf_counter() - t0, "code": code, "error": error})
        wall = time.perf_counter() - wall0
        cpu = _cpu() - cpu0
    result = {
        "ready": READY,
        "jobs": jobs,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
