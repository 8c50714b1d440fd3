"""Self-test of the benchmark on a tiny job mix (about 15 s).

    python3 bench/selftest.py

Checks that
1. self times of a span and all its descendants add up to the span, on a
   synthetic tree and on every root span of a real traced run;
2. the oracle is not vacuous: a byte flipped in an artifact, a wrong L value,
   a wrong nonexistence verdict and an unjustified exit code are each flagged;
3. the tracing wrappers leave every artifact bit-identical to an untraced run.
Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import load_reference  # noqa: E402

TINY_JOBS = [
    {"id": "levelscan", "argv": ["levelscan", "--c0=1", "--t1-min=10.0", "--t1-max=10.1",
                                 "--t2-min=11.0", "--t2-max=11.2"]},
    {"id": "slab-exp", "argv": ["slab-exp", "--n-y=257", "--a-plus-profile=uniform"]},
    {"id": "three-level", "argv": ["three-level", "--n-y=65", "--j0=0.1", "--xi-const=-0.02"]},
    {"id": "domain3d", "argv": ["domain3d", "--domain=ball", "--lattice-n=12", "--f-profile=isotropic"]},
    {"id": "nonexist", "argv": ["nonexist", "--domain=ball", "--f-profile=up", "--samples=0,0,0.3;0.2,-0.1,0.5"]},
]

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def subtree_self_sums(tree) -> list:
    """(root duration, sum of self times over the root's subtree) per root span."""
    selfs = spans.self_times(tree)
    root_of = []
    for s in tree:
        root_of.append(len(root_of) if s[3] < 0 else root_of[s[3]])
    sums = {}
    for idx, r in enumerate(root_of):
        sums[r] = sums.get(r, 0.0) + selfs[idx]
    return [(tree[r][2] - tree[r][1], total) for r, total in sums.items()]


def check_span_arithmetic(traced_spans) -> None:
    synthetic = [
        ["a", 0.0, 10.0, -1, "j", 0],
        ["b", 1.0, 3.0, 0, "j", 0],
        ["c", 4.0, 8.0, 0, "j", 0],
        ["d", 5.0, 6.0, 2, "j", 0],
    ]
    expect(spans.self_times(synthetic) == [4.0, 2.0, 3.0, 1.0], "self times of a synthetic span tree")
    pairs = subtree_self_sums(traced_spans)
    worst = max(abs(dur - total) for dur, total in pairs)
    expect(worst < 1e-9, f"self times add up to each of {len(pairs)} root spans (worst gap {worst:.1e} s)")
    nested = all(
        s[3] < 0 or (traced_spans[s[3]][1] <= s[1] and s[2] <= traced_spans[s[3]][2]) for s in traced_spans
    )
    expect(nested, "every child span lies inside its parent")
    last_end = {}
    disjoint = True
    for s in traced_spans:
        disjoint &= s[1] >= last_end.get(s[3], float("-inf"))
        last_end[s[3]] = s[2]
    expect(disjoint, "sibling spans do not overlap, so child durations add")
    names = {s[0] for s in traced_spans}
    wanted = {"cli.run", "collision_reduction.triple_integral", "levelscan.scan", "slab.ray_integrate",
              "three_level.solve_three_level", "domain3d.solve_w", "domain3d.exit_distances",
              "domain3d.fftconvolve", "domain3d.nonexistence_check"}
    expect(wanted <= names, f"spans cover every layer (missing: {sorted(wanted - names)})")


def _rewrite(path: str, edit) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(data))


def check_oracle(run0, dir0, reference) -> None:
    base = bench.verify_runs(TINY_JOBS, [run0, run0], [dir0, dir0], reference)
    expect(not any(p["problems"] for p in base), "oracle passes the untouched tiny mix")

    def flagged(job_id: str, corrupt, code=None, rerun=False) -> bool:
        """Is exactly the corrupted job flagged?  With `rerun` the corrupted
        copy is checked as a second run of the clean one (artifact hashes);
        without, alone (the oracle only)."""
        bad_dir = dir0 + "-corrupt"
        shutil.rmtree(bad_dir, ignore_errors=True)
        shutil.copytree(dir0, bad_dir)
        corrupt(os.path.join(bad_dir, job_id))
        bad_run = json.loads(json.dumps(run0))
        if code is not None:
            next(j for j in bad_run["jobs"] if j["id"] == job_id)["code"] = code
        if rerun:
            found = bench.verify_runs(TINY_JOBS, [run0, bad_run], [dir0, bad_dir], reference)
        else:
            found = bench.verify_runs(TINY_JOBS, [bad_run], [bad_dir], reference)
        shutil.rmtree(bad_dir)
        hit = [p for p in found if p["problems"]]
        return len(hit) == 1 and hit[0]["run"] == int(rerun) and hit[0]["job"] == job_id

    def flip_byte(out):
        _rewrite(os.path.join(out, "radiation.csv"), lambda d: d[:1000] + bytes([d[1000] ^ 1]) + d[1001:])

    def wrong_l(out):
        def edit(data):
            lines = data.decode().splitlines(keepends=True)
            t1, t2, value = lines[3].rstrip("\n").split(",")
            lines[3] = f"{t1},{t2},{float(value) * (1 + 1e-7)!r}\n"
            return "".join(lines).encode()

        _rewrite(os.path.join(out, "grid.csv"), edit)

    def wrong_verdict(out):
        _rewrite(os.path.join(out, "report.json"), lambda d: d.replace(b'"NONEXISTENT"', b'"EXISTS_POSSIBLE"'))

    expect(flagged("slab-exp", flip_byte, rerun=True), "one flipped byte in radiation.csv is flagged")
    expect(flagged("levelscan", wrong_l), "an L value off by 1e-7 relative is flagged")
    expect(flagged("nonexist", wrong_verdict), "a wrong nonexistence verdict is flagged")
    expect(flagged("domain3d", lambda out: None, code=1), "an exit code the report does not justify is flagged")


def main() -> int:
    start = time.monotonic()
    root = os.path.join(bench.RUN_DIR, "selftest")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    env = bench._child_env()
    deadline = time.monotonic() + bench.TIME_LIMIT_S
    reference = load_reference()
    try:
        dirs = [os.path.join(root, "plain"), os.path.join(root, "traced")]
        runs = [bench._spawn(TINY_JOBS, d, t, env, deadline) for d, t in zip(dirs, (False, True))]
        problems = bench.verify_runs(TINY_JOBS, runs, dirs, reference)
        bad = [p for p in problems if p["problems"]]
        expect(not bad, f"traced run's artifacts are bit-identical to the untraced run's {bad or ''}")
        check_span_arithmetic(runs[1]["spans"])
        check_oracle(runs[0], dirs[0], reference)
    except bench.BenchError as exc:
        expect(False, f"tiny mix ran: {exc}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"{len(FAILURES)} failed, {time.monotonic() - start:.1f} s")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
