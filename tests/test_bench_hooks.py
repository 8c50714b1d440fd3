"""The benchmark's tracing hooks still find the functions they wrap.

`bench/spans.py` wraps radgas functions by name and reads the work of some
calls from their arguments (`WORK`: a slab solver's `grid` is its second
positional argument, `triple_integral`'s `spec` its third), so a rename in the
library or a changed call shape in a runner would otherwise surface only in a
traced benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from spans import WORK  # noqa: E402

# one small job per subcommand
JOBS = [
    {"id": "levelscan", "argv": ["levelscan", "--t1-max=10.2", "--t2-max=10.2", "--n-r=16"]},
    {"id": "slab-lte", "argv": ["slab-lte", "--n-y=33", "--n-mu=16"]},
    {"id": "slab-exp", "argv": ["slab-exp", "--n-y=33", "--n-mu=16"]},
    {"id": "domain3d", "argv": ["domain3d", "--domain=ball", "--lattice-n=12", "--f-profile=isotropic"]},
    {"id": "nonexist", "argv": ["nonexist", "--domain=ball", "--f-profile=up", "--samples=0,0,0.3;0.2,-0.1,0.5"]},
    {"id": "three-level", "argv": ["three-level", "--n-y=33", "--n-mu=16"]},
    {"id": "verify", "argv": ["verify", "--n-samples=10000", "--n-tuples=2000"]},
]
#: WORK entries no subcommand calls: radgas no longer has these functions;
#: `verify` takes the conservation, mass-exchange and kernel-of-L estimates
#: from one kinetic.verify_checks pass.
NOT_CALLED = {"kinetic.mc_conservation", "kinetic.mass_exchange_estimate", "kinetic.kernel_of_L_check"}


def test_traced_run_records_every_counted_span(tmp_path):
    spec, result = tmp_path / "run.json", tmp_path / "result.json"
    spec.write_text(json.dumps({"jobs": JOBS, "run_dir": str(tmp_path / "run"), "trace": True}))
    runner = os.path.join(ROOT, "bench", "runner.py")
    subprocess.run([sys.executable, runner, str(spec), str(result)], cwd=ROOT, check=True, timeout=300)
    out = json.loads(result.read_text())
    assert [(job["id"], job["error"], job["code"]) for job in out["jobs"]] == [
        (job["id"], None, 1 if job["id"] == "nonexist" else 0) for job in JOBS
    ]
    names = {span[0] for span in out["spans"]}
    assert {"domain3d.solve_w", "domain3d.exit_distances", "domain3d.fftconvolve",
            "domain3d.nonexistence_check"} <= names
    worked = {span[0] for span in out["spans"] if span[5] > 0}
    assert set(WORK) - NOT_CALLED - worked == set()
    # the boundary sweep and the reconstruction of h; M_src needs no sweep
    spans = out["spans"]

    def under_solve(span):
        while span[3] >= 0:
            span = spans[span[3]]
            if span[0] == "three_level.solve_three_level":
                return True
        return False

    assert sum(span[0] == "slab.ray_integrate" and under_solve(span) for span in spans) == 2
