"""The benchmark's tracing hooks still find the functions they wrap.

`bench/spans.py` wraps radgas functions by name, so a rename in the library
would otherwise surface only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = [
    {"id": "domain3d", "argv": ["domain3d", "--domain=ball", "--lattice-n=12", "--f-profile=isotropic"]},
    {"id": "nonexist", "argv": ["nonexist", "--domain=ball", "--f-profile=up", "--samples=0,0,0.3;0.2,-0.1,0.5"]},
]


def test_traced_run_records_domain3d_spans(tmp_path):
    spec, result = tmp_path / "run.json", tmp_path / "result.json"
    spec.write_text(json.dumps({"jobs": JOBS, "run_dir": str(tmp_path / "run"), "trace": True}))
    runner = os.path.join(ROOT, "bench", "runner.py")
    subprocess.run([sys.executable, runner, str(spec), str(result)], cwd=ROOT, check=True, timeout=300)
    out = json.loads(result.read_text())
    assert [job["error"] for job in out["jobs"]] == [None, None]
    names = {span[0] for span in out["spans"]}
    assert {"domain3d.solve_w", "domain3d.exit_distances", "domain3d.fftconvolve",
            "domain3d.nonexistence_check"} <= names
