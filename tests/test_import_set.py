"""Importing the library and running a single-process campaign load no
process-pool machinery and no C kernel: ``concurrent.futures`` and
``multiprocessing`` come in only when a campaign runs with more than one
worker, and ``ctypes`` and the compiler only at the first exact search,
which naming the kernel backend does not start."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ONE_WORKER_RUN = '''
import json, sys
import incolour, incolour.cli
from incolour import kernel
from incolour.families import FamilySpec
from incolour.harness import FuzzCampaign, run_campaign

report = run_campaign(FuzzCampaign(instances=(FamilySpec("cycle", {"n": 5}),),
                                   trials=2, workers=1))
assert report.total_failures == 0, report
assert kernel._c_search is None, "the C kernel was loaded"
assert kernel.backend_name() is None, "no search ran"
print(json.dumps(sorted(sys.modules)))
'''


def test_import_and_one_worker_campaign_load_no_process_pool(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["HOME"] = str(tmp_path)    # where a build would make its cache
    run = subprocess.run([sys.executable, "-c", ONE_WORKER_RUN],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    modules = json.loads(run.stdout.strip().splitlines()[-1])
    assert {"incolour.harness", "incolour.cli", "incolour.kernel"} <= set(modules)
    pool = [m for m in modules if m.startswith(("concurrent.futures", "multiprocessing"))]
    assert pool == []
    assert [m for m in modules if m.startswith("ctypes")] == []
    assert "incolour._ckernel" not in modules
    assert list(tmp_path.iterdir()) == []
