"""The benchmark harness must keep running against the current sources.

Runs ``python3 perfbench/run.py --smoke``: one small job per workload,
each checked by its oracle (about ten seconds).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
