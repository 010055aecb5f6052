"""The benchmark's own smoke run: every workload at its smoke size, traced
and untraced, with its output checks against the dense reference code."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert lines, proc.stderr[-4000:]
    assert json.loads(lines[-1])["smoke"] == "ok", proc.stderr[-4000:]
