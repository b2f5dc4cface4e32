"""Smoke test for the demo scripts: each runs to its closing verdict."""
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, closing", [
    ("group_demo.py", r"^group verdict: True\b"),
    ("identity_sweep.py", r"\b0 failures$"),
    ("kan_classify.py", r"^groupoid nerve: True$"),
])
def test_demo_script_runs(script, closing):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any(re.search(closing, line) for line in lines[-2:]), done.stdout
