"""Each demo's stdout, run as CI runs it, against its golden text."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(ROOT, "tests", "golden", "demos")
UPDATE = os.environ.get("CAUSALGROUND_UPDATE_GOLDEN") == "1"


@pytest.mark.parametrize(
    "demo", sorted(name[:-3] for name in os.listdir(DEMOS) if name.endswith(".py"))
)
def test_demo_stdout_golden(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", os.path.join(DEMOS, f"{demo}.py")],
        capture_output=True, text=True, encoding="utf-8", env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    path = os.path.join(GOLDEN, f"{demo}.txt")
    if UPDATE:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
        return
    with open(path, encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
