"""Each script under ``tools/`` starts and prints its help.

The tools share helpers by import, so a broken shared name shows up
here rather than at the start of a long benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))


@pytest.mark.parametrize("tool", TOOLS, ids=[t.name for t in TOOLS])
def test_tool_prints_help(tool):
    proc = subprocess.run([sys.executable, str(tool), "--help"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
