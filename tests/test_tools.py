"""Each script under ``tools/`` starts and prints its help, and the
output contract's file comparison gives its verdicts on fixed bytes.

The tools share helpers by import, so a broken shared name shows up
here rather than at the start of a long benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))
sys.path.insert(0, str(ROOT / "tools"))

from output_contract import difference  # noqa: E402  (needs tools/ on the path)


@pytest.mark.parametrize("tool", TOOLS, ids=[t.name for t in TOOLS])
def test_tool_prints_help(tool):
    proc = subprocess.run([sys.executable, str(tool), "--help"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("parent, change, verdict", [
    (b'{"a": [1, 2.5e-3]}', b'{"a": [1, 2.5e-3]}', "identical"),
    # the worst of the changed numbers, relative to the larger magnitude
    (b'{"a": [1.0, 2.0, 8]}', b'{"a": [1.0, 2.5, 9]}',
     f"worst relative difference {0.5 / 2.5:.3g}"),
    (b'{"a": [1.0, 2.0]}', b'{"a": [1.0, -4.0]}', "worst relative difference 1.5"),
    (b'{"a": 1.0}', b'{"b": 1.0}', "differs"),
    (b"[1, 2]", b"[1, 2, 3]", "differs"),
    # the same text once numbers are masked, but not as many numbers
    (b"# 1", b"1 1", "differs"),
    (b"\xff 1.0", b"\xff 2.0", "differs"),
], ids=["identical", "changed-floats", "changed-sign", "changed-text",
        "extra-number", "masked-text-equal", "not-utf8"])
def test_output_contract_difference(parent, change, verdict):
    assert difference(parent, change) == verdict
