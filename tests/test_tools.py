"""Each script under ``tools/`` starts and prints its help, the output
contract's file comparison gives its verdicts on fixed bytes, and the
paired benchmark's summaries, which decide every claim, hold on fixed runs.

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

from bench_pairs import compare, stats  # noqa: E402  (needs tools/ on the path)
from output_contract import difference  # noqa: E402


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


def test_bench_pairs_stats():
    # statistics.quantiles' default (exclusive) quartiles of 1..5
    assert stats([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "iqr_over_median": 1.0}
    assert stats([0.0, 0.0, 0.0])["iqr_over_median"] == 0.0


@pytest.mark.parametrize("better, change, worse_by, won", [
    # lower is better: a higher change median is worse, so positive
    ("lower", [1.0, 5.0, 6.0, 9.0], 0.5 / 5.0, 1),
    ("lower", [1.0, 3.0, 6.0, 7.0], -0.5 / 5.0, 3),
    # higher is better: a lower change median is worse, so positive
    ("higher", [1.0, 3.0, 6.0, 7.0], 0.5 / 5.0, 0),
    ("higher", [3.0, 5.0, 6.0, 7.0], -0.5 / 5.0, 2),
], ids=["lower-worse", "lower-better", "higher-worse", "higher-better"])
def test_bench_pairs_compare(better, change, worse_by, won):
    # the third pair is tied (6.0 against 6.0): it counts for neither side
    parent = [2.0, 4.0, 6.0, 8.0]
    spec = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    got = compare(spec, parent, change)
    assert got["change_worse_by"] == pytest.approx(worse_by, rel=1e-12)
    assert (got["change_better_pairs"], got["tied_pairs"]) == (won, 1)
    assert (got["unit"], got["better"], got["bound"]) == ("s", better, 0.25)
    assert got["parent"] == stats(parent) and got["change"] == stats(change)
    assert (got["parent_runs"], got["change_runs"]) == (parent, change)
