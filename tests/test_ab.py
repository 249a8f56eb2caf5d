import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tree_against_itself_is_identical():
    # two imports of the same tree must agree to the bit on every task
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--a", src, "--b", src,
         "--n", "250", "--seeds", "0", "1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    summary = json.loads(lines[-1])["tasks"]
    assert list(summary) == ["solve_1e-6", "solve_1e-8", "ispadmm"]
    for task in summary.values():
        assert task["identical"] and task["pairs"] == 2
        assert len(task["ratios"]) == 2 and task["median"] > 0
    assert sum("identical" in line and "seed" in line for line in lines) == 6
