"""Each narrative demo, and README's library quickstart, runs to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    result = run_python(["-c", blocks[0]])
    assert result.returncode == 0, result.stderr
    # each print whose line ends in a comment shows the line it prints
    shown = re.findall(r"^\s*print\(.*\)\s+# (.*)$", blocks[0], flags=re.MULTILINE)
    assert shown and set(shown) <= set(result.stdout.splitlines())
