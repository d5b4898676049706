import os
import subprocess
import sys
from pathlib import Path

import pytest

import revivalwalk

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    # The scripts import from the top level, so they fail if it drops a name they use.
    package_root = str(Path(revivalwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS, "no demo scripts collected"


def test_readme_quick_start_prints_the_period(tmp_path):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start")[1]
    code = section.split("```python\n")[1].split("```")[0]
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3"]
