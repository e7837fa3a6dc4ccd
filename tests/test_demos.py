"""Every script under demos/, and README's Python quick start, runs to
completion from a source checkout; every benchmark record README cites
exists."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _assert_python_exits_0(args: list[str], cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    _assert_python_exits_0([str(demo)], tmp_path)


def test_readme_quick_start_exits_0(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    _assert_python_exits_0(["-c", blocks[0]], tmp_path)


def test_every_bench_file_readme_cites_exists():
    cited = set(re.findall(r"BENCH_\d+\.json", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert cited
    assert sorted(name for name in cited if not (ROOT / name).is_file()) == []
