"""The public surface: fuzzrel.__all__ and the README's quick start."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import fuzzrel

ROOT = Path(__file__).resolve().parents[1]


def test_all_has_no_duplicates():
    assert len(set(fuzzrel.__all__)) == len(fuzzrel.__all__)


def test_every_exported_name_resolves():
    for name in fuzzrel.__all__:
        assert hasattr(fuzzrel, name), name


def test_all_is_the_public_non_module_attributes():
    public = {
        name
        for name, value in vars(fuzzrel).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(fuzzrel.__all__) == public


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    assert block, "README has no python block under 'Library quick start'"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", block.group(1)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
