"""Tests of the production-caller lint (``scripts/check_production_callers.py``)."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LINT = Path("scripts") / "check_production_callers.py"


def _lint(root):
    return subprocess.run([sys.executable, str(root / LINT)],
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def tree(tmp_path):
    """A copy of the files the lint reads: the package and every caller."""
    ignore = shutil.ignore_patterns("__pycache__", "results")
    for rel in ("src/repro", "benchmarks", "examples", "perfbench",
                "scripts"):
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=ignore)
    (tmp_path / "tests").mkdir()
    for path in ROOT.glob("tests/reference_*.py"):
        shutil.copy(path, tmp_path / "tests" / path.name)
    return tmp_path


def test_repository_passes():
    result = _lint(ROOT)
    assert result.returncode == 0, result.stderr


def test_planted_function_called_only_by_a_test_fails(tree):
    with open(tree / "src/repro/units.py", "a") as fh:
        fh.write('\n\ndef planted_helper():\n    """Nothing calls this."""\n')
    (tree / "tests/test_planted.py").write_text(
        "from repro.units import planted_helper\n\n\n"
        "def test_it():\n    planted_helper()\n")
    result = _lint(tree)
    assert result.returncode == 1
    assert "function planted_helper has no production caller" in result.stderr


def test_planted_function_with_a_production_caller_passes(tree):
    with open(tree / "src/repro/units.py", "a") as fh:
        fh.write('\n\ndef planted_helper():\n    """Called below."""\n')
    with open(tree / "examples/quickstart.py", "a") as fh:
        fh.write("\nfrom repro.units import planted_helper\n"
                 "planted_helper()\n")
    result = _lint(tree)
    assert result.returncode == 0, result.stderr


def _plant_knob(tree, call):
    with open(tree / "src/repro/serve/registry.py", "a") as fh:
        fh.write('\n\ndef planted_knob(name, depth=3):\n'
                 '    """Called below."""\n')
    with open(tree / "examples/quickstart.py", "a") as fh:
        fh.write(f"\nfrom repro.serve.registry import planted_knob\n{call}\n")


def test_planted_knob_nothing_sets_fails(tree):
    _plant_knob(tree, 'planted_knob("x")')
    result = _lint(tree)
    assert result.returncode == 1
    assert "option planted_knob(depth=) is never set" in result.stderr


@pytest.mark.parametrize("call", ['planted_knob("x", depth=2)',
                                  'planted_knob("x", 2)'])
def test_planted_knob_set_by_keyword_or_position_passes(tree, call):
    _plant_knob(tree, call)
    result = _lint(tree)
    assert result.returncode == 0, result.stderr
