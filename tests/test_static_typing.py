"""Static typing gates: the ``py.typed`` marker and the mypy strict split.

The CI ``static-analysis`` job runs mypy/ruff from ``requirements-dev.txt``;
these tests re-run the same commands so the gate is reproducible locally,
and skip cleanly when the pinned tools are not installed (the runtime
environment only needs numpy).
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules [tool.mypy] holds to ``--strict`` (everything else is parked
#: behind per-module ``ignore_errors`` until its PR flips it on).
STRICT_TARGETS = (
    "repro.faults.timeline",
    "repro.faults.events",
    "repro.api",
    "repro.scheduler",
    "repro.hbd.base",
    "repro.hbd.registry",
    "repro.analysis",
    "repro.mc",
    "repro.cache",
    "repro.cli",
)


def test_py_typed_marker_ships_with_the_package():
    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'repro = ["py.typed"]' in pyproject


def test_pyproject_keeps_strict_targets_out_of_ignore_errors():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    start = pyproject.index("[tool.mypy]")
    mypy_section = pyproject[start:]
    for target in STRICT_TARGETS:
        assert f'"{target}"' not in mypy_section, (
            f"strict target {target} must not appear in the mypy overrides"
        )


def test_mypy_strict_split_is_clean():
    if importlib.util.find_spec("mypy") is None:
        pytest.skip("mypy not installed (pinned in requirements-dev.txt)")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "-p", "repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ruff_check_and_format_are_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed (pinned in requirements-dev.txt)")
    for argv in (["ruff", "check", "src"], ["ruff", "format", "--check", "src"]):
        proc = subprocess.run(argv, cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, " ".join(argv) + "\n" + proc.stdout + proc.stderr
