"""The demos and the benchmark tracer against the current package."""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import aftergate

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(aftergate.__file__).resolve().parents[1])
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_collected():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    # a copy, so its out/ directory lands in tmp_path
    script = Path(shutil.copy(demo, tmp_path))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(script)],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _tracer_targets():
    """bench/tracer.py's TARGETS, read without importing the file (so no
    bytecode is written under bench/)."""
    path = ROOT / "bench" / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["TARGETS"]


def test_tracer_targets_resolve():
    importlib.import_module("aftergate.cli")
    missing = [f"{module}.{attr}" for module, attr, *_ in _tracer_targets()
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
