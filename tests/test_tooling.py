"""The demos and the benchmark tracer against the current package, and the
package's import contract."""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import aftergate
from aftergate.cli import main

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
    # a text read or write without an encoding fails too
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error", str(script)],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


PY_FILES = sorted(path for top in ("src", "tests", "demos", "bench")
                  for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", PY_FILES,
                         ids=[str(p.relative_to(ROOT)) for p in PY_FILES])
def test_parses_as_python_3_10(path):
    # requires-python says 3.10: no grammar from a later release
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


# what the commands compute: the analytic kernels and the grid builders
_COMMAND_WORK = {"sweep_delay", "gate2_vs_delay", "contour_flux_delay",
                 "feasibility_band", "partial_attack_rates", "noise_qber",
                 "attack_histogram", "linspace", "geomspace"}
COMMAND_DEMOS = [d for d in DEMOS if 4 <= int(d.name[:2]) <= 8]


@pytest.mark.parametrize("demo", COMMAND_DEMOS,
                         ids=[d.stem for d in COMMAND_DEMOS])
def test_demo_prints_from_its_command_files(demo):
    # demos 04-08 run their commands and read the files back; computing
    # the result again in process, on a copy of a command's grid, would
    # drift from the files written beside it
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    used = {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    used |= {node.func.attr if isinstance(node.func, ast.Attribute)
             else getattr(node.func, "id", None)
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not used & _COMMAND_WORK


def _tracer():
    """bench/tracer.py's namespace, read without importing the file (so no
    bytecode is written under bench/)."""
    path = ROOT / "bench" / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _tracer_targets():
    return _tracer()["TARGETS"]


def test_tracer_targets_resolve():
    importlib.import_module("aftergate.cli")
    missing = [f"{module}.{attr}" for module, attr, *_ in _tracer_targets()
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)}
    return imported - read - {"annotations"}


MODULES = sorted(Path(SRC, "aftergate").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_unused_imports_only_serve_the_tracer(path):
    # an import nothing reads is dead code, unless the benchmark tracer
    # wraps that name in this module
    wrapped = {attr for module, attr, *_ in _tracer_targets()
               if module == f"aftergate.{path.stem}"}
    assert _unused_imports(path) <= wrapped


def test_traced_chunks_cover_every_trial(tmp_path, monkeypatch):
    # the montecarlo.run_chunk span is where the benchmark reads the
    # sampler's cost: the engine is one chain, so one span carries every
    # trial, at any --workers
    tracer = _tracer()
    for module, attr, *_ in tracer["TARGETS"]:
        module = importlib.import_module(module)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    recorder = tracer["Recorder"]()
    tracer["install"](recorder)
    trials = 2 * (1 << 16) + 1
    assert main(["--out", str(tmp_path), "--trials", str(trials),
                 "--workers", "2", "histogram"]) == 0
    chunks = [counts["trials"] for name, *_, counts in recorder.spans
              if name == "montecarlo.run_chunk"]
    assert chunks == [trials]


# today's public names: the 35 exports and their six submodules
PUBLIC = [
    "ArrheniusFit", "ConfigError", "DetectorParams", "Environment",
    "GateTiming", "K_BOLTZMANN_EV", "LifetimeExtractionError",
    "NoSignalError", "PulseSpec", "RunConfig", "TrapSpecies", "analytic_gate_probabilities", "arrhenius_fit", "attack",
    "attack_histogram", "attack_qber_at_frequency", "binary_entropy",
    "build_histogram", "characterization", "click_probability", "config",
    "contour_flux_delay", "default_config_path", "detector",
    "extract_lifetime", "feasibility", "feasibility_band", "gate2_vs_delay",
    "key_rate", "load_config", "mean_delayed", "montecarlo", "noise_qber",
    "partial_attack_rates", "qber_target", "qber_with_dd",
    "rescale_detector", "simulate_pulse_train", "sweep_delay",
    "trap_lifetime", "trap_loading"]


class TestImportContract:
    def _child(self, code):
        path = os.pathsep.join(filter(None, [SRC,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_config_path_loads_only_config_and_detector(self):
        # the benchmark's setup probe: nothing else gets compiled or run
        loaded = self._child(
            "import sys, aftergate\n"
            "aftergate.load_config(None)\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.split('.')[0] == 'aftergate'))")
        assert loaded.split() == ["aftergate", "aftergate.config",
                                  "aftergate.detector"]

    def test_all_is_pinned_and_resolves(self):
        assert sorted(aftergate.__all__) == PUBLIC
        assert all(hasattr(aftergate, name) for name in aftergate.__all__)

    def test_submodule_names_are_the_submodules(self):
        for name in ("attack", "characterization", "config", "detector",
                     "feasibility", "montecarlo"):
            assert getattr(aftergate, name) is importlib.import_module(
                f"aftergate.{name}")
        assert aftergate.sweep_delay is aftergate.attack.sweep_delay

    def test_star_import_binds_every_name(self):
        # in a child, so the package starts cold
        assert self._child(
            "from aftergate import *\n"
            "import aftergate\n"
            "print(all(globals()[n] is getattr(aftergate, n)\n"
            "          for n in aftergate.__all__))") == "True\n"

    def test_dir_lists_all(self):
        assert set(PUBLIC) | {"__all__", "__version__"} <= set(dir(aftergate))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            aftergate.no_such_name

    def test_default_config_path_is_the_package_resource(self):
        path = aftergate.default_config_path()
        assert path == Path(resources.files("aftergate").joinpath(
            "data/default.ini"))
        assert path.is_file()
