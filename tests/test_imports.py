"""The import contract: a ``repro run`` process loads only what it runs.

numpy is the package's only third-party dependency, and every experiment
runs with networkx unimportable.  The orchestrator, the device models, the
DCN and the training simulator serve only the ``cross_tor`` and ``mfu``
experiments and their CLI commands.  No capacity or scheduling run executes
the collectives, the fault-model calibrator, the i.i.d. fault model, the
fault-ratio sweep or the waste bound, so it loads none of them either.  Only
``repro.api``, ``repro.hbd``, ``repro.mc`` and ``repro.scheduler`` import
modules from their ``__init__``.  Each run test starts a fresh interpreter
with ``PYTHONPATH=src``, because this test process has long since imported
all of them.

The package graph is layered: the model layers (faults, HBD models, core
topologies, analysis) import nothing from the layers that run them, so
there is no import cycle, and every module imports first in a fresh process.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, ResultSet, run_experiment
from repro.api.spec import KNOWN_EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The experiments behind Figs. 13-16 and 20, the goodput ablation and the
#: blast-radius study.
CAPACITY_AND_SCHEDULING = (
    "waste",
    "max_job_scale",
    "fault_waiting",
    "goodput",
    "schedule",
    "blast_radius",
)

#: Modules none of those experiments executes.
NOT_LOADED_BY_A_CAPACITY_RUN = (
    "networkx",
    "repro.hardware",
    "repro.training",
    "repro.dcn",
    "repro.core.node",
    "repro.core.orchestrator",
    "repro.collectives",
    "repro.faults.calibrate",
    "repro.faults.model",
    "repro.simulation.sweeps",
    "repro.analysis.waste_bound",
)

#: Packages whose ``__init__`` holds only a docstring (``repro`` adds
#: ``__version__``).
DOCSTRING_ONLY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.analysis",
    "repro.collectives",
    "repro.control",
    "repro.cost",
    "repro.dcn",
    "repro.devtools",
    "repro.faults",
    "repro.hardware",
    "repro.simulation",
    "repro.training",
)


def small_spec(experiments, num_seeds=1):
    return {
        "scenario": {
            "name": "import-contract",
            "trace": {"days": 10, "seed": 348, "gpus_per_node": 4},
            "architectures": ["InfiniteHBD(K=2)", "NVL-72"],
            "tp_sizes": [32],
            "n_nodes": 96,
            "job_gpus": 256,
            "workload": {"n_jobs": 6, "seed": 1},
        },
        "experiments": list(experiments),
        "options": {"mfu": {"gpus": 1024}, "blast_radius": {"correlations": [0.0, 1.0]}},
        "num_seeds": num_seeds,
    }


def run_fresh(code, *args):
    """Run ``python -c code *args`` in a new interpreter; return its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()[-1]


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_every_experiment_runs_without_networkx(tmp_path):
    spec = small_spec(KNOWN_EXPERIMENTS, num_seeds=2)
    out_path = tmp_path / "results.json"
    run_fresh(
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of networkx now raises\n"
        "from repro.cli import main\n"
        "sys.exit(main(['run', '--spec', sys.argv[1], '--workers', '1',\n"
        "               '--output', sys.argv[2]]))\n",
        write_spec(tmp_path, spec),
        str(out_path),
    )
    expected = run_experiment(ExperimentSpec.from_dict(spec), max_workers=1)
    assert ResultSet.from_json(out_path.read_text()) == expected


def test_capacity_run_loads_no_orchestrator_device_dcn_or_training_code(tmp_path):
    loaded = run_fresh(
        "import json, sys\n"
        "from repro.cli import main\n"
        "assert main(['run', '--spec', sys.argv[1], '--workers', '1']) == 0\n"
        "print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))\n",
        write_spec(tmp_path, small_spec(CAPACITY_AND_SCHEDULING)),
        *NOT_LOADED_BY_A_CAPACITY_RUN,
    )
    assert json.loads(loaded) == []


@pytest.mark.parametrize("package", DOCSTRING_ONLY_PACKAGES)
def test_import_repro_loads_no_submodule(package):
    loaded = run_fresh(
        "import importlib, json, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "import repro\n"
        "print(json.dumps([repro.__version__, sorted(\n"
        "    m for m in sys.modules if m == 'repro' or m.startswith('repro.'))]))\n",
        package,
    )
    assert json.loads(loaded) == ["1.0.0", sorted({"repro", package})]


def test_every_module_imports_first():
    failed = run_fresh(
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "failed = []\n"
        "for name in names:\n"
        "    for loaded in [m for m in sys.modules if m.partition('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as error:\n"
        "        failed.append(f'{name}: {type(error).__name__}: {error}')\n"
        "print(json.dumps(failed))\n"
    )
    assert json.loads(failed) == []


#: The model layers, and the layers that run them.
MODEL_LAYERS = ("repro.faults", "repro.hbd", "repro.core", "repro.analysis")
RUNNING_LAYERS = (
    "repro.api",
    "repro.cache",
    "repro.cli",
    "repro.mc",
    "repro.scheduler",
    "repro.simulation",
)


def in_layers(module, layers):
    return any(module == layer or module.startswith(layer + ".") for layer in layers)


def repro_imports(path, module):
    """Every ``repro`` module that ``path`` imports, function-level imports included."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            imported.add(base)
            if base == "repro":  # ``from repro import api`` imports a subpackage
                imported.update(f"repro.{alias.name}" for alias in node.names)
    return {name for name in imported if name.partition(".")[0] == "repro"}


def test_model_layers_import_nothing_from_the_layers_that_run_them():
    src = REPO_ROOT / "src"
    upward = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        if in_layers(module, MODEL_LAYERS):
            upward += [
                f"{module} imports {name}"
                for name in sorted(repro_imports(path, module))
                if in_layers(name, RUNNING_LAYERS)
            ]
    assert upward == []


def third_party_imports(package_dir):
    """Top-level names of the non-stdlib modules imported under ``package_dir``."""
    names = set()
    for path in package_dir.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_declared_dependencies_are_exactly_the_imported_ones():
    import tomllib

    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in dependencies}
    assert third_party_imports(REPO_ROOT / "src" / "repro") == declared
