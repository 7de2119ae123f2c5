"""The package's public surface: one declaration per name."""

import ast
import itertools
import os
import pathlib
import subprocess
import sys

import graphmix

MODULES = (
    graphmix.estimators,
    graphmix.experiments,
    graphmix.graph,
    graphmix.graphon,
    graphmix.linegraph,
    graphmix.masspartition,
    graphmix.mixture,
    graphmix.temporal,
)


def test_no_name_in_two_module_all_lists():
    # star re-exports would let a later module shadow an earlier one
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_package_exports_every_module_name():
    names = [n for m in MODULES for n in m.__all__]
    assert graphmix.__all__ == sorted(names)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(graphmix, name) is getattr(m, name)


# every import of a _-prefixed name from another graphmix module; a new
# one is added here on purpose, naming the one module that owns the name
PRIVATE_IMPORTS = {
    ("mixture", "graph", "_distinct_sorted"),
    ("mixture", "graph", "_Fresh"),
    ("mixture", "graphon", "_graph_from_latents"),
    ("experiments", "mixture", "_round_half_up"),
}


def test_private_names_cross_modules_only_by_allowlist():
    found = set()
    for path in pathlib.Path(graphmix.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("graphmix")
            ):
                source = (node.module or "").rpartition(".")[2]
                found |= {
                    (path.stem, source, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    assert found == PRIVATE_IMPORTS


def test_cli_import_leaves_the_process_pool_unloaded():
    # only run_suite with workers > 1 needs concurrent.futures.process
    src = str(pathlib.Path(graphmix.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, graphmix.cli; print('concurrent.futures.process' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
