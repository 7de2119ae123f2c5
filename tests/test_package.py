"""The package's public surface: one declaration per name, loaded on first
use, and one rule for every count and every real argument."""

import ast
import itertools
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import graphmix
from graphmix import (
    DegreeSpectrum,
    Graph,
    JoinConfig,
    MixtureSequence,
    RatioSchedule,
    baseline_sqrt_predict,
    density_trajectory,
    estimate_k_finite,
    estimate_k_infinite,
    estimate_partition,
    estimate_partition_finite,
    estimate_partition_infinite,
    evaluation_run,
    expected_hub_degree,
    generate_mixture,
    parse_edge_events,
    parse_graphon,
    parse_mass_partition,
    predict_top_k,
    run_suite,
    sample_clique_labels,
    sample_w_random_graph,
    star_forest,
    retained_log_points,
    top_k_degrees,
)

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
    ("cli", "graph", "_count"),
    ("estimators", "graph", "_count"),
    ("experiments", "graph", "_count"),
    ("graphon", "graph", "_count"),
    ("linegraph", "graph", "_count"),
    ("masspartition", "graph", "_count"),
    ("mixture", "graph", "_count"),
    ("temporal", "graph", "_count"),
    ("estimators", "graph", "_real"),
    ("experiments", "graph", "_real"),
    ("masspartition", "graph", "_real"),
    ("mixture", "graph", "_real"),
    ("estimators", "graph", "_fields_equal"),
    ("graphon", "graph", "_Fresh"),
    ("linegraph", "graph", "_Fresh"),
    ("linegraph", "graph", "_graph_from_state"),
    ("masspartition", "graph", "_fields_equal"),
    ("mixture", "graph", "_distinct_sorted"),
    ("mixture", "graph", "_fields_equal"),
    ("mixture", "graph", "_Fresh"),
    ("mixture", "graph", "_graph_from_state"),
    ("mixture", "graphon", "_graph_from_latents"),
    ("temporal", "graph", "_fields_equal"),
    ("experiments", "mixture", "_round_half_up"),
    ("experiments", "mixture", "_sparse_edge_count"),
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


def python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter on args with this checkout's graphmix importable."""
    src = str(pathlib.Path(graphmix.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def test_cli_import_leaves_the_process_pool_unloaded():
    # only run_suite with workers > 1 needs concurrent.futures.process
    code = "import sys, graphmix.cli; print('concurrent.futures.process' in sys.modules)"
    run = python("-c", code)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


def test_package_loads_its_modules_on_first_use():
    code = """if True:
        import sys

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("graphmix."))

        import graphmix
        print(loaded())
        from graphmix import Graph
        print(loaded())
        # a later module's name loads the modules ahead of its owner too
        from graphmix import parse_edge_events
        print(loaded())
        namespace = {}
        exec("from graphmix import *", namespace)
        print(sorted(set(namespace) - {"__builtins__"}) == graphmix.__all__, len(graphmix.__all__))
        try:
            graphmix.nope
        except AttributeError as exc:
            print(exc)
    """
    run = python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "[]",
        "['graphmix.graph']",
        "['graphmix.estimators', 'graphmix.graph', 'graphmix.graphon', 'graphmix.linegraph',"
        " 'graphmix.masspartition', 'graphmix.mixture', 'graphmix.temporal']",
        "True 57",
        "module 'graphmix' has no attribute 'nope'",
    ]


def test_console_entry_writes_the_fixture_and_fails_in_one_line(tmp_path):
    # cli.entry is the console script's function; -m runs it as the script does
    run = python("-m", "graphmix.cli", "--seed", "0", "--out", str(tmp_path), "fixture")
    assert run.returncode == 0, run.stderr
    bundled = pathlib.Path(__file__).parent / "data" / "synthetic_growth.events"
    assert (tmp_path / "synthetic_growth.events").read_bytes() == bundled.read_bytes()
    run = python("-m", "graphmix.cli", "estimate", "--input", str(tmp_path / "missing.edges"))
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


def _reads(tree) -> set:
    """The bare names a module reads, and the strings its __all__ lists."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def _defined(node) -> list:
    """The names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(node, ast.AnnAssign):
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    return []


def test_no_dead_private_names_or_unused_imports():
    # a module-level _name that nothing in the package reads, or an import
    # its own module never uses, is code a change left behind
    root = pathlib.Path(graphmix.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    read_anywhere = set().union(*map(_reads, trees.values()))
    dead = []
    for stem, tree in trees.items():
        dead += [
            (stem, name)
            for node in tree.body
            for name in _defined(node)
            if name.startswith("_") and not name.startswith("__") and name not in read_anywhere
        ]
        read_here = _reads(tree)
        dead += [
            (stem, "import " + alias.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
            and (alias.asname or alias.name.partition(".")[0]) not in read_here
        ]
    assert dead == []


U = parse_mass_partition("mass:[0.5,0.3]")
W = parse_graphon("const:0.5")
SPECTRUM = DegreeSpectrum([3, 2, 2, 1])
EVENTS = parse_edge_events(["a b 1", "b c 2", "c a 3"])
SCHEDULE = RatioSchedule(base_n_d=5)


def rng():
    return np.random.default_rng(0)


# each count argument -> (a call passing value as that count, the name its
# error gives, the least count it takes)
COUNTS = {
    "Graph.node_count": (lambda v: Graph(v), "node_count", 0),
    "star_forest.isolated_edges": (lambda v: star_forest([2], v), "isolated_edges", 0),
    "top_k_degrees.k": (lambda v: top_k_degrees(SPECTRUM, v), "k", 1),
    "sample_w_random_graph.n": (lambda v: sample_w_random_graph(W, v, rng()), "n", 1),
    "sample_clique_labels.m": (lambda v: sample_clique_labels(U, v, rng()), "m", 1),
    "expected_hub_degree.m_s": (lambda v: expected_hub_degree(0.5, v, 3, 4), "m_s", 1),
    "expected_hub_degree.m_new": (lambda v: expected_hub_degree(0.5, 3, v, 4), "m_new", 0),
    "expected_hub_degree.n_s": (lambda v: expected_hub_degree(0.5, 3, 3, v), "n_s", 1),
    "generate_mixture.n_dense": (lambda v: generate_mixture(U, W, v, 5, rng=rng()), "n_dense", 1),
    "generate_mixture.m_sparse": (
        lambda v: generate_mixture(U, W, 5, v, rng=rng()), "m_sparse", 1
    ),
    "MixtureSequence.sizes.n_dense": (lambda v: MixtureSequence(U, W, [(v, 5)]), "n_dense", 1),
    "MixtureSequence.sizes.m_sparse": (lambda v: MixtureSequence(U, W, [(5, v)]), "m_sparse", 1),
    "RatioSchedule.base_n_d": (lambda v: RatioSchedule(base_n_d=v), "schedule base_n_d", 1),
    "RatioSchedule.sizes_for.steps": (lambda v: SCHEDULE.sizes_for(U, v), "steps", 1),
    "RatioSchedule.ratio.i": (lambda v: SCHEDULE.ratio(v), "i", 1),
    "RatioSchedule.n_dense.i": (lambda v: SCHEDULE.n_dense(v), "i", 1),
    "density_trajectory.steps": (
        lambda v: density_trajectory(U, W, SCHEDULE, v, seed=0), "steps", 2
    ),
    "predict_top_k.n_train": (lambda v: predict_top_k([3, 2], v, 8), "n_train", 1),
    "predict_top_k.n_test": (lambda v: predict_top_k([3, 2], 4, v), "n_test", 1),
    "baseline_sqrt_predict.n_train": (
        lambda v: baseline_sqrt_predict([3, 2], v, 8), "n_train", 1
    ),
    "run_suite.replicates": (
        lambda v: run_suite("table1:finiteU", replicates=v, scale=0.03, experiments=(1,)),
        "replicates",
        1,
    ),
    "run_suite.workers": (
        lambda v: run_suite(
            "table1:finiteU", replicates=1, scale=0.03, experiments=(1,), workers=v
        ),
        "workers",
        1,
    ),
    "evaluation_run.k": (lambda v: evaluation_run(EVENTS, [1], [1], v), "k", 1),
}


@pytest.mark.parametrize("call, name, low", COUNTS.values(), ids=COUNTS)
def test_every_count_argument_takes_only_integers(call, name, low):
    # a float is refused, not truncated: 20.9 must not make 20 dense nodes
    for value in (2.5, 20.9, True, np.True_, "3", low - 1, np.int64(low - 1)):
        message = f"{name} must be an integer >= {low}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    call(np.int64(max(low, 1)))
    call(np.uint8(max(low, 1)))


# a spectrum every percentile estimator can read at the accepted values
RICH = DegreeSpectrum([2**j for j in range(1, 20)] + [1] * 40)
PERCENTILE = ("in [0, 100]", (-1, -0.5, 100.5), (0, np.int64(50), np.float64(12.5)))


def suite(scale):
    return run_suite("table1:finiteU", replicates=1, scale=scale, experiments=(1,))


# each real argument -> (a call passing value as it, the name its error
# gives, the span it must lie in, values outside the span, values inside)
REALS = {
    "estimate_k_finite.percentile": (
        lambda v: estimate_k_finite(RICH, v), "percentile", *PERCENTILE
    ),
    "estimate_partition_finite.percentile": (
        lambda v: estimate_partition_finite(RICH, v), "percentile", *PERCENTILE
    ),
    "retained_log_points.percentile": (
        lambda v: retained_log_points(RICH, v), "percentile", *PERCENTILE
    ),
    "estimate_k_infinite.percentile": (
        lambda v: estimate_k_infinite(RICH, v), "percentile", *PERCENTILE
    ),
    "estimate_partition_infinite.percentile": (
        lambda v: estimate_partition_infinite(RICH, v), "percentile", *PERCENTILE
    ),
    "estimate_partition.percentile": (
        lambda v: estimate_partition(RICH, percentile=v), "percentile", *PERCENTILE
    ),
    "run_suite.scale": (suite, "scale", "> 0", (0, -0.5), (np.float64(0.03), 0.03)),
    "expected_hub_degree.p_j": (
        lambda v: expected_hub_degree(v, 3, 3, 4), "p_j", "in (0, 1]", (0, -0.5, 1.5), (1, 0.5)
    ),
    "JoinConfig.edge_multiplier_c": (
        lambda v: JoinConfig(v), "edge_multiplier_c", ">= 0", (-0.1, 10**400), (0, np.float64(1.5))
    ),
    "RatioSchedule.a": (
        lambda v: RatioSchedule(a=v), "schedule a", "> 0", (0, -1.0, 10**400), (np.float32(2.5), 3)
    ),
}


@pytest.mark.parametrize("call, name, span, outside, inside", REALS.values(), ids=REALS)
def test_every_real_argument_takes_only_finite_numbers(call, name, span, outside, inside):
    # a bool is not 1.0 and a string is not parsed
    for value in (True, np.True_, "0.5", float("nan"), float("inf"), *outside):
        message = f"{name} must be a finite number {span}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    for value in inside:
        call(value)
