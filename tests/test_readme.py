"""README.md as a test: every Python example runs as written, and the
README's commands and examples, run in order, reach every function of the
package that LIBRARY_ONLY does not pin to a test."""

import ast
import contextlib
import io
import os
import re
import shlex
import shutil
import sys
from pathlib import Path

import pytest

import graphmix
from graphmix import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
PACKAGE = Path(graphmix.__file__).resolve().parent


# every fenced block of README.md, in order: (language, text, offset)
FENCES = [
    (m.group(1), m.group(2), m.start())
    for m in re.finditer(r"^```(\w*)\n(.*?)^```$", TEXT, re.M | re.S)
]


def fenced(lang: str) -> list:
    """The text of each ```<lang> block in README.md (lang "" for plain ones)."""
    return [text for kind, text, _ in FENCES if kind == lang]


def python_blocks():
    """(heading above it, source) of each ```python block in README.md."""
    return [
        (re.findall(r"^#+ (.+)$", TEXT[:start], re.M)[-1], text)
        for kind, text, start in FENCES
        if kind == "python"
    ]


BLOCKS = python_blocks()

# the arguments of each `graphmix ...` line of the plain blocks, in README order
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in fenced("")
    for line in block.splitlines()
    if line.startswith("graphmix ")
]

# an argument naming a file: a name with an extension that starts with a letter
FILE_NAME = re.compile(r"^[\w./-]+\.[A-Za-z]\w*$")

# each input file the README commands name -> what makes it from the README:
# its ```json config or ```csv events, or the files its generate (the last
# graph) or fixture command writes.  A command naming any other file fails
# the reach test.
INPUTS = {
    "mixture.json": "json",
    "events.csv": "csv",
    "g.edges": "generate",
    "events.txt": "fixture",
    "raw.events": "fixture",
}

# functions the README commands do not reach -> a tier-1 test that calls them
LIBRARY_ONLY = {
    # cli: runs at import, before any command
    "cli:_checked": "tests/test_cli.py::test_bad_flag_values_are_usage_errors",
    "cli:_Parser.error": "tests/test_cli.py::test_bad_flag_values_are_usage_errors",
    "cli:entry":
        "tests/test_package.py::test_console_entry_writes_the_fixture_and_fails_in_one_line",
    # called by acceptance criteria 4 and 6 or the linegraph_roundtrip workload
    "graph:component_labels": "tests/test_linegraph.py::test_component_labels_match_union_find",
    "linegraph:line_graph": "tests/test_linegraph.py::test_line_graph_matches_reference",
    "linegraph:decompose_disjoint_cliques":
        "tests/test_linegraph.py::test_decompose_relabelled_cliques",
    "linegraph:inverse_line_graph_disjoint": "tests/test_linegraph.py::test_inverse_mixed",
    "mixture:_derive_sparse_meta":
        "tests/test_mixture.py::test_bare_join_derives_hubs_by_size_then_smallest_node",
    "mixture:density_trajectory": "tests/test_mixture.py::test_density_trajectory_rows",
    "masspartition:expected_hub_degree":
        "tests/test_masspartition.py::test_expected_hub_degree_formula",
    # inputs or calls that no README command makes
    "graph:_fields_equal":
        "tests/test_graph.py::test_canonical_rows_give_the_graph_of_any_row_order",
    "graph:_scan_edges": "tests/test_graph.py::test_read_edge_list_errors",
    "graphon:Graphon.disjoint_clique": "tests/test_graphon.py::test_disjoint_clique_graphon_eval",
    "graphon:Graphon.disjoint_clique.fn":
        "tests/test_graphon.py::test_disjoint_clique_graphon_eval",
    "masspartition:_loglaw_weights": "tests/test_masspartition.py::test_parse_loglaw_literal",
    "masspartition:_factorial_weights": "tests/test_masspartition.py::test_parse_factorial_literal",
    "temporal:TemporalEdgeList.events": "tests/test_temporal.py::test_parse_basics",
}


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", [src for _, src in BLOCKS], ids=[head for head, _ in BLOCKS])
def test_readme_example_runs_and_leaves_no_file(source, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    assert list(tmp_path.iterdir()) == []
    if "estimate_partition(" in source:
        assert capsys.readouterr().out.split()[0] == "3"  # k_hat


def package_functions() -> dict:
    """module:Qualified.name -> (file, first line, name) of every def in
    the package but the dunder methods.  A decorated def starts at its
    first decorator, as its code object's co_firstlineno does."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not isinstance(child, ast.ClassDef) and not re.fullmatch(r"__\w+__", child.name):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[f"{module}:{qualname}"] = (path, first, child.name)
                visit(child, module, path, qualname + ".")
            else:
                visit(child, module, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path), "")
    return found


def run_command(argv):
    """cli.main(argv) in process, its printed results kept out of the log."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, f"graphmix {shlex.join(argv)} exited {code}"


def make_inputs(where: Path) -> dict:
    """INPUTS' sources -> a file made by the README in the empty directory
    where: its json config, its csv events, the last graph its generate
    command writes, and the file its fixture command writes."""
    made = {}
    for lang, name in (("json", "mixture.json"), ("csv", "events.csv")):
        (where / name).write_text(fenced(lang)[0], encoding="utf-8")
        made[lang] = where / name
    for name, pattern in (("generate", "*.edges"), ("fixture", "*.events")):
        (argv,) = [a for a in COMMANDS if cli.build_parser().parse_args(a).command == name]
        run_command(argv)
        made[name] = sorted(where.rglob(pattern))[-1]
    return made


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """(file, first line, name) of every code object of the package that
    the README commands, run in README order, and then the README's
    Python examples enter."""
    home = tmp_path_factory.mktemp("readme")
    (home / "inputs").mkdir()
    (home / "work").mkdir()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    cwd = os.getcwd()
    try:
        os.chdir(home / "inputs")
        made = make_inputs(home / "inputs")
        os.chdir(home / "work")
        for name, source in INPUTS.items():
            shutil.copyfile(made[source], name)
        cli._parser.cache_clear()  # so that the first command builds it, as in a new process
        sys.setprofile(profile)
        try:
            for argv in COMMANDS:
                run_command(argv)
            for _, source in BLOCKS:
                exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
        finally:
            sys.setprofile(None)
    finally:
        os.chdir(cwd)
    return {(str(Path(f).resolve()), line, name) for f, line, name in entered}


def test_inputs_map_exactly_the_files_the_readme_commands_read():
    named = {a for argv in COMMANDS for a in argv if FILE_NAME.match(a)}
    assert sorted(named - set(INPUTS)) == [], "map each new input in INPUTS"
    assert sorted(set(INPUTS) - named) == []


def test_every_function_is_reached_by_the_readme_or_pinned(reached):
    unreached = [
        key
        for key, where in package_functions().items()
        if where not in reached and key not in LIBRARY_ONLY
    ]
    assert unreached == [], "reach these from a README command, delete them, or pin them"


def test_library_only_lists_only_unreached_functions(reached):
    functions = package_functions()
    assert sorted(set(LIBRARY_ONLY) - set(functions)) == []
    assert sorted(key for key in LIBRARY_ONLY if functions[key] in reached) == []


def test_library_only_pins_name_tier1_tests():
    missing = []
    for pin in LIBRARY_ONLY.values():
        file, _, test = pin.partition("::")
        tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
        if test not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}:
            missing.append(pin)
    assert missing == []
