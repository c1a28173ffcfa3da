"""Source checks that stand in for a linter: every import and every
private top-level name is read, the package exports exactly what its
__init__ imports, and README's examples run as printed."""

import ast
import inspect
import shlex
from pathlib import Path

import pytest

import dlstar
from dlstar.cli import main
from dlstar.dlgraph import MAX_DIMENSION
from dlstar.verify import DOMAINS, SUITES, _report_name

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dlstar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports (outside __future__) but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .x import a, b as c\n"
        "print(np.pi, c)\n"
    )
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Top-level names with one leading underscore, defined in one of the
    sources, that none of them reads (an import counts as a read, as
    test_no_unused_imports checks that the importer reads it)."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - read)


def test_unread_private_names_are_found():
    sources = [
        "_A = 1\n_B: int = 2\n__all__ = []\ndef _f(): return _A\nclass _C: pass\n",
        "from .x import _C\ndef g(): return _f\n",
    ]
    assert unread_private_names(sources) == ["_B"]


def test_no_unread_private_names():
    assert unread_private_names([p.read_text() for p in PACKAGE.glob("*.py")]) == []


# the vertex coder, its kept copies and the memory cap that sizes it;
# both searches that use them live in dlgraph
CODER_NAMES = {
    "_VertexCoder", "_kept_coder", "_kept_coders", "_KEPT_CODES", "DEFAULT_MEMORY_CAP",
}


def names_read(source: str, names: set[str]) -> list[str]:
    """Which of names a source reads, as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return sorted(read & names)


def test_names_read_are_found():
    source = "from .g import _A, b\nimport g\nprint(g._B + c, '_D')\n"
    assert names_read(source, {"_A", "_B", "c", "_D", "e"}) == ["_A", "_B", "c"]


def test_only_dlgraph_reads_the_coder():
    # the package re-exports the cap; no other module touches these names
    found = {p.name: names_read(p.read_text(), CODER_NAMES) for p in PACKAGE.glob("*.py")}
    del found["dlgraph.py"]
    assert {name: read for name, read in found.items() if read} == {
        "__init__.py": ["DEFAULT_MEMORY_CAP"]
    }


def test_verify_grows_no_ball_of_its_own():
    # the checks read the run's Ball; a second search from the identity
    # through ball_distances would grow and decode its layers again
    assert names_read((PACKAGE / "verify.py").read_text(), {"ball_distances"}) == []


def q_compared_with_numbers(source: str) -> list[int]:
    """The lines that compare a name or attribute called q with a number."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Name) and o.id == "q"
                or isinstance(o, ast.Attribute) and o.attr == "q"
                for o in operands
            ) and any(
                isinstance(o, ast.Constant) and type(o.value) in (int, float)
                for o in operands
            ):
                lines.append(node.lineno)
    return lines


def test_q_comparisons_are_found():
    source = "if p.q < 2: pass\nok = 2 <= q\nx.q != y.q\nq - 1 > n\nq == True\n"
    assert q_compared_with_numbers(source) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_q_is_bounded_only_by_dlparams(path):
    # DLParams refuses q < 2, so no module tests q again
    assert q_compared_with_numbers(path.read_text()) == []


def checks_that_report(source: str) -> list[str]:
    """The _check_* functions of a source that call Tally() or .report(."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"):
            if any(
                isinstance(c, ast.Call)
                and (
                    isinstance(c.func, ast.Name) and c.func.id == "Tally"
                    or isinstance(c.func, ast.Attribute) and c.func.attr == "report"
                )
                for c in ast.walk(node)
            ):
                found.append(node.name)
    return found


def test_checks_that_report_are_found():
    source = (
        "def _check_a(p, s, t):\n    return Tally().cases\n"
        "def _check_b(p, s, t):\n    return t.report('b', {})\n"
        "def _check_c(p, s, t):\n    return {'report': t.cases, 'tally': Tally}\n"
        "def run_check(c):\n    return Tally().report('x', {})\n"
    )
    assert checks_that_report(source) == ["_check_a", "_check_b"]


def test_run_check_makes_every_report():
    # each check fills the tally run_check hands it and returns its
    # details; run_check alone builds and names the report
    for check in (check for suite in SUITES.values() for check in suite):
        assert list(inspect.signature(check).parameters) == [
            "params", "seed", "tally", "ball"
        ]
    assert checks_that_report((PACKAGE / "verify.py").read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level packages a source imports, absolute imports only."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_imported_modules_are_found():
    source = "import numpy.linalg as la, os\nfrom numpy import array\nfrom . import x\n"
    assert imported_modules(source) == {"numpy", "os"}


def test_only_verify_imports_numpy():
    # so that importing numpy lazily is a change to one module
    found = {p.name for p in PACKAGE.glob("*.py") if "numpy" in imported_modules(p.read_text())}
    assert found == {"verify.py"}


def test_all_lists_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    assert len(dlstar.__all__) == len(set(dlstar.__all__))
    assert set(dlstar.__all__) == set(imported)


def readme_block(section: str, lang: str) -> str:
    """The first fenced `lang` block under README's `## section` heading."""
    text = (ROOT / "README.md").read_text().split(f"\n## {section}\n", 1)[1]
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


# verify runs in the acceptance tests
README_COMMANDS = [
    shlex.split(line, comments=True)
    for line in readme_block("Command line", "sh").splitlines()
    if not line.startswith("dlstar verify")
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[1])
def test_readme_commands_run(argv, capsys):
    assert argv[0] == "dlstar"
    assert main(argv[1:]) == 0, capsys.readouterr()


def test_readme_quick_start_runs():
    # each bare expression's comment starts with its result
    source = readme_block("Library quick start", "python")
    lines = source.splitlines()
    namespace: dict = {}
    results = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        want = lines[node.end_lineno - 1].partition("#")[2].strip().rsplit(", ", 1)[0]
        assert repr(got).removeprefix(type(got).__name__) == want, lines[node.lineno - 1]
        results.append(want)
    assert results == ["5", "5", "1", "(value=1, from_n=9)", "[1, 0]"]


def test_readme_domain_table_matches_domains():
    # README's table lists exactly the checks of DOMAINS, each with its
    # range of d and its reason, backticks aside
    header = "| check | runs on | skipped elsewhere because |\n| --- | --- | --- |\n"
    text = (ROOT / "README.md").read_text().replace("`", "")
    table = text.split(header, 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        check, runs_on, why = (cell.strip() for cell in line.strip("|").split("|"))
        rows[check] = (runs_on, why)
    assert rows.pop("every other check") == ("every (d, q)", "")
    want = {}
    for check, (dims, why) in DOMAINS.items():
        if len(dims) == 1:
            runs_on = f"d = {dims.start}"
        else:
            assert dims.stop == MAX_DIMENSION + 1
            runs_on = f"d ≥ {dims.start}"
        want[_report_name(check)] = (runs_on, why)
    assert rows == want
