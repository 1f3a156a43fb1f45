"""Source rules for ``src/usertopics``: one file writer, no unused imports,
no start-up import of scipy, ctypes or (in ``cli``) of a stage module, no
top-level function or class that nothing names, and a README that names
every command-line option."""

import argparse
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import usertopics
from usertopics import cli

from helpers import STAGE_MODULES

PACKAGE = Path(usertopics.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"
# kept with no caller for the open provenance and manifest work
# (ROADMAP items 2 and 3)
UNREFERENCED_ALLOWED = {"lsa.load_model", "lsa.orthonormality_residual"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def opens_for_writing(call: ast.Call) -> bool:
    """``open(path, mode)`` or ``path.open(mode)`` with a mode that writes."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False  # the default mode reads
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode that is not spelled out may write
    return any(flag in mode.value for flag in "wax+")


def writes(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if opens_for_writing(node) or (
            isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)[:80]}")
    return found


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def start_up_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every module an import outside a function may load:
    ``from a import b`` names ``a`` and ``a.b``; relative names keep their dots."""
    found = []
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # runs when called, not when the module is imported
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            names = [base, *(base + sep + alias.name for alias in node.names)]
            found += [(node.lineno, name) for name in names]
        else:
            nodes.extend(ast.iter_child_nodes(node))
    return sorted(found)


def start_up_imports_of(tree: ast.Module, package: str) -> list[str]:
    return [f"line {line}: {name}" for line, name in start_up_imports(tree)
            if name.split(".")[0] == package]


def scipy_imports(tree: ast.Module) -> list[str]:
    return start_up_imports_of(tree, "scipy")


def stage_imports(tree: ast.Module) -> list[str]:
    return [f"line {line}: {name}" for line, name in start_up_imports(tree)
            if name.lstrip(".").removeprefix("usertopics.") in STAGE_MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_store_writes_files(path):
    if path.name == "_store.py":
        return
    assert writes(parse(path)) == [], "write workspace files through _store"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_start_up_scipy_import(path):
    assert scipy_imports(parse(path)) == [], "load scipy's kernels in _kernels, when called"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_start_up_ctypes_import(path):
    assert start_up_imports_of(parse(path), "ctypes") == [], "import ctypes where it is called"


def test_cli_imports_stages_per_command():
    assert stage_imports(parse(PACKAGE / "cli.py")) == [], "import a stage where it runs"


def test_the_rules_catch_what_they_name():
    tree = ast.parse(
        "import os\nimport csv\nfrom io import StringIO\n"
        "open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='a')\nopen(p, 'r+b')\n"
        "p.open()\np.open('x')\nopen(p, m)\np.write_text('')\np.write_bytes(b'')\n"
        "os.sep\n"
    )
    assert [entry.split(":")[0] for entry in writes(tree)] == [
        f"line {n}" for n in (6, 7, 8, 10, 11, 12, 13)
    ]
    assert unused_imports(tree) == ["line 2: csv", "line 3: StringIO"]
    tree = ast.parse(
        "import scipy.sparse\nfrom scipy import linalg\nimport scipyx, numpy\n"
        "from . import clustering as clus, matrix\nfrom .lsa import truncated_svd\n"
        "import usertopics.synth\nfrom usertopics import weighting\n"
        "def f():\n    import scipy\n    from . import ingest\n"
        "class C:\n    from .reporting import x\n"
        "try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n"
        "from .records import DEFAULT_GAP_SECONDS\nfrom ._kernels import BACKEND\n"
        "import ctypes\nfrom ctypes import CDLL\nimport ctypesx\ndef g():\n    import ctypes\n"
    )
    assert [entry.split(":")[0] for entry in scipy_imports(tree)] == [
        f"line {n}" for n in (1, 2, 2, 14)
    ]
    assert [entry.split(":")[0] for entry in start_up_imports_of(tree, "ctypes")] == [
        f"line {n}" for n in (19, 20, 20)
    ]
    assert [entry.split(":")[0] for entry in stage_imports(tree)] == [
        f"line {n}" for n in (4, 5, 6, 7, 12)
    ]


def names_used(tree: ast.AST) -> Counter:
    """Every name the code under ``tree`` uses: variables, attributes,
    imported names and the ``function`` of ``"module:function"`` strings."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if match := re.fullmatch(r"[\w.]+:(\w+)", node.value):
                used[match[1]] += 1
    return used


def unreferenced(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """``module.name`` of each top-level function or class of ``modules``
    that no code names outside its own definition, in ``modules`` or in
    ``others``."""
    used = sum((names_used(tree) for tree in [*modules.values(), *others]), Counter())
    return [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] == names_used(node)[node.name]
    ]


def test_every_definition_is_named_somewhere():
    modules = {path.stem: parse(path) for path in MODULES}
    others = [parse(path) for path in sorted(PIPEBENCH.glob("*.py"))]
    # equality, so an allowed name is dropped from the list once it has a caller
    assert set(unreferenced(modules, others)) == UNREFERENCED_ALLOWED


def test_the_reference_rule_catches_what_it_names():
    modules = {
        "a": ast.parse(
            "def unused():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def called():\n    pass\n"
            "class Attr:\n    pass\n"
            "def traced():\n    pass\n"
            "def imported():\n    pass\n"
            "x = called()\n"
        ),
        "b": ast.parse("from .a import imported\nimport a\na.Attr\n"),
    }
    others = [ast.parse("LAYERS = ('pkg.a:traced', 'unused')\n")]
    assert unreferenced(modules, others) == ["a.unused", "a.recursive"]


def undocumented_options(parser: argparse.ArgumentParser, text: str) -> list[str]:
    """Long options of every subcommand none of whose strings ``text`` names."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        f"{name} {action.option_strings[-1]}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        if any(opt.startswith("--") for opt in action.option_strings)
        and "--help" not in action.option_strings
        and not any(re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", text)
                    for opt in action.option_strings)
    ]


def test_readme_names_every_option():
    assert undocumented_options(cli.build_parser(), README.read_text(encoding="utf-8")) == []


def test_the_option_rule_catches_what_it_names():
    missing = undocumented_options(cli.build_parser(), "cluster -K 8 --k-min 1 --workspace-dir x")
    assert "cluster --k" not in missing and "sweep-k --k-min" not in missing
    assert "cluster --workspace" in missing  # a longer option does not name it
