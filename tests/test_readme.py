"""The README's "Library use" example runs as written from a checkout, each
"Command line" example exits 0 and prints the lines shown beneath it, its
"Tree serialization" example is what the command it names prints, every
library name it cites in backticks exists, every Sphinx-style reference in
the package's own sources resolves, and every public function and class of
the package has a caller inside it or a stated reason to stay."""

from __future__ import annotations

import ast
import builtins
import importlib
import re
import shlex
from pathlib import Path

import pytest

from staircase import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "expected one python block, the Library use example"
    exec(compile(blocks[0], str(README), "exec"), {})


def command_examples():
    """(argv, shown lines) of each ``$ staircase`` line of the Command line block."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(\$ staircase .*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "expected one sh block of staircase commands"
    examples = []
    for line in blocks[0].splitlines():
        if line.startswith("$ "):
            examples.append((shlex.split(line[2:], comments=True), []))
        elif line:
            examples[-1][1].append(line)
    return examples


EXAMPLES = command_examples()


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_command_line_example_prints_the_lines_shown(argv, shown, capsys, monkeypatch):
    """A ``...`` line stands for any number of lines; with no lines shown, any output goes."""
    monkeypatch.delenv(cli.REPORT_PATH_VAR, raising=False)
    assert argv[0] == "staircase"
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    if shown:
        pattern = "".join("(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n" for line in shown)
        assert re.fullmatch(pattern, out), out


def test_tree_serialization_block_is_the_printed_json(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "expected one json block, the Tree serialization example"
    assert cli.main(["decompose", "rows: 1", "--format", "json"]) == 0
    assert capsys.readouterr().out == blocks[0]


def test_module_references_resolve():
    """Every backticked ``module.name`` of the package names an attribute of that module."""
    text = README.read_text(encoding="utf-8")
    modules = "diagram|slopes|ktheory|walls|objects|resolution|oracle|cli"
    references = re.findall(rf"`(?:staircase\.)?({modules})\.(\w+)[^`]*`", text)
    assert references, "expected backticked module.name references"
    missing = [
        f"{module}.{name}"
        for module, name in references
        if not hasattr(importlib.import_module(f"staircase.{module}"), name)
    ]
    assert not missing


def _resolves(module, target: str) -> bool:
    """An attribute of ``module``, a builtin, or a ``staircase.<module>[.<name>]`` that exists."""
    if hasattr(module, target) or hasattr(builtins, target):
        return True
    package, _, rest = target.partition(".")
    name, _, attribute = rest.partition(".")
    if package != "staircase" or not name:
        return False
    try:
        found = importlib.import_module(f"staircase.{name}")
    except ModuleNotFoundError:
        return False
    return not attribute or hasattr(found, attribute)


def test_docstring_references_resolve():
    """Every ``:func:``, ``:class:``, ``:mod:``, ``:meth:``, ``:attr:`` and ``:data:`` target in the package resolves."""
    missing = []
    for path in sorted((ROOT / "src" / "staircase").glob("*.py")):
        module = importlib.import_module("staircase" if path.stem == "__init__" else f"staircase.{path.stem}")
        text = path.read_text(encoding="utf-8")
        targets = re.findall(r":(?:func|class|mod|meth|attr|data):`~?([\w.]+)`", text)
        missing += [f"{path.name}: {target}" for target in targets if not _resolves(module, target)]
    assert not missing


# Public functions and classes with no caller in src/, each kept for a stated reason.
UNCALLED = {
    "chern": "the public constructor of a character from its rationals",
    "rank_zero": "the public constructor of a rank-0 object",
    "parse_tree": "the reader of serialize_tree's text",
    "candidate_walls": "tests/test_acceptance.py imports it",
    "mu_opt": "tests/test_acceptance.py imports it",
    "rank0_hilbert_polynomial": "tests/test_acceptance.py imports it",
    "hilbert_P": "tests/test_acceptance.py imports it; the Drezet-Le Potier check is to call it",
    "leaves": "the opt-in leaf counters are to call it",
    "in_stable_base_locus": "the baselocus command is to call it",
}


def test_every_public_function_has_a_caller():
    """Each public module-level def or class is named in src/ outside its own body, imports aside, or is in ``UNCALLED``."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "staircase").glob("*.py")}
    defs = {
        node.name: (path, node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    called = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in defs:
                home, body = defs[name]
                if home != path or not body.lineno <= node.lineno <= body.end_lineno:
                    called.add(name)
    uncalled = set(defs) - called
    assert sorted(uncalled - set(UNCALLED)) == [], "public functions and classes with no caller in src/"
    assert sorted(set(UNCALLED) - uncalled) == [], "allowlisted names that are gone or now have a caller"
