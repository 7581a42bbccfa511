"""The README's "Library use" example runs as written from a checkout, its
"Tree serialization" example is what the command it names prints, and every
library name it cites in backticks exists."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from staircase import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "expected one python block, the Library use example"
    exec(compile(blocks[0], str(README), "exec"), {})


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
