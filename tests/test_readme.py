"""The README's "Library use" example runs as written from a checkout."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "expected one python block, the Library use example"
    exec(compile(blocks[0], str(README), "exec"), {})
