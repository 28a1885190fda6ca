"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    # optimize=0 keeps the example's own asserts under python -O
    exec(compile(block, "README.md (## Library)", "exec", optimize=0), namespace)
    assert namespace["torus"].palette_size == 11
    assert namespace["smaller"].palette_size == 10
    assert namespace["W"] == 6
