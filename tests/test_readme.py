"""The README's examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    match = re.search(r"^## Quick start\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under 'Quick start'"
    exec(compile(match.group(1), f"{README}:quick-start", "exec"), {})
