"""The README's examples run as written, and its tag list and sweep counts
match the code."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from incolour.families import gen_basic
from incolour.solver import check_choosability_exhaustive

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CONSTRUCTIVE = ROOT / "src" / "incolour" / "constructive"

# a trace tag starts with its family's prefix; placeholders read <...>
TAG = re.compile(r"^(tree|cycle|grid2?|halin|corona|cactus|ham)-[a-z0-9:<>-]+$")


def test_readme_quick_start_runs():
    text = README.read_text()
    match = re.search(r"^## Quick start\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under 'Quick start'"
    exec(compile(match.group(1), f"{README}:quick-start", "exec"), {})


def _template(node: ast.JoinedStr) -> str:
    """An f-string with each replacement field written ``<>``."""
    return "".join(
        part.value if isinstance(part, ast.Constant) else "<>" for part in node.values
    )


def _code_tags() -> set[str]:
    """Tag literals and f-string tag templates in the constructive package
    (a literal that fills a template with a number, like ``grid2-square-1``,
    counts as that template)."""
    tags: set[str] = set()
    for path in sorted(CONSTRUCTIVE.glob("*.py")):
        tree = ast.parse(path.read_text())
        parts = {id(p) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr) for p in n.values}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                text = _template(node)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            if id(node) not in parts and TAG.match(text):
                tags.add(text)
    templates = [re.compile(re.escape(t).replace("<>", r"\d+")) for t in tags if "<>" in t]
    return {t for t in tags if "<>" in t or not any(p.fullmatch(t) for p in templates)}


def test_readme_tag_list_matches_the_code():
    text = README.read_text()
    section = re.search(r"^## Trace rule tags\n(.*?)^## ", text, re.S | re.M).group(1)
    words = {re.sub(r"<[^>]*>", "<>", w) for w in re.findall(r"`([^`]+)`", section)}
    assert {w for w in words if TAG.match(w)} == _code_tags()


def test_no_constructive_module_imports_the_search():
    """The constructive procedures never search: no constructive module
    imports the solver or the kernel."""
    importers = set()
    for path in sorted(CONSTRUCTIVE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = "." * node.level + (f"{node.module}." if node.module else "")
                names = [base.rstrip(".")] + [base + a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(re.fullmatch(r"(\.\.|incolour\.)(solver|kernel)(\..*)?", n) for n in names):
                importers.add(path.name)
    assert importers == set()


def test_readme_sweep_solves_match_the_library():
    text = " ".join(README.read_text().split())
    match = re.search(r"C3 with k=3 over `\{1\.\.5\}` needs ([\d,]+) solves "
                      r"for its ([\d,]+) assignments", text)
    assert match, "README does not state the C3 sweep's solves"
    stated = tuple(int(n.replace(",", "")) for n in match.groups())
    res = check_choosability_exhaustive(gen_basic("cycle", 3)[0], 3, 5)
    assert (res.solves, res.assignments_checked) == stated
