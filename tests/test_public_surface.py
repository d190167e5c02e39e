"""The package exports only what its pipeline, its benchmark or its acceptance gates run."""

import ast
import re
from pathlib import Path

import pytest

import graphsampling as gs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphsampling"
CALLERS = [
    *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)


def _without_own_definition(path: Path, name: str) -> str:
    """Text of ``path`` with the lines of the top-level definition of ``name``, if any, left out."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if _defines(node, name):
            del lines[node.lineno - 1 : node.end_lineno]
            break
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(gs.__all__))
def test_every_export_has_a_caller(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    assert any(word.search(_without_own_definition(path, name)) for path in CALLERS), (
        f"{name} is exported, but no module, benchmark file or acceptance gate uses it"
    )
