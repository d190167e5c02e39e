"""The package exports only what its pipeline, its benchmark or its acceptance gates run."""

import ast
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


def _uses(path: Path, name: str) -> bool:
    """Whether code in ``path``, outside the top-level definition of ``name``, names it or reads it as an attribute."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if _defines(node, name):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == name or isinstance(sub, ast.Attribute) and sub.attr == name:
                return True
    return False


@pytest.mark.parametrize("name", sorted(gs.__all__))
def test_every_export_has_a_caller(name):
    assert any(_uses(path, name) for path in CALLERS), (
        f"{name} is exported, but no module, benchmark file or acceptance gate uses it"
    )
