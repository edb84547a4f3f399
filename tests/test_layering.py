"""Module boundaries inside the starfn package.

A module may use another starfn module only through its public
(non-underscore) names, so that every shared routine has one visible home.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starfn"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not (module == "starfn" or module.startswith("starfn.")):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                source = "." * node.level + module
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {source}")
    return found


def test_package_has_modules():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert _private_imports(path) == []
