"""Module boundaries inside the starfn package.

A module may use another starfn module only through its public
(non-underscore) names, so that every shared routine has one visible home,
and only the modules before it in LAYERS, the order the package docstring
lists them in.  Every name a package or test module imports is used.
Threads live in ``starcore`` alone: no other module reads STARFN_THREADS or
imports ``concurrent.futures``.  The package depends on numpy alone: it
imports nothing else outside the standard library and itself.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starfn"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
LAYERS = ("funcdef", "slicing", "starcore", "sphere", "harmonicform", "cli")


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


def _starfn_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for every starfn module that path imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                names = [node.module or ""]
            elif node.module:
                names = ["starfn." + node.module]
            else:  # from . import x
                names = ["starfn." + alias.name for alias in node.names]
        else:
            continue
        for name in names:
            package, _, module = name.partition(".")
            if package == "starfn":
                found.append((node.lineno, module.partition(".")[0]))
    return found


def _thread_uses(path: Path) -> list[str]:
    """Lines of path that name STARFN_THREADS or import concurrent.futures."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and node.value == "STARFN_THREADS":
            found.append(f"{path.name}:{node.lineno} reads STARFN_THREADS")
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.partition(".")[0] == "concurrent" for name in names):
            found.append(f"{path.name}:{node.lineno} imports concurrent.futures")
    return found


def _third_party_imports(path: Path) -> list[str]:
    """Modules outside the standard library, numpy and starfn that path imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top not in ("numpy", "starfn"):
                found.append(f"{path.name}:{node.lineno} imports {name}")
    return found


def _unused_imports(path: Path) -> list[str]:
    """Names that path imports but never reads and does not list in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line} imports {name} and never uses it"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def _export_faults(path: Path) -> list[str]:
    """Names that path's __all__ lists twice or that path does not bind at
    its top level: by def, class or assignment, or, in the package's
    __init__, which re-exports, by import too."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, exported = set(), None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
        elif isinstance(node, ast.ImportFrom) and path.stem == "__init__":
            bound.update(alias.asname or alias.name for alias in node.names)
    if exported is None:
        return [f"{path.name} has no __all__"]
    return [f"{path.name} exports {name}, which it does not define"
            for name in exported if name not in bound] + [
        f"{path.name} lists {name} in __all__ twice"
        for name in sorted(set(exported)) if exported.count(name) > 1
    ]


def test_package_has_modules():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert _private_imports(path) == []


def test_layers_cover_the_package():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES if p.stem != "__init__")


@pytest.mark.parametrize("layer", LAYERS)
def test_modules_import_only_earlier_layers(layer):
    rank = LAYERS.index(layer)
    upward = [
        f"{layer}.py:{line} imports {module or 'starfn'}"
        for line, module in _starfn_imports(PACKAGE / f"{layer}.py")
        if module not in LAYERS[:rank]
    ]
    assert upward == []


def test_only_starcore_uses_threads():
    uses = {path.stem: _thread_uses(path) for path in MODULES}
    assert len(uses.pop("starcore")) == 2
    assert [line for found in uses.values() for line in found] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library_and_numpy(path):
    assert _third_party_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined_once(path):
    assert _export_faults(path) == []


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
