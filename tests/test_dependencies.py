"""The package's declared dependencies cover every module its code imports."""

import ast
import importlib.metadata
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmoney"


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in the file, lazy ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def project_table() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def declared_dependencies() -> set[str]:
    project = project_table()
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }


def test_every_import_is_stdlib_qmoney_or_declared():
    allowed = set(sys.stdlib_module_names) | {"qmoney"} | declared_dependencies()
    undeclared = {
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in imported_top_level_modules(path)
        if name not in allowed
    }
    assert not undeclared


def test_every_declared_dependency_is_imported():
    imported = set().union(*(imported_top_level_modules(p) for p in PACKAGE.glob("*.py")))
    assert declared_dependencies() <= imported


def test_the_import_walk_sees_lazy_and_relative_imports(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import os.path\nfrom . import harness\n"
        "def f():\n    from scipy.sparse import linalg\n    import numpy as np\n"
    )
    assert imported_top_level_modules(source) == {"os", "scipy", "numpy"}


def python_floor(requires_python: str) -> tuple[int, ...] | None:
    """The (major, minor) of a Requires-Python's '>=' clause, or None without one."""
    found = re.search(r">=\s*(\d+)\.(\d+)", requires_python)
    return tuple(map(int, found.groups())) if found else None


def test_python_floor_parses_requires_python_clauses():
    assert python_floor(">=3.11") == (3, 11)
    assert python_floor(">= 3.9, <4") == (3, 9)
    assert python_floor("!=3.0.*, >=3.10.2") == (3, 10)
    assert python_floor("<4") is None


def test_declared_python_floor_covers_every_installed_dependency():
    floor = python_floor(project_table()["requires-python"])
    assert floor is not None
    for name in sorted(declared_dependencies()):
        try:
            needs = importlib.metadata.metadata(name).get("Requires-Python")
        except importlib.metadata.PackageNotFoundError:
            continue
        dependency_floor = python_floor(needs or "")
        assert dependency_floor is None or floor >= dependency_floor, (name, needs)
