import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import roeforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(roeforge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """``from roeforge.<module> import *`` works: each name in ``__all__`` exists."""
    module = importlib.import_module(f"roeforge.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_the_package_imports_only_exported_names():
    """Each name ``roeforge/__init__.py`` imports from a module is in that
    module's ``__all__`` (``errors`` keeps none)."""
    tree = ast.parse(Path(roeforge.__file__).read_text())
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != "errors":
            exported = importlib.import_module(f"roeforge.{node.module}").__all__
            stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert stray == []


def test_the_package_reads_no_environment_variable():
    """Every setting is a command-line option or an argument; a new
    environment setting has to change this test on purpose."""
    src = Path(roeforge.__file__).parent
    readers = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
               for i, line in enumerate(path.read_text().splitlines(), start=1)
               if "environ" in line or "getenv" in line]
    assert readers == []
