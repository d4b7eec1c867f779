"""Every name a module exports through ``__all__`` exists, and every public
name of the package has a caller outside the tests' oracles."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import insiderlab

MODULES = ["insiderlab"] + [
    f"insiderlab.{m.name}" for m in pkgutil.iter_modules(insiderlab.__path__)
]

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _names_read(path: Path) -> set[str]:
    """Every name and attribute that the code of ``path`` reads."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_public_name_has_a_caller():
    # a public name is a paper object that a demo or an acceptance criterion
    # runs, or a piece of the library that the library itself uses; a name
    # that only unit tests call is an oracle and lives in tests/oracles.py
    callers = [p for p in (ROOT / "src" / "insiderlab").glob("*.py")
               if p.name != "__init__.py"]
    callers += sorted((ROOT / "demos").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*map(_names_read, callers))
    # dunder names such as __version__ are package metadata, not API
    public = [n for n in insiderlab.__all__ if not n.startswith("__")]
    assert [n for n in public if n not in read] == []
