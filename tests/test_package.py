"""Package hygiene: every imported name is used, every ``__all__`` entry exists."""

import ast
import importlib
from pathlib import Path

import pytest

import magnc

MODULES = sorted(p.stem for p in Path(magnc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _tree(name: str) -> ast.Module:
    return ast.parse((Path(magnc.__file__).parent / f"{name}.py").read_text())


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports (``import a.b`` binds ``a``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {a.asname or a.name for a in node.names}
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = _tree(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"magnc.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []
