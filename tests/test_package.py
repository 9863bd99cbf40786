"""Package hygiene: every imported name is used, every ``__all__`` entry
exists and has a caller outside the tests, and so does every private
module-level name; the acceptance run imports numpy, not scipy."""

import ast
import importlib
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import magnc

MODULES = sorted(p.stem for p in Path(magnc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public names whose only callers are tests, kept on purpose.
KEPT_FOR_TESTS = {
    "element_to_records",  # writer of the element-file format the CLI reads
    # public, traced by the benchmark, and the tests' pointwise oracle of psi_{n,m}
    "eval_basis_function",
}


def _tree(name: str) -> ast.Module:
    return ast.parse((Path(magnc.__file__).parent / f"{name}.py").read_text())


def _code_names(tree: ast.Module) -> set[str]:
    """Names read in code (loads and attributes): no strings, docstrings,
    definitions or assignment targets."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports (``import a.b`` binds ``a``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {a.asname or a.name for a in node.names}
    return out


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private functions, classes and constants (no dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@cache
def _read_outside_tests() -> frozenset[str]:
    """Names read by any package module (its own included, where a
    definition is not a read) or by the benchmark."""
    return frozenset().union(*(_code_names(_tree(m)) for m in MODULES),
                             *(_code_names(ast.parse(p.read_text())) for p in BENCH.glob("*.py")))


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """The names the tree binds to package modules, keyed by their source
    text: ``import magnc.x as y`` and ``from . import x as y`` bind y to x,
    ``import magnc.x`` binds ``magnc.x``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name: a.name[6:] for a in node.names
                    if a.name.startswith("magnc.")}
        elif isinstance(node, ast.ImportFrom) and (node.module == "magnc"
                                                   or node.level and node.module is None):
            out |= {a.asname or a.name: a.name for a in node.names}
    return out


@cache
def _entries_read_outside_tests() -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    """How package modules and the benchmark can read an ``__all__`` entry:
    the bare names they load, and the (module, name) pairs they read as
    ``<alias of the module>.<name>``.  A method of the same name
    (``x.adjoint()``) is neither."""
    bare, qualified = set(), set()
    for tree in ([_tree(m) for m in MODULES]
                 + [ast.parse(p.read_text()) for p in BENCH.glob("*.py")]):
        aliases = _module_aliases(tree)
        bare |= {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        qualified |= {(aliases[ast.unparse(n.value)], n.attr) for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and ast.unparse(n.value) in aliases}
    return frozenset(bare), frozenset(qualified)


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


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_has_a_caller_outside_tests(name):
    module = importlib.import_module(f"magnc.{name}")
    bare, qualified = _entries_read_outside_tests()
    orphans = [n for n in getattr(module, "__all__", [])
               if n not in bare | KEPT_FOR_TESTS and (name, n) not in qualified]
    assert orphans == []


@pytest.mark.parametrize("name", MODULES)
def test_every_private_name_is_read_outside_tests(name):
    # a private helper only the tests read is dead code kept alive by them
    assert sorted(_private_definitions(_tree(name)) - _read_outside_tests()) == []


def _option_census() -> int:
    """Independently settable values in the package: defaulted parameters of
    every def and lambda, defaulted ``@dataclass`` fields and
    ``add_argument`` calls."""
    count = 0
    for name in MODULES + ["__init__"]:
        for node in ast.walk(_tree(name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                count += 1
    return count


def test_option_census_does_not_grow():
    # a new knob must show up in the diff: raise this only with a reason.
    # 75: one result type for both tiers, whose error and measurable flag
    # every producer passes (no defaults) and whose counts ns default to None
    assert _option_census() == 75


def test_every_module_level_cache_is_bounded():
    # the package keeps its tables in functools caches that each hold at
    # most a fixed number of entries: an unbounded one grows for the life of
    # the process with every context, window or ladder it sees
    sizes = {}
    for name in MODULES:
        module = importlib.import_module(f"magnc.{name}")
        for key, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)) and obj.__module__ == module.__name__:
                sizes[key] = obj.cache_parameters()["maxsize"]
    assert sorted(sizes) == ["_corpus", "_k_ladders", "_lattice", "_resolvent_table",
                             "_sector_blocks"]
    assert all(type(n) is int and n > 0 for n in sizes.values()), sizes


def test_no_cache_is_unbounded():
    # functools.cache and lru_cache(maxsize=None) keep every entry they see,
    # at module level for the life of the process, nested for the life of
    # the closure: a table of large arrays held until its last reader is
    # gone belongs in explicit lifetimes, not in one of these
    names = {"cache", "functools.cache"}

    def unbounded(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return any(ast.unparse(d) in names for d in node.decorator_list)
        if not isinstance(node, ast.Call):
            return False
        if ast.unparse(node.func) in names:
            return True
        size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return (ast.unparse(node.func) in ("lru_cache", "functools.lru_cache")
                and any(isinstance(v, ast.Constant) and v.value is None for v in size))

    found = [f"{m}:{node.lineno}" for m in MODULES + ["__init__"]
             for node in ast.walk(_tree(m)) if unbounded(node)]
    assert found == []


def test_cli_keeps_no_second_dixmier_path():
    # every Dixmier number the CLI prints comes from the module that
    # produces its ladder: no fit, ladder or cocycle integrand of its own
    second_path = {"dixmier_from_partial_sums", "shifted_resolvent_ladder", "delta1", "compose"}
    assert sorted(_code_names(_tree("cli")) & second_path) == []


def test_one_result_type_carries_a_measurable_flag():
    # both tiers report through spectra.CocycleValue: no module defines a
    # second dataclass with a measurable field
    def defines_one(tree):
        return any(isinstance(node, ast.ClassDef)
                   and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
                   and any(isinstance(s, ast.AnnAssign) and ast.unparse(s.target) == "measurable"
                           for s in node.body)
                   for node in ast.walk(tree))

    assert [m for m in MODULES + ["__init__"] if defines_one(_tree(m))] == ["spectra"]


def test_support_is_compared_only_by_the_truncation_contract():
    # "does this element fit?" has two homes: MagneticElement.padded (a level
    # window) and dirac.require_fits (a context), so no module outside them
    # compares a support
    def compares_support(tree):
        return any(isinstance(node, ast.Compare) and "support_bound" in _code_names(node)
                   for node in ast.walk(tree))

    assert sorted(m for m in MODULES + ["__init__"] if compares_support(_tree(m))) == [
        "algebra", "dirac"]


def test_verify_all_imports_no_scipy(tmp_path):
    # production is numpy only: scipy serves the tests' oracles and the
    # lattice reference builders, which import it when called
    code = ("import sys, magnc, magnc.cli\n"
            f"rc = magnc.cli.main(['--out', {str(tmp_path / 'r.json')!r}, 'verify-all'])\n"
            "print(rc, sorted(k for k in sys.modules if k.startswith('scipy')))\n")
    src = str(Path(magnc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stdout + proc.stderr
