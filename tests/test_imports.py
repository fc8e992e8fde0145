"""Every module under ``src/cellscape`` and ``tests`` reads each name it
imports, every public name of the package has a caller, and importing the
package loads none of its modules, so the heavy statistics subpackage stays
unloaded."""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cellscape"
MODULES = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression of the module reads.

    ``from __future__`` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom dataclasses import dataclass, field\n"
              "from typing import Sequence\n"
              "def f(x: Sequence[int]) -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == ["os (line 2)", "dataclass (line 4)", "field (line 4)"]


def definitions(source: str) -> list[str]:
    """The public module-level functions, classes and constants."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def _package_module(node: ast.ImportFrom) -> str | None:
    """The cellscape module an import reads from, "" for the package itself,
    None outside the package."""
    if node.level:
        return node.module or ""
    if node.module == "cellscape" or (node.module or "").startswith("cellscape."):
        return node.module.removeprefix("cellscape").removeprefix(".")
    return None


def reads(source: str, module: str | None) -> set[tuple[str, str, str]]:
    """``(module, name, reader)`` for each read of a package module's name:
    a name imported from a cellscape module, an attribute of a cellscape
    module alias or, if ``module`` is the source's own module, a name the
    source binds. ``reader`` is the top-level definition holding the read,
    "" at module level."""
    tree = ast.parse(source)
    imported: dict[str, tuple[str, str]] = {}   # local name -> (module, name)
    aliases: dict[str, str] = {}                # local name -> module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or (origin := _package_module(node)) is None:
            continue
        for alias in node.names:
            if origin:
                imported[alias.asname or alias.name] = (origin, alias.name)
            else:
                aliases[alias.asname or alias.name] = alias.name
    found = set()
    for top in tree.body:
        reader = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    found.add((*imported[node.id], reader))
                elif module is not None:
                    found.add((module, node.id, reader))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                found.add((aliases[node.value.id], node.attr, reader))
    return found


def uncalled(modules: dict[str, str], outside: set[tuple[str, str]]) -> list[str]:
    """``module.name`` for each public definition of ``modules`` (module ->
    source) that no module reads outside the definition itself and that
    ``outside``, the ``(module, name)`` pairs read from beyond them, lacks."""
    read = set(outside)
    for module, source in modules.items():
        read |= {(m, name) for m, name, reader in reads(source, module)
                 if (m, reader) != (module, name)}
    return sorted(f"{module}.{name}" for module, source in modules.items()
                  for name in definitions(source) if (module, name) not in read)


def test_every_public_name_has_a_caller():
    # read from outside the package: the benchmark's modules, the autodiff
    # ops its tracer wraps by name, and the console scripts
    package = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    outside = set()
    for path in sorted((ROOT / "benchmark").glob("*.py")):
        outside |= {(m, name) for m, name, _ in reads(path.read_text(), None)}
    spec = ast.parse((ROOT / "benchmark" / "spec.py").read_text())
    ops = next(ast.literal_eval(node.value) for node in spec.body
               if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "AUTODIFF_OPS" for t in node.targets))
    outside |= {("autodiff", op) for op in ops}
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    for target in scripts.values():
        module, name = target.split(":")
        outside.add((module.removeprefix("cellscape."), name))
    assert uncalled(package, outside) == []


def test_scan_flags_an_unused_name():
    modules = {
        "a": ("CONSTANT = 1\nUNUSED = 2\n"
              "def by_name():\n    return CONSTANT\n"
              "def by_alias():\n    return 0\n"
              "def outside():\n    return 0\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "class Unused:\n    def copy(self) -> 'Unused':\n        return Unused()\n"
              "def _private():\n    return 0\n"),
        "b": ("from . import a as alias\nfrom .a import by_name\n"
              "def main():\n    return alias.by_alias() + by_name()\n"),
    }
    benchmark = "from cellscape import a\nprint(a.outside())\n"
    outside = {(m, name) for m, name, _ in reads(benchmark, None)}
    assert uncalled(modules, outside) == ["a.UNUSED", "a.Unused", "a.recursive", "b.main"]


def test_package_import_loads_no_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, cellscape; print([m for m in sys.modules if m.startswith('cellscape.')])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_package_import_skips_scipy_stats():
    # a fresh interpreter: this test session may already hold scipy.stats
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, cellscape, cellscape.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
