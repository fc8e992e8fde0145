"""Every module under ``src/cellscape`` and ``tests`` reads each name it
imports, every public name of the package has a caller, every defaulted
parameter has a caller that sets it, every stored attribute of a public
class is read, and importing the package loads none of its modules, so the
heavy statistics subpackage stays unloaded."""

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


def _package_imports(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """``(imported, aliases)``: each local name bound to a cellscape
    module's name, as ``(module, name)``, and each bound to a module."""
    imported: dict[str, tuple[str, str]] = {}
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or (origin := _package_module(node)) is None:
            continue
        for alias in node.names:
            if origin:
                imported[alias.asname or alias.name] = (origin, alias.name)
            else:
                aliases[alias.asname or alias.name] = alias.name
    return imported, aliases


def reads(source: str, module: str | None) -> set[tuple[str, str, str]]:
    """``(module, name, reader)`` for each read of a package module's name:
    a name imported from a cellscape module, an attribute of a cellscape
    module alias or, if ``module`` is the source's own module, a name the
    source binds. ``reader`` is the top-level definition holding the read,
    "" at module level."""
    tree = ast.parse(source)
    imported, aliases = _package_imports(tree)
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


def _resolver(tree: ast.Module, module: str | None):
    """Map a name read in ``tree`` to the ``module.name`` of the package
    definition it means, or None: a name imported from a cellscape module, a
    top-level definition of ``module`` itself, or an attribute of a
    cellscape module alias."""
    imported, aliases = _package_imports(tree)
    own = {getattr(top, "name", None) for top in tree.body} - {None}

    def resolve(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in imported:
                return ".".join(imported[node.id])
            return f"{module}.{node.id}" if module is not None and node.id in own else None
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            return f"{aliases[node.value.id]}.{node.attr}"
        return None

    return resolve


def _signature(fn: ast.FunctionDef, method: bool) -> tuple[list[str], list[str]]:
    """``(positional, defaulted)`` parameter names of ``fn``, without
    ``self`` for a method."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][int(method):]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def _is_dataclass(cls: ast.ClassDef) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)


def _fields(cls: ast.ClassDef) -> tuple[list[str], list[str]]:
    """``(positional, defaulted)`` constructor parameters of a dataclass:
    its annotated fields in order, defaulted when they are assigned a value
    (``field(...)`` only with a ``default`` or ``default_factory``)."""
    positional, defaulted = [], []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        positional.append(node.target.id)
        value = node.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "field"):
            if any(k.arg in ("default", "default_factory") for k in value.keywords):
                defaulted.append(node.target.id)
        elif value is not None:
            defaulted.append(node.target.id)
    return positional, defaulted


def signatures(source: str, module: str) -> dict[str, tuple[list[str], list[str]]]:
    """``(positional, defaulted)`` parameters of each public function
    (``module.f``), class constructor (``module.C``: ``__init__``'s, else a
    dataclass's fields) and public method (``module.C.m``) of a module."""
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            found[f"{module}.{node.name}"] = _signature(node, method=False)
            continue
        methods = {m.name: m for m in node.body if isinstance(m, ast.FunctionDef)}
        if "__init__" in methods:
            found[f"{module}.{node.name}"] = _signature(methods["__init__"], method=True)
        elif _is_dataclass(node):
            found[f"{module}.{node.name}"] = _fields(node)
        for name, method in methods.items():
            if not name.startswith("_"):
                found[f"{module}.{node.name}.{name}"] = _signature(method, method=True)
    return found


def passed_parameters(source: str, module: str | None,
                      sigs: dict[str, tuple[list[str], list[str]]]) -> dict[str, set[str]]:
    """For each entry of ``sigs`` that a call in ``source`` reaches, the
    parameters some such call passes, by position or keyword (a ``*args``
    passes every positional one, a ``**kwargs`` every one). A call is
    resolved through the source's imports; ``obj.m(...)`` on anything but a
    module alias reaches every public method named ``m``."""
    tree = ast.parse(source)
    resolve = _resolver(tree, module)
    methods: dict[str, list[str]] = {}
    for target in sigs:
        if target.count(".") == 2:
            methods.setdefault(target.rsplit(".", 1)[1], []).append(target)
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve(node.func)
        if target in sigs:
            targets = [target]
        elif target is None and isinstance(node.func, ast.Attribute):
            targets = methods.get(node.func.attr, [])
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        for target in targets:
            positional, defaulted = sigs[target]
            given = found.setdefault(target, set())
            given |= set(positional if starred else positional[:len(node.args)])
            for keyword in node.keywords:
                given |= set(positional + defaulted) if keyword.arg is None else {keyword.arg}
    return found


def unset_parameters(package: dict[str, str], outside: list[str],
                     allowed: set[str]) -> list[str]:
    """``target(parameter)`` for each defaulted parameter of ``package``'s
    (module -> source) public definitions that no call in ``package`` or in
    the ``outside`` sources passes, unless ``allowed`` names it or its
    target. A definition that no call reaches is skipped: whether it has a
    caller at all is the name gate's question."""
    sigs = {}
    for module, source in package.items():
        sigs |= signatures(source, module)
    passed: dict[str, set[str]] = {}
    sources = [*package.items(), *((None, source) for source in outside)]
    for module, source in sources:
        for target, given in passed_parameters(source, module, sigs).items():
            passed.setdefault(target, set()).update(given)
    return sorted(f"{target}({name})" for target, given in passed.items()
                  for name in sigs[target][1]
                  if name not in given and target not in allowed
                  and f"{target}({name})" not in allowed)


def _section_types() -> set[str]:
    """``module.Type`` of each ``PipelineConfig`` section."""
    tree = ast.parse((SRC / "config.py").read_text())
    resolve = _resolver(tree, "config")
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "PipelineConfig")
    return {resolve(node.annotation) for node in config.body
            if isinstance(node, ast.AnnAssign) and node.target.id != "seed"}


def test_every_parameter_is_set_by_a_caller():
    package = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    outside = [path.read_text() for path in sorted((ROOT / "benchmark").glob("*.py"))]
    allowed = {
        # the console script calls main() bare; the tests pass argv
        "cli.main(argv)",
        # config._section fills every field of a section from YAML, as
        # cls(**values), so a user's config file is its caller
        *_section_types(),
    }
    assert unset_parameters(package, outside, allowed) == []


def test_scan_flags_an_unset_parameter():
    package = {
        "a": ("from dataclasses import dataclass, field\n"
              "def never(x, flag=False):\n    return x\n"
              "def by_position(x, scale=1.0):\n    return x\n"
              "def by_keyword(x, *, shift=0.0):\n    return x\n"
              "def allowed(x, argv=None):\n    return x\n"
              "def unreached(x, alpha=1.0):\n    return x\n"
              "@dataclass\nclass Spec:\n    n: int\n    eps: float = 1e-9\n"
              "    cache: list = field(default_factory=list)\n"
              "class State:\n    def __init__(self, beta=0.9):\n        self.beta = beta\n"
              "    def step(self, lr=0.1):\n        return lr\n"
              "    def _private(self, unused=0):\n        return unused\n"),
        "b": ("from . import a as alias\nfrom .a import Spec, never\n"
              "def main():\n"
              "    state = alias.State(0.5)\n"
              "    state.step()\n"
              "    return (never(1), alias.by_position(1, 2.0), alias.by_keyword(1, shift=1.0),\n"
              "            alias.allowed(1), Spec(3, eps=1e-6))\n"),
    }
    benchmark = "from cellscape import a\na.State(0.5).step(lr=0.2)\n"
    assert unset_parameters(package, [benchmark], {"a.allowed(argv)"}) == [
        "a.Spec(cache)", "a.never(flag)"]


def stored_attributes(source: str, module: str) -> list[str]:
    """``module.Class.name`` for each public attribute of each public class:
    annotated or assigned class-body names, ``self.<name>`` stores in any
    method, and public methods and properties."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        names = []
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.append(node.target.id)
            elif isinstance(node, ast.Assign):
                names += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.FunctionDef):
                names.append(node.name)
                names += [n.attr for n in ast.walk(node)
                          if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                          and isinstance(n.value, ast.Name) and n.value.id == "self"]
        found += [f"{module}.{cls.name}.{name}" for name in dict.fromkeys(names)
                  if not name.startswith("_")]
    return found


def unread_attributes(package: dict[str, str], readers: list[str],
                      allowed: set[str]) -> list[str]:
    """Each stored attribute of ``package``'s (module -> source) public
    classes that no ``<expr>.<name>`` load in ``readers`` reads, unless
    ``allowed`` names it. A read resolves by name alone: ``x.n`` reads every
    attribute ``n`` of every class."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(target for module, source in package.items()
                  for target in stored_attributes(source, module)
                  if target.rsplit(".", 1)[1] not in read and target not in allowed)


def test_every_stored_attribute_is_read():
    package = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    readers = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    readers += [p.read_text() for p in sorted((ROOT / "benchmark").glob("*.py"))]
    allowed = {
        # the tests compare the EM guard's penalized objective with the loop
        # oracle's, the only direct check of its tr(cov^-1) term
        "cluster.DomainLabels.objective_path",
    }
    assert unread_attributes(package, readers, allowed) == []


def test_scan_flags_an_unread_attribute():
    package = {
        "a": ("from dataclasses import dataclass\n"
              "@dataclass\nclass Record:\n    kept: int\n    unread: int\n"
              "    LIMIT = 3\n"
              "    @property\n    def size(self) -> int:\n        return self.kept\n"
              "class State:\n    def __init__(self):\n        self.count = 0\n"
              "        self.stale = 0\n        self._private = 0\n"
              "    def step(self):\n        self.count += 1\n"
              "    def never(self):\n        return 0\n"
              "class _Hidden:\n    unused: int\n"),
        "b": ("def main(record, state, other):\n"
              "    state.step()\n"
              "    return record.size + other.count + other.LIMIT\n"),
    }
    readers = list(package.values())
    assert unread_attributes(package, readers, {"a.State.never"}) == [
        "a.Record.unread", "a.State.stale"]
    assert unread_attributes(package, readers, set()) == [
        "a.Record.unread", "a.State.never", "a.State.stale"]


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


def test_cli_and_pipeline_import_skip_yaml():
    # only ``load_config`` reads YAML, and only when it is given a file
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, cellscape.cli, cellscape.pipeline; print('yaml' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
