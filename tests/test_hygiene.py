"""Source hygiene checks that need no linter: stdlib `ast` only."""

import ast
import importlib
import json
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import recoupler

PACKAGE = sorted(Path(recoupler.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import statement -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


GATE_KINDS = set(importlib.import_module("recoupler.compiler")._GATES)
OUTSIDE_COMPILER = [p for p in MODULES if p.name != "compiler.py"]


def _kind_comparisons(tree: ast.Module) -> list[int]:
    """Lines that compare a value (==, !=, in, not in) against a gate-kind literal."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or not any(
            isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
        ):
            continue
        for operand in (node.left, *node.comparators):
            is_collection = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
            items = operand.elts if is_collection else [operand]
            if any(isinstance(i, ast.Constant) and i.value in GATE_KINDS for i in items):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", OUTSIDE_COMPILER, ids=lambda p: p.name)
def test_gate_kinds_are_compared_only_in_the_compiler(path):
    """What differs between gate kinds is data in their `_GATES` row; another module that
    branches on a kind name would verify or count a new row as some other kind."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _kind_comparisons(tree)
    assert not lines, f"{path.name}: compares against a gate kind on lines {lines}"


TESTS = sorted(Path(__file__).parent.glob("*.py"))
OUTSIDE_PAULI = [p for p in PACKAGE if p.name != "pauli.py"] + TESTS


@pytest.mark.parametrize("path", OUTSIDE_PAULI, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_pauli_terms_stay_inside_pauli(path):
    """Only pauli.py reads the (x, z)-keyed `_terms` or imports a private pauli name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    leaks = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_terms")
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").rpartition(".")[2] == "pauli"
            and any(alias.name.startswith("_") for alias in node.names)
        )
    ]
    assert not leaks, f"{path.name}: Pauli internals used on lines {leaks}"


ROOT = Path(__file__).parent.parent
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _resolve(dotted: str):
    """Follow `a.b.c` from the recoupler package, importing submodules on the way."""
    obj = recoupler
    for part in dotted.split("."):
        if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def _rc_chain(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "rc" and parts:
        return ".".join(reversed(parts))
    return None


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_benchmark_names_resolve(path):
    """Every `rc.<name>` the benchmark reads exists in recoupler."""
    tree = ast.parse(path.read_text(), filename=str(path))
    chains = {c for node in ast.walk(tree) if (c := _rc_chain(node))}
    missing = []
    for dotted in sorted(chains):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert not missing, f"{path.name}: recoupler has no {missing}"


def test_tracer_hooks_resolve():
    """The tracer skips a hook point it cannot find, so a rename would silently
    report the layer absent; every (namespace, name) in HOOKS must exist."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    hooks = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]
    )
    points = [
        (ns, ast.literal_eval(hook.elts[1]))
        for hook in hooks.elts
        for ns in ast.literal_eval(hook.elts[2])
    ]
    assert points
    missing = [
        (ns, name)
        for ns, name in points
        if not hasattr(importlib.import_module("recoupler" + (f".{ns}" if ns else "")), name)
    ]
    assert not missing, f"tracer hook points with no target: {missing}"


def test_readme_circuit_example_shows_every_gate_kind():
    """README's circuit-JSON example holds one record of each `_GATES` kind, so a new
    row cannot land undocumented."""
    section = (ROOT / "README.md").read_text().split("Circuit JSON", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert sorted(record["gate"] for record in json.loads(block)) == sorted(GATE_KINDS)


def test_pauli_sum_iterates_letters_and_coefficients():
    """perfbench/make_reference.py builds its kron oracle from `for letters, coeff in ps`."""
    ps = recoupler.PauliSum(3, {"XIZ": 0.5, "YYI": -2.0})
    items = list(ps)
    assert all(isinstance(letters, str) for letters, _ in items)
    assert dict(items) == {"XIZ": 0.5, "YYI": -2.0}


def _exported_names() -> list[str]:
    tree = ast.parse((Path(recoupler.__file__).parent / "__init__.py").read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _uses_outside_definition(tree: ast.Module, name: str) -> bool:
    """A load of `name` anywhere but inside its own def or class."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_public_names_are_used_or_documented():
    """An exported name stays only if the package itself uses it or README
    documents it (as code, in backticks)."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in MODULES]
    readme = (ROOT / "README.md").read_text()
    documented = set(re.findall(r"`([^`]*)`", readme))
    unused = [
        name
        for name in _exported_names()
        if not any(_uses_outside_definition(t, name) for t in trees)
        and not any(re.search(rf"\b{name}\b", code) for code in documented)
    ]
    assert not unused, f"exported but neither used in src/ nor named in README: {unused}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level private function, class and constant, and
    of each private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_private(node.name):
            yield node.name, node
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and _is_private(target.id):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _is_private(item.name):
                    yield item.name, item


def _reads(node) -> Counter:
    """How often each name is read under `node`: as a name, an attribute or an import."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
    return reads


def test_every_private_name_is_read():
    """A private name that nothing in src/ reads outside its own definition is dead code."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if total[name] <= _reads(node)[name]
    ]
    assert not unread, f"private names defined but never read: {unread}"


def test_every_public_function_is_used_or_exported():
    """A module-level public function that src/ never reads and the package does not
    export serves tests alone: tests compose the kernels the package itself runs."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    exported = set(_exported_names())
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not _is_private(node.name)
        and node.name not in exported
        and not any(_uses_outside_definition(t, node.name) for t in trees.values())
    ]
    assert not unused, f"public functions neither used in src/ nor exported: {unused}"
