"""Source hygiene checks that need no linter: stdlib `ast` only."""

import ast
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
