"""The formula layer imports nothing from the brute-force oracle, and exact
arithmetic stays in its two modules.

fields, matrix, inverses, ring, orders and zn decide by formulas; finite and
theorems enumerate carriers.  Agreement between the two layers is evidence
only while no formula reads an oracle scan, so an import of `finite` or
`theorems` from a formula module, at any level, fails here.

A matrix's packed form (int `nums` over one `den`) belongs to fields.py and
matrix.py: any other module that reads `.nums` or `.den`, or calls `pack` or
`unpack`, fails here.
"""

import ast
from pathlib import Path

import pytest

import starinv

FORMULA_LAYER = ("fields", "matrix", "inverses", "ring", "orders", "zn")
ORACLE = {"finite", "theorems"}
PACKED_OWNERS = {"fields.py", "matrix.py"}
PACKED_READS = {"nums", "den"}
PACKED_CALLS = {"pack", "unpack"}


def _imported_names(tree):
    """Every dotted module name an import statement in tree can bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)


@pytest.mark.parametrize("module", FORMULA_LAYER)
def test_formula_module_does_not_import_the_oracle(module):
    path = Path(starinv.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = sorted(
        name for name in _imported_names(tree) if ORACLE & set(name.split("."))
    )
    assert not offending, f"{module}.py imports {offending}"


@pytest.mark.parametrize(
    "path", sorted(Path(starinv.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_dataclasses(path):
    # records are NamedTuples or slotted classes: importing dataclasses costs a CLI child ~10 ms
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = sorted(
        name for name in _imported_names(tree) if name.split(".")[0] == "dataclasses"
    )
    assert not offending, f"{path.name} imports {offending}"


def _packed_uses(tree):
    """(line, text) for every read of a packed field and every pack/unpack call in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PACKED_READS:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PACKED_CALLS:
                yield node.lineno, f"{name}()"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(starinv.__file__).parent.glob("*.py") if p.name not in PACKED_OWNERS),
    ids=lambda p: p.name,
)
def test_only_fields_and_matrix_read_the_packed_form(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = sorted(_packed_uses(tree))
    assert not offending, f"{path.name} reads the packed form at {offending}"
