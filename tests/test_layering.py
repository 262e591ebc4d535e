"""The formula layer imports nothing from the brute-force oracle.

fields, matrix, inverses, ring, orders and zn decide by formulas; finite and
theorems enumerate carriers.  Agreement between the two layers is evidence
only while no formula reads an oracle scan, so an import of `finite` or
`theorems` from a formula module, at any level, fails here.
"""

import ast
from pathlib import Path

import pytest

import starinv

FORMULA_LAYER = ("fields", "matrix", "inverses", "ring", "orders", "zn")
ORACLE = {"finite", "theorems"}


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
