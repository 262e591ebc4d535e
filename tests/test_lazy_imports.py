"""The package namespace loads on first use, and CLI children load only their command's modules.

`import starinv` binds nothing but the name table; each public name resolves
to the same object its home module exports.  A `python -m starinv.cli` child
loads exactly the layers its command runs, beside `cli`, `errors` and
`fields`: `order` loads `matrix` and `orders` (Z_n and `dagger` are not on
its matrix path); `verify` loads `matrix`, `zn` and the oracle (`finite`,
`theorems`); `mp`, `onemp` and `mpone` load `matrix` and `inverses`.  No
child loads `forms`.  `inverses` and `zn` do not import each other.
"""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import starinv
from starinv import GF, QQ, ExactMatrix
from starinv.cli import serialize_matrix_document

EXPORTED = [
    "CarrierTooLarge", "ConditionFailure", "CornerViolation", "DimensionMismatch",
    "DocumentError", "ExactMatrix", "FiniteStarRing", "GF",
    "InternalCheckError", "InverseFamily", "MP1Witness",
    "MinusWitness", "NotA1MPInverse", "NotInnerInverse", "NotMPInvertible",
    "NotPartialIsometry", "NotRegular", "NotRickart", "OneMPAboveForm", "OneMPWitness",
    "OrderVerdict", "OrderViolation", "PenroseProfile",
    "PlusBlockData", "PlusWitness", "ProjectionWitness", "QQ", "RankFactorization",
    "RingMismatch", "StarInvError", "TheoremReport", "UniquenessViolation", "UnknownRing",
    "UnknownTheorem", "ZnElement", "above_1mp", "above_mp1", "b_1mp_inverse_check",
    "closure_products", "column_space_leq", "dagger", "embed_square",
    "existence_via_projections", "family_1mp", "family_mp1", "field_by_name",
    "full_rank_factorize", "in_corner",
    "is_inner_inverse", "is_member", "is_mp_invertible", "is_mp_one", "is_one_mp",
    "is_partial_isometry", "is_projection", "leq_1mp", "leq_1mp_routes", "leq_diamond",
    "leq_minus", "leq_mp1", "leq_plus", "lp", "lp_family_member", "matrix_star_ring",
    "mp_inverse", "mp_one", "one_mp", "order_axiom_suite", "partial_isometry_solutions",
    "penrose_profile", "plus_block_compose", "rank", "ring_by_name",
    "row_space_leq", "rp", "rp_family_member", "seven_conditions", "theorem_ids",
    "try_dagger", "verify_all", "verify_theorem", "zn_ring",
]  # fmt: skip

SUBMODULES = (
    "errors", "fields", "finite", "forms", "inverses", "matrix", "orders", "theorems", "zn"
)


def run_python(code, *args):
    """Run code in a fresh interpreter that imports the same starinv as this suite."""
    src = os.path.dirname(os.path.dirname(starinv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestNamespace:
    def test_all_is_the_exported_set(self):
        assert starinv.__all__ == EXPORTED
        assert starinv.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", EXPORTED)
    def test_name_is_its_home_modules_object(self, name):
        value = getattr(starinv, name)
        modules = [import_module(f"starinv.{mod}") for mod in SUBMODULES]
        assert any(getattr(mod, name, None) is value for mod in modules), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from starinv import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(EXPORTED)

    def test_dir_lists_names_and_submodules(self):
        assert set(EXPORTED) | set(SUBMODULES) <= set(dir(starinv))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            starinv.no_such_name
        assert not hasattr(starinv, "leq_nothing")

    def test_fresh_process_resolves_on_first_use(self):
        out = run_python(
            "import sys, starinv\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('starinv.'))\n"
            "assert loaded == [], loaded\n"
            "assert starinv.orders.leq_minus is starinv.leq_minus\n"
            "print(starinv.dagger(starinv.ZnElement(3, 12)))\n"
        )
        assert out == "3 (mod 12)\n"

    @pytest.mark.parametrize("module, absent", [("inverses", "zn"), ("zn", "inverses")])
    def test_inverses_and_zn_load_apart(self, module, absent):
        out = run_python(
            f"import sys, starinv.{module}\n"
            f"print('starinv.{absent}' in sys.modules)\n"
        )
        assert out == "False\n"

    def test_dagger_of_an_unsupported_type_raises(self):
        out = run_python(
            "import starinv\n"
            "try:\n"
            "    starinv.dagger(object())\n"
            "except TypeError as exc:\n"
            "    print(exc)\n"
        )
        assert out == "no dagger backend registered for object\n"


# "added" is what the CLI loads beyond a bare child: the interpreter, its
# site hooks (on some hosts they import inspect) and this harness.  The
# modules the test forbids are dropped first, so the CLI importing one shows
# even where a site hook loaded it.
CHILD = """
import contextlib, io, json, runpy, sys
sys.argv = ["starinv", *sys.argv[1:]]
for name in ("dataclasses", "hashlib", "inspect"):
    sys.modules.pop(name, None)
bare = set(sys.modules)
code = None
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("starinv.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - bare)}))
"""


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("docs")
    paths = {}
    for name, rows, field in (
        ("a", [[1, 1], [0, 0]], QQ),
        ("b", [[1, 0], [0, 1]], QQ),
        ("e", [[1, 0], [0, 0]], QQ),
        ("e5", [[1, 0], [0, 0]], GF(5)),
        ("b5", [[1, 0], [0, 1]], GF(5)),
    ):
        path = tmp / f"{name}.mat"
        path.write_text(serialize_matrix_document(ExactMatrix.from_rows(rows, field)))
        paths[name] = str(path)
    return paths


# each command's child loads every submodule but these
NOT_ORDER = {"inverses", "zn", "forms", "finite", "theorems"}  # the matrix path of an order
NOT_INVERSES = {"orders", "zn", "forms", "finite", "theorems"}  # mp, onemp and mpone
NOT_VERIFY = {"inverses", "orders", "forms"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("order", "minus", "{a}", "{b}"), NOT_ORDER),
        (("order", "plus", "{a}", "{a}"), NOT_ORDER),
        (("mp", "{a}"), NOT_INVERSES),
        (("onemp", "{a}", "{a}"), NOT_INVERSES),
        (("mpone", "{a}", "{a}"), NOT_INVERSES),
        (("verify", "--ring", "z6", "--theorems", "one_mp_closure"), NOT_VERIFY),
        (("order", "1mp", "{e}", "{b}"), NOT_ORDER),
        (("order", "1mp", "{e5}", "{b5}"), NOT_ORDER),
        (("order", "plus", "{e5}", "{b5}"), NOT_ORDER),
    ],
)
def test_cli_child_loads_only_its_commands_modules(docs, argv, absent):
    # the CLI itself runs as __main__, so every other submodule is one the command runs
    result = json.loads(run_python(CHILD, *(arg.format(**docs) for arg in argv)))
    assert result["code"] == 0
    added = set(result["added"])
    loaded = {name.split(".")[1] for name in added if name.startswith("starinv.")}
    assert loaded == set(SUBMODULES) - absent
    # records are NamedTuples, so no child pays for dataclasses (and the inspect it loads);
    # only the input digests of the matrix commands need hashlib
    unwanted = {"dataclasses", "inspect"} | ({"hashlib"} if argv[0] == "verify" else set())
    assert not added & unwanted, sorted(added & unwanted)
