"""Span tracing of the library from outside, for the traced (--trace 1) run.

`Tracer.install()` wraps public functions at every place a starinv module
binds them (the defining module and each `from .x import f` site), plus a
few methods on ExactMatrix and FiniteStarRing.  Each wrapped boundary
records a span (name, start, end, parent) kept in compact arrays until the
run ends, but only inside an op's root span, so input generation between
ops is never counted; hot calls (matrix equality, ring table lookups) are counters only,
and matrix products are timed leaves folded into their parent span.  A
span's self time is its duration minus its child spans and timed leaves.
Nothing under src/ is changed; `uninstall()` restores every binding.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

RELATIONS = ("minus", "1mp", "mp1", "diamond", "plus")
PLUS_METHODS = (
    "canonical",
    "minus-shortcut",
    "right-solve",
    "left-solve",
    "corner-search",
    "containment",
    "undecided-negative",
)
THEOREM_IDS = (
    "one_mp_characterization",
    "one_mp_products",
    "one_mp_family_completeness",
    "one_mp_condition_equivalences",
    "one_mp_existence_projections",
    "one_mp_closure",
    "partial_isometry_solutions",
    "inner_inverse_block_form",
    "inverse_class_intersection",
    "order_1mp_above_form",
    "order_1mp_upper_inverses",
    "order_1mp_axioms",
    "order_1mp_equivalences",
    "order_1mp_projection_form",
    "order_1mp_inverse_inheritance",
    "order_1mp_minus_link",
    "mp_one_characterization",
    "mp_one_family_completeness",
    "order_mp1_duality",
    "order_mp1_above_form",
    "order_mp1_upper_inverses",
    "order_mp1_axioms",
    "order_minus_axioms",
    "minus_idempotent_form",
    "diamond_factorization",
    "order_inclusions",
    "projection_family_form",
    "order_plus_axioms",
    "order_plus_block_form",
)
ORACLE_RINGS = ("z12", "m2gf2", "m2gf3")
CLI_RINGS = ("z6", "m2gf2")

DL = "decide-large-holds"
DS = "decide-small-holds and -fails"
OS = "oracle-sweep"
CLI = "cli-oneshot"


def _layer_metrics():
    """(name, unit, which end-to-end metric it should move, on which workload)."""
    m = [
        ("fields.max_entry_bits", "bits", f"typical_op_ms on {DL}"),
        ("fields.field_by_name.self_s", "s/op", f"ops_per_s and typical_op_ms on {CLI}"),
    ]
    solve = f"typical_op_ms on {DL} most, ops_per_s on {DS} less, nothing on {OS}"
    m += [
        ("matrix.solve_matrix_equations.calls", "1/op", solve),
        ("matrix.solve_matrix_equations.self_s", "s/op", solve),
        ("matrix.solve_matrix_equations.max_unknowns", "count", solve),
        ("matrix.rref.calls", "1/op", solve),
        ("matrix.rref.self_s", "s/op", solve),
        ("matrix.rref.max_cells", "count", solve),
        ("matrix.mul.calls", "1/op", f"ops_per_s on every decide workload; setup_s on {OS}"),
        ("matrix.mul.self_s", "s/op", f"ops_per_s on every decide workload; setup_s on {OS}"),
    ]
    small = f"ops_per_s and typical_op_ms on {DS}"
    m += [
        ("matrix.mp_inverse.calls", "1/op", small),
        ("matrix.mp_inverse.self_s", "s/op", small),
        ("matrix.penrose_equations.self_s", "s/op", small),
        ("matrix.space_leq.calls", "1/op", small),
        ("matrix.space_leq.self_s", "s/op", small),
        ("matrix.eq.calls", "1/op", f"ops_per_s on {OS}"),
        ("inverses.dagger.calls", "1/op", f"ops_per_s on {DS}"),
        ("inverses.dagger.distinct", "1/op", f"ops_per_s on {DS}"),
        ("inverses.dagger.self_s", "s/op", f"ops_per_s on {DS}"),
        ("inverses.is_one_mp.self_s", "s/op", f"ops_per_s on {DS}"),
        ("inverses.is_mp_one.self_s", "s/op", f"ops_per_s on {DS}"),
    ]
    decide = "ops_per_s and typical_op_ms on every decide workload"
    for rel in RELATIONS:
        m += [
            (f"orders.leq_{rel}.calls", "1/op", decide),
            (f"orders.leq_{rel}.self_s", "s/op", decide),
        ]
    m += [("orders.lp.self_s", "s/op", decide), ("orders.rp.self_s", "s/op", decide)]
    for tag in PLUS_METHODS:
        m.append((f"orders.plus.method.{tag}", "1/op", "the undecided count and op latency on every decide workload"))
    for ring in ORACLE_RINGS + ("z6",):
        m.append((f"finite.build_s.{ring}", "s", f"setup_s on {OS}; typical_op_ms on {CLI}"))
    m.append(("finite.structure_s", "s", f"setup_s on {OS}; typical_op_ms on {CLI}"))
    m.append(("finite.table_ops", "1/op", f"ops_per_s on {OS}"))
    for part in ("lp_members", "rp_members", "rel", "inner_inverses", "corner"):
        m += [
            (f"finite.{part}.calls", "1/op", f"ops_per_s on {OS}"),
            (f"finite.{part}.self_s", "s/op", f"ops_per_s on {OS}"),
        ]
    for tid in THEOREM_IDS:
        m.append((f"theorems.{tid}.m2gf3_s", "s", f"ops_per_s and typical_op_ms on {OS}"))
    m += [
        ("theorems.checked", "count", f"must repeat exactly on {OS}"),
        ("theorems.checked_per_s", "1/s", f"ops_per_s and typical_op_ms on {OS}"),
        ("cli.interp_ms", "ms", f"nothing: bare interpreter start, shown beside import on {CLI}"),
        ("cli.import_ms", "ms", f"typical_op_ms on {CLI}"),
        ("cli.parse.self_s", "s/op", f"typical_op_ms on {CLI}"),
        ("cli.command.self_s", "s/op", f"typical_op_ms on {CLI}"),
        ("trace.overhead", "ratio", "nothing: 1 - traced ops_per_s / untraced ops_per_s"),
    ]
    return m


LAYER_METRICS = _layer_metrics()


def _entry_bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return int(value).bit_length()


class Tracer:
    """Spans, counters and leaf timings for one traced phase."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_excluded = array("d")  # timed leaves and tracer work inside the span
        self.stack = []
        self.counts = Counter()
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.maxima = Counter()
        self.dagger_keys = set()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_excluded.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def end(self, idx):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def _exclude(self, seconds):
        self.span_excluded[self.stack[-1]] += seconds

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            if not self.stack:  # outside any op: input generation, not measured
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None and self.stack:
                t0 = perf_counter()
                after(args, result)
                self._exclude(perf_counter() - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn, after=None):
        def wrapper(*args):
            if not self.stack:
                return fn(*args)
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
            agg = self.leaves[name]
            agg[0] += 1
            agg[1] += t1 - t0
            if after is not None:
                after(args, result)
            self._exclude(perf_counter() - t0)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        stack = self.stack

        def wrapper(*args):
            if stack:
                counts[name] += 1
            return fn(*args)

        return wrapper

    def note_bits(self, m):
        ents = getattr(m, "entries", None)
        if ents:
            bits = max(_entry_bits(v) for v in ents)
            if bits > self.maxima["fields.max_entry_bits"]:
                self.maxima["fields.max_entry_bits"] = bits

    def note_max(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- results -------------------------------------------------------------

    def self_times(self):
        """name -> [calls, self seconds] over every recorded span."""
        count = len(self.span_start)
        child = array("d", bytes(8 * count))
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = defaultdict(lambda: [0, 0.0])
        for i in range(count):
            agg = out[self.names[self.span_name[i]]]
            agg[0] += 1
            agg[1] += (
                self.span_end[i] - self.span_start[i] - child[i] - self.span_excluded[i]
            )
        for name, (calls, seconds) in self.leaves.items():
            agg = out[name]
            agg[0] += calls
            agg[1] += seconds
        return out

    def layer_values(self, ops):
        """Per-op values of every span, leaf and counter metric."""
        per = 1.0 / max(ops, 1)
        values = {}
        for name, (calls, seconds) in self.self_times().items():
            values[f"{name}.calls"] = calls * per
            values[f"{name}.self_s"] = seconds * per
        for name, calls in self.counts.items():
            values[name] = calls * per
        values["inverses.dagger.distinct"] = len(self.dagger_keys) * per
        values.update(self.maxima)
        return values

    # -- installation --------------------------------------------------------

    def rebind(self, original, wrapper):
        """Replace `original` wherever a starinv module binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "starinv" or modname.startswith("starinv.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        import starinv.cli as cli
        import starinv.fields as fields
        import starinv.inverses as inverses
        import starinv.matrix as matrix
        import starinv.orders as orders
        from starinv.finite import FiniteStarRing
        from starinv.matrix import ExactMatrix

        def rref_after(args, result):
            self.note_max("matrix.rref.max_cells", args[0].rows * args[0].cols)
            self.note_bits(result[0])

        def solve_after(args, result):
            rows, cols = args[1]
            self.note_max("matrix.solve_matrix_equations.max_unknowns", rows * cols)
            self.note_bits(result)

        def dagger_after(args, result):
            a = args[0]
            self.dagger_keys.add((getattr(a, "shape", None), hash(a)))

        def plus_after(args, result):
            self.counts[f"orders.plus.method.{result.method}"] += 1

        def bits_after(args, result):
            self.note_bits(result)

        spans = [
            (fields.field_by_name, "fields.field_by_name", None),
            (matrix.solve_matrix_equations, "matrix.solve_matrix_equations", solve_after),
            (matrix.rref, "matrix.rref", rref_after),
            (matrix.mp_inverse, "matrix.mp_inverse", bits_after),
            (matrix.penrose_equations, "matrix.penrose_equations", None),
            (matrix.column_space_leq, "matrix.space_leq", None),
            (matrix.row_space_leq, "matrix.space_leq", None),
            (inverses.dagger, "inverses.dagger", dagger_after),
            (inverses.is_one_mp, "inverses.is_one_mp", None),
            (inverses.is_mp_one, "inverses.is_mp_one", None),
            (orders.lp, "orders.lp", None),
            (orders.rp, "orders.rp", None),
            (cli.parse_matrix_document, "cli.parse", None),
        ]
        for rel in RELATIONS:
            fn = getattr(orders, f"leq_{rel}")
            spans.append((fn, f"orders.leq_{rel}", plus_after if rel == "plus" else None))
        for cmd in ("cmd_mp", "cmd_onemp", "cmd_mpone", "cmd_order", "cmd_verify"):
            spans.append((getattr(cli, cmd), "cli.command", None))
        for fn, name, after in spans:
            self.rebind(fn, self.span(name, fn, after))

        self._patch_method(
            ExactMatrix, "__mul__", self.leaf("matrix.mul", ExactMatrix.__mul__, bits_after)
        )
        self._patch_method(ExactMatrix, "__eq__", self.counter("matrix.eq.calls", ExactMatrix.__eq__))
        for attr in ("mul", "add", "sub", "mul3"):
            fn = FiniteStarRing.__dict__[attr]
            self._patch_method(FiniteStarRing, attr, self.counter("finite.table_ops", fn))
        for attr in ("lp_members", "rp_members", "inner_inverses", "corner"):
            fn = FiniteStarRing.__dict__[attr]
            self._patch_method(FiniteStarRing, attr, self.span(f"finite.{attr}", fn))
        for rel in RELATIONS:
            fn = FiniteStarRing.__dict__[f"rel_{rel}"]
            self._patch_method(FiniteStarRing, f"rel_{rel}", self.span("finite.rel", fn))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
