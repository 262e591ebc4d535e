"""The benchmark's five workloads.

Every workload is one client in a closed loop: it issues an op, waits for
its result, checks it, then issues the next.  Ops come in rounds; a round is
started only while the run's time budget is predicted to cover it, so each
run measures whole rounds of a fixed composition.  Input generation for
later rounds happens between ops and is not timed; the first round's inputs
are built during set-up.

  decide-small-holds   n in {2, 3, 4}: relations the construction proves
  decide-small-fails   the same pairs: relations labelled false or unknown
  decide-large-holds   n = 8 over the rationals, proven relations
  oracle-sweep         the 29-theorem registry on z12, m2gf2 and m2gf3, by theorem
  cli-oneshot          one `python -m starinv.cli` child per op

Holds and fails are separate workloads because a positive decision costs
10-300x a rejection: a change that speeds up positives while slowing the
cheap rejections shows on its own row.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import starinv
from starinv import ExactMatrix, matrix_star_ring, theorems, zn_ring
from starinv import orders as od
from starinv.cli import serialize_matrix_document

from checks import check_cli_output, check_report, check_verdict, check_witness
from pairs import LARGE_SLICES, SMALL_SLICES, PairStream, field_of, random_matrix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_CHECKED = json.loads((HERE / "expected_checked.json").read_text())


class Op:
    """One timed library call plus the check of its output."""

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


class Problem(str):
    """Why an op failed: it raised, or its output is wrong."""


class Undecided(str):
    """Why an op's answer is undecided: the library returned its documented
    "undecided-negative" verdict (a negative it does not claim to have
    proven) on a pair built to hold.  The op ran to completion and its
    output is not wrong, so it is counted and reported apart from failures."""


def _fresh_rings():
    """Drop the library's cached rings so the next lookup builds them anew."""
    zn_ring.cache_clear()
    matrix_star_ring.cache_clear()


def _cold_copy(m):
    """A new matrix equal to m that shares no per-object state with it, so
    nothing that input generation or an earlier check computed on m is
    already at hand for the timed call."""
    return ExactMatrix(m.rows, m.cols, m.entries, m.field)


def _relation_call(rel, a, b):
    a, b = _cold_copy(a), _cold_copy(b)
    return lambda: getattr(od, f"leq_{rel}")(a, b)


def _verdict_check(rel, pair):
    def check(verdict):
        problem = check_verdict(rel, pair, verdict)
        if problem is None:
            return None
        if verdict.method == "undecided-negative" and pair.labels[rel] is True:
            return Undecided(problem)
        return Problem(problem)

    return check


# -- order decisions ------------------------------------------------------------


class Decide:
    """Seeded pairs through the relations of one truth class.

    A round is one cycle through every slice, so each run holds whole
    cycles of one composition.  decide-large has one slice, so a round is
    one pair of each kind: seven ops of about 3 s, and a run is one round
    whatever the host's speed.  There only minus, 1MP and MP1, which the
    library decides by an exact linear solve, are timed: diamond, the
    canonical plus and the plus ladder on composed pairs (0.1 s to 4 s at
    n = 8) would not fit in the same run.
    """

    SOLVED = ("minus", "1mp", "mp1")

    def __init__(self, seed, truth, large):
        self.seed = seed
        self.truth = truth
        self.large = large
        # see speed.py: at n = 8 ops take 3 s, so each tick takes two samples
        self.speed = {"per_tick": 2} if large else {}

    def setup(self):
        self.stream = self._first = None  # let the previous oracle ring go first
        _fresh_rings()
        gc.collect()
        if self.large:
            self.stream = PairStream(self.seed, LARGE_SLICES)
        else:
            self.stream = PairStream(self.seed, SMALL_SLICES, oracle=matrix_star_ring(3))
        self._first = self._round()
        return {}

    def _relations(self, pair):
        rels = pair.ops(self.truth)
        if self.large:
            rels = [r for r in rels if r in self.SOLVED]
        return rels

    def _round(self):
        pairs = []
        for _ in self.stream.slices:
            pairs += self.stream.next_pairs()
        return [
            Op(f"{rel}/{pair.field}/n{pair.n}", _relation_call(rel, pair.a, pair.b),
               _verdict_check(rel, pair))
            for pair in pairs
            for rel in self._relations(pair)
        ]

    def rounds(self):
        ops = self._first
        while True:
            yield ops
            ops = self._round()

    def layer_extras(self):
        return {}


# -- theorem oracle sweep -----------------------------------------------------------


class OracleSweep:
    """The 29-theorem registry on freshly built z12, m2gf2 and m2gf3 rings.

    One op verifies one theorem on the three rings (three verify_theorem
    calls, each report checked), so a round of 29 ops is the registry as
    one `starinv verify` per ring would run it.  Timing each call on its own
    would add 2-5 ms z12 and m2gf2 kinds, which a garbage collection pause
    moves by a fifth; per theorem, m2gf3 dominates.
    The registry has no random inputs, so the seed changes nothing here.
    """

    RINGS = ("z12", "m2gf2", "m2gf3")
    speed = {}

    def __init__(self, seed):
        self.rings = None
        self.reports = []  # (ring, theorem, report) from every sweep

    def _build(self):
        self.rings = None  # let the previous rings go before the new ones are built
        _fresh_rings()
        gc.collect()
        rings, build_s, structure_s = {}, {}, 0.0
        for name in self.RINGS:
            t0 = perf_counter()
            ring = starinv.ring_by_name(name)
            t1 = perf_counter()
            ring.mp_invertible  # the lazily built structure every sweep needs
            structure_s += perf_counter() - t1
            build_s[name] = t1 - t0
            rings[name] = ring
        return rings, build_s, structure_s

    def setup(self):
        self.rings, build_s, structure_s = self._build()
        extra = {f"finite.build_s.{name}": s for name, s in build_s.items()}
        extra["finite.structure_s"] = structure_s
        return extra

    def _op(self, tid):
        rings = self.rings

        def call():
            return [theorems.verify_theorem(rings[name], tid) for name in self.RINGS]

        def check(reports):
            for name, report in zip(self.RINGS, reports):
                self.reports.append((name, tid, report))
                problem = check_report(report, EXPECTED_CHECKED[name][tid])
                if problem is not None:
                    return Problem(problem)
            return None

        return Op(tid, call, check)

    def rounds(self):
        while True:
            yield [self._op(tid) for tid in theorems.theorem_ids()]
            self.rings = self._build()[0]

    def layer_extras(self):
        """Per-theorem m2gf3 times and checked counts from the library's reports."""
        sweeps = {}
        for name, tid, report in self.reports:
            sweeps.setdefault((name, tid), []).append(report)
        out = {}
        for tid in theorems.theorem_ids():
            reps = sweeps.get(("m2gf3", tid))
            if reps:
                out[f"theorems.{tid}.m2gf3_s"] = statistics.median(r.elapsed for r in reps)
        first = [reps[0] for reps in sweeps.values()]  # one full sweep
        out["theorems.checked"] = sum(r.checked for r in first)
        out["theorems.checked_per_s"] = out["theorems.checked"] / sum(r.elapsed for r in first)
        return out


# -- command-line children -------------------------------------------------------------

BIG_PRIME_FIELD = "gf:10000000000037"

# (command, relation, field tag, n, pair kind); one round runs every entry once.
CLI_MIX = (
    ("order", "minus", "rational", 2, "1mp"),
    ("order", "1mp", "rational", 3, "1mp"),
    ("order", "mp1", "gf:3", 2, "mp1"),
    ("order", "diamond", "gf:101", 3, "diamond"),
    ("order", "plus", "rational", 2, "1mp"),
    ("order", "1mp", "rational", 2, "perturbed"),
    ("order", "minus", "gf:101", 2, "perturbed"),
    ("order", "plus", "gf:3", 2, "plus"),
    ("mp", None, "rational", 3, None),
    ("onemp", None, "rational", 2, None),
    ("verify", "z6", None, None, None),
    ("verify", "m2gf2", None, None, None),
    ("order", "1mp", BIG_PRIME_FIELD, 2, "1mp"),
)


def _matrix_from_payload(payload):
    field = field_of(payload["field"])
    ents = [field.of(v) for row in payload["entries"] for v in row]
    return ExactMatrix(payload["rows"], payload["cols"], ents, field)


WITNESS_TYPES = {
    "minus": od.MinusWitness,
    "1mp": od.OneMPWitness,
    "mp1": od.MP1Witness,
    "diamond": od.DiamondWitness,
    "plus": od.PlusWitness,
}


_MAXIMA = (".max_unknowns", ".max_cells", ".max_entry_bits")


class CliOneshot:
    """Sequential `python -m starinv.cli` children over a fixed mix."""

    speed = {"kernel": "interpreter", "every_s": 0.5}  # see speed.py

    def __init__(self, seed):
        self.seed = seed
        self.workdir = None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.counter = 0
        self.trace_children = False
        self.child_values = []

    def setup(self):
        if self.workdir is None:
            (ROOT / ".bench_work").mkdir(exist_ok=True)
            self.workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        _fresh_rings()
        self.rng = random.Random(self.seed)
        oracle = matrix_star_ring(3)
        self.streams = {}
        for _, _, tag, n, kind in CLI_MIX:
            if kind and (tag, n) not in self.streams:
                stream_seed = self.rng.randrange(2**32)
                self.streams[tag, n] = PairStream(stream_seed, ((tag, n),), oracle=oracle)
        self._first = self._round()
        return {}

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _path(self, suffix):
        self.counter += 1
        return str(self.workdir / f"f{self.counter}.{suffix}")

    def _doc(self, matrix):
        path = self._path("txt")
        Path(path).write_text(serialize_matrix_document(matrix))
        return path

    def _pair_of_kind(self, tag, n, kind):
        while True:
            for pair in self.streams[tag, n].next_pairs():
                if pair.kind == kind:
                    return pair

    def _round(self):
        ops = []
        for command, arg, tag, n, kind in CLI_MIX:
            if command == "order":
                pair = self._pair_of_kind(tag, n, kind)
                argv = ["order", arg, self._doc(pair.a), self._doc(pair.b)]
                check = self._order_check(arg, pair)
            elif command == "mp":
                a = self._pair_of_kind(tag, n, "1mp").a
                argv = ["mp", self._doc(a)]
                check = self._mp_check(a)
            elif command == "onemp":
                a = self._pair_of_kind(tag, n, "1mp").a
                k = _inner_inverse(self.rng, a)
                argv = ["onemp", self._doc(a), self._doc(k)]
                check = self._onemp_check(a)
            else:
                argv = ["verify", "--ring", arg]
                check = self._verify_check(arg)
            ops.append(Op(f"{command} {arg or ''} {tag or ''}".strip(), self._child(argv), check))
        return ops

    def _child(self, argv):
        def call():
            if self.trace_children:
                out = self._path("trace.json")
                prefix = [sys.executable, str(HERE / "traced_cli.py"), out]
            else:
                prefix = [sys.executable, "-m", "starinv.cli"]
            proc = subprocess.run(
                prefix + argv,
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=120,
            )
            if self.trace_children:
                self.child_values.append(json.loads(Path(out).read_text()))
            return proc.returncode, proc.stdout

        return call

    def child_layer_values(self):
        """Per-child means of the traced children's span and counter values."""
        totals, seen = {}, {}
        for values in self.child_values:
            for key, value in values.items():
                if key.startswith("finite.build_s.") or key.endswith(_MAXIMA):
                    seen.setdefault(key, []).append(value)
                else:
                    totals[key] = totals.get(key, 0.0) + value
        children = max(len(self.child_values), 1)
        out = {k: v / children for k, v in totals.items()}
        for key, values in seen.items():
            out[key] = statistics.mean(values) if key.startswith("finite.") else max(values)
        return out

    def layer_extras(self):
        """Bare interpreter start and the import of starinv.cli, medians of five."""
        def median_ms(code):
            times = []
            for _ in range(5):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                               check=True, timeout=120)
                times.append(perf_counter() - t0)
            return statistics.median(times) * 1000.0

        interp = median_ms("pass")
        return {"cli.interp_ms": interp, "cli.import_ms": median_ms("import starinv.cli") - interp}

    def rounds(self):
        ops = self._first
        while True:
            yield ops
            ops = self._round()

    @staticmethod
    def _order_check(rel, pair):
        def check(out):
            report, problem = check_cli_output(*out)
            if problem:
                return Problem(problem)
            results = report["results"]
            label = pair.labels[rel]
            if label is not None and results["holds"] != label:
                return Problem(f"order {rel}: holds={results['holds']}, label {label}")
            if results["holds"]:
                payload = results["witness"]
                witness = payload and WITNESS_TYPES[rel](
                    **{k: _matrix_from_payload(v) for k, v in payload.items()}
                )
                problem = check_witness(rel, pair.a, pair.b, witness)
                return None if problem is None else Problem(problem)
            return None

        return check

    @staticmethod
    def _mp_check(a):
        def check(out):
            report, problem = check_cli_output(*out)
            if problem:
                return Problem(problem)
            if report["status"] != "ok":
                return Problem("mp failed on a matrix with a Moore-Penrose inverse")
            x = _matrix_from_payload(report["results"]["mp_inverse"])
            ax, xa = a * x, x * a
            if not (ax * a == a and xa * x == x and ax.star == ax and xa.star == xa):
                return Problem("mp output fails a Penrose equation")
            return None

        return check

    @staticmethod
    def _onemp_check(a):
        def check(out):
            report, problem = check_cli_output(*out)
            if problem:
                return Problem(problem)
            if report["status"] != "ok":
                return Problem("onemp failed on a valid inner inverse")
            x = _matrix_from_payload(report["results"]["inverse"])
            ax = a * x
            if not (ax * a == a and x * a * x == x and ax.star == ax):
                return Problem("onemp output is not a {1,2,3}-inverse")
            return None

        return check

    @staticmethod
    def _verify_check(ring):
        def check(out):
            report, problem = check_cli_output(*out)
            if problem:
                return Problem(problem)
            expected = EXPECTED_CHECKED[ring]
            for rep in report["reports"]:
                if not rep["passed"] or rep["checked"] != expected[rep["theorem"]]:
                    return Problem(f"verify {ring}: {rep['theorem']} checked {rep['checked']}")
            if len(report["reports"]) != len(expected):
                return Problem(f"verify {ring}: {len(report['reports'])} reports")
            return None

        return check


def _inner_inverse(rng, a):
    """dagger(a) plus corner terms: a seeded member of a{1}."""
    n = a.rows
    d = starinv.dagger(a)
    p, q = a * d, d * a
    eye = ExactMatrix.identity(n, a.field)
    k = d + q * random_matrix(rng, n, n, a.field) * (eye - p)
    k = k + (eye - q) * random_matrix(rng, n, n, a.field) * p
    return k + (eye - q) * random_matrix(rng, n, n, a.field) * (eye - p)


WORKLOADS = {
    "decide-small-holds": lambda seed: Decide(seed, True, large=False),
    "decide-small-fails": lambda seed: Decide(seed, False, large=False),
    "decide-large-holds": lambda seed: Decide(seed, True, large=True),
    "oracle-sweep": OracleSweep,
    "cli-oneshot": CliOneshot,
}
