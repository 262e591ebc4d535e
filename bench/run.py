"""starinv benchmark: one workload per run, outputs checked, metrics printed.

    python3 bench/run.py --workload decide-small-holds --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from a checkout whose src/ holds the library; nothing is installed.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 half the time runs untraced and half traced, and the
JSON carries the per-layer metrics instead.  --record PATH appends the
result, with the host it ran on, to a JSON-lines file that
`bench/compare.py` reads.  See bench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_SAMPLES = 2  # kernel samples before the first set-up and after each
WALL_CAP = 1.25
WORKLOAD_NAMES = (
    "decide-small-holds",
    "decide-small-fails",
    "decide-large-holds",
    "oracle-sweep",
    "cli-oneshot",
)


def _import_library():
    """Import starinv from this checkout's src/, and nowhere else."""
    if not (SRC / "starinv" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library at {SRC / 'starinv'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import starinv

    if Path(starinv.__file__).resolve().parent != (SRC / "starinv").resolve():
        raise SystemExit(f"bench: imported starinv from {starinv.__file__}, not {SRC}")


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git(*args):
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_info(seed, load_start):
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }


def run_phase(workload, seconds, speed, tracer=None):
    """Run whole rounds while the budget is predicted to cover the next one.

    Latencies are scaled to nominal host speed by the kernel samples taken
    during the phase (see speed.py), and so is the budget, so that how many
    rounds a run holds does not follow the host's speed of the moment; a
    wall-clock cap of WALL_CAP x seconds still holds.
    """
    from workloads import Problem, Undecided

    raw, kinds, problems, undecided = [], [], [], []
    wall_start = perf_counter()
    speed.tick()
    spent = 0.0  # raw seconds of op time
    round_times = []
    for ops in workload.rounds():
        if round_times:
            estimate = sum(round_times) / len(round_times)
            scale = speed.scale(wall_start)
            over_budget = (spent + estimate) * scale > seconds
            if over_budget or perf_counter() - wall_start > WALL_CAP * seconds:
                break
        round_spent = 0.0
        for op in ops:
            speed.tick()
            span = tracer.begin("op") if tracer else None
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # any raise is a failed op, reported below
                t1 = perf_counter()
                problem = Problem(f"{op.kind}: raised {type(exc).__name__}: {exc}")
            else:
                t1 = perf_counter()
                try:
                    problem = op.check(out)
                except Exception as exc:  # malformed output the check could not read
                    problem = Problem(f"{op.kind}: check raised {exc!r}")
            if tracer:
                tracer.end(span)
            round_spent += t1 - t0
            raw.append(t1 - t0)
            kinds.append(op.kind)
            if isinstance(problem, Undecided):
                undecided.append((op.kind, problem))
            elif problem is not None:
                problems.append((op.kind, problem))
        ops.clear()  # drop the round's inputs before the next one is built
        spent += round_spent
        round_times.append(round_spent)
    speed.tick()  # the sample after the last op
    scale = speed.scale(wall_start)
    latencies = [t * scale for t in raw]
    return latencies, raw, kinds, problems, undecided


def end_to_end(setup_s, latencies, kinds, peak_rss_mb):
    from stats import kind_typical

    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "typical_op_ms": (kind_typical(kinds, [t * 1000.0 for t in latencies]), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(args):
    load_start = _loadavg()
    from spans import LAYER_METRICS, Tracer
    from speed import Speed
    from stats import median, tail
    from workloads import WORKLOADS, CliOneshot

    import_s = perf_counter() - T0

    workload = WORKLOADS[args.workload](args.seed)
    # set-up runs in this process on every workload, so the in-process kernel
    # scales it, with a few samples around each repeat
    setup_speed = Speed()
    setup_start = perf_counter()
    for _ in range(SETUP_SAMPLES):
        setup_speed.sample()
    try:
        setups, extras = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            extras.append(workload.setup())
            setups.append(perf_counter() - t0)
            for _ in range(SETUP_SAMPLES):
                setup_speed.sample()
        raw_setup_s = import_s + median(setups)
        setup_s = raw_setup_s * setup_speed.scale(setup_start)
        speed = Speed(**workload.speed)
        lines = [
            f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
            f"setup_s raw {raw_setup_s:.4f} s: import {import_s:.4f} s + median of "
            f"{SETUP_REPEATS} set-ups {[round(s, 4) for s in setups]}",
        ]
        if not args.trace:
            latencies, raw, kinds, problems, undecided = run_phase(
                workload, args.seconds, speed
            )
            peak = _peak_rss_mb(children=args.workload == "cli-oneshot")
            values = end_to_end(setup_s, latencies, kinds, peak)
            raw_values = end_to_end(raw_setup_s, raw, kinds, peak)
            lines.append(
                f"times at nominal host speed ({speed.kernel} kernel {speed.nominal_s * 1000:.2f} "
                f"ms; this run's mean {speed.mean_kernel_s() * 1000:.3f} ms)"
            )
            for name, (value, unit) in values.items():
                lines.append(f"{name:14s} {value:12.4f} {unit:3s}   raw {raw_values[name][0]:12.4f}")
            ms = sorted(t * 1000.0 for t in latencies)
            tail_ms, rank = tail(ms)
            lines.append(
                f"all ops (not gated): median {median(ms):.4f} ms, tail {tail_ms:.4f} ms "
                f"(sample {rank} of {len(ms)} in ascending order)"
            )
            lines += _by_kind(kinds, raw)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
            raw_metrics = {name: v for name, (v, _) in raw_values.items()}
        else:
            half = args.seconds / 2.0
            plain, _, _, plain_problems, plain_undecided = run_phase(workload, half, speed)
            untraced_extras = workload.layer_extras()  # library timings, before tracing
            if isinstance(workload, CliOneshot):
                workload.trace_children = True
                traced, _, _, problems, undecided = run_phase(workload, half, speed)
                layer = workload.child_layer_values()
            else:
                tracer = Tracer()
                with tracer:
                    traced, _, _, problems, undecided = run_phase(
                        workload, half, speed, tracer
                    )
                layer = tracer.layer_values(len(traced))
            layer.update(_median_extras(extras))
            layer.update(untraced_extras)
            plain_rate = len(plain) / sum(plain)
            traced_rate = len(traced) / sum(traced)
            layer["trace.overhead"] = 1.0 - traced_rate / plain_rate
            problems = plain_problems + problems
            undecided = plain_undecided + undecided
            latencies = plain + traced
            metrics, raw_metrics = {}, None
            lines.append("per-layer times are raw; counts and times are per op unless noted")
            for name, unit, moves in LAYER_METRICS:
                value = float(layer.get(name, 0.0))
                metrics[name] = {"value": value, "unit": unit}
                lines.append(f"{name:48s} {value:14.6g} {unit:6s} moves {moves}")
            lines.append(
                f"tracing overhead: {plain_rate:.4g} ops/s untraced, "
                f"{traced_rate:.4g} ops/s traced, at nominal host speed"
            )
    finally:
        if hasattr(workload, "close"):
            workload.close()

    failed = len(problems)
    lines.append(
        f"failed {failed} of {len(latencies)} ops (failed_share "
        f"{failed / len(latencies):.4f} ratio)"
    )
    for kind, problem in problems[:10]:
        lines.append(f"  failed op {kind}: {problem}")
    lines.append(
        f"undecided {len(undecided)} of {len(latencies)} ops (undecided_share "
        f"{len(undecided) / len(latencies):.4f} ratio)"
    )
    for kind, reason in undecided[:3]:
        lines.append(f"  undecided op {kind}: {reason}")
    host = host_info(args.seed, load_start)
    lines.append("host " + json.dumps(host))
    result = {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "kernel_s": speed.mean_kernel_s(),
            "raw_metrics": raw_metrics,
            "undecided": len(undecided),
            "result": result,
        }
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _by_kind(kinds, latencies):
    """Raw median and p90 latency per op kind, slowest first, for reading a run."""
    from stats import by_kind, median, p90

    rows = sorted(by_kind(kinds, [t * 1000.0 for t in latencies]).items(),
                  key=lambda kv: -median(kv[1]))
    return [
        f"  {kind:40s} n={len(ts):5d} median {median(ts):10.3f} p90 {p90(ts):10.3f} ms"
        for kind, ts in rows
    ]


def _median_extras(extras):
    from stats import median

    keys = set().union(*extras)
    return {k: median([e[k] for e in extras if k in e]) for k in keys}


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.record:
            argv += ["--record", args.record]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_library()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
