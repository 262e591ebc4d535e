"""Compare two result sets written by `bench/run.py --record`.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

For every workload and end-to-end metric in BENCHMARK.json it prints the
median and quartiles of each set, and one verdict:

  regression  the new median is worse than the base median by more than the
              metric's bound
  unresolved  either set's spread (quartile distance over median) is wider
              than the bound, unless every new run beats every base run
  better      every new run beats every base run
  ok          within the bound

Exits with 1 when any regression is found.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """workload -> metric -> [values], from untraced runs only."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, entry in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def verdict(base, new, better, bound):
    def beats(x, y):
        return x < y if better == "lower" else x > y

    if all(beats(n, b) for n in new for b in base):
        return "better"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b_med, n_med = quartiles(base)[1], quartiles(new)[1]
    worse = (n_med - b_med) / b_med if better == "lower" else (b_med - n_med) / b_med
    return "regression" if worse > bound else "ok"


def compare(base_sets, new_sets, spec):
    rows, regressions = [], 0
    for workload in sorted(set(base_sets) & set(new_sets)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = base_sets[workload].get(name)
            new = new_sets[workload].get(name)
            if not base or not new:
                continue
            v = verdict(base, new, metric["better"], metric["bound"])
            regressions += v == "regression"
            bq, nq = quartiles(base), quartiles(new)
            rows.append(
                f"{workload:20s} {name:12s} {metric['unit']:5s} "
                f"base {bq[1]:11.4f} [{bq[0]:.4f}, {bq[2]:.4f}] n={len(base):<3d} "
                f"new {nq[1]:11.4f} [{nq[0]:.4f}, {nq[2]:.4f}] n={len(new):<3d} "
                f"bound {metric['bound']:.2f}  {v}"
            )
    return rows, regressions


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, regressions = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(rows))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
