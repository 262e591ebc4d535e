"""`starinv.cli` with the benchmark's span tracer installed, for traced runs.

    python3 bench/traced_cli.py OUT.json <starinv cli arguments...>

Runs `starinv.cli.main` on the arguments exactly as `python -m starinv.cli`
would, so stdout and the exit status are the CLI's own, and writes the
child's per-layer values (span self times, counters, ring build times) to
OUT.json.  The library import happens before tracing starts.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import starinv.cli as cli
    import starinv.finite as finite

    builds = {}
    ring_by_name = finite.ring_by_name

    def timed_ring_by_name(name):
        t0 = perf_counter()
        ring = ring_by_name(name)
        builds[f"finite.build_s.{name}"] = perf_counter() - t0
        return ring

    tracer = Tracer()
    with tracer:
        tracer.rebind(ring_by_name, timed_ring_by_name)
        root = tracer.begin("op")
        try:
            code = cli.main(argv)
        finally:
            tracer.end(root)
    values = tracer.layer_values(1)
    values.update(builds)
    Path(out_path).write_text(json.dumps(values))
    return code


if __name__ == "__main__":
    sys.exit(main())
