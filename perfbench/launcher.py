"""Run one traced CLI stage: ``launcher.py STATS_FILE SRC_DIR -- ARGS...``.

Stands in for ``python -m mackeybox ARGS...``: it imports the program from
SRC_DIR, installs the tracer, calls ``mackeybox.cli.run`` and writes the
stage's layer totals, its import time and the time spent inside ``run`` to
STATS_FILE as JSON.  Standard input, output and the exit code are the CLI's.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    stats_path, src, sep, *args = sys.argv[1:]
    if sep != "--":
        print("usage: launcher.py STATS_FILE SRC_DIR -- ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = perf_counter()
    import mackeybox.cli

    import_s = perf_counter() - t0
    import tracer

    tr = tracer.Tracer()
    tr.install()
    t1 = perf_counter()
    try:
        code = mackeybox.cli.run(args)
    finally:
        run_s = perf_counter() - t1
        tr.restore()
        tr.end_op()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"totals": tr.totals, "import_s": import_s, "run_s": run_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
