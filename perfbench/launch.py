"""Run one complement-forge command in a fresh process with span tracing on.

    python perfbench/launch.py SPANS_JSON CLI_ARG...

Imports the CLI cold, installs the tracing wrappers, calls ``cli.main`` with
the remaining arguments and exits with its return code, as
``python -m complement_forge.cli`` would.  The spans, counts and the import
time go to SPANS_JSON.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from complement_forge import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
