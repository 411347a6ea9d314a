"""Bootstrap for one ``gieseker`` command-line invocation.

    python3 cli_child.py <trace 0|1> <gieseker arguments...>

With trace 0 this does what the ``gieseker`` console script does.  With
trace 1 it times the import of ``gieseker.cli``, installs the tracer's
wrappers, runs the command, and appends one line to standard error: MARK
followed by the span totals as JSON.  Standard output is left untouched, so
its digest must match the untraced run's.
"""

import sys
from time import perf_counter

MARK = "\x00perfbench-trace "


def main() -> int:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    if not trace:
        from gieseker.cli import main as cli_main

        return cli_main(argv)
    start = perf_counter()
    import gieseker.cli

    import_s = perf_counter() - start
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return gieseker.cli.main(argv)
    finally:
        sys.stdout.flush()
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        sys.stderr.write(MARK + json.dumps(snap) + "\n")


if __name__ == "__main__":
    sys.exit(main())
