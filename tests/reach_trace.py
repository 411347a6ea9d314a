"""Which functions of the package the pinned workloads never call.

    python tests/reach_trace.py

Starts tracing calls before ``import gieseker``, then runs every pinned CLI
invocation of ``perfbench/cli_pool.json`` through ``cli.main`` and the seed-1
op lists of the ``model_block`` and ``sweep`` workloads through
``perfbench/workloads.py`` (read only: no bytecode is written there).  Prints
a JSON list of the qualified names, ``module.qualname``, of the package's
functions and methods that no call reached: every function and method bound
in a module's namespace or a class body of ``src/gieseker``, properties and
class methods included.  A nested function counts with the function it
belongs to; lambdas are not counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _functions(module) -> dict:
    """code object -> ``module.qualname`` for every function the module defines."""
    out = {}
    todo = list(vars(module).values())
    while todo:
        x = todo.pop()
        if isinstance(x, (classmethod, staticmethod)):
            x = x.__func__
        elif isinstance(x, property):
            todo += [f for f in (x.fget, x.fset, x.fdel) if f]
            continue
        if isinstance(x, type) and x.__module__ == module.__name__:
            todo += vars(x).values()
        code = getattr(x, "__code__", None)
        if code is not None and code.co_name != "<lambda>" and code.co_filename == module.__file__:
            out[code] = f"{module.__name__.rsplit('.', 1)[1]}.{x.__qualname__}"
    return out


def main() -> None:
    seen = set()

    def record(frame, event, arg):
        seen.add(frame.f_code)  # a 'call' event; no line tracing is asked for

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(record)
    import gieseker
    from gieseker import cli

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    entries = json.loads(workloads.CLI_POOL.read_text())["entries"]
    for e in entries:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(e["argv"])
        if code != e["exit"]:
            raise SystemExit(f"{e['argv']} exited {code}, want {e['exit']}")
    for name in ("model_block", "sweep"):
        for op in workloads.build(name, 1):
            workloads.IN_PROCESS[op["kind"]][0](gieseker, op)
    sys.settrace(None)

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("gieseker.")]
    functions = {}
    for m in modules:
        functions.update(_functions(m))
    print(json.dumps(sorted(name for code, name in functions.items() if code not in seen)))


if __name__ == "__main__":
    main()
