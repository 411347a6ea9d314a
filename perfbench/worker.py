"""One pass of a workload, in a fresh interpreter.

    python3 worker.py <workload> <trace 0|1>  < ops.json

Reads the op list on standard input, runs every op once, one at a time,
checks each answer, and prints one JSON object: per-op latencies, failures,
CPU time, peak RSS, the factor that takes each op's timings to reference pace
(``pace.py``; the reference runs between ops, never inside a timed window)
and, when traced, the span totals.  In-process workloads
call the library directly; ``cli_mix`` starts one ``gieseker`` process per op
through ``cli_child.py`` and checks its exit code and output digests.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from cli_child import MARK
from pace import Pacer
from tracer import Tracer, merge
from workloads import IN_PROCESS, OP_TIMEOUT_S

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def run_in_process(ops, table, tracer=None, timeout_s=OP_TIMEOUT_S) -> dict:
    """Time each ``call`` and check its answer; an exception, a timeout or a
    wrong answer marks the op failed.  Checks run outside the timed window."""
    import gieseker

    signal.signal(signal.SIGALRM, _alarm)
    lat, cpu, failures, spans = [], [], [], []
    with Pacer() as pacer:
        for i, op in enumerate(ops):
            call, check = table[op["kind"]]
            pacer.due()
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            cpu_start = process_time()
            start = perf_counter()
            try:
                if tracer is None:
                    result = call(gieseker, op)
                else:
                    result = tracer.root(call, gieseker, op)
            except Exception as exc:  # the op failed; the pass goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            end = perf_counter()
            cpu.append(process_time() - cpu_start)
            signal.setitimer(signal.ITIMER_REAL, 0)
            lat.append(end - start)
            spans.append((start, end))
            if error is None:
                errors = check(op, result)
                error = "; ".join(errors) if errors else None
            if error is not None:
                failures.append([i, error])
        pacer.sample()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pace = [pacer.scale(*span) for span in spans]
    return {
        "lat": lat,
        "cpu": cpu,
        "pace": pace,
        "failures": failures,
        "rss_mb": rss_mb,
        "output_bytes": 0,
        "trace": None if tracer is None else tracer.snapshot(),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(ops, trace: bool, timeout_s=OP_TIMEOUT_S) -> dict:
    """One child process per op; its exit code and the sha256 of its stdout
    and stderr must equal the values pinned for that invocation."""
    lat, cpu, failures, import_s, spans = [], [], [], [], []
    snap: dict = {}
    output_bytes = 0
    with Pacer() as pacer:
        for i, op in enumerate(ops):
            pacer.due()
            usage_start = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, str(CLI_CHILD), "1" if trace else "0", *op["argv"]],
                    capture_output=True,
                    timeout=timeout_s,
                )
            except subprocess.TimeoutExpired:
                proc = None
            end = perf_counter()
            lat.append(end - start)
            spans.append((start, end))
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu.append(usage.ru_utime - usage_start.ru_utime + usage.ru_stime - usage_start.ru_stime)
            if proc is None:
                failures.append([i, f"timed out after {timeout_s} s"])
                continue
            stderr = proc.stderr
            if trace:
                stderr, sep, tail = stderr.partition(MARK.encode())
                if sep:
                    line, _, rest = tail.partition(b"\n")
                    stderr += rest
                    child = json.loads(line)
                    import_s.append(child.pop("import_s"))
                    if op["exit"] != 0:  # raises on error-path ops are expected
                        child["raised_expected"] = child.pop("raised")
                    merge(snap, child)
            output_bytes += len(proc.stdout)
            got = [proc.returncode, _sha(proc.stdout), _sha(stderr)]
            want = [op["exit"], op["stdout_sha256"], op["stderr_sha256"]]
            if got != want:
                what = ["exit code", "stdout digest", "stderr digest"]
                bad = [f"{w} {g!r} != pinned {p!r}" for w, g, p in zip(what, got, want) if g != p]
                failures.append([i, f"{' '.join(op['argv'])}: " + "; ".join(bad)])
        pacer.sample()
        # read before the reference child exits: only the largest
        # gieseker child counts
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        pace = [pacer.scale(*span) for span in spans]
    return {
        "lat": lat,
        "cpu": cpu,
        "pace": pace,
        "failures": failures,
        "rss_mb": rss_mb,
        "output_bytes": output_bytes,
        "trace": snap if trace else None,
        "import_s": median(import_s) if import_s else None,
    }


def main() -> None:
    workload, trace = sys.argv[1], sys.argv[2] == "1"
    ops = json.load(sys.stdin)
    if workload == "cli_mix":
        out = run_cli(ops, trace)
    else:
        start = perf_counter()
        import gieseker.cli  # noqa: F401

        import_s = perf_counter() - start
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        out = run_in_process(ops, IN_PROCESS, tracer)
        out["import_s"] = import_s
    print(json.dumps(out))


if __name__ == "__main__":
    main()
