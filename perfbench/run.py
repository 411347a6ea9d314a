"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {model_block,sweep,cli_mix}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (``worker.py``), one op at a time with no worker threads: a
closed loop with one client.  Passes repeat the same seeded op list until
``--seconds`` is used up, with a minimum pass count per workload.

The end-to-end timings are reported at reference pace (``pace.py``): each is
scaled by how fast the host ran a fixed reference workload of the benchmark's
own at the moments nearest to it, on the same CPU, which cancels most of the
drift in speed of a shared host.  The per-layer times of a traced run are raw
seconds.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics, the layers' self times and the tracing
overhead.  ``correct`` is false when any op gave a wrong answer, a changed
report digest, an unexpected exit code, an exception or a timeout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads
from pace import Pacer
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES_PER_PASS = 8
RUN_LIMIT_S = 170  # a run must end within 180 s

# per-layer metrics beyond each layer's self_s, raised and raised_expected
SPAN_STATS = [  # "<span>.<calls|self_s>"
    "quiver_engine.minimal_projective_resolution.calls",
    "quiver_engine.minimal_projective_resolution.self_s",
    "quiver_engine.ext_to_simple.calls",
    "quiver_engine.ext_groups.calls",
    "quiver_engine.projective.calls",
    "quiver_engine.ProjectiveSum.calls",
    "quiver_engine.is_isomorphic.self_s",
    "quiver_engine.hom_space.self_s",
    "exact_linalg.fraction_free_echelon.calls",
    "exact_linalg.fraction_free_echelon.self_s",
    "exact_linalg.zeros.calls",
    "partitions.divide_with_remainder.calls",
    "partitions.divide_with_remainder.self_s",
    "partitions.enumerate_multipartitions.self_s",
    "category_o.support_recursion_values.self_s",
    "category_o.poincare_polynomial.self_s",
    "diagnostics.has_finite_global_dimension.self_s",
    "diagnostics.abelian_localization_holds.self_s",
    "diagnostics.diagnose.calls",
    "torus_chambers.walls.calls",
    "ideal_lattice.minimal_transversals.self_s",
    "ideal_lattice.up_closure.calls",
]
COUNTERS = ["exact_linalg.echelon_cells", "torus_chambers.walls_built"]
# distinct inputs over calls of a span: repeated work shows as a low ratio
DISTINCT_RATIOS = {
    "quiver_engine.resolution_distinct_ratio": "quiver_engine.minimal_projective_resolution",
    "partitions.divide_with_remainder.distinct_ratio": "partitions.divide_with_remainder",
}


def _child_env() -> dict:
    """The caller's environment without its PYTHON* settings, so that every
    host runs the children alike: bytecode caches are written (the untimed
    warm-up import fills them), output is buffered, one hash seed is used."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The program is single-threaded and the benchmark runs one process at a
    time, so this takes nothing from it; but on a shared host each CPU's
    speed drifts on its own, and the reference (``pace.py``) tracks the
    program's speed only if both run on the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _probe_setup(env: dict) -> tuple[float, float]:
    """Start and end of one interpreter that imports ``gieseker.cli`` and
    exits."""
    start = perf_counter()
    # with a pipe, run() returns when the child closes it at exit; without one,
    # wait(timeout) polls the child at intervals of up to 50 ms
    subprocess.run([sys.executable, "-c", "import gieseker.cli"], env=env, check=True,
                   capture_output=True, timeout=60)
    return start, perf_counter()


def _run_pass(name: str, ops: list, trace: bool, env: dict, timeout: float) -> dict:
    """One pass in a fresh worker; a worker that crashes or overruns fails
    every op of the pass.  The worker leads its own process group, so an
    overrun also stops the ``gieseker`` process it may be waiting on."""
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), name, "1" if trace else "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(ops).encode(), timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            reason = f"worker exceeded {timeout:.0f} s"
        else:
            if proc.returncode == 0:
                return json.loads(out.decode().splitlines()[-1])
            reason = f"worker exited {proc.returncode}: {err.decode()[-400:]}"
    return {"lat": [], "failures": [[i, reason] for i in range(len(ops))], "crashed": True}


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the value with a share p of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def _at_pace(p: dict, key: str) -> list[float]:
    """One pass's per-op times of one kind, at reference pace."""
    return [t * f for t, f in zip(p[key], p["pace"])]


def _end_to_end(name: str, passes: list[dict], setup: list[float]) -> dict:
    """Whole-list times add up each op's median over the passes, so that one
    pass with a stalled op does not set them."""
    lat_by_pass = [_at_pace(p, "lat") for p in passes]
    lat = [x for per_pass in lat_by_pass for x in per_pass]
    wall = sum(median(per_op) for per_op in zip(*lat_by_pass))
    values = {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(passes[0]["lat"]) / wall, "1/s"),
        "op_p50_ms": (median(lat) * 1e3, "ms"),
        "op_tail_ms": (_percentile(lat, workloads.tail_percentile(name, len(passes[0]["lat"]))) * 1e3, "ms"),
        "cpu_s": (sum(median(per_op) for per_op in zip(*(_at_pace(p, "cpu") for p in passes))), "s"),
        "peak_rss_mb": (median(p["rss_mb"] for p in passes), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _layer_values(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    snap = p["trace"]
    calls, self_s = snap.get("calls", {}), snap.get("self_s", {})
    counts, distinct = snap.get("counts", {}), snap.get("distinct", {})
    wall = sum(p["lat"])
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"{layer}.raised"] = snap.get("raised", {}).get(layer, 0)
        out[f"{layer}.raised_expected"] = snap.get("raised_expected", {}).get(layer, 0)
    for metric in SPAN_STATS:
        span, stat = metric.rsplit(".", 1)
        out[metric] = snap.get(stat, {}).get(span, 0)
    for metric in COUNTERS:
        out[metric] = counts.get(metric, 0)
    for metric, span in DISTINCT_RATIOS.items():
        out[metric] = distinct.get(span, 0) / calls[span] if calls.get(span) else 0.0
    out["cli.output_bytes"] = p["output_bytes"]
    out["cli.import_s"] = p["import_s"]
    out["bench.self_s"] = self_s.get("bench", 0.0)
    out["trace.hooks_s"] = self_s.get("trace.hooks", 0.0)
    out["trace.outside_s"] = wall - snap.get("top_s", 0.0)
    out["trace.wall_s"] = wall
    return out


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "B" if metric.endswith("_bytes") else "count"


def _per_layer(plain: list[dict], traced: list[dict]) -> dict:
    rows = [_layer_values(p) for p in traced if not p.get("crashed")]
    for row in rows:
        # the spans must account for the traced time: layers + bench + tracer + outside
        parts = sum(row[f"{layer}.self_s"] for layer in LAYERS) + row["bench.self_s"] \
            + row["trace.hooks_s"] + row["trace.outside_s"]
        if abs(parts - row["trace.wall_s"]) > 1e-6 * len(row) + 1e-3 * row["trace.wall_s"]:
            raise SystemExit(f"span bookkeeping off: parts {parts} vs wall {row['trace.wall_s']}")
    values = {k: median(r[k] for r in rows) for k in rows[0]}
    plain_wall = median(sum(p["lat"]) for p in plain if not p.get("crashed"))
    values["trace.overhead_s"] = values["trace.wall_s"] - plain_wall
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


def _passes(args, ops: list, env: dict, started: float, pacer: Pacer):
    """Rounds of set-up probes and passes until ``--seconds`` is used up:
    the untraced passes, the traced passes and the probes' (start, end)."""
    setup_spans: list[tuple[float, float]] = []
    # a traced run needs one untraced/traced pair; its counts repeat exactly
    min_passes = 1 if args.trace else workloads.MIN_PASSES[args.workload]
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = perf_counter()
    longest = 0.0  # the longest round so far: a new one starts only if it fits
    while True:
        done = len(traced) if args.trace else len(plain)
        if done >= min_passes and perf_counter() - t0 + longest > args.seconds:
            break
        round_start = perf_counter()
        # spread the start-up probes over the run rather than bunching them,
        # with a reference sample on either side of each
        for _ in range(SETUP_PROBES_PER_PASS):
            pacer.sample()
            setup_spans.append(_probe_setup(env))
        pacer.sample()
        sides = [False, True] if args.trace else [False]
        if args.trace and done % 2:
            sides.reverse()  # alternate which side of a pair runs first
        for side in sides:
            budget = max(1.0, RUN_LIMIT_S - (perf_counter() - started))
            (traced if side else plain).append(_run_pass(args.workload, ops, side, env, budget))
        longest = max(longest, perf_counter() - round_start)
        if any(p.get("crashed") for p in plain + traced):
            break
    return plain, traced, setup_spans


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gieseker" / "cli.py").is_file():
        raise SystemExit(f"no gieseker sources under {SRC}; run from a full checkout")

    started = perf_counter()
    _pin_to_one_cpu()
    env = _child_env()
    ops = workloads.build(args.workload, args.seed)
    _probe_setup(env)  # untimed: leaves the bytecode cache in one fixed state
    with Pacer() as pacer:
        plain, traced, setup_spans = _passes(args, ops, env, started, pacer)

    runs = traced if args.trace else plain
    attempted = len(ops) * len(runs)
    failures = [f for p in runs for f in p["failures"]]
    for i, message in failures[:10]:
        print(f"FAILED op {i} {json.dumps(ops[i])[:200]}: {message[:300]}", file=sys.stderr)
    if any(p.get("crashed") for p in plain + traced):
        metrics: dict = {}
    elif args.trace:
        metrics = _per_layer(plain, traced)
    else:
        setup = [(end - start) * pacer.scale(start, end) for start, end in setup_spans]
        metrics = _end_to_end(args.workload, plain, setup)
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
