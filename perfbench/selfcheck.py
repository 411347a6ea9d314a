"""Self-check of the benchmark at tiny sizes.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Shows that every oracle accepts the library's answer and rejects a
deliberately corrupted one, and that an op that raises, times out, gives a
wrong answer, exits with an unexpected code or changes its report digest is
counted as failed rather than dropped; so is every op of a pass whose worker
crashes or overruns.  Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import gieseker

import oracles
import run
import worker
from workloads import IN_PROCESS, build

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def _corrupt_antichain(a):
    members = frozenset() if a.members else frozenset({frozenset()})
    return gieseker.IdealAntichain(a.k, members, a.form)


def _corrupt_ideal(result: dict, key: str) -> dict:
    bad = dict(result)
    value = bad[key]
    if isinstance(value, bool):
        bad[key] = not value
    elif isinstance(value, frozenset):
        bad[key] = value ^ {frozenset({1})}
    else:
        bad[key] = _corrupt_antichain(value)
    return bad


def _model_block_corruptions(out: dict):
    yield "all_pass false", {**out, "all_pass": False}
    for key in ("algebra_dim", "cartan_matrix", "ext1_simples", "standard_dim_vectors"):
        report = dict(out["report"])
        value = report[key]
        report[key] = value + 1 if isinstance(value, int) else [row[::-1] for row in value]
        yield key, {**out, "report": report}


# (kind, tiny op, corruptions of a correct result)
CASES = [
    ("model_block", {"n": 4}, _model_block_corruptions),
    ("support", {"n": 5, "r": 2, "m": 2, "p": 1, "sigma": [[4, 1], []]}, lambda res: [
        ("closed form", (dataclasses.replace(res[0], support_dim=res[0].support_dim + 1),) + res[1:]),
        ("recursion values", (res[0], res[1] | {res[2] + 1}, res[2])),
        ("single-path recursion", res[:2] + (res[2] + 1,)),
    ]),
    ("diagnose", {"n": 6, "r": 2, "lam": "-1/3"}, lambda res: [
        (field, dataclasses.replace(res, **{field: not getattr(res, field)}))
        for field in ("finite_global_dim", "abelian_localization_det",
                      "abelian_localization_det_inv", "has_findim_rep")
    ] + [("ideal_count", dataclasses.replace(res, ideal_count=3))]),
    ("poincare", {"n": 4, "r": 2}, lambda res: [
        ("coefficient", res[:-1] + (res[-1] + 1,)), ("degree", res + (1,)),
    ]),
    ("generic", {"n": 3, "d": [7, 1], "k": 2}, lambda res: [("verdict", not res)]),
    ("chamber", {"n": 3, "d": [9, 0], "k": 1, "d2": [-9, 0], "k2": 1}, lambda res: [
        ("verdict", not res),
    ]),
    ("walls", {"n": 4, "r": 3}, lambda res: [
        ("wall list", dataclasses.replace(res, walls=res.walls[1:])),
        ("multiplicity", dataclasses.replace(res, count_with_multiplicity=res.count_with_multiplicity + 1)),
    ]),
    ("block", {"n": 3, "r": 2, "p": 1, "d": [40, 1]}, lambda res: [
        ("label order", (dataclasses.replace(res[0], labels=res[0].labels[::-1]), res[1])),
        ("finite dimensional label", (dataclasses.replace(res[0], finite_dim_label=None), res[1])),
        ("hook support", (res[0], [dataclasses.replace(res[1][0], support_dim=2)] + res[1][1:])),
    ]),
    ("ideal", {"k": 3, "a": [[1], [2, 3]], "b": [[1, 2]]}, lambda res: [
        (key, _corrupt_ideal(res, key)) for key in res
    ]),
    ("ideal_count", {"k": 4}, lambda res: [("count", res + 1)]),
]


def check_oracles() -> None:
    for kind, fields, corruptions in CASES:
        op = {"kind": kind, **fields}
        call, check = IN_PROCESS[kind]
        result = call(gieseker, op)
        expect(check(op, result) == [], f"{kind}: oracle accepts the library's answer")
        for label, bad in corruptions(result):
            expect(check(op, bad) != [], f"{kind}: oracle rejects a corrupted {label}")


def check_in_process_failures() -> None:
    def sleep(gk, op):
        time.sleep(5)

    def crash(gk, op):
        raise RuntimeError("deliberate crash")

    table = dict(IN_PROCESS)
    table["sleep"] = (sleep, lambda op, res: [])
    table["crash"] = (crash, lambda op, res: [])
    table["wrong"] = (lambda gk, op: 11, oracles.check_ideal_count)
    ops = [
        {"kind": "ideal_count", "k": 2},
        {"kind": "sleep"},
        {"kind": "crash"},
        {"kind": "wrong", "k": 2},
        {"kind": "poincare", "n": 2, "r": 2},
    ]
    out = worker.run_in_process(ops, table, timeout_s=0.2)
    failed = [i for i, _ in out["failures"]]
    expect(len(out["lat"]) == len(ops), "in-process: every op is timed, none dropped")
    expect(failed == [1, 2, 3], f"in-process: timeout, crash and wrong answer fail (failed {failed})")


def check_cli_failures() -> None:
    ops = build("cli_mix", 0)
    good = next(op for op in ops if op["class"] == "diagnose_small")
    error = next(op for op in ops if op["class"] == "error")
    slow = {**good, "argv": ["diagnose", "3000000", "2", "7/3"]}  # about ten seconds
    cases = [
        good,
        {**good, "stdout_sha256": "0" * 64},
        {**error, "exit": 0},
        slow,
        error,
    ]
    for trace in (False, True):
        out = worker.run_cli(cases, trace, timeout_s=2.0)
        failed = sorted(i for i, _ in out["failures"])
        expect(len(out["lat"]) == len(cases), f"cli trace={trace}: every op is timed, none dropped")
        expect(failed == [1, 2, 3], f"cli trace={trace}: changed digest, exit code and timeout fail (failed {failed})")


def check_pass_failures() -> None:
    env = run._child_env()
    ops = [{"kind": "no_such_kind"}] * 3
    crashed = run._run_pass("sweep", ops, False, env, 60)
    expect(crashed.get("crashed") and len(crashed["failures"]) == len(ops),
           "a crashing worker fails every op of its pass")
    slow = run._run_pass("model_block", [{"kind": "model_block", "n": 16}], False, env, 0.3)
    expect(slow.get("crashed") and len(slow["failures"]) == 1,
           "an overrunning worker fails every op of its pass")


def main() -> None:
    check_oracles()
    check_in_process_failures()
    check_cli_failures()
    check_pass_failures()
    print(json.dumps({"selfcheck_failures": FAILURES}))
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
