"""Write ``cli_pool.json``: the fixed pool of ``gieseker`` invocations that
the ``cli_mix`` workload draws from, each with its pinned exit code and the
sha256 of its standard output and standard error.

    PYTHONPATH=src python3 perfbench/pin_cli.py

Reports must stay byte-identical across changes, so the pins are taken once,
from a commit whose reports are known to be right, and are not regenerated
to make a later change pass.  The pool is built from a fixed seed; a run's
own ``--seed`` only chooses which entries of each class it runs and in what
order.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

from workloads import CLI_POOL, _antichain, _cocharacter, _random_multipartition
from worker import CLI_CHILD

POOL_SEED = 20161125

# entries drawn from each class in one pass: 50 ops, 33 of them start-up
# bound.  Ten large diagnose ops put the p90 rank (five ops beyond it in
# each pass) in the middle of their block, clear of the walls and poincare ops.
PER_PASS = {
    "diagnose_small": 6,
    "generic": 3,
    "supports": 5,
    "block": 4,
    "leaves": 3,
    "ideal_count": 1,
    "ideal_op": 4,
    "poincare_small": 4,
    "model_block_small": 3,
    "diagnose_large": 10,
    "walls_large": 2,
    "poincare_large": 1,
    "model_block_large": 1,
    "error": 3,
}


def _fmt_mp(sigma) -> str:
    return "|".join(",".join(map(str, c)) if c else "-" for c in sigma)


def _pool(rng: random.Random) -> list[tuple[str, list[str]]]:
    out = []

    def add(cls, *argv):
        out.append((cls, [str(a) for a in argv]))

    for _ in range(40):
        n, r = rng.randint(1, 50), rng.randint(1, 4)
        lam = rng.choice(["irrational", str(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))])
        add("diagnose_small", "diagnose", n, r, lam)
    for _ in range(10):
        n, r = rng.randint(1, 6), rng.randint(1, 3)
        add("diagnose_small", "diagnose", n, r, str(Fraction(rng.randint(-9, 9), rng.randint(1, 6))), "--cartan")
    for _ in range(20):
        n, r = rng.randint(1, 10), rng.randint(1, 4)
        d, k = _cocharacter(rng, n, r)
        add("generic", "generic", n, ",".join(map(str, d)) + f";{k}")
    for _ in range(20):
        n, r, m = rng.randint(1, 8), rng.randint(1, 3), rng.choice([2, 3])
        p = rng.choice([x for x in range(1, 3 * m) if x % m])
        sigma = _fmt_mp(_random_multipartition(rng, n, r))
        add("supports", "supports", n, r, str(Fraction(p, m)), f"--sigma={sigma}")
    for _ in range(20):
        n, r = rng.randint(2, 6), rng.randint(1, 3)
        lam = str(Fraction(rng.choice([x for x in range(-2 * n, 2 * n) if x % n]), n))
        if rng.random() < 0.5:
            d, k = [1000 ** (r - i) for i in range(r)], 1  # dominant
        else:
            d, k = _cocharacter(rng, n, r, want_generic=True)
        add("block", "block", n, r, lam, "--nu", ",".join(map(str, d)) + f";{k}")
    for _ in range(15):
        n, r = rng.randint(1, 6), rng.randint(2, 3)
        extra = ["--lambda", str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))] if rng.random() < 0.6 else []
        add("leaves", "leaves", n, r, *extra, *(["--unreduced"] if rng.random() < 0.3 else []))
    add("ideal_count", "ideal-lattice", 5, "--op", "count")
    for _ in range(20):
        k = rng.randint(2, 4)
        op = rng.choice(["intersect", "sum", "product", "contains", "sum-form", "normalize"])
        a, b = json.dumps(_antichain(rng, k)), json.dumps(_antichain(rng, k))
        add("ideal_op", "ideal-lattice", k, "--op", op, "--a", a, *(["--b", b] if op in ("intersect", "sum", "product", "contains") else []))
    for n in range(1, 9):
        for r in (1, 2, 3):
            add("poincare_small", "poincare", n, r)
    for n in range(2, 9):
        add("model_block_small", "model-block", n)
    for i in range(20):
        q = rng.randint(2, 9)
        p = rng.choice([x for x in range(1, 6 * q) if x % q and Fraction(x, q).denominator == q])
        add("diagnose_large", "diagnose", 100000 + i, 2, str(Fraction(p, q)))
    for i in range(5):
        add("walls_large", "walls", 300 + i, 20)
    add("poincare_large", "poincare", 16, 3)
    add("model_block_large", "model-block", 24)
    for argv in (
        "diagnose 5 0 1/2", "poincare 0 2", "diagnose 3 2 abc", "walls",
        "ideal-lattice 6 --op count", "supports 3 2 1/2 --sigma 1|1",
        "generic 3 0,0;0", "supports 4 2 -1/2 --sigma 4|-",
        "block 3 2 1 --nu 5,1;1", "block 3 2 1/3 --nu 1,1;1", "frobnicate 1",
        "ideal-lattice 3 --op intersect --a [[1]]",
    ):
        add("error", *argv.split())
    return out


def main() -> None:
    entries = []
    for cls, argv in _pool(random.Random(POOL_SEED)):
        proc = subprocess.run(
            [sys.executable, str(CLI_CHILD), "0", *argv], capture_output=True, timeout=120
        )
        if (proc.returncode != 0) != (cls == "error"):
            sys.exit(f"unexpected exit {proc.returncode} for {argv}: {proc.stderr!r}")
        entries.append({
            "class": cls,
            "argv": argv,
            "exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest(),
        })
    CLI_POOL.write_text(json.dumps({"per_pass": PER_PASS, "entries": entries}, indent=1) + "\n")
    print(f"pinned {len(entries)} invocations in {CLI_POOL}")


if __name__ == "__main__":
    main()
