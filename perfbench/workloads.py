"""Seeded operation lists for the three workloads, and how to run each op.

An op is a JSON-ready dict with a ``kind`` and its inputs.  ``build(name,
seed)`` returns the op list one pass of a workload runs; every pass of a run
repeats the same list in a fresh interpreter, so the library's module-level
caches start cold each time.  The seed picks values inside fixed strata (how
many ops of each kind, and roughly how large), so two seeds cost about the
same and differ only in the inputs the program sees.

In-process kinds map to ``(call, check)``: ``call(gk, op)`` makes the library
calls through module attributes (so the tracer's wrappers see them) and
``check(op, result)`` compares the answer with an oracle from ``oracles``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
CLI_POOL = HERE / "cli_pool.json"

# Passes are long enough (5 to 20 s) to average over the seconds-long swings
# in CPU speed of a shared host; a run makes at least this many.
MIN_PASSES = {"model_block": 2, "sweep": 3, "cli_mix": 2}
SWEEP_ROUNDS = 4  # stratified rounds of library ops in one sweep pass
# Per-op limit: far above the slowest op on the seed, below the run's limit.
OP_TIMEOUT_S = 30.0


def tail_percentile(name: str, ops_per_pass: int) -> float:
    """The highest percentile that leaves at least ten samples beyond it in
    the smallest run of the workload (ops per pass times minimum passes)."""
    return 1 - 10 / (ops_per_pass * MIN_PASSES[name])


# ----------------------------------------------------------------- generators


def _model_block(rng: random.Random) -> list[dict]:
    # N = 2..16, plus copies that put the median op and the tail rank in the
    # middle of a block of equal ops, not on the edge between two sizes whose
    # times differ by 15-40%, with enough samples in each block that one slow
    # op moves neither: 42 ops a pass, fifteen of them smaller than 7,
    # thirteen of N = 7, fourteen larger; the tail rank, ten samples from the
    # top of two passes, is the fifth from the top of the twelve N = 13 samples
    ladder = list(range(2, 17)) + list(range(2, 7)) * 2 + [7] * 12 + [13] * 5
    rng.shuffle(ladder)
    return [{"kind": "model_block", "n": n} for n in ladder]


def _random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts, left = [], n
    while left:
        part = rng.randint(1, min(left, parts[-1] if parts else left))
        parts.append(part)
        left -= part
    return tuple(parts)


def _random_multipartition(rng: random.Random, n: int, r: int):
    cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return [list(_random_partition(rng, s)) for s in sizes]


def _fraction(rng: random.Random, lo: Fraction, hi: Fraction, max_q: int) -> str:
    """A rational strictly inside (lo, hi) with denominator at most max_q."""
    while True:
        q = rng.randint(1, max_q)
        p = rng.randint(int(lo * q) - 1, int(hi * q) + 1)
        x = Fraction(p, q)
        if lo < x < hi:
            return str(x)


def _beyond_windows(rng: random.Random, n: int) -> str:
    """A rational whose reduced denominator exceeds n, so no window holds it."""
    q = n + rng.randint(1, 5)
    return str(Fraction(rng.choice([x for x in range(-99, 100) if gcd(x, q) == 1]), q))


def _cocharacter(rng: random.Random, n: int, r: int, want_generic: bool | None = None):
    while True:
        k = rng.choice([-1, 1]) * rng.randint(1, 4)
        d = [rng.randint(-8 * n, 8 * n) for _ in range(r)]
        if want_generic is None or oracles.generic(d, k, n) == want_generic:
            return d, k


def _antichain(rng: random.Random, k: int) -> list[list[int]]:
    size = rng.choice([0, 1, 1, 2, 2, 3, 4])
    family = {rng.randrange(1 << k) for _ in range(size)}
    return [
        [i + 1 for i in range(k) if s >> i & 1]
        for s in sorted(oracles.minimal(family))
    ]


def _sweep(rng: random.Random) -> list[dict]:
    ops = [op for _ in range(SWEEP_ROUNDS) for op in _sweep_round(rng)]
    rng.shuffle(ops)
    return ops


def _sweep_round(rng: random.Random) -> list[dict]:
    ops: list[dict] = []
    # criterion 3: closed form against the box-removal recursion, n <= 8
    for n in range(1, 9):
        for _ in range(75):
            r, m = rng.randint(1, 3), rng.choice([2, 3])
            p = rng.choice([x for x in range(1, 4 * m) if gcd(x, m) == 1])
            ops.append({"kind": "support", "n": n, "r": r, "m": m, "p": p,
                        "sigma": _random_multipartition(rng, n, r)})
    # criterion 7: the hooks block at denominator n, dominant cocharacter
    for n in range(2, 6):
        for r in range(1, 4):
            for _ in range(2):
                d = [rng.randint(-10, 10)]
                for _ in range(r - 1):
                    d.insert(0, d[0] + rng.randint(n + 1, n + 50))
                p = rng.choice([x for x in range(1, 3 * n) if gcd(x, n) == 1])
                ops.append({"kind": "block", "n": n, "r": r, "p": p, "d": d})
    # criterion 1: diagnose on rationals in every window class, n <= 10^4
    for scale in (10, 100, 1000, 10000):
        for cls, count in (("pos", 6), ("in_window", 6), ("below", 3),
                           ("wide", 2), ("irrational", 1)):
            for _ in range(count):
                n = scale - rng.randint(0, scale // 20)
                r = rng.randint(1, 3)
                lam = {
                    "pos": lambda: _fraction(rng, Fraction(0), Fraction(9), 9),
                    "in_window": lambda: _fraction(rng, Fraction(-r), Fraction(0), 9),
                    "below": lambda: _fraction(rng, Fraction(-r - 9), Fraction(-r), 9),
                    "wide": lambda: _beyond_windows(rng, n),
                    "irrational": lambda: "irrational",
                }[cls]()
                ops.append({"kind": "diagnose", "n": n, "r": r, "lam": lam})
    # criterion 5: Poincare polynomials over a fixed small grid
    ops.extend({"kind": "poincare", "n": n, "r": r}
               for n in range(1, 10) for r in range(1, 4))
    # chambers: genericity, chamber comparison and wall counts
    for n in (5, 20, 50):
        for _ in range(50):
            r = rng.randint(2, 4)
            d, k = _cocharacter(rng, n, r)
            ops.append({"kind": "generic", "n": n, "d": d, "k": k})
        for _ in range(20):
            r = rng.randint(2, 4)
            d, k = _cocharacter(rng, n, r, want_generic=True)
            d2, k2 = _cocharacter(rng, n, r, want_generic=True)
            if rng.random() < 0.5:  # a nearby point, often in the same chamber
                d2, k2 = [x + rng.randint(-1, 1) for x in d], k
                if not oracles.generic(d2, k2, n):
                    d2, k2 = d, k
            ops.append({"kind": "chamber", "n": n, "d": d, "k": k, "d2": d2, "k2": k2})
        for _ in range(10):
            ops.append({"kind": "walls", "n": n - rng.randint(0, 2), "r": rng.randint(2, 5)})
    # criterion 2: antichain calculus at k <= 4 and the ideal counts
    for k in range(1, 5):
        for _ in range(50):
            ops.append({"kind": "ideal", "k": k, "a": _antichain(rng, k),
                        "b": _antichain(rng, k)})
    ops.extend({"kind": "ideal_count", "k": k} for k in range(1, 6))
    return ops


def _cli_mix(rng: random.Random) -> list[dict]:
    """Draw a fixed number of invocations from each class of the pinned pool."""
    pool = json.loads(CLI_POOL.read_text())
    by_class: dict[str, list[dict]] = {}
    for entry in pool["entries"]:
        by_class.setdefault(entry["class"], []).append(entry)
    ops = []
    for cls, count in pool["per_pass"].items():
        for entry in rng.sample(by_class[cls], count):
            ops.append({"kind": "cli", **entry})
    rng.shuffle(ops)
    return ops


GENERATORS = {"model_block": _model_block, "sweep": _sweep, "cli_mix": _cli_mix}


def build(name: str, seed: int) -> list[dict]:
    return GENERATORS[name](random.Random(f"{name}:{seed}"))


# ------------------------------------------------------------------ executors


def _support(gk, op):
    co = gk.category_o
    sigma = tuple(tuple(c) for c in op["sigma"])
    n, r, m = op["n"], op["r"], op["m"]
    return (
        co.support_dimension(n, r, Fraction(op["p"], m), sigma),
        co.support_recursion_values(n, r, m, sigma),
        co.support_dimension_recursive(n, r, m, sigma),
    )


def _block(gk, op):
    co, n, r = gk.category_o, op["n"], op["r"]
    lam = Fraction(op["p"], n)
    block = co.block_structure(n, r, lam, _cocharacter_of(gk, op["d"], 1))
    return block, [co.support_dimension(n, r, lam, label) for label in block.labels]


def _ideal(gk, op):
    il, k = gk.ideal_lattice, op["k"]
    a = il.antichain_normalize([frozenset(c) for c in op["a"]], k)
    b = il.antichain_normalize([frozenset(c) for c in op["b"]], k)
    sum_form = il.to_sum_form(a)
    return {
        "intersect": il.intersect(a, b),
        "sum": il.sum_(a, b),
        "contains": il.contains(a, b),
        "sum_form": sum_form,
        "round_trip": il.to_intersection_form(sum_form),
        "up": il.up_closure(a),
    }


def _cocharacter_of(gk, d, k):
    return gk.torus_chambers.Cocharacter(tuple(d), k)


IN_PROCESS = {
    "model_block": (
        lambda gk, op: gk.quiver_engine.verify_model_properties(op["n"]),
        lambda op, out: oracles.check_model_block(op["n"], out),
    ),
    "support": (_support, oracles.check_support),
    "diagnose": (
        lambda gk, op: gk.diagnostics.diagnose(
            op["n"], op["r"], gk.diagnostics.parse_parameter(op["lam"])
        ),
        oracles.check_diagnose,
    ),
    "poincare": (
        lambda gk, op: gk.category_o.poincare_polynomial(op["n"], op["r"]),
        oracles.check_poincare,
    ),
    "generic": (
        lambda gk, op: gk.torus_chambers.is_generic(
            _cocharacter_of(gk, op["d"], op["k"]), op["n"]
        ),
        oracles.check_generic,
    ),
    "chamber": (
        lambda gk, op: gk.torus_chambers.same_chamber(
            _cocharacter_of(gk, op["d"], op["k"]),
            _cocharacter_of(gk, op["d2"], op["k2"]),
            op["n"],
        ),
        oracles.check_chamber,
    ),
    "walls": (
        lambda gk, op: gk.torus_chambers.walls(op["n"], op["r"]),
        oracles.check_walls,
    ),
    "block": (_block, oracles.check_block),
    "ideal": (_ideal, oracles.check_ideal),
    "ideal_count": (
        lambda gk, op: gk.ideal_lattice.count_ideals(op["k"]),
        oracles.check_ideal_count,
    ),
}
