"""Independent answer checks for the benchmark's operations.

Nothing here imports ``gieseker``: every expected value is re-derived from a
closed form, a generating function or a brute-force search written for the
benchmark, so a wrong answer from the library cannot also pass its check.
Each ``check_*`` function returns a list of mismatch descriptions; an empty
list means the answer is correct.
"""

from __future__ import annotations

from fractions import Fraction

IDEAL_COUNTS = (3, 6, 20, 168, 7581)  # antichains on {1..k}, k = 1..5


# ---------------------------------------------------------------- model block


def model_block_expected(n: int) -> dict:
    """Closed forms for the model block on n vertices.

    The standard module at vertex j has simple factors at j and j+1, so its
    dimension vectors form the bidiagonal matrix D; the Cartan matrix of the
    projectives is D^T D (BGG reciprocity), and first extensions between
    simples follow the doubled path.
    """
    d = [[1 if l in (j, j + 1) else 0 for l in range(n)] for j in range(n)]
    cartan = [
        [sum(d[j][i] * d[j][l] for j in range(n)) for l in range(n)]
        for i in range(n)
    ]
    ext1 = [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    return {"algebra_dim": 4 * n - 3, "standard_dim_vectors": d,
            "cartan_matrix": cartan, "ext1_simples": ext1}


def check_model_block(n: int, out: dict) -> list[str]:
    errors = []
    if out.get("all_pass") is not True:
        failing = sorted(k for k, v in out.get("checks", {}).items() if not v)
        errors.append(f"all_pass is not true; failing checks {failing}")
    report = out.get("report", {})
    for key, want in model_block_expected(n).items():
        if report.get(key) != want:
            errors.append(f"{key} differs from the closed form")
    return errors


# ------------------------------------------------------------------- supports


def quotient_size(lam: tuple[int, ...], m: int) -> int:
    """Largest |q| with lam_i = m*q_i + rem_i, q and rem both partitions.

    Exhaustive search over every admissible q, row by row.
    """
    best = 0

    def go(i: int, q_prev: int, rem_prev: int, total: int) -> None:
        nonlocal best
        if i == len(lam):
            best = max(best, total)
            return
        for q in range(min(q_prev, lam[i] // m), -1, -1):
            rem = lam[i] - m * q
            if rem <= rem_prev:
                go(i + 1, q, rem, total + q)

    go(0, lam[0] // m if lam else 0, lam[0] if lam else 0, 0)
    return best


def expected_support(n: int, r: int, m: int, sigma) -> tuple[int, int]:
    """(|q|, support dimension rn - |q|(rm - 1)) for the simple at sigma."""
    q = quotient_size(tuple(sigma[0]), m)
    return q, r * n - q * (r * m - 1)


def check_support(op: dict, result) -> list[str]:
    closed, values, recursive = result
    q, support = expected_support(op["n"], op["r"], op["m"], op["sigma"])
    errors = []
    if (closed.support_dim, closed.quotient_size, closed.annihilator_index) != (
        support, q, q
    ):
        errors.append(
            f"closed form gave ({closed.support_dim}, {closed.quotient_size}, "
            f"{closed.annihilator_index}), expected ({support}, {q}, {q})"
        )
    if set(values) != {support}:
        errors.append(f"recursion reached {sorted(values)}, expected {{{support}}}")
    if recursive != support:
        errors.append(f"single-path recursion gave {recursive}, expected {support}")
    return errors


def hook_labels(n: int, r: int) -> list:
    """The rn hooks, slot-major with leg d descending: (n+1-d, 1^(d-1))."""
    out = []
    for slot in range(r):
        for d in range(n, 0, -1):
            comps = [()] * r
            comps[slot] = (n + 1 - d,) + (1,) * (d - 1)
            out.append(tuple(comps))
    return out


def check_block(op: dict, result) -> list[str]:
    """Criterion 7: at denominator n and a dominant cocharacter the block is
    the hooks in order, its finite dimensional simple sits at ((n), (), ...),
    and each hook's support matches the closed form."""
    block, supports = result
    n, r = op["n"], op["r"]
    labels = hook_labels(n, r)
    errors = []
    if block.kind != "hooks_block" or list(block.labels or ()) != labels:
        errors.append(f"block {block.kind} with labels {block.labels}")
    if block.finite_dim_label != ((n,),) + ((),) * (r - 1):
        errors.append(f"finite dimensional label {block.finite_dim_label}")
    want = [expected_support(n, r, n, label)[1] for label in labels]
    if [s.support_dim for s in supports] != want:
        errors.append("hook supports differ from the closed form")
    return errors


# ------------------------------------------------------------------ diagnose


def expected_diagnosis(n: int, r: int, lam: str) -> dict:
    """Re-derivation from the window inequalities, with q the reduced
    denominator: infinite global dimension iff q <= n and -r < lam < 0;
    localization fails iff q <= n and the (flipped) parameter is negative."""
    if lam == "irrational":
        return {"denominator": "infinite", "finite_global_dim": True,
                "abelian_localization_det": True,
                "abelian_localization_det_inv": True, "has_findim_rep": False,
                "findim_category": None, "ideal_count": 0}
    x = Fraction(lam)
    q = x.denominator
    window = q <= n
    fgd = not (window and -r < x < 0)
    findim = q == n and fgd
    return {
        "denominator": q,
        "finite_global_dim": fgd,
        "abelian_localization_det": not (window and x < 0),
        "abelian_localization_det_inv": not (window and -x - r < 0),
        "has_findim_rep": findim,
        "findim_category": "single_simple" if findim else None,
        "ideal_count": n // q if fgd else "simple",
    }


def check_diagnose(op: dict, result) -> list[str]:
    got = result.to_dict()
    want = expected_diagnosis(op["n"], op["r"], op["lam"])
    return [
        f"{key}: got {got.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]


# ------------------------------------------------------------------ poincare


def nakajima_yoshioka(n: int, r: int) -> tuple[int, ...]:
    """Coefficient of x^n in prod_{i=1..r} prod_{d>=1} 1/(1 - x^d t^(rd-i)),
    as t-coefficients (Nakajima-Yoshioka, Instanton counting on blowup I)."""
    top = r * n
    series = [[0] * top for _ in range(n + 1)]  # series[x-degree][t-degree]
    series[0][0] = 1
    for d in range(1, n + 1):
        for i in range(1, r + 1):
            w = r * d - i
            for xd in range(d, n + 1):
                src, dst = series[xd - d], series[xd]
                for td in range(top - w):
                    if src[td]:
                        dst[td + w] += src[td]
    coeffs = series[n]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def check_poincare(op: dict, result) -> list[str]:
    want = nakajima_yoshioka(op["n"], op["r"])
    return [] if tuple(result) == want else [f"got {result}, expected {want}"]


# ------------------------------------------------------------- torus chambers


def wall_count(n: int, r: int) -> int:
    return 1 + r * (r - 1) // 2 * (2 * n - 1)


def generic(d, k: int, n: int) -> bool:
    """Off every wall: k != 0 and no d_i - d_j equals s*k with |s| < n."""
    if k == 0:
        return False
    return not any(
        (d[i] - d[j]) % k == 0 and abs((d[i] - d[j]) // k) < n
        for i in range(len(d))
        for j in range(i + 1, len(d))
    )


def same_chamber(d1, k1: int, d2, k2: int, n: int) -> bool:
    """Generic cocharacters share a chamber iff k has one sign and, for every
    pair, (d_i - d_j)/k lies between the same two of the integers -(n-1)..n-1."""
    if (k1 > 0) != (k2 > 0):
        return False

    def slots(d, k):
        return [
            min(max((d[i] - d[j]) // k + n, 0), 2 * n - 1)
            for i in range(len(d))
            for j in range(i + 1, len(d))
        ]

    return slots(d1, k1) == slots(d2, k2)


def check_walls(op: dict, result) -> list[str]:
    want = wall_count(op["n"], op["r"])
    got = (len(result.walls), result.count_with_multiplicity)
    return [] if got == (want, want) else [f"got {got} walls, expected {want}"]


def check_generic(op: dict, result) -> list[str]:
    want = generic(op["d"], op["k"], op["n"])
    return [] if result is want else [f"got {result!r}, expected {want!r}"]


def check_chamber(op: dict, result) -> list[str]:
    want = same_chamber(op["d"], op["k"], op["d2"], op["k2"], op["n"])
    return [] if result is want else [f"got {result!r}, expected {want!r}"]


# -------------------------------------------------------------- ideal lattice


def masks(lists) -> frozenset[int]:
    return frozenset(sum(1 << (x - 1) for x in c) for c in lists)


def minimal(family) -> frozenset[int]:
    fam = set(family)
    return frozenset(s for s in fam if not any(t != s and t & s == t for t in fam))


def transversals(family: frozenset[int], k: int) -> frozenset[int]:
    if not family:
        return frozenset({0})
    return minimal(
        s for s in range(1 << k) if all(s & member for member in family)
    )


def expected_ideal_ops(op: dict) -> dict:
    a, b, k = masks(op["a"]), masks(op["b"]), op["k"]
    return {
        "intersect": minimal(a | b),
        "sum": minimal(x | y for x in a for y in b),
        "contains": all(any(x & ~y == 0 for x in a) for y in b),
        "sum_form": transversals(a, k),
        "round_trip": a,
        "up": frozenset(s for s in range(1 << k) if any(x & s == x for x in a)),
    }


def _as_masks(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, frozenset):  # a family of frozensets
        return masks(value)
    return masks(value.to_lists())


def check_ideal(op: dict, result) -> list[str]:
    want = expected_ideal_ops(op)
    return [
        f"{key} differs from the bitmask oracle"
        for key in want
        if _as_masks(result.get(key)) != want[key]
    ]


def check_ideal_count(op: dict, result) -> list[str]:
    want = IDEAL_COUNTS[op["k"] - 1]
    return [] if result == want else [f"got {result}, expected {want}"]

