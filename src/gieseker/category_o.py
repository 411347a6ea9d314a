"""Category-O numerology: Betti generating polynomials, semisimplicity,
support dimensions of simples, annihilators, and block structure.

Simples are labeled by r-multipartitions of n.  For a positive rational
parameter with denominator m > 1 and a dominant cocharacter, the support
dimension of the simple at sigma is rn - |q|(rm - 1) where q is the partition
quotient of the first component sigma^(1) divided by m; the annihilator of
that simple is the |q|-th ideal of the chain (index 0 = zero ideal).

The box-removal recursion of the restriction argument (Bezrukavnikov-Etingof,
Selecta Math. 14, 2009) is a second route that reads no quotient; which box
it removes does not matter, as ``support_recursion_values`` proves.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .diagnostics import (
    Parameter,
    _Irrational,
    as_parameter,
    has_finite_dimensional_rep,
    has_finite_global_dimension,
    reduced_denominator,
)
from .errors import InvariantError, RegimeError
from .partitions import (
    Hook,
    Multipartition,
    Partition,
    _check_modulus,
    _check_nr,
    _quotient_size,
    check_partition,
    hooks,
    multipartition_size,
)
from .torus_chambers import Cocharacter, _walls_through, is_dominant, is_generic


def fixed_point_weight(sigma: Multipartition, r: int) -> int:
    """Cohomological weight of a torus-fixed point: sum over components of
    r*|sigma^(i)| - i*(number of parts of sigma^(i))."""
    if len(sigma) != r:
        raise ValueError(f"expected {r} components")
    return sum(
        r * sum(comp) - i * len(comp) for i, comp in enumerate(sigma, start=1)
    )


def poincare_polynomial(n: int, r: int) -> tuple[int, ...]:
    """Coefficients (c_0, c_1, ...) of the even-Betti generating polynomial
    sum_i dim H^{2i} t^i of the resolution: the fixed-point weight histogram.

    A part d of the i-th component of a fixed point adds d to its size and
    rd - i to its weight (see ``fixed_point_weight``), so summing x^|sigma|
    t^weight over all multipartitions gives the Nakajima-Yoshioka product
    prod_{i=1..r} prod_{d>=1} 1 / (1 - x^d t^(rd-i))  (H. Nakajima and
    K. Yoshioka, Instanton counting on blowup I, arXiv:hep-th/0306198).
    Its x^n coefficient is expanded factor by factor, one geometric series
    at a time, in O(r n^2 rn) integer additions.
    """
    _check_nr(n, r)
    # series[k]: t-coefficients of x^k; a fixed point of size k >= 1 has
    # weight at most rk - 1
    series = [[1]] + [[0] * (r * k) for k in range(1, n + 1)]
    for i in range(1, r + 1):
        for d in range(1, n + 1):
            shift = r * d - i
            for k in range(d, n + 1):
                target = series[k]
                for e, c in enumerate(series[k - d]):
                    if c:
                        target[e + shift] += c
    return tuple(series[n])


def polynomial_string(coeffs: tuple[int, ...]) -> str:
    """Render (1, 1, 2, 1) as "1 + t + 2t^2 + t^3"."""
    terms = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            base = "t" if d == 1 else f"t^{d}"
            terms.append(base if c == 1 else f"{c}{base}")
    return " + ".join(terms) if terms else "0"


def top_cohomology_check(n: int, r: int) -> bool:
    """Top degree rn-1 with coefficient 1, attained only at ((n), (), ...).

    Coefficient 1 means exactly one fixed point has weight rn-1, so when
    ((n), (), ...) has that weight it is the unique maximizer.
    """
    return _top_cohomology_holds(poincare_polynomial(n, r), n, r)


def _top_cohomology_holds(coeffs: tuple[int, ...], n: int, r: int) -> bool:
    # the check on the coefficients of poincare_polynomial(n, r)
    expected: Multipartition = ((n,),) + ((),) * (r - 1)
    return (
        len(coeffs) == r * n
        and coeffs[-1] == 1
        and fixed_point_weight(expected, r) == r * n - 1
    )


SEMISIMPLE = "semisimple"
NOT_SEMISIMPLE = "not_semisimple"
UNKNOWN = "unknown"


def semisimplicity(n: int, r: int, lam: Parameter) -> str:
    """Semisimplicity verdict for the category at parameter lam.

    Denominator > n (or irrational): semisimple.  Integral lam: unknown
    (delegated out of scope).  Denominator exactly n: not semisimple (the
    hooks block is nontrivial).  1 < m < n with lam > 0: not semisimple,
    witnessed by any label whose first component has a nonempty quotient by
    m (its support dimension rn - |q|(rm-1) < rn separates its block from the
    semisimple ones).  Anything else: unknown.
    """
    _check_nr(n, r)
    lam = as_parameter(lam)
    m = reduced_denominator(lam)
    if m is None or m > n:
        return SEMISIMPLE
    if m == 1:
        return UNKNOWN
    if m == n:
        return NOT_SEMISIMPLE
    if not isinstance(lam, _Irrational) and lam > 0:
        return NOT_SEMISIMPLE
    return UNKNOWN


@dataclass(frozen=True)
class SupportReport:
    sigma: Multipartition
    denominator: int | None  # None = +infinity
    quotient_size: int  # |sigma^(1) quotient by m|; 0 when m infinite
    support_dim: int  # rn - quotient_size*(rm-1)
    annihilator_index: int  # 0 = zero ideal, i >= 1 = i-th chain ideal


def _support_regime(n: int, r: int, lam: Parameter) -> int | None:
    """Validate the support-formula hypotheses, returning the denominator."""
    _check_nr(n, r)
    lam = as_parameter(lam)
    if isinstance(lam, _Irrational):
        return None
    m = lam.denominator
    if m == 1:
        raise RegimeError(
            "support formula requires denominator m > 1; integral parameters "
            "are out of scope"
        )
    if lam <= 0:
        raise RegimeError(
            "support formula requires lambda > 0 (localization regime); for "
            "lambda < 0 the parameter flip lambda -> -lambda - r identifies "
            "the algebras, but that normalization is not validated here"
        )
    return m


def support_dimension(
    n: int, r: int, lam: Parameter, sigma: Multipartition
) -> SupportReport:
    """Support dimension of the simple labeled by sigma (closed formula).

    Regime: lam rational positive with denominator m > 1, or irrational
    (infinite denominator, empty quotient); |sigma| = n; dominant cocharacter
    assumed on the category side.
    """
    lam = as_parameter(lam)
    m = _support_regime(n, r, lam)
    if len(sigma) != r:
        raise ValueError(f"expected {r} components in sigma")
    for comp in sigma:
        check_partition(comp)
    if multipartition_size(sigma) != n:
        raise ValueError(f"|sigma| must equal n = {n}")
    if m is None:
        qsize = 0
        support = r * n
    else:
        qsize = _quotient_size(sigma[0], m)
        support = r * n - qsize * (r * m - 1)
    if not 1 <= support <= r * n:
        raise InvariantError(f"support dimension {support} outside [1, {r * n}]")
    return SupportReport(
        sigma=sigma,
        denominator=m,
        quotient_size=qsize,
        support_dim=support,
        annihilator_index=qsize,
    )


def annihilator_index(n: int, r: int, lam: Parameter, sigma: Multipartition) -> int:
    """Chain index of the annihilator of the simple at sigma (0 = zero ideal)."""
    lam = as_parameter(lam)
    report = support_dimension(n, r, lam, sigma)
    # positive lambda always has finite global dimension, so the chain exists
    if not has_finite_global_dimension(n, r, lam):
        raise InvariantError(f"no ideal chain at lambda = {lam}")
    return report.annihilator_index


def legal_removals(sigma: Multipartition, m: int) -> list[tuple[int, int]]:
    """Pairs (component index, corner row) whose box removal is allowed in the
    support recursion: the component's remainder is nonempty, the removal
    leaves a partition, and the component's quotient is unchanged."""
    sigma = tuple(check_partition(comp) for comp in sigma)
    _check_modulus(m)
    return list(_legal_removals(sigma, m))


def _legal_removals(sigma: Multipartition, m: int) -> Iterator[tuple[int, int]]:
    """Every legal removal, component by component, rows as ``_legal_rows``
    gives them.  Legality reads a row's own component only, so a removal
    leaves every other component's legal rows as they were, and the first
    legal removal stays in one component until its legal rows run out:
    until all its parts are divisible by m (the lemma in ``_legal_rows``).
    """
    for ci, comp in enumerate(sigma):
        for row in _legal_rows(comp, m):
            yield ci, row


def _legal_rows(comp: Sequence[int], m: int) -> list[int]:
    """Rows of one partition whose box removal keeps its quotient by m.

    Removing a box from row i lowers lam_i - lam_{i+1} by one and raises
    lam_{i-1} - lam_i by one; the quotient's closed form (see
    divide_with_remainder) is unchanged iff neither floor by m moves:
    (lam_i - lam_{i+1}) mod m != 0 and, for i > 0, (lam_{i-1} - lam_i + 1)
    mod m != 0.  The first test also makes row i a corner, and no row passes
    it when the remainder is empty (every part divisible by m).

    So a legal removal exists whenever some part is not divisible by m: the
    first row i with (lam_i - lam_{i+1}) mod m != 0 exists, as every lam_j
    is a sum of those differences, and is legal, as for i > 0 m divides
    lam_{i-1} - lam_i, so (lam_{i-1} - lam_i + 1) mod m = 1.
    """
    rows, above = [], None
    for row, part in enumerate(comp):
        below = comp[row + 1] if row + 1 < len(comp) else 0
        if (part - below) % m and (above is None or (above - part + 1) % m):
            rows.append(row)
        above = part
    return rows


def _walk(comps: list[list[int]], m: int, total: int) -> Iterator[tuple[int, int]]:
    """Remove the first legal box from ``comps`` (lists of parts holding
    ``total`` boxes) in place, yielding (component, row), until fewer than
    m boxes or no legal removal is left."""
    for ci, comp in enumerate(comps):
        while total >= m and (rows := _legal_rows(comp, m)):
            row = rows[0]
            if comp[row] > 1:
                comp[row] -= 1
            else:  # a legal part 1 has no part below it: the last row
                del comp[row]
            total -= 1
            yield ci, row


def _checked_recursion_input(
    n: int, r: int, m: int, sigma: Multipartition
) -> Multipartition:
    _check_modulus(m)
    _check_nr(n, r)
    if len(sigma) != r:
        raise ValueError(f"expected {r} components in sigma")
    sigma = tuple(check_partition(comp) for comp in sigma)
    if multipartition_size(sigma) != n:
        raise ValueError(f"|sigma| must equal n = {n}")
    return sigma


def _end_value(n: int, r: int, m: int, sigma: Multipartition) -> int | None:
    """The recursion's value where it stops, or None if a box must go: rn
    when n < m; when every part is divisible by m, |sigma^(1)|/m from the
    first component plus |sigma^(i)|/m * rm from each other one."""
    if n < m:
        return r * n
    if any(part % m for comp in sigma for part in comp):
        return None
    first = sum(sigma[0])
    return first // m + (n - first) // m * r * m


def support_dimension_recursive(
    n: int, r: int, m: int, sigma: Multipartition
) -> int:
    """Independent recursion for the support dimension (restriction argument).

    Cases: n < m gives the full rn; if every component is exactly divisible
    by m (empty remainder), the first component contributes |q^(1)| and every
    other component |q^(i)| * rm; otherwise remove one legal box (any choice
    gives the same value) and add r.  sigma is validated once, here.

    The path removes the first legal box each time: by ``_legal_removals``
    the legal rows of the first component, then of the second, and so on,
    so ``_walk`` takes it one mutable component at a time.  The
    ``InvariantError`` is unreachable, since a legal box exists off an end
    state; it stays to catch a change to the removal rule.
    """
    sigma = _checked_recursion_input(n, r, m, sigma)
    comps = [list(comp) for comp in sigma]
    removed = 0
    for _ in _walk(comps, m, n):
        removed += 1
    value = _end_value(n - removed, r, m, comps)
    if value is None:
        state = tuple(map(tuple, comps))
        raise InvariantError(f"no legal box removal from {state} at m = {m}")
    return r * removed + value


def support_recursion_values(n: int, r: int, m: int, sigma: Multipartition) -> frozenset[int]:
    """Set of values the recursion can reach over ALL legal corner choices:
    the one value of ``support_dimension_recursive``, which validates sigma.
    Off an end state a legal removal exists (see ``_legal_removals``) and
    each takes a box, so every path ends at an end state.  A legal removal
    keeps q^(1), and with ``total`` boxes left both ends give r * total -
    |q^(1)|(rm - 1): below m boxes q^(1) is empty, and with every part
    divisible by m that is |sigma^(1)|/m + (total - |sigma^(1)|)/m * rm.
    With r per box removed, every path ends at rn - |q^(1)|(rm - 1).  The
    tests keep the search over every path as the oracle of this.
    """
    return frozenset({support_dimension_recursive(n, r, m, sigma)})


HOOKS_BLOCK = "hooks_block"
PARTIAL_UNKNOWN = "partial_unknown"

# the most bytes the rn hook labels of a block may print: the label of leg d
# prints r - 1 empty components and r - 1 bars, n + 1 - d and d - 1 parts "1,"
# on a line of 8 bytes, so no block report passes the 2,218,560 B of `walls 304 20`
MAX_HOOKS_BYTES = 2_000_000


@dataclass(frozen=True)
class BlockStructure:
    n: int
    r: int
    denominator: int | None
    kind: str  # "semisimple" | "hooks_block" | "partial_unknown"
    labels: tuple[Multipartition, ...] | None  # hooks when kind = hooks_block
    labels_ordered: bool | None  # order meaningful only for dominant nu
    finite_dim_label: Multipartition | None
    finite_dim_candidates: tuple[Partition, ...] | None  # shapes, slot open
    note: str


def block_structure(
    n: int, r: int, lam: Parameter, nu: Cocharacter
) -> BlockStructure:
    """Block decomposition data of the category at (lam, nu).

    Requires generic nu and non-integral lam.  Denominator > n: semisimple.
    Denominator n: one nontrivial block whose simples are the rn hooks, in
    the slot-major leg-descending order when nu is dominant; for non-dominant
    nu only the label SET is known and the finite-dimensional simple narrows
    to a one-component (n) or (1^n).  1 < m < n: partial information only.
    The hooks' printed size is checked against MAX_HOOKS_BYTES before any is built.
    """
    _check_nr(n, r)
    lam = as_parameter(lam)
    if nu.r != r:
        raise ValueError("cocharacter rank must equal r")
    if not is_generic(nu, n):  # which raises for the zero cocharacter
        wall = next(_walls_through(nu, n))
        raise RegimeError(f"cocharacter is not generic (lies on wall {wall})")
    m = reduced_denominator(lam)
    if m == 1:
        raise RegimeError(
            "integral parameters are out of scope for the block classification"
        )
    if m is None or m > n:
        return BlockStructure(
            n, r, m, SEMISIMPLE, None, None, None, None,
            note="denominator exceeds n; every block is a single simple",
        )
    if m == n:
        # rn labels of n + 2r + 5 bytes and the digits of n, d <= b // 3 + 1 as 8^d < 10^d
        size = r * n * (n + 2 * r + 6 + n.bit_length() // 3)
        if size > MAX_HOOKS_BYTES:
            raise ValueError(
                f"the {r * n} hooks at n = {n}, r = {r} would print up to {size} "
                f"bytes, above MAX_HOOKS_BYTES = {MAX_HOOKS_BYTES}"
            )
        dominant = is_dominant(nu, n)
        findim = has_finite_dimensional_rep(n, r, lam)
        ordered_hooks = tuple(h.multipartition() for h in hooks(n, r))
        if dominant:
            label = Hook(n, r, 1, 1).multipartition() if findim else None
            return BlockStructure(
                n, r, m, HOOKS_BLOCK, ordered_hooks, True, label, None,
                note=(
                    "unique nontrivial block; labels listed largest first"
                    + ("" if findim else
                       "; no finite dimensional simple at this parameter")
                ),
            )
        candidates = ((n,), (1,) * n) if findim else None
        return BlockStructure(
            n, r, m, HOOKS_BLOCK,
            tuple(sorted(ordered_hooks)), False, None, candidates,
            note=(
                "unique nontrivial block; label order depends on the chamber"
                + ("; finite dimensional simple is a one-component (n) or (1^n)"
                   if findim else
                   "; no finite dimensional simple at this parameter")
            ),
        )
    return BlockStructure(
        n, r, m, PARTIAL_UNKNOWN, None, None, None, None,
        note=(
            "denominator strictly between 1 and n: block membership is only "
            "partially determined by supports; no full classification"
        ),
    )
