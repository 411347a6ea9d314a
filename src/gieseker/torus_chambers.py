"""One-parameter-subgroup arithmetic: walls, genericity, dominance, chambers.

A cocharacter nu = ((d_1, ..., d_r); k) acts on the framing torus and on the
base plane; its fixed locus on the moduli space is finite exactly off a finite
wall arrangement: the hyperplane k = 0 and the hyperplanes d_i - d_j = s*k
with i < j and |s| < n.  A listed arrangement holds at most MAX_LISTED_WALLS
walls; ``wall_labels`` gives their text without building them.

``Cocharacter``, ``Wall`` and ``FixedComponent`` are named tuples, cheap to
define and to build; ``WallSet`` stays a dataclass (see the package docstring).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from math import prod
from typing import NamedTuple

from .errors import RegimeError
from .partitions import _check_nr, count_partitions, enumerate_compositions


class Cocharacter(namedtuple("Cocharacter", "d k")):
    __slots__ = ()

    def __new__(cls, d: tuple[int, ...], k: int) -> Cocharacter:
        if len(d) < 1:
            raise ValueError("need at least one framing weight")
        if not all(type(x) is int for x in d) or type(k) is not int:  # True is not 1
            raise ValueError("cocharacter entries must be integers")
        return super().__new__(cls, d, k)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    @property
    def r(self) -> int:
        return len(self.d)

    def is_zero(self) -> bool:
        return self.k == 0 and all(x == 0 for x in self.d)


def parse_cocharacter(text: str) -> Cocharacter:
    """Parse "d1,...,dr;k"."""
    try:
        d_part, k_part = text.strip().split(";")
        d = tuple(int(tok) for tok in d_part.split(","))
        k = int(k_part)
    except ValueError as exc:
        raise ValueError(f"cannot parse cocharacter from {text!r}") from exc
    return Cocharacter(d, k)


def format_cocharacter(nu: Cocharacter) -> str:
    return ",".join(str(x) for x in nu.d) + f";{nu.k}"


class Wall(NamedTuple):
    """Linear form on (d, k)-space: either k itself or d_i - d_j - s*k."""

    kind: str  # "k_zero" | "pair"
    i: int = 0  # 1-based, i < j; unused for k_zero
    j: int = 0
    s: int = 0

    def evaluate(self, nu: Cocharacter) -> int:
        if self.kind == "k_zero":
            return nu.k
        return nu.d[self.i - 1] - nu.d[self.j - 1] - self.s * nu.k

    def __str__(self) -> str:
        if self.kind == "k_zero":
            return "k=0"
        return _head(self.i, self.j) + _rhs(self.s)


# a pair wall's label is its head "d{i}-d{j}=" followed by s*k
def _head(i: int, j: int) -> str:
    return f"d{i}-d{j}="


def _rhs(s: int) -> str:
    return "0" if s == 0 else "k" if s == 1 else "-k" if s == -1 else f"{s}k"


# WallSet stays a dataclass, as do the reports of diagnostics and
# category_o: perfbench/selfcheck.py rebuilds them with dataclasses.replace
@dataclass(frozen=True)
class WallSet:
    n: int
    r: int
    walls: tuple[Wall, ...]
    count_with_multiplicity: int


# the most walls a list may hold: `walls 304 20` lists 115,331 (2.2 MB of
# JSON), `walls 2000 40` would list 3,119,221
MAX_LISTED_WALLS = 150_000


def _check_listed(count: int, what: str) -> None:
    if count > MAX_LISTED_WALLS:
        raise ValueError(f"{what} has {count} walls, above MAX_LISTED_WALLS = {MAX_LISTED_WALLS}")


def _arrangement(n: int, r: int) -> tuple:
    """The pairs (i, j) and shifts s of the pair walls of ``walls(n, r)``, in
    its order, after the count 1 + r(r-1)/2 * (2n-1) is checked against
    MAX_LISTED_WALLS."""
    _check_nr(n, r)
    count = 1 + r * (r - 1) // 2 * (2 * n - 1)
    _check_listed(count, f"the arrangement at n = {n}, r = {r}")
    return combinations(range(1, r + 1), 2), range(-(n - 1), n)


def walls(n: int, r: int) -> WallSet:
    """The full wall arrangement for rank r at n points.

    The k = 0 wall, then d_i - d_j = s*k for each pair i < j and each
    |s| < n: pairwise non-proportional by construction (distinct (i, j, s)
    give distinct forms), so none coincide.  Each pair's walls are built by
    ``tuple.__new__`` in one C-level pass, the same named tuples as
    ``Wall("pair", i, j, s)``.
    """
    pairs, shifts = _arrangement(n, r)
    new = tuple.__new__
    forms = (Wall("k_zero"), *chain.from_iterable(
        map(new, repeat(Wall), zip(repeat("pair"), repeat(i), repeat(j), shifts))
        for i, j in pairs
    ))
    return WallSet(n, r, forms, len(forms))


def wall_labels(n: int, r: int) -> list[str]:
    """``[str(w) for w in walls(n, r).walls]`` without building a wall: each
    pair's head joined to the 2n - 1 right-hand sides, made once."""
    pairs, shifts = _arrangement(n, r)
    rhs = [_rhs(s) for s in shifts]
    labels = ["k=0"]
    for i, j in pairs:
        labels += map(_head(i, j).__add__, rhs)
    return labels


def _walls_through(nu: Cocharacter, n: int):
    """The walls nu lies on, in the order of ``walls(n, nu.r)``, found pair by
    pair in O(r^2): for k != 0 the pair (i, j) contributes the one wall
    s = (d_i - d_j) / k when k divides d_i - d_j and |s| < n; for k = 0 it
    contributes every s when d_i = d_j and nothing otherwise."""
    _check_nr(n, nu.r)
    k = nu.k
    if k == 0:
        yield Wall("k_zero")
    for i in range(1, nu.r + 1):
        for j in range(i + 1, nu.r + 1):
            diff = nu.d[i - 1] - nu.d[j - 1]
            if k == 0:
                if diff == 0:
                    yield from (Wall("pair", i, j, s) for s in range(-(n - 1), n))
            elif diff % k == 0 and abs(diff // k) < n:
                yield Wall("pair", i, j, diff // k)


def violated_walls(nu: Cocharacter, n: int) -> list[Wall]:
    """Walls the cocharacter lies on, in the order of ``walls(n, nu.r)``.

    Found by divisibility of d_i - d_j by k (see ``_walls_through``) without
    building the arrangement, after their count is checked against
    MAX_LISTED_WALLS: at k = 0, the k = 0 wall and 2n - 1 walls per pair of
    equal weights; otherwise at most one wall per pair.
    """
    _check_nr(n, nu.r)
    k = nu.k
    if k == 0:
        count = 1 + (2 * n - 1) * sum(c * (c - 1) // 2 for c in Counter(nu.d).values())
    else:
        count = sum((a - b) % k == 0 and abs((a - b) // k) < n for a, b in combinations(nu.d, 2))
    _check_listed(count, f"the list of walls through {format_cocharacter(nu)} at n = {n}")
    return list(_walls_through(nu, n))


def is_generic(nu: Cocharacter, n: int) -> bool:
    """Finite fixed locus: off every wall.  Zero cocharacter rejected."""
    if nu.is_zero():
        raise RegimeError("the zero cocharacter is never generic")
    return next(_walls_through(nu, n), None) is None


def is_dominant(nu: Cocharacter, n: int) -> bool:
    """k >= 1 with gaps d_i - d_{i+1} > n*k (strict, scale-invariant)."""
    _check_nr(n, nu.r)
    if nu.k < 1:
        return False
    return all(nu.d[i] - nu.d[i + 1] > n * nu.k for i in range(nu.r - 1))


def same_chamber(nu: Cocharacter, nu2: Cocharacter, n: int) -> bool:
    """Whether two generic cocharacters have identical sign data on all walls.

    O(r^2) without building the arrangement.  A generic cocharacter has
    k != 0, and on it the form d_i - d_j - s*k of a pair wall has the sign
    of k times the sign of x - s, with x = (d_i - d_j) / k.  So the sign data
    is the sign of k plus, for each pair, the number of s in [-(n-1), n-1]
    below x, which is min(max(floor(x) + n, 0), 2n - 1).
    """
    if nu.r != nu2.r:
        raise ValueError("cocharacters must have the same rank")
    for candidate in (nu, nu2):
        wall = next(_walls_through(candidate, n), None)
        if wall is not None:  # the zero cocharacter lies on k=0
            raise RegimeError(
                f"cocharacter {format_cocharacter(candidate)} is not generic "
                f"(lies on wall {wall})"
            )
    if (nu.k > 0) != (nu2.k > 0):
        return False

    def slot(c: Cocharacter, i: int, j: int) -> int:
        return min(max((c.d[i] - c.d[j]) // c.k + n, 0), 2 * n - 1)

    return all(
        slot(nu, i, j) == slot(nu2, i, j)
        for i in range(nu.r)
        for j in range(i + 1, nu.r)
    )


class FixedComponent(NamedTuple):
    composition: tuple[int, ...]  # (n_1, ..., n_r), one Hilbert factor each
    dimension: int  # always 2n
    fixed_point_count: int  # product of partition counts of the n_i


def fixed_components_k0(nu0: Cocharacter, n: int) -> list[FixedComponent]:
    """Fixed-locus components for k = 0 and pairwise distinct framing weights.

    One component per composition (n_1, ..., n_r) of n; the component is a
    product of Hilbert schemes of n_i points, of total dimension 2n, with
    prod p(n_i) torus-fixed points.
    """
    if type(n) is not int or n < 0:  # True would pass for 1
        raise ValueError(f"need an int n >= 0, not {n!r}")
    if nu0.k != 0:
        raise RegimeError("fixed-component classification requires k = 0")
    if len(set(nu0.d)) != nu0.r:
        raise RegimeError(
            "repeated framing weights give a coarser fixed locus; "
            "pairwise distinct d_i required"
        )
    p = [count_partitions(a) for a in range(n + 1)]  # p(a), read once per part
    return [
        FixedComponent(
            composition=comp,
            dimension=2 * n,
            fixed_point_count=prod(p[a] for a in comp),
        )
        for comp in enumerate_compositions(n, nu0.r)
    ]
