"""Two-sided ideal structure: leaf labels, the prime chain, antichain calculus.

Ideals of the k-fold tensor power of the algebra correspond to antichains of
subsets of {1..k}: an ideal determines the up-closed family of index sets
whose basic prime contains it, and the antichain of minimal members pins the
family down.  Intersection of ideals is union of up-closed families, sum is
intersection, and product equals intersection (every ideal is idempotent).
The intersection form and the sum form of the same ideal are exchanged by
minimal transversals, built one member at a time (Berge, Hypergraphs, 1989),
so the work follows the intermediate antichains, not the 2^k subsets.  Where
every subset of {1..k} is walked, a subset is an int mask and an up-closed
family an int over 2^k bits; antichain members stay frozensets.

Conventions: the whole algebra is the EMPTY antichain (empty intersection);
the zero ideal is the antichain {{}} whose single member is the empty set
(empty sum).  Minimal-transversal duality swaps the two.

``IdealChainEntry``, ``IdealChain`` and ``IdealAntichain`` are named tuples,
cheap to define and to build (see the package docstring).
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from typing import NamedTuple

from .diagnostics import (
    Parameter,
    as_parameter,
    has_finite_global_dimension,
    reduced_denominator,
)
from .partitions import (
    Partition,
    _check_nr,
    check_partition,
    count_partitions,
    enumerate_partitions,
)

LeafLabel = Partition  # unordered collection of positive ints, stored sorted desc

# the most leaves a list may hold: n = 26 lists 11,732 (the CLI prints 1.79 MB
# at r = 2, under the largest wall list's 2.22 MB), n = 27 would list 14,742
MAX_LISTED_LEAVES = 12_000
# the most digits a list's dimensions, each at most 2rn, may print: the rest
# of n = 26's list prints 1.77 MB at any r, so no list passes 2.18 MB
MAX_LISTED_DIGITS = 400_000
# the most bytes the parts of an ideal chain's leaves may print, each on an
# indented line of 12 bytes and the digits of m: the longest chain at m = 1,
# n = 554, prints 2.05 MB in all, under the 2.09 MB of the largest leaf list
MAX_CHAIN_BYTES = 2_000_000


def enumerate_leaves(n: int, r: int) -> list[LeafLabel]:
    """Symplectic leaves: collections (n_1 >= ... >= n_k > 0) with sum <= n.

    Ordered by number of parts, then total, then the partition enumeration
    order (one stable sort by length).  The empty collection is the open
    leaf.  Requires r >= 2; the rank-one stratification is different and out
    of scope.  The count, sum of p(t) over t <= n, is checked against
    MAX_LISTED_LEAVES before any leaf is built; it is summed only until it
    passes the limit, so a large n costs no more than n = 27.  The list is
    the same at every r, whose printed dimensions are checked first: the
    count times the digits of 2rn against MAX_LISTED_DIGITS.
    """
    _check_nr(n, r)
    if r < 2:
        raise ValueError("leaf classification requires r >= 2")
    count = 0
    for t in range(n + 1):
        count += count_partitions(t)
        if count > MAX_LISTED_LEAVES:
            raise ValueError(
                f"the leaves at n = {n} number at least {count}, above "
                f"MAX_LISTED_LEAVES = {MAX_LISTED_LEAVES}"
            )
    digits = MAX_LISTED_DIGITS // count  # the most each dimension may print
    top = 2 * r * n  # 8^d < 10^d: at most 3d bits make at most d digits
    if top.bit_length() > 3 * digits and top >= 10**digits:
        raise ValueError(
            f"the {count} leaves at n = {n} would print dimensions of more than "
            f"{digits} digits, above MAX_LISTED_DIGITS = {MAX_LISTED_DIGITS} in all"
        )
    return sorted(
        (lam for total in range(n + 1) for lam in enumerate_partitions(total)), key=len
    )


def leaf_dimension(leaf: LeafLabel, n: int, r: int, reduced: bool = True) -> int:
    """Dimension of the leaf with slice prod of moduli of sizes n_i.

    Reduced convention: ambient dim 2rn - 2 minus slice dim sum(2*r*n_i - 2).
    With reduced=False both ambient and slice gain the extra 2-dimensional
    framing factor, so the value is 2 larger.
    """
    leaf = check_partition(leaf)
    if sum(leaf) > n:
        raise ValueError("leaf collection exceeds total n")
    _check_nr(n, r)
    dim = (2 * r * n - 2) - sum(2 * r * a - 2 for a in leaf)
    return dim if reduced else dim + 2


class IdealChainEntry(NamedTuple):
    index: int  # position i in the chain, 1-based from the smallest ideal
    leaf: LeafLabel  # i copies of the denominator
    variety_dim: int | None  # reduced convention; None when r = 1


class IdealChain(NamedTuple):
    n: int
    r: int
    denominator: int | None  # None = +infinity
    simple: bool  # no proper two-sided ideals
    entries: tuple[IdealChainEntry, ...]  # increasing index = larger ideal


def ideal_chain(n: int, r: int, lam: Parameter) -> IdealChain:
    """The chain of proper two-sided ideals at parameter lam.

    Infinite global dimension forces a simple algebra (no entries); otherwise
    there are floor(n/m) proper ideals, all prime, linearly ordered, the i-th
    sitting over the leaf with i collection entries equal to m.  Variety
    dimensions use the reduced convention and are only defined for r >= 2.
    The leaves print count(count + 1)/2 parts m, each on a line of 12 bytes
    and the digits of m, checked against MAX_CHAIN_BYTES before any entry is
    built.
    """
    _check_nr(n, r)
    lam = as_parameter(lam)
    m = reduced_denominator(lam)
    if not has_finite_global_dimension(n, r, lam):
        return IdealChain(n, r, m, simple=True, entries=())
    count = 0 if m is None else n // m
    parts = count * (count + 1) // 2
    digits = MAX_CHAIN_BYTES // max(parts, 1) - 12  # the most m may print
    if count and (digits < 1 or m.bit_length() > 3 * digits and m >= 10**digits):  # 8^d < 10^d
        raise ValueError(
            f"the {count} ideals at n = {n} would print {parts} leaf parts of 12 "
            f"bytes and the digits of m each, above MAX_CHAIN_BYTES = {MAX_CHAIN_BYTES}"
        )
    entries = tuple(
        IdealChainEntry(
            index=i,
            leaf=(m,) * i,
            variety_dim=leaf_dimension((m,) * i, n, r) if r >= 2 else None,
        )
        for i in range(1, count + 1)
    )
    return IdealChain(n, r, m, simple=count == 0, entries=entries)


Subset = frozenset[int]


def _check_k(k: int) -> None:
    if type(k) is not int:  # True would pass for 1
        raise ValueError(f"k must be an int, not {k!r}")


class IdealAntichain(namedtuple("IdealAntichain", "k members form", defaults=["intersection"])):
    """An ideal of the k-fold tensor power, as the antichain of a set family.

    ``members`` are pairwise incomparable subsets of {1..k}, each a frozenset.
    The form tag records whether the ideal is the intersection of the basic
    primes I_Lambda over the members, or the sum of the basic products I^Lambda.
    """

    __slots__ = ()

    def __new__(cls, k: int, members: frozenset[Subset], form: str = "intersection"):
        _check_k(k)
        if k < 1:
            raise ValueError("need k >= 1")
        if form not in ("intersection", "sum"):
            raise ValueError(f"unknown form {form!r}")
        for s in members:
            if not isinstance(s, frozenset):  # a tuple would be ordered, not included
                raise ValueError(f"member {s!r} is not a frozenset")
            if not all(type(x) is int and 1 <= x <= k for x in s):
                raise ValueError(f"member {sorted(s)} not within 1..{k}")
        for a in members:
            for b in members:
                if a != b and a <= b:
                    raise ValueError("members must be pairwise incomparable")
        return super().__new__(cls, k, members, form)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def to_lists(self) -> list[list[int]]:
        return sorted([sorted(s) for s in self.members], key=lambda c: (len(c), c))


def minimal_members(subsets) -> frozenset[Subset]:
    fam = {frozenset(s) for s in subsets}
    return frozenset(
        s for s in fam if not any(t < s for t in fam)
    )


def antichain_normalize(subsets, k: int, form: str = "intersection") -> IdealAntichain:
    """Drop every member that contains another member; keep the minimal ones."""
    return IdealAntichain(k, minimal_members(subsets), form)


def _subset(mask: int) -> Subset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def up_closure(a: IdealAntichain) -> frozenset[Subset]:
    """All subsets of {1..k} containing some member.  Exponential in k."""
    masks = [sum(1 << (x - 1) for x in m) for m in a.members]
    return frozenset(
        _subset(s) for s in range(1 << a.k) if any(not m & ~s for m in masks)
    )


def _require_compatible(a: IdealAntichain, b: IdealAntichain) -> None:
    if a.k != b.k:
        raise ValueError(f"mismatched tensor powers k={a.k} vs k={b.k}")
    if a.form != "intersection" or b.form != "intersection":
        raise ValueError("lattice operations expect intersection form")


def intersect(a: IdealAntichain, b: IdealAntichain) -> IdealAntichain:
    """Intersection of ideals: union of up-closed families."""
    _require_compatible(a, b)
    return antichain_normalize(a.members | b.members, a.k)


def sum_(a: IdealAntichain, b: IdealAntichain) -> IdealAntichain:
    """Sum of ideals: intersection of up-closed families = pairwise unions."""
    _require_compatible(a, b)
    unions = {x | y for x in a.members for y in b.members}
    return antichain_normalize(unions, a.k)


def product(a: IdealAntichain, b: IdealAntichain) -> IdealAntichain:
    """Product of ideals; equals the intersection since every ideal is
    semiprime and sums of the basic building blocks are idempotent."""
    return intersect(a, b)


def contains(a: IdealAntichain, b: IdealAntichain) -> bool:
    """Ideal containment a <= b: every member of b contains some member of a."""
    _require_compatible(a, b)
    return all(any(x <= y for x in a.members) for y in b.members)


def minimal_transversals(members: frozenset[Subset]) -> frozenset[Subset]:
    """Minimal hitting sets of the member family within {1..k}.

    Member by member: a transversal of the members so far that misses the
    next one gains one of its elements, and the minimal sets are kept.  The
    empty family is hit by the empty set; a family containing the empty set
    has no transversal at all.  On antichains the operation is an
    involution, swapping the whole-algebra and zero-ideal extremes.
    """
    hits = frozenset({frozenset()})
    for m in members:
        hits = minimal_members(
            [h for h in hits if h & m] + [h | {x} for h in hits if not h & m for x in m]
        )
    return hits


def to_sum_form(a: IdealAntichain) -> IdealAntichain:
    if a.form != "intersection":
        raise ValueError("expected intersection form")
    return IdealAntichain(a.k, minimal_transversals(a.members), "sum")


def to_intersection_form(a: IdealAntichain) -> IdealAntichain:
    if a.form != "sum":
        raise ValueError("expected sum form")
    return IdealAntichain(a.k, minimal_transversals(a.members), "intersection")


@cache
def _up_sets(k: int) -> tuple[int, ...]:
    """All up-closed families of subsets of {1..k} (2 extremes included),
    each an int whose bit s is set when the subset with mask s belongs."""
    if k == 0:
        return (0, 1)  # no set; the empty set
    smaller, shift = _up_sets(k - 1), 1 << (k - 1)
    # a family on {1..k} splits as U0 (sets without k) and U1 (sets with k,
    # k removed); up-closedness forces U0 inside U1, both up-closed
    return tuple(u0 | u1 << shift for u1 in smaller for u0 in smaller if not u0 & ~u1)


def enumerate_ideals(k: int) -> list[IdealAntichain]:
    """Every ideal of the k-fold tensor power, as intersection-form antichains."""
    _check_k(k)
    if not 1 <= k <= 5:
        raise ValueError("enumeration supported for 1 <= k <= 5")
    return [
        antichain_normalize([_subset(s) for s in range(1 << k) if u >> s & 1], k)
        for u in _up_sets(k)
    ]


def count_ideals(k: int) -> int:
    """Number of ideals (antichains on {1..k}, extremes included); k <= 5."""
    _check_k(k)
    if not 1 <= k <= 5:
        raise ValueError("supported range is 1 <= k <= 5")
    return len(_up_sets(k))


def parse_antichain(text: str, k: int, form: str = "intersection") -> IdealAntichain:
    """Parse '[[1],[2]]'-style JSON into a normalized antichain."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse antichain from {text!r}") from exc
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise ValueError("antichain must be a list of index lists")
    members = []
    for c in data:
        # bool is a subclass of int, but true and false are not indices
        if not all(type(x) is int and 1 <= x <= k for x in c):
            raise ValueError(f"indices must be integers in 1..{k}: {c}")
        members.append(frozenset(c))
    return antichain_normalize(members, k, form)
