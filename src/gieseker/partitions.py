"""Integer partitions, multipartitions, and hook shapes.

Conventions used throughout the package:

* a partition is a tuple of weakly decreasing positive ints; the empty
  partition is ``()``;
* an r-multipartition is an r-tuple of partitions;
* text form: parts joined by commas (``"8,6,1"``), empty partition ``"-"``,
  multipartition components joined by ``"|"`` (``"8,6,1|2|-"``).

``Hook`` is a named tuple, cheap to define and to build (see the package
docstring).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


def is_partition(parts: tuple[int, ...]) -> bool:
    """True iff ``parts`` is weakly decreasing with all entries positive ints;
    ``type(p) is int``, as in ``_check_nr``, since True would pass for 1."""
    above = None
    for part in parts:
        if type(part) is not int or part < 1 or (above is not None and part > above):
            return False
        above = part
    return True


def check_partition(parts: tuple[int, ...]) -> Partition:
    lam = tuple(parts)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {parts!r}")
    return lam


def multipartition_size(sigma: Multipartition) -> int:
    return sum(sum(comp) for comp in sigma)


def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically decreasing: (n) first, (1^n) last."""
    if type(n) is not int:  # checked before the cache, which keys True as 1
        raise ValueError(f"n must be an int, not {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _partitions_bounded(n, n)


@cache
def _partitions_bounded(n: int, max_part: int) -> tuple[Partition, ...]:
    # partitions of n with all parts <= max_part, lex decreasing
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def count_partitions(n: int) -> int:
    """p(n) from its generating function, building no partition; 0 for an int n < 0."""
    return 0 if type(n) is int and n < 0 else count_multipartitions(n, 1)


def enumerate_multipartitions(n: int, r: int) -> tuple[Multipartition, ...]:
    """All r-multipartitions of n.

    Order: the first component's size runs n down to 0; within a size,
    components in the enumerate_partitions order; remaining components
    recursively.  For (n, r) = (2, 2) this gives
    ((2),()) ((1,1),()) ((1),(1)) ((),(2)) ((),(1,1)).
    """
    _check_nr(n, r, 0)  # before the cache, which keys True as 1
    return _multipartitions(n, r)


@cache
def _multipartitions(n: int, r: int) -> tuple[Multipartition, ...]:
    if r == 1:
        return tuple((lam,) for lam in _partitions_bounded(n, n))
    out: list[Multipartition] = []
    for s in range(n, -1, -1):
        for lam in _partitions_bounded(s, s):
            for rest in _multipartitions(n - s, r - 1):
                out.append((lam,) + rest)
    return tuple(out)


def count_multipartitions(n: int, r: int) -> int:
    """The x^n coefficient of prod_{d>=1} (1 - x^d)^(-r), expanded one
    geometric series at a time in O(r n^2) integer additions."""
    _check_nr(n, r, 0)
    coeffs = [1] + [0] * n
    for _ in range(r):
        for d in range(1, n + 1):
            for k in range(d, n + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs[n]


def enumerate_compositions(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Ordered r-tuples of nonnegative ints summing to n, first entry n down to 0."""
    _check_nr(n, r, 0)  # before the cache, which keys True as 1
    return _compositions(n, r)


@cache
def _compositions(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    if r == 1:
        return ((n,),)
    return tuple(
        (s,) + rest
        for s in range(n, -1, -1)
        for rest in _compositions(n - s, r - 1)
    )


def transpose(lam: Partition) -> Partition:
    """Conjugate partition: column lengths of the Young diagram of ``lam``."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def removable_corners(lam: Partition) -> list[int]:
    """Row indices i (0-based) such that deleting one box from row i leaves a partition."""
    lam = check_partition(lam)
    return [
        i
        for i in range(len(lam))
        if i == len(lam) - 1 or lam[i] > lam[i + 1]
    ]


def remove_corner(lam: Partition, row: int) -> Partition:
    """Partition with one box removed from (removable) row ``row``."""
    parts = check_partition(lam)
    if type(row) is not int:
        raise ValueError(f"row must be an int, not {row!r}")
    if not (0 <= row < len(parts) and (row == len(parts) - 1 or parts[row] > parts[row + 1])):
        raise ValueError(f"row {row} is not a removable corner of {lam}")
    new = (*parts[:row], parts[row] - 1, *parts[row + 1 :])
    return new if new[-1] else new[:-1]  # a row emptied is the last


def _check_modulus(m: int) -> None:
    if type(m) is not int:  # as in _check_nr: True would pass for 1, 2.0 for 2
        raise ValueError(f"modulus m must be an int, not {m!r}")
    if m < 2:
        raise ValueError("modulus m must be >= 2")


def divide_with_remainder(lam: Partition, m: int) -> tuple[Partition, Partition]:
    """Componentwise division of a partition by m with partition remainder.

    Returns (quotient, remainder) with lam_i = m * q_i + rem_i for every row
    (zero-padded on the right), both q and rem weakly decreasing nonnegative,
    and |q| maximal among all such decompositions.  Maximality can force
    small quotients: (8,6,1) / 3 -> ((1,1), (5,3,1)) because q = (2,2) and
    q = (2,1) both leave non-decreasing remainders, and (2,1) / 2 -> ((), (2,1)).

    Closed form: with d_j = q_j - q_{j+1} and q_{k+1} = lam_{k+1} = 0 the
    conditions are exactly 0 <= d_j <= floor((lam_j - lam_{j+1}) / m),
    independently for each j, and |q| = sum_j j * d_j; so the unique maximum
    takes every d_j at its bound, q_i = sum_{j >= i} floor((lam_j -
    lam_{j+1}) / m), one right-to-left pass over the rows.
    """
    lam = check_partition(lam)
    _check_modulus(m)
    q: list[int] = []
    total = below = 0
    for part in reversed(lam):
        total += (part - below) // m
        below = part
        q.append(total)
    q.reverse()
    quotient = tuple(x for x in q if x)
    remainder = tuple(p - m * x for p, x in zip(lam, q) if p - m * x)
    return quotient, remainder


def _quotient_size(lam: Partition, m: int) -> int:
    """|q| of ``divide_with_remainder(lam, m)`` for a validated partition and
    modulus: sum_j j * floor((lam_j - lam_{j+1}) / m), 1-based rows."""
    return sum(
        (j + 1) * ((part - (lam[j + 1] if j + 1 < len(lam) else 0)) // m)
        for j, part in enumerate(lam)
    )


def quotient_size(lam: Partition, m: int) -> int:
    """|q| of ``divide_with_remainder(lam, m)``, by its closed form."""
    lam = check_partition(lam)
    _check_modulus(m)
    return _quotient_size(lam, m)


class Hook(namedtuple("Hook", "n r slot leg")):
    """Hook-shaped multipartition label: slot ``slot`` carries (n+1-d, 1^(d-1)).

    ``slot`` is 1-based in [1, r]; ``leg`` = d is in [1, n].
    """

    __slots__ = ()

    def __new__(cls, n: int, r: int, slot: int, leg: int) -> Hook:
        if not type(n) is type(r) is type(slot) is type(leg) is int:
            raise ValueError(f"hook indices must be ints, not {(n, r, slot, leg)!r}")
        if not (1 <= slot <= r and 1 <= leg <= n):
            raise ValueError("hook indices out of range")
        return super().__new__(cls, n, r, slot, leg)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    @property
    def shape(self) -> Partition:
        return hook_partition(self.n, self.leg)

    def multipartition(self) -> Multipartition:
        comps = [()] * self.r
        comps[self.slot - 1] = self.shape
        return tuple(comps)


def hook_partition(n: int, d: int) -> Partition:
    """The hook partition of n with arm n-d and leg d-1, i.e. (n+1-d, 1^(d-1))."""
    if type(n) is not int or type(d) is not int:
        raise ValueError(f"n and d must be ints, not {n!r} and {d!r}")
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    return (n + 1 - d,) + (1,) * (d - 1)


def _check_nr(n: int, r: int, least_n: int = 1) -> None:  # every (n, r) entry point's check
    if type(n) is not int or type(r) is not int:  # True would pass for 1
        raise ValueError(f"n and r must be ints, not {n!r} and {r!r}")
    if n < least_n or r < 1:
        raise ValueError(f"need n >= {least_n} and r >= 1")


def hooks(n: int, r: int) -> list[Hook]:
    """All rn hook labels, slot-major with leg descending within each slot.

    h[1,n], ..., h[1,1], h[2,n], ..., h[r,1]: this is the linear order on the
    block poset, largest first.
    """
    _check_nr(n, r)
    return [Hook(n, r, i, d) for i in range(1, r + 1) for d in range(n, 0, -1)]


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "-"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    return check_partition(parts)


def format_multipartition(sigma: Multipartition) -> str:
    return "|".join(format_partition(comp) for comp in sigma)


def parse_multipartition(text: str, r: int | None = None) -> Multipartition:
    comps = tuple(parse_partition(tok) for tok in text.strip().split("|"))
    if r is not None and len(comps) != r:
        raise ValueError(f"expected {r} components, got {len(comps)}")
    return comps
