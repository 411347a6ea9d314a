"""Parameter diagnostics for the quantized Gieseker algebra of rank r at n points.

The quantization parameter lambda is a rational number or the irrational
sentinel; every classification below depends on lambda only through window
conditions on its denominator.  A window "lam = s/m for some modulus
1 <= m <= n" holds exactly when the reduced denominator of lam is at most n,
so each test is O(1) in n.

``CartanFactor`` and ``CartanSummand`` are named tuples, cheap to define and
to build; ``DiagnosticsReport`` stays a dataclass (see the package docstring).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import InvariantError
from .partitions import _check_nr, enumerate_compositions


class _Irrational:
    """Sentinel for a non-rational parameter (denominator +infinity)."""

    _instance = None

    def __new__(cls) -> "_Irrational":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "irrational"


IRRATIONAL = _Irrational()
Parameter = Union[Fraction, _Irrational]


def as_parameter(value) -> Parameter:
    if isinstance(value, _Irrational):
        return IRRATIONAL
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_parameter(value)
    raise ValueError(f"cannot interpret {value!r} as a parameter")


_PARAMETER_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_parameter(text: str) -> Parameter:
    """Accepts an integer, a fraction p/q with q >= 1, or 'irrational'."""
    text = text.strip()
    if text.lower() == "irrational":
        return IRRATIONAL
    if not _PARAMETER_RE.match(text):
        raise ValueError(
            f"cannot parse parameter from {text!r}: "
            "expected an integer, p/q, or 'irrational'"
        )
    return Fraction(text)


def format_parameter(lam: Parameter) -> str:
    return "irrational" if isinstance(lam, _Irrational) else str(lam)


def reduced_denominator(lam: Parameter) -> int | None:
    """Denominator of lam in lowest terms; None encodes +infinity."""
    if isinstance(lam, _Irrational):
        return None
    return lam.denominator


def has_finite_global_dimension(n: int, r: int, lam: Parameter) -> bool:
    """False exactly when lam = s/m with 1 <= m <= n and -rm < s < 0.

    Equivalently, lam is rational with reduced denominator <= n and
    -r < lam < 0; that closed form is what is tested.
    """
    _check_nr(n, r)
    lam = as_parameter(lam)
    if isinstance(lam, _Irrational):
        return True
    return not (lam.denominator <= n and -r < lam < 0)


def abelian_localization_holds(n: int, r: int, lam: Parameter, theta_sign: int = 1) -> bool:
    """Whether localization at the (anti)dominant stability parameter holds.

    theta_sign=+1 tests lam directly: fails exactly when lam = s/m with
    1 <= m <= n and s < 0, i.e. when lam is rational with reduced denominator
    <= n and lam < 0.  theta_sign=-1 routes through the opposite-algebra
    parameter flip lam -> -lam - r and tests the +1 condition there.
    """
    _check_nr(n, r)
    lam = as_parameter(lam)
    if theta_sign == -1:
        return abelian_localization_holds(n, r, dual_parameter(lam, r), theta_sign=1)
    if theta_sign != 1:
        raise ValueError("theta_sign must be +1 or -1")
    if isinstance(lam, _Irrational):
        return True
    return not (lam.denominator <= n and lam < 0)


def dual_parameter(lam: Parameter, r: int) -> Parameter:
    """Parameter of the opposite algebra: lam -> -lam - r."""
    lam = as_parameter(lam)
    if isinstance(lam, _Irrational):
        return IRRATIONAL
    return -lam - r


def has_finite_dimensional_rep(n: int, r: int, lam: Parameter) -> bool:
    """True iff lam = s/n in lowest terms AND the global dimension is finite.

    Both conjuncts are part of the classification; dropping the second would
    wrongly accept e.g. n=2, r=1, lam=-1/2 (a simple infinite-dimensional
    algebra).  When true, the finite dimensional representations form a copy
    of the category of vector spaces (one simple object).
    """
    _check_nr(n, r)
    lam = as_parameter(lam)
    if isinstance(lam, _Irrational):
        return False
    return lam.denominator == n and has_finite_global_dimension(n, r, lam)


def findim_dimension_rank_one(n: int, s: int) -> int:
    """Dimension of the unique finite dimensional rep of the rank-one algebra.

    For lam = s/n with s > 0 and gcd(s, n) = 1 the dimension is
    (s+n-1)! / (s! n!), the rational Catalan number.  Refuses other inputs
    rather than extrapolating.
    """
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    if math.gcd(s, n) != 1:
        raise ValueError(f"s = {s} and n = {n} must be coprime")
    num = math.factorial(s + n - 1)
    den = math.factorial(s) * math.factorial(n)
    if num % den:
        raise InvariantError(f"rational Catalan number for s = {s}, n = {n} is not integral")
    return num // den


def singular_set(n: int, r: int) -> list[Fraction]:
    """All parameters with infinite global dimension: {s/m : 1<=m<=n, -rm<s<0}."""
    _check_nr(n, r)
    values = {
        Fraction(s, m)
        for m in range(1, n + 1)
        for s in range(-r * m + 1, 0)
    }
    return sorted(values)


class CartanFactor(NamedTuple):
    """Rank-one tensor factor attached to slot ``slot`` of a composition."""

    slot: int  # 1-based position i in the composition
    size: int  # n_i >= 1
    parameter: Parameter  # lam + slot - 1
    has_finite_dimensional_rep: bool


class CartanSummand(NamedTuple):
    composition: tuple[int, ...]
    factors: tuple[CartanFactor, ...]


def cartan_decomposition(n: int, r: int, lam: Parameter) -> list[CartanSummand]:
    """Summands of the restricted Cartan subquotient, one per composition of n.

    The summand at (n_1, ..., n_r) is a tensor product of rank-one algebras of
    sizes n_i at shifted parameters lam + i - 1, the i-th factor absent when
    n_i = 0.  Each factor records its own finite-dimensional-rep test.
    """
    _check_nr(n, r)
    lam = as_parameter(lam)
    out = []
    for comp in enumerate_compositions(n, r):
        factors = tuple(
            CartanFactor(
                slot=i,
                size=n_i,
                parameter=_shift(lam, i - 1),
                has_finite_dimensional_rep=has_finite_dimensional_rep(
                    n_i, 1, _shift(lam, i - 1)
                ),
            )
            for i, n_i in enumerate(comp, start=1)
            if n_i > 0
        )
        out.append(CartanSummand(composition=comp, factors=factors))
    return out


def _shift(lam: Parameter, k: int) -> Parameter:
    return IRRATIONAL if isinstance(lam, _Irrational) else lam + k


@dataclass(frozen=True)
class DiagnosticsReport:
    n: int
    r: int
    parameter: Parameter
    denominator: int | None  # None = +infinity (irrational or > n window)
    finite_global_dim: bool
    abelian_localization_det: bool
    abelian_localization_det_inv: bool
    has_findim_rep: bool
    findim_category: str | None  # "single_simple" when has_findim_rep
    ideal_count: int | str  # proper two-sided ideals, or "simple" marker

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "lambda": format_parameter(self.parameter),
            "denominator": "infinite" if self.denominator is None else self.denominator,
            "finite_global_dim": self.finite_global_dim,
            "abelian_localization_det": self.abelian_localization_det,
            "abelian_localization_det_inv": self.abelian_localization_det_inv,
            "has_findim_rep": self.has_findim_rep,
            "findim_category": self.findim_category,
            "ideal_count": self.ideal_count,
        }


def diagnose(n: int, r: int, lam: Parameter) -> DiagnosticsReport:
    """Full parameter diagnostic: dimension, localization, findim reps, ideals."""
    _check_nr(n, r)
    lam = as_parameter(lam)
    fgd = has_finite_global_dimension(n, r, lam)
    findim = has_finite_dimensional_rep(n, r, lam)
    if not fgd:
        ideal_count: int | str = "simple"  # infinite homological dim forces simplicity
    else:
        m = reduced_denominator(lam)
        ideal_count = 0 if m is None else n // m
    return DiagnosticsReport(
        n=n,
        r=r,
        parameter=lam,
        denominator=reduced_denominator(lam),
        finite_global_dim=fgd,
        abelian_localization_det=abelian_localization_holds(n, r, lam, 1),
        abelian_localization_det_inv=abelian_localization_holds(n, r, lam, -1),
        has_findim_rep=findim,
        findim_category="single_simple" if findim else None,
        ideal_count=ideal_count,
    )

