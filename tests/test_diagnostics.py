"""Parameter diagnostics: global dimension, localization, finite dimensional reps.

Oracles: every classification window here is a statement about the reduced
denominator and the sign/size of the parameter.  The library decides each
window in O(1) from that closed form; it is replayed against one-liners
derived independently from the window's endpoints, and against the window
scan over the moduli m = 1..n that the library used to run.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gieseker import (
    IRRATIONAL,
    abelian_localization_holds,
    as_parameter,
    cartan_decomposition,
    diagnose,
    dual_parameter,
    findim_dimension_rank_one,
    format_parameter,
    has_finite_dimensional_rep,
    has_finite_global_dimension,
    parse_parameter,
    reduced_denominator,
    singular_set,
)


def fgd_closed_form(n, lam, r):
    # bad window: rational, reduced denominator <= n, strictly inside (-r, 0)
    return not (lam.denominator <= n and -r < lam < 0)


def abeloc_closed_form(n, lam):
    return not (lam.denominator <= n and lam < 0)


def gldim_window_scan(n, r, lam):
    """The former route: scan the moduli m = 1..n for lam = s/m, -rm < s < 0."""
    if lam is IRRATIONAL:
        return True
    for m in range(1, n + 1):
        s = lam * m
        if s.denominator == 1 and -r * m < s < 0:
            return False
    return True


def localization_window_scan(n, lam):
    """The former route for theta = +1: scan m = 1..n for lam = s/m, s < 0."""
    if lam is IRRATIONAL:
        return True
    for m in range(1, n + 1):
        s = lam * m
        if s.denominator == 1 and s < 0:
            return False
    return True


def rationals(max_num=60, max_den=12):
    return st.fractions(
        min_value=Fraction(-max_num), max_value=Fraction(max_num), max_denominator=max_den
    )


@given(st.integers(1, 6), st.integers(1, 4), rationals())
def test_window_scan_equals_closed_form(n, r, lam):
    assert has_finite_global_dimension(n, r, lam) == fgd_closed_form(n, lam, r)
    assert abelian_localization_holds(n, r, lam) == abeloc_closed_form(n, lam)


def test_closed_forms_against_window_scans():
    # every s/q with q <= n + 2 and |s| <= rq + 2, so each window is crossed
    # at both ends and just past the denominator bound, plus the sentinel
    for n in range(1, 13):
        for r in range(1, 5):
            lams = {
                Fraction(s, q)
                for q in range(1, n + 3)
                for s in range(-(r * q + 2), r * q + 3)
            }
            for lam in [*sorted(lams), IRRATIONAL]:
                flipped = IRRATIONAL if lam is IRRATIONAL else -lam - r
                assert has_finite_global_dimension(n, r, lam) == (
                    gldim_window_scan(n, r, lam)
                ), (n, r, lam)
                assert abelian_localization_holds(n, r, lam, 1) == (
                    localization_window_scan(n, lam)
                ), (n, r, lam)
                assert abelian_localization_holds(n, r, lam, -1) == (
                    localization_window_scan(n, flipped)
                ), (n, r, lam)


def test_finite_global_dim_examples():
    assert not has_finite_global_dimension(2, 1, Fraction(-1, 2))
    assert has_finite_global_dimension(2, 1, Fraction(1, 2))
    assert not has_finite_global_dimension(3, 2, Fraction(-5, 3))
    assert has_finite_global_dimension(3, 2, Fraction(-5, 2))  # below the window floor -r
    assert has_finite_global_dimension(4, 1, IRRATIONAL)


def test_abelian_localization_examples():
    assert abelian_localization_holds(2, 1, Fraction(-7, 5), theta_sign=1)  # denominator 5 > n
    assert abelian_localization_holds(2, 1, Fraction(-3, 2), theta_sign=-1)  # flip lands at +1/2
    assert not abelian_localization_holds(2, 1, Fraction(-1, 2), theta_sign=1)
    assert abelian_localization_holds(2, 1, IRRATIONAL)
    # only the int +1 or -1: True and 1.0 passed as +1, and -1.0 as -1
    for sign in (0, 2, True, False, 1.0, -1.0, Fraction(1), Fraction(-1), "1", None):
        with pytest.raises(ValueError, match="theta_sign must be the int"):
            abelian_localization_holds(2, 1, Fraction(1, 2), theta_sign=sign)


def test_theta_sign_symmetry_seeded_sweep():
    rng = random.Random(20260814)
    for _ in range(200):
        n = rng.randint(1, 5)
        r = rng.randint(1, 4)
        lam = Fraction(rng.randint(-80, 80), rng.randint(1, 15))
        flipped = dual_parameter(lam, r)
        assert flipped == -lam - r
        assert abelian_localization_holds(n, r, lam, theta_sign=-1) == (
            abelian_localization_holds(n, r, flipped, theta_sign=1)
        )


def test_dual_parameter_is_involution():
    lam = Fraction(7, 3)
    assert dual_parameter(dual_parameter(lam, 2), 2) == lam
    assert dual_parameter(IRRATIONAL, 5) is IRRATIONAL


def test_reduced_denominator():
    assert reduced_denominator(Fraction(-5, 3)) == 3
    assert reduced_denominator(Fraction(4, 2)) == 1
    assert reduced_denominator(IRRATIONAL) is None


def test_findim_rep_is_a_conjunction():
    # denominator == n alone is not enough: -1/2 sits in the singular window
    assert has_finite_dimensional_rep(2, 1, Fraction(1, 2))
    assert not has_finite_dimensional_rep(2, 1, Fraction(-1, 2))
    assert not has_finite_dimensional_rep(3, 2, Fraction(1, 2))  # denominator 2 != 3
    assert not has_finite_dimensional_rep(2, 1, IRRATIONAL)


@given(st.integers(1, 6), st.integers(1, 3), rationals(max_num=30, max_den=8))
def test_findim_implies_finite_global_dim(n, r, lam):
    if has_finite_dimensional_rep(n, r, lam):
        assert has_finite_global_dimension(n, r, lam)
        assert lam.denominator == n


def test_rank_one_findim_dimensions():
    assert findim_dimension_rank_one(2, 1) == 1
    assert findim_dimension_rank_one(3, 2) == 2
    for n in range(1, 9):
        assert findim_dimension_rank_one(n, 1) == 1
    assert findim_dimension_rank_one(2, 3) == 2
    with pytest.raises(ValueError):
        findim_dimension_rank_one(4, 2)  # not coprime
    with pytest.raises(ValueError):
        findim_dimension_rank_one(3, 0)


def test_singular_set_examples():
    assert singular_set(1, 1) == []
    assert singular_set(2, 1) == [Fraction(-1, 2)]
    assert singular_set(2, 2) == [Fraction(-3, 2), Fraction(-1), Fraction(-1, 2)]


def test_singular_set_members_are_singular():
    for n in range(1, 7):
        for r in range(1, 4):
            for lam in singular_set(n, r):
                assert not has_finite_global_dimension(n, r, lam)
                assert not abelian_localization_holds(n, r, lam)
                assert -r < lam < 0
    # and the set is sorted, deduplicated
    s = singular_set(5, 3)
    assert s == sorted(set(s))


def test_singular_set_is_exactly_the_bad_window():
    # brute force over the full lattice of candidate (s, m) pairs
    n, r = 4, 2
    expected = sorted({Fraction(s, m) for m in range(1, n + 1) for s in range(-r * m + 1, 0)})
    assert singular_set(n, r) == expected


def test_diagnose_report_fields():
    rep = diagnose(2, 1, Fraction(1, 2)).to_dict()
    assert rep["n"] == 2 and rep["r"] == 1
    assert rep["lambda"] == "1/2"
    assert rep["denominator"] == 2
    assert rep["finite_global_dim"] is True
    assert rep["has_findim_rep"] is True
    assert rep["ideal_count"] == 1

    rep = diagnose(2, 1, Fraction(-1, 2)).to_dict()
    assert rep["finite_global_dim"] is False
    assert rep["ideal_count"] == "simple"

    rep = diagnose(3, 1, IRRATIONAL).to_dict()
    assert rep["denominator"] == "infinite"
    assert rep["ideal_count"] == 0


@given(st.integers(1, 5), st.integers(1, 3), rationals(max_num=20, max_den=7))
def test_report_internal_implications(n, r, lam):
    rep = diagnose(n, r, lam)
    if rep.has_findim_rep:
        assert rep.finite_global_dim
    if rep.abelian_localization_det:
        assert rep.finite_global_dim


def test_cartan_decomposition_2_2_half():
    summands = cartan_decomposition(2, 2, Fraction(1, 2))
    by_comp = {s.composition: s for s in summands}
    assert set(by_comp) == {(2, 0), (1, 1), (0, 2)}
    assert [(f.size, f.parameter) for f in by_comp[(2, 0)].factors] == [(2, Fraction(1, 2))]
    assert [(f.size, f.parameter) for f in by_comp[(1, 1)].factors] == [
        (1, Fraction(1, 2)),
        (1, Fraction(3, 2)),
    ]
    assert [(f.size, f.parameter) for f in by_comp[(0, 2)].factors] == [(2, Fraction(3, 2))]
    # at +1/2 BOTH rank-2 factors admit finite dimensional reps (s=1 and s=3)
    findim = {c for c, s in by_comp.items() if any(f.has_finite_dimensional_rep for f in s.factors)}
    assert findim == {(2, 0), (0, 2)}


def test_cartan_decomposition_minus_half_singles_out_one_summand():
    # the conjunction bites: (2,0) carries -1/2 (singular, no findim rep),
    # (0,2) carries +1/2 (findim rep exists)
    summands = cartan_decomposition(2, 2, Fraction(-1, 2))
    findim = {
        s.composition for s in summands if any(f.has_finite_dimensional_rep for f in s.factors)
    }
    assert findim == {(0, 2)}


def test_cartan_single_slot():
    (only,) = cartan_decomposition(1, 1, Fraction(7, 5))
    assert only.composition == (1,)
    assert [(f.size, f.parameter) for f in only.factors] == [(1, Fraction(7, 5))]


def test_cartan_zero_parts_have_no_factor():
    for s in cartan_decomposition(3, 2, Fraction(1, 3)):
        assert len(s.factors) == sum(1 for p in s.composition if p)
        assert sum(s.composition) == 3


@given(st.one_of(st.fractions(), st.just(IRRATIONAL)))
def test_parameter_text_round_trip(lam):
    back = parse_parameter(format_parameter(lam))
    assert back == lam and type(back) is type(lam)


def test_parse_parameter_grammar():
    assert parse_parameter("1/2") == Fraction(1, 2)
    assert parse_parameter("-7/5") == Fraction(-7, 5)
    assert parse_parameter("  3 ") == 3
    assert parse_parameter("+2/4") == Fraction(1, 2)
    assert parse_parameter("irrational") is IRRATIONAL
    assert parse_parameter("Irrational") is IRRATIONAL
    for bad in ("0.5", "1/0", "1/-2", "", "one", "1 / 2", "--3"):
        with pytest.raises(ValueError):
            parse_parameter(bad)
    # a bool is no parameter: as_parameter(True) was Fraction(1), so diagnose
    # reported lambda = 1 where every other entry point refuses bools
    assert as_parameter(3) == Fraction(3) and as_parameter("1/2") == Fraction(1, 2)
    for bad in (True, False):
        for call in (as_parameter, lambda lam: diagnose(3, 2, lam),
                     lambda lam: has_finite_global_dimension(3, 2, lam)):
            with pytest.raises(ValueError, match=f"cannot interpret {bad} as a parameter"):
                call(bad)
