"""Partition combinatorics: enumeration, transpose, division with remainder, hooks.

The division oracle below is deliberately brute force: it enumerates every
candidate quotient bounded componentwise by floor(lam_i / m) and keeps the
valid decompositions.  Correctness of divide_with_remainder is *defined* by
maximality of |quotient| over that search space, so the fast implementation
is checked against the dumb one, never the other way round.  The library
divides in closed form; it is also replayed against the former dynamic
program, kept below.  Multipartition counts, now read off a generating
function, are replayed against the enumeration.
"""

import functools
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gieseker import (
    check_partition,
    count_multipartitions,
    count_partitions,
    divide_with_remainder,
    enumerate_compositions,
    enumerate_multipartitions,
    enumerate_partitions,
    format_multipartition,
    format_partition,
    hooks,
    is_partition,
    multipartition_size,
    parse_multipartition,
    parse_partition,
    quotient_size,
    removable_corners,
    remove_corner,
    transpose,
)
from gieseker.ideal_lattice import (
    IdealAntichain,
    count_ideals,
    enumerate_ideals,
    enumerate_leaves,
    ideal_chain,
    leaf_dimension,
)
from gieseker.category_o import _checked_recursion_input
from gieseker.diagnostics import findim_dimension_rank_one
from gieseker.partitions import _check_modulus, _quotient_size, hook_partition
from gieseker.torus_chambers import (
    Cocharacter,
    fixed_components_k0,
    is_dominant,
    is_generic,
    violated_walls,
    walls,
)


# ---------------------------------------------------------------- oracles


def brute_force_divisions(lam, m):
    """All (quotient, remainder) pairs with m*q + rem == lam, both partitions."""
    padded = tuple(lam)
    out = []
    ranges = [range(part // m + 1) for part in padded]
    def weakly_decreasing(seq):
        return all(a >= b for a, b in zip(seq, seq[1:]))

    for q in itertools.product(*ranges):
        rem = tuple(part - m * qi for part, qi in zip(padded, q))
        # the padded tuples themselves must be partitions-with-trailing-zeros;
        # an internal zero before a nonzero entry is not reparable by stripping
        if weakly_decreasing(q) and weakly_decreasing(rem):
            strip = lambda p: tuple(x for x in p if x)
            out.append((strip(q), strip(rem)))
    return out


def fresh_division_dp(lam, m):
    """The former route: validate, then a right-to-left DP over rows with a
    fresh memo per call, walked back choosing the smallest maximizing q_i."""
    if not is_partition(tuple(lam)):
        raise ValueError(f"not a partition: {lam!r}")
    if m < 2:
        raise ValueError("modulus m must be >= 2")
    k = len(lam)
    if k == 0:
        return (), ()

    @functools.cache
    def best(i, q_next, rem_next):
        result = None
        for q_i in range(q_next, (lam[i] - rem_next) // m + 1):
            if i == 0:
                cand = (q_i, q_i)
            else:
                sub = best(i - 1, q_i, lam[i] - m * q_i)
                if sub is None:
                    continue
                cand = (sub[0] + q_i, q_i)
            if result is None or cand[0] > result[0]:
                result = cand
        return result

    q = [0] * k
    q_next, rem_next = 0, 0
    for i in range(k - 1, -1, -1):
        q[i] = best(i, q_next, rem_next)[1]
        q_next, rem_next = q[i], lam[i] - m * q[i]
    quotient = tuple(x for x in q if x > 0)
    remainder = tuple(lam[i] - m * q[i] for i in range(k) if lam[i] - m * q[i] > 0)
    return quotient, remainder


def dp_multipartition_counts(max_n, r):
    """Coefficients of prod_j (1-t^j)^(-r) up to t^max_n, by repeated convolution."""
    coeffs = [1] + [0] * max_n
    for _ in range(r):
        for j in range(1, max_n + 1):
            for k in range(j, max_n + 1):
                coeffs[k] += coeffs[k - j]
    return coeffs


# ---------------------------------------------------------------- enumeration


def test_enumerate_partitions_small():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(2) == ((2,), (1, 1))
    assert len(enumerate_partitions(8)) == 22


def test_enumeration_order_is_lex_descending():
    for n in range(9):
        parts = enumerate_partitions(n)
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


def test_enumerate_multipartitions_2_2():
    assert enumerate_multipartitions(2, 2) == (
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    )


def test_enumerate_multipartitions_edges():
    assert enumerate_multipartitions(0, 3) == (((), (), ()),)
    for r in (1, 2, 5):
        assert len(enumerate_multipartitions(1, r)) == r


def test_multipartition_counts_against_dp():
    for r in range(1, 5):
        coeffs = dp_multipartition_counts(20, r)
        for n in range(21):
            assert count_multipartitions(n, r) == coeffs[n], (n, r)


def test_multipartition_counts_against_enumeration():
    for r in range(1, 5):
        for n in range(13):
            assert count_multipartitions(n, r) == len(enumerate_multipartitions(n, r))
    for n, r in ((-1, 2), (3, 0)):
        with pytest.raises(ValueError, match="need n >= 0 and r >= 1"):
            count_multipartitions(n, r)


def test_count_partitions_matches_enumeration():
    for n in range(13):
        assert count_partitions(n) == len(enumerate_partitions(n))


def test_count_partitions_reads_the_generating_function():
    # formerly len(enumerate_partitions(n)), which cached every partition of
    # every size up to n: 1.7 s and 491 MB at n = 60.  p(200) is the
    # Hardy-Ramanujan-MacMahon value, OEIS A000041
    assert count_partitions(200) == 3_972_999_029_388
    assert [count_partitions(n) for n in (-3, -1, 0, 1, 60)] == [0, 0, 1, 1, 966_467]


def test_enumerate_compositions():
    comps = enumerate_compositions(2, 2)
    assert set(comps) == {(2, 0), (1, 1), (0, 2)}
    assert all(sum(c) == 5 for c in enumerate_compositions(5, 3))
    assert len(enumerate_compositions(5, 3)) == 21  # C(7,2)


# ---------------------------------------------------------------- transpose


@pytest.mark.parametrize(
    "lam,expected",
    [((2,), (1, 1)), ((), ()), ((3, 1), (2, 1, 1)), ((5,), (1, 1, 1, 1, 1))],
)
def test_transpose_examples(lam, expected):
    assert transpose(lam) == expected


def test_transpose_involution_exhaustive():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert transpose(transpose(lam)) == lam


@given(st.integers(min_value=0, max_value=30))
def test_transpose_preserves_size(n):
    for lam in enumerate_partitions(min(n, 12)):
        assert sum(transpose(lam)) == sum(lam)


# ---------------------------------------------------------------- division


def test_divide_documented_examples():
    assert divide_with_remainder((8, 6, 1), 3) == ((1, 1), (5, 3, 1))
    assert divide_with_remainder((2, 1), 2) == ((), (2, 1))
    assert divide_with_remainder((4,), 2) == ((2,), ())


def test_divide_rejects_small_modulus():
    with pytest.raises(ValueError):
        divide_with_remainder((3, 1), 1)
    with pytest.raises(ValueError):
        divide_with_remainder((3, 1), 0)


def test_divide_against_brute_force():
    # every partition of every size up to 12, every modulus in {2,3,4}
    for total in range(13):
        for lam in enumerate_partitions(total):
            for m in (2, 3, 4):
                q, rem = divide_with_remainder(lam, m)
                candidates = brute_force_divisions(lam, m)
                assert (q, rem) in candidates, (lam, m, q, rem)
                best = max(sum(c[0]) for c in candidates)
                assert sum(q) == best, (lam, m)


def test_closed_form_divide_against_fresh_dp():
    for total in range(11):
        for lam in enumerate_partitions(total):
            for m in (2, 3, 4):
                expected = fresh_division_dp(lam, m)
                assert divide_with_remainder(lam, m) == expected, (lam, m)
                # a repeated call, and a list input treated like its tuple
                assert divide_with_remainder(lam, m) == expected, (lam, m)
                assert divide_with_remainder(list(lam), m) == expected, (lam, m)


def test_closed_form_quotient_size_against_brute_force():
    # the maximal division is unique, and |q| = sum_j j * floor((lam_j -
    # lam_{j+1}) / m) needs no quotient tuple
    for total in range(15):
        for lam in enumerate_partitions(total):
            for m in (2, 3, 4, 5, 7):
                candidates = brute_force_divisions(lam, m)
                best = max(sum(c[0]) for c in candidates)
                maximal = [c for c in candidates if sum(c[0]) == best]
                assert maximal == [divide_with_remainder(lam, m)], (lam, m)
                assert _quotient_size(lam, m) == best, (lam, m)
                assert quotient_size(lam, m) == best, (lam, m)


@pytest.mark.parametrize(
    "lam,m",
    [
        ((1, 2), 2),  # increasing
        ([1, 2], 3),
        ((2, 0), 2),  # zero part
        ((3, -1), 2),
        ((2.0, 1), 2),  # not an int
        ((1, 2), 1),  # invalid partition reported before the modulus
        ((3, 1), 1),
        ([3, 1], 0),
        ((), -4),
    ],
)
def test_divide_errors_match_fresh_dp(lam, m):
    with pytest.raises(ValueError) as expected:
        fresh_division_dp(lam, m)
    with pytest.raises(ValueError) as got:
        divide_with_remainder(lam, m)
    assert str(got.value) == str(expected.value)


def test_divide_cache_keeps_float_modulus_apart():
    # 2.0 == 2, but the division has only ever been defined for an int
    # modulus, and floor division would accept a float: it still fails, with
    # the ValueError of every other non-int (the former route's TypeError
    # came from its range over a float)
    assert divide_with_remainder((4,), 2) == ((2,), ())
    with pytest.raises(TypeError):
        fresh_division_dp((4,), 2.0)
    for lam, m in (((4,), 2.0), ((), 3.0)):
        with pytest.raises(ValueError, match="modulus m must be an int, not"):
            divide_with_remainder(lam, m)


def test_divide_reconstructs():
    for lam in enumerate_partitions(11):
        for m in (2, 3):
            q, rem = divide_with_remainder(lam, m)
            width = max(len(lam), len(q), len(rem))

            def pad(p):
                return tuple(p) + (0,) * (width - len(p))

            rebuilt = tuple(m * a + b for a, b in zip(pad(q), pad(rem)))
            assert tuple(x for x in rebuilt if x) == lam


def test_quotient_size():
    assert quotient_size((8, 6, 1), 3) == 2
    assert quotient_size((4,), 2) == 2
    assert quotient_size((), 5) == 0
    # summing per component gives the multipartition version used downstream
    assert sum(quotient_size(c, 3) for c in ((8, 6, 1), (2, 1))) == 2


# ---------------------------------------------------------------- corners


def test_removable_corners_rows():
    # corners are identified by 0-based row index
    assert removable_corners((3, 3, 1)) == [1, 2]
    assert removable_corners(()) == []
    assert remove_corner((3, 3, 1), 2) == (3, 3)
    assert remove_corner((3, 3, 1), 1) == (3, 2, 1)
    with pytest.raises(ValueError):
        remove_corner((3, 3, 1), 0)


def test_remove_corner_keeps_partition():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            for corner in removable_corners(lam):
                smaller = remove_corner(lam, corner)
                assert is_partition(smaller)
                assert sum(smaller) == n - 1


def test_remove_corner_accepts_exactly_the_removable_corners():
    # every row from -1 to len of every partition with n <= 8: the corner
    # list decides, and a row that is no corner keeps its message
    for n in range(9):
        for lam in enumerate_partitions(n):
            corners = removable_corners(lam)
            for row in range(-1, len(lam) + 1):
                if row in corners:
                    want = list(lam)
                    want[row] -= 1
                    assert remove_corner(lam, row) == tuple(p for p in want if p)
                else:
                    with pytest.raises(ValueError, match=re.escape(
                            f"row {row} is not a removable corner of {lam}")):
                        remove_corner(lam, row)


@pytest.mark.parametrize("row", (True, False, 1.0, "1", None))
def test_remove_corner_rejects_a_row_that_is_not_an_int(row):
    # True passed for the corner 1, and 1.0 reached list indexing
    with pytest.raises(ValueError, match="row must be an int"):
        remove_corner((2, 1), row)


# ---------------------------------------------------------------- hooks


def test_hooks_rank_one():
    hs = hooks(2, 1)
    assert [h.shape for h in hs] == [(1, 1), (2,)]
    assert hs[0].multipartition() == ((1, 1),)


def test_hooks_two_slots_single_box():
    hs = hooks(1, 2)
    assert [h.multipartition() for h in hs] == [((1,), ()), ((), (1,))]


def test_hooks_order_2_2():
    hs = hooks(2, 2)
    assert [(h.slot, h.leg) for h in hs] == [(1, 2), (1, 1), (2, 2), (2, 1)]
    assert [h.shape for h in hs] == [(1, 1), (2,), (1, 1), (2,)]
    assert len(hs) == 4


def test_hooks_count_and_distinctness():
    for n in range(1, 6):
        for r in range(1, 4):
            hs = hooks(n, r)
            assert len(hs) == n * r
            assert len({h.multipartition() for h in hs}) == n * r
            for h in hs:
                assert multipartition_size(h.multipartition()) == n


# ---------------------------------------------------------------- text format


@pytest.mark.parametrize("text", ["8,6,1", "-", "4", "2,2,1"])
def test_partition_text_round_trip(text):
    assert format_partition(parse_partition(text)) == text


_PARTITIONS = st.lists(st.integers(1, 20), max_size=6).map(lambda p: tuple(sorted(p, reverse=True)))


@given(st.lists(_PARTITIONS, min_size=1, max_size=4).map(tuple))
def test_multipartition_text_round_trip(drawn):
    assert parse_multipartition(format_multipartition(drawn), len(drawn)) == drawn
    mp = parse_multipartition("8,6,1|2|-")
    assert mp == ((8, 6, 1), (2,), ())
    assert format_multipartition(mp) == "8,6,1|2|-"


def test_parse_multipartition_r_mismatch():
    with pytest.raises(ValueError):
        parse_multipartition("1|2", r=3)


def reference_is_partition(parts):
    """A partition by definition: every part an int (a bool is not one) of
    at least 1, and no part larger than the part before it."""
    ints = [p for p in parts if type(p) is int and p >= 1]
    return len(ints) == len(parts) and sorted(ints, reverse=True) == ints


NOT_PARTS = st.one_of(
    st.integers(-3, 0),
    st.booleans(),
    st.floats(-2, 9),
    st.fractions(-2, 9),
    st.none(),
    st.text(max_size=1),
)


@st.composite
def near_partitions(draw):
    # a partition, then up to two entries replaced by a non-part, a zero or
    # negative int, or a larger part that starts an increasing run
    parts = sorted(draw(st.lists(st.integers(1, 9), max_size=8)), reverse=True)
    for _ in range(draw(st.integers(0, 2)) if parts else 0):
        row = draw(st.integers(0, len(parts) - 1))
        parts[row] = draw(st.one_of(NOT_PARTS, st.integers(1, 12)))
    return tuple(parts)


@given(st.one_of(near_partitions(), st.lists(st.one_of(NOT_PARTS, st.integers(1, 9))).map(tuple)))
def test_is_partition_against_reference(parts):
    assert is_partition(parts) is reference_is_partition(parts)
    if reference_is_partition(parts):
        assert check_partition(list(parts)) == parts
    else:
        with pytest.raises(ValueError, match="not a partition"):
            check_partition(parts)


BOOL_PART_CALLS = {
    "check_partition": lambda: check_partition((True,)),
    "transpose": lambda: transpose((2, True)),
    "removable_corners": lambda: removable_corners((True, True)),
    "remove_corner": lambda: remove_corner((2, True), 0),
    "divide_with_remainder": lambda: divide_with_remainder((True,), 2),
    "quotient_size": lambda: quotient_size((3, True), 2),
    "leaf_dimension": lambda: leaf_dimension((True,), 2, 1),
}


@pytest.mark.parametrize("name", BOOL_PART_CALLS)
def test_bool_parts_are_not_partitions(name):
    # True passed for the part 1 (check_partition((True,)) returned it)
    with pytest.raises(ValueError, match="not a partition"):
        BOOL_PART_CALLS[name]()


def test_parse_partition_rejects_increasing():
    with pytest.raises(ValueError):
        parse_partition("1,2")


@given(st.integers(min_value=0, max_value=10))
def test_format_parse_round_trip_enumerated(n):
    for lam in enumerate_partitions(n):
        assert parse_partition(format_partition(lam)) == lam


# every (n, r) entry point checks both with partitions._check_nr: ints >= 1,
# so True no longer answers as 1 and a float no longer gets a bare TypeError
NR_ENTRY_POINTS = {
    "walls": walls,
    "hooks": hooks,
    "leaf_dimension": lambda n, r: leaf_dimension((), n, r),
    "ideal_chain": lambda n, r: ideal_chain(n, r, Fraction(1, 2)),
}
BAD_NR = {
    "True-n": (True, 1, "must be ints"),
    "True-r": (2, True, "must be ints"),
    "float-n": (2.0, 1, "must be ints"),
    "float-r": (2, 1.0, "must be ints"),
    "zero-n": (0, 2, "need n >= 1 and r >= 1"),
    "zero-r": (2, 0, "need n >= 1 and r >= 1"),
    "negative-r": (3, -1, "need n >= 1 and r >= 1"),
}


@pytest.mark.parametrize("case", BAD_NR)
@pytest.mark.parametrize("entry", NR_ENTRY_POINTS)
def test_entry_points_check_n_and_r(entry, case):
    n, r, message = BAD_NR[case]
    with pytest.raises(ValueError, match=message):
        NR_ENTRY_POINTS[entry](n, r)


# the remaining entry points with an int argument hold it to the same rule,
# type(x) is int: each of these calls answered for True as for 1, or raised a
# bare TypeError for a float
_NU = Cocharacter((1, 2), 0)
NOT_INTS = {
    "Cocharacter-k": (lambda: Cocharacter((3, 0), True), "must be integers"),
    "Cocharacter-d": (lambda: Cocharacter((True, 0), 1), "must be integers"),
    "IdealAntichain-member": (
        lambda: IdealAntichain(2, frozenset({frozenset({True})})), r"member \[True\] not within"
    ),
    "IdealAntichain-k": (lambda: IdealAntichain(True, frozenset()), "k must be an int"),
    "enumerate_leaves-True-n": (lambda: enumerate_leaves(True, 2), "must be ints"),
    "enumerate_leaves-float-n": (lambda: enumerate_leaves(2.5, 2), "must be ints"),
    "enumerate_leaves-True-r": (lambda: enumerate_leaves(2, True), "must be ints"),
    "count_ideals-True": (lambda: count_ideals(True), "k must be an int"),
    "count_ideals-float": (lambda: count_ideals(2.0), "k must be an int"),
    "enumerate_ideals-True": (lambda: enumerate_ideals(True), "k must be an int"),
    "fixed_components_k0-True": (lambda: fixed_components_k0(_NU, True), "need an int n >= 0"),
    "fixed_components_k0-float": (lambda: fixed_components_k0(_NU, 1.5), "need an int n >= 0"),
    "is_generic-True": (lambda: is_generic(Cocharacter((3, 0), 1), True), "must be ints"),
    "is_dominant-True": (lambda: is_dominant(Cocharacter((9, 0), 1), True), "must be ints"),
    "violated_walls-True": (lambda: violated_walls(_NU, True), "must be ints"),
}


@pytest.mark.parametrize("case", NOT_INTS)
def test_ints_must_be_ints(case):
    call, message = NOT_INTS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_counts_and_moduli_are_ints_before_any_cache():
    # each call answered for True as for 1 or for 1.0 and 2.0 as for 1 and 2,
    # or raised a bare TypeError; functools.cache keys True, 1 and 1.0 alike,
    # so each is asked after the int it would pass for has been answered
    assert enumerate_compositions(2, 1) == ((2,),) and hook_partition(2, 1) == (2,)
    assert enumerate_partitions(1) == ((1,),) and enumerate_multipartitions(1, 1) == (((1,),),)
    assert count_multipartitions(1, 1) == 1 == findim_dimension_rank_one(1, 1)
    cases = [
        (lambda: enumerate_compositions(2, 1.0), "n and r must be ints, not 2 and 1.0"),
        (lambda: hook_partition(2.0, 1), "n and d must be ints, not 2.0 and 1"),
        (lambda: enumerate_partitions(True), "n must be an int, not True"),
        (lambda: enumerate_multipartitions(1, True), "n and r must be ints, not 1 and True"),
        (lambda: count_multipartitions(True, 1), "n and r must be ints, not True and 1"),
        (lambda: count_partitions(True), "n and r must be ints, not True and 1"),
        (lambda: findim_dimension_rank_one(True, 1), "n and s must be ints, not True and 1"),
        (lambda: divide_with_remainder((3,), "2"), "modulus m must be an int, not '2'"),
        # one modulus rule: the recursions' input check raised ValueError for
        # a float m where _check_modulus raised TypeError
        (lambda: _check_modulus(2.0), "modulus m must be an int, not 2.0"),
        (lambda: _checked_recursion_input(1, 1, 2.0, ((1,),)), "modulus m must be an int, not 2.0"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
