"""Two-sided ideal calculus: chains, leaves, and the antichain lattice.

Oracle strategy: the whole lattice of ideals embeds into up-closed families
of subsets of {1..k}.  For k <= 4 we enumerate ALL 2^(2^k) families of
subsets by brute force, keep the up-closed ones, and replay every lattice
operation against that model:

    ideal (intersection form antichain A)  <->  up-closure U(A)
    a contained in b                       <->  U(b) subset of U(a)
    intersect                              <->  union of families
    sum                                    <->  intersection of families

Products are modeled on SUM-form up-closures, where the product of two
ideals is generated by pairwise unions of index sets.

The routes the module replaced stay here as oracles: the scan of every
subset of the members' union for minimal transversals, the combinations
scan behind the up-closure, the frozenset recursion over up-closed families,
and the parts-by-total loop that ordered the leaves.
"""

import itertools
import json
import random
import time

from fractions import Fraction

from gieseker import (
    IdealAntichain,
    antichain_normalize,
    contains,
    count_ideals,
    enumerate_ideals,
    enumerate_leaves,
    ideal_chain,
    intersect,
    leaf_dimension,
    minimal_transversals,
    parse_antichain,
    product,
    sum_,
    to_intersection_form,
    to_sum_form,
    up_closure,
)
import gieseker.ideal_lattice as il
from gieseker.ideal_lattice import _up_sets
from gieseker.partitions import enumerate_partitions

import pytest
from hypothesis import given, strategies as st


UP_CLOSED_COUNTS = [3, 6, 20, 168]  # k = 1..4, recomputed below from scratch
DEDEKIND_K5 = 7581


def brute_force_up_closed_families(k):
    """Every up-closed family of subsets of {1..k}, the slow honest way."""
    universe = [frozenset(c) for size in range(k + 1) for c in itertools.combinations(range(1, k + 1), size)]
    families = []
    for picks in itertools.product((False, True), repeat=len(universe)):
        fam = frozenset(s for s, take in zip(universe, picks) if take)
        if all(t in fam for s in fam for t in universe if t >= s):
            families.append(fam)
    return families


# ---------------------------------------------------------------- counting


def test_counts_match_brute_force():
    for k in range(1, 5):
        families = brute_force_up_closed_families(k)
        assert len(families) == UP_CLOSED_COUNTS[k - 1]
        assert count_ideals(k) == len(families)
        # enumeration is duplicate-free and complete
        ideals = enumerate_ideals(k)
        assert len(ideals) == len(families)
        assert {up_closure(a) for a in ideals} == set(families)


def test_count_k5():
    assert count_ideals(5) == DEDEKIND_K5


# The frozenset recursion over up-closed families that the bitsets replaced.


def frozenset_up_sets(k):
    if k == 0:
        return (frozenset(), frozenset({frozenset()}))
    smaller = frozenset_up_sets(k - 1)
    out = []
    for u1 in smaller:
        for u0 in smaller:
            if u0 <= u1:
                out.append(u0 | frozenset(s | {k} for s in u1))
    return tuple(out)


def _family(bits, k):
    return frozenset(
        frozenset(i + 1 for i in range(k) if s >> i & 1)
        for s in range(1 << k)
        if bits >> s & 1
    )


def test_bitset_up_sets_match_frozenset_recursion():
    for k in range(0, 5):
        assert [_family(u, k) for u in _up_sets(k)] == list(frozenset_up_sets(k))
    # k = 5 as a set, and the former count of k = 5 from pairs of k = 4
    assert {_family(u, 5) for u in _up_sets(5)} == set(frozenset_up_sets(5))
    pairs = frozenset_up_sets(4)
    assert count_ideals(5) == sum(1 for u1 in pairs for u0 in pairs if u0 <= u1)


def test_enumerate_ideals_order_matches_frozenset_recursion():
    for k in range(1, 5):
        want = [antichain_normalize(u, k) for u in frozenset_up_sets(k)]
        assert enumerate_ideals(k) == want


def test_enumerate_ideals_of_five():
    # k = 5 reads the up-sets that counting already builds: 7,581 distinct
    # antichains, in the order of the frozenset recursion
    got = enumerate_ideals(5)
    assert got == [antichain_normalize(u, 5) for u in frozenset_up_sets(5)]
    assert len(set(got)) == len(got) == count_ideals(5) == 7581


def test_count_and_enumerate_ranges():
    for bad in (0, 6):
        with pytest.raises(ValueError):
            count_ideals(bad)
    for bad in (0, 6):
        with pytest.raises(ValueError):
            enumerate_ideals(bad)


# ---------------------------------------------------------------- normalization


def test_normalize_absorbs_supersets():
    a = antichain_normalize([frozenset({1}), frozenset({1, 2})], k=2)
    assert a.to_lists() == [[1]]
    b = antichain_normalize(
        [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}), frozenset({1, 2, 3})],
        k=3,
    )
    assert b.to_lists() == [[1, 2], [1, 3], [2, 3]]


def test_whole_algebra_and_zero_conventions():
    whole = antichain_normalize([], k=2)
    assert whole.to_lists() == []
    zero = antichain_normalize([frozenset()], k=2)
    assert zero.to_lists() == [[]]
    assert len(up_closure(zero)) == 4  # every subset of {1,2}
    assert up_closure(whole) == frozenset()
    # zero is contained in everything, everything is contained in whole
    for other in enumerate_ideals(2):
        assert contains(zero, other)
        assert contains(other, whole)


def test_empty_set_member_must_be_alone():
    with pytest.raises(ValueError):
        IdealAntichain(2, frozenset({frozenset(), frozenset({1})}), "intersection")
    with pytest.raises(ValueError):
        IdealAntichain(2, frozenset({frozenset({3})}), "intersection")


def test_member_range_check_keeps_its_message():
    for bad in ({0}, {3}, {1, 3}, {-1}, {"1"}):
        with pytest.raises(ValueError, match=r"not within 1\.\.2"):
            IdealAntichain(2, frozenset({frozenset(bad)}))


def test_member_must_be_a_frozenset():
    # a tuple member was compared lexicographically: {(1, 3)} contained
    # {(2,)}, and {(2,), (1,)} was refused as comparable, while sum_ and
    # to_sum_form raised TypeError on it
    good = IdealAntichain(3, frozenset({frozenset({2})}))
    for bad in ((1, 3), (2,), [1], {1}, 1, "1"):
        with pytest.raises(ValueError, match=r"is not a frozenset"):
            IdealAntichain(3, (bad,))
        with pytest.raises(ValueError, match=r"is not a frozenset"):
            good._replace(members=(frozenset({3}), bad))
    with pytest.raises(ValueError, match=r"is not a frozenset"):
        IdealAntichain(3, frozenset({(2,), (1,)}))
    # the frozenset members keep their answers and their messages
    assert not contains(IdealAntichain(3, frozenset({frozenset({1, 3})})), good)
    assert good._replace(members=frozenset({frozenset({1})})).to_lists() == [[1]]
    with pytest.raises(ValueError, match="members must be pairwise incomparable"):
        good._replace(members=frozenset({frozenset({1}), frozenset({1, 2})}))


def test_antichain_at_ten_million_is_cheap():
    # each element is range-checked; no set of 1..k is built
    k = 10**7
    start = time.perf_counter()
    a = parse_antichain("[[1], [2]]", k)
    b = parse_antichain(f"[[3, {k}]]", k)
    assert intersect(a, b).to_lists() == [[1], [2], [3, k]]
    assert to_sum_form(a).to_lists() == [[1, 2]]
    # four antichains; building 1..k once took about a second
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError):
        IdealAntichain(k, frozenset({frozenset({k + 1})}))


# ---------------------------------------------------------------- lattice ops vs model


def _model_pairs(k):
    ideals = enumerate_ideals(k)
    return [(a, b) for a in ideals for b in ideals]


def test_containment_matches_model():
    for k in (1, 2, 3, 4):
        for a, b in _model_pairs(k):
            # a <= b iff b's family sits inside a's (smaller ideal, larger family)
            assert contains(a, b) == (up_closure(b) <= up_closure(a)), (a, b)


def test_intersect_is_union_of_families():
    for k in (1, 2, 3):
        for a, b in _model_pairs(k):
            got = intersect(a, b)
            assert up_closure(got) == up_closure(a) | up_closure(b)


def test_sum_is_intersection_of_families():
    for k in (1, 2, 3):
        for a, b in _model_pairs(k):
            got = sum_(a, b)
            assert up_closure(got) == up_closure(a) & up_closure(b)


def test_product_equals_intersect_and_pairwise_union_model():
    for k in (1, 2, 3):
        for a, b in _model_pairs(k):
            got = product(a, b)
            assert got == intersect(a, b)
            # sum-form model: product generated by pairwise unions
            ua = up_closure(to_sum_form(a))
            ub = up_closure(to_sum_form(b))
            pairwise = {s | t for s in ua for t in ub}
            assert up_closure(to_sum_form(got)) == pairwise
            assert pairwise == ua & ub


def test_product_idempotent():
    for k in (1, 2, 3, 4):
        for a in enumerate_ideals(k):
            assert product(a, a) == a


def test_lattice_ops_bounded_by_containment():
    for a, b in _model_pairs(3):
        meet = intersect(a, b)
        join = sum_(a, b)
        assert contains(meet, a) and contains(meet, b)
        assert contains(a, join) and contains(b, join)


# ---------------------------------------------------------------- form conversion


def test_sum_form_examples():
    a = antichain_normalize([frozenset({1}), frozenset({2})], k=2)
    assert to_sum_form(a).to_lists() == [[1, 2]]
    b = antichain_normalize([frozenset({1, 2})], k=2)
    assert to_sum_form(b).to_lists() == [[1], [2]]
    c = antichain_normalize([frozenset({1}), frozenset({2}), frozenset({3})], k=3)
    assert to_sum_form(c).to_lists() == [[1, 2, 3]]


def test_form_round_trip_everywhere():
    for k in (1, 2, 3, 4):
        for a in enumerate_ideals(k):
            assert to_intersection_form(to_sum_form(a)) == a


# The subset scan that minimal_transversals replaced.


def scan_minimal_transversals(members):
    if not members:
        return frozenset({frozenset()})
    if frozenset() in members:
        return frozenset()
    universe = sorted(set().union(*members))
    hits = []
    for size in range(0, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            s = frozenset(combo)
            if all(s & m for m in members):
                if not any(t <= s for t in hits):
                    hits.append(s)
    return frozenset(hits)


def scan_up_closure(a):
    ground = tuple(range(1, a.k + 1))
    out = set()
    for size in range(a.k + 1):
        for combo in itertools.combinations(ground, size):
            s = frozenset(combo)
            if any(m <= s for m in a.members):
                out.add(s)
    return frozenset(out)


def _random_families(rng, k, count):
    # any family of subsets, not only antichains: repeats, nested members
    # and the empty set all occur
    for _ in range(count):
        size = rng.randint(0, 6)
        yield frozenset(
            frozenset(x for x in range(1, k + 1) if rng.random() < rng.random())
            for _ in range(size)
        )


def test_transversals_match_subset_scan_on_every_antichain():
    for k in range(1, 5):
        for a in enumerate_ideals(k):
            assert minimal_transversals(a.members) == scan_minimal_transversals(a.members)
            assert up_closure(a) == scan_up_closure(a)


def test_transversals_match_subset_scan_on_random_families():
    rng = random.Random(2016)
    seen_empty_member = False
    for k in range(1, 8):
        for family in _random_families(rng, k, 150):
            seen_empty_member |= frozenset() in family
            assert minimal_transversals(family) == scan_minimal_transversals(family)
            a = antichain_normalize(family, k)
            assert up_closure(a) == scan_up_closure(a)
    assert seen_empty_member


def test_minimal_transversals_is_an_involution_on_antichains():
    for k in (1, 2, 3):
        for a in enumerate_ideals(k):
            once = minimal_transversals(a.members)
            twice = minimal_transversals(once)
            assert twice == a.members


# ---------------------------------------------------------------- text io


@st.composite
def normalized_antichains(draw):
    k = draw(st.integers(1, 5))
    family = draw(st.lists(st.frozensets(st.integers(1, k)), max_size=8))
    return antichain_normalize(family, k)


@given(normalized_antichains())
def test_parse_format_round_trip(drawn):
    assert parse_antichain(json.dumps(drawn.to_lists()), drawn.k) == drawn
    a = parse_antichain("[[1], [2, 3]]", k=3)
    assert a.to_lists() == [[1], [2, 3]]
    assert json.dumps(a.to_lists()) == "[[1], [2, 3]]"
    assert parse_antichain("[]", k=2).to_lists() == []
    assert parse_antichain("[[]]", k=2).to_lists() == [[]]


def test_parse_rejects_garbage():
    for bad in ("[[0]]", "[[4]]", "[1,2]", "{", '["x"]', "[[true]]"):
        with pytest.raises(ValueError):
            parse_antichain(bad, k=3)


# ---------------------------------------------------------------- leaves


def loop_enumerate_leaves(n):
    # the nested parts-by-total loop that the stable sort replaced
    out = []
    for parts in range(0, n + 1):
        for total in range(parts, n + 1):
            out.extend(lam for lam in enumerate_partitions(total) if len(lam) == parts)
    return out


def test_enumerate_leaves_matches_the_parts_by_total_loop():
    for n in range(1, 13):
        assert enumerate_leaves(n, 2) == loop_enumerate_leaves(n), n
        assert enumerate_leaves(n, 5) == enumerate_leaves(n, 2)


def test_enumerate_leaves_examples():
    assert enumerate_leaves(2, 2) == [(), (1,), (2,), (1, 1)]
    assert enumerate_leaves(1, 2) == [(), (1,)]
    assert enumerate_leaves(3, 2) == [(), (1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)]


def test_leaf_lists_are_checked_against_the_named_limit(monkeypatch):
    assert il.MAX_LISTED_LEAVES == 12_000
    assert len(enumerate_leaves(26, 2)) == 11_732
    with pytest.raises(ValueError, match="at n = 27 number at least 14742, above MAX_LISTED_LEAVES = 12000"):
        enumerate_leaves(27, 2)
    # the count is summed only until it passes the limit
    with pytest.raises(ValueError, match="at n = 10000000 number at least 14742, above"):
        enumerate_leaves(10**7, 2)
    # a limit equal to the count passes, one below it refuses, at the
    # boundary n = 26 too
    for n, want in [(n, enumerate_leaves(n, 2)) for n in (*range(1, 9), 26)]:
        monkeypatch.setattr(il, "MAX_LISTED_LEAVES", len(want))
        assert enumerate_leaves(n, 2) == want
        monkeypatch.setattr(il, "MAX_LISTED_LEAVES", len(want) - 1)
        with pytest.raises(ValueError, match=f"at least {len(want)}, above MAX_LISTED_LEAVES"):
            enumerate_leaves(n, 2)


def test_leaf_lists_are_checked_against_the_digit_limit(monkeypatch):
    # r enters a leaf list only through the digits of 2rn, which bound each
    # printed dimension: the largest r within the limit passes and the next
    # refuses, and the limit itself reads count * digits(2rn)
    assert il.MAX_LISTED_DIGITS == 400_000
    for n in (1, 2, 8, 26):
        want = enumerate_leaves(n, 2)
        digits = il.MAX_LISTED_DIGITS // len(want)
        largest = (10**digits - 1) // (2 * n)
        assert enumerate_leaves(n, largest) == want
        message = f"the {len(want)} leaves at n = {n} would print dimensions of more than {digits} digits"
        with pytest.raises(ValueError, match=message):
            enumerate_leaves(n, largest + 1)
    cases = ((1, 2), (2, 2), (8, 10**5), (26, 20), (3, 10**4000))
    for (n, r), want in [(case, enumerate_leaves(case[0], 2)) for case in cases]:
        printed = len(str(2 * r * n))
        monkeypatch.setattr(il, "MAX_LISTED_DIGITS", len(want) * printed)
        assert enumerate_leaves(n, r) == want
        monkeypatch.setattr(il, "MAX_LISTED_DIGITS", len(want) * printed - 1)
        with pytest.raises(ValueError, match="above MAX_LISTED_DIGITS"):
            enumerate_leaves(n, r)


def test_leaf_dimensions():
    assert leaf_dimension((), 2, 2) == 6
    assert leaf_dimension((1,), 2, 2) == 4
    assert leaf_dimension((1, 1), 2, 2) == 2
    assert leaf_dimension((), 2, 2, reduced=False) == 8
    with pytest.raises(ValueError):
        leaf_dimension((2, 2), 3, 2)  # parts sum past n


def test_leaf_dimension_monotone():
    # adding a part strictly cuts dimension (each slice has positive codim for r >= 2)
    for r in (2, 3):
        for n in (2, 3, 4):
            for leaf in enumerate_leaves(n, r):
                d = leaf_dimension(leaf, n, r)
                for extra in range(1, n - sum(leaf) + 1):
                    assert leaf_dimension(tuple(sorted(leaf + (extra,), reverse=True)), n, r) < d


# ---------------------------------------------------------------- chains


def test_chain_5_2_half():
    ch = ideal_chain(5, 2, Fraction(1, 2))
    assert not ch.simple
    assert ch.denominator == 2
    assert [e.leaf for e in ch.entries] == [(2,), (2, 2)]
    assert [e.variety_dim for e in ch.entries] == [12, 6]
    assert [e.index for e in ch.entries] == [1, 2]


def test_chain_singular_is_simple():
    ch = ideal_chain(3, 2, Fraction(-1, 2))
    assert ch.simple and ch.entries == ()


def test_chain_large_denominator_is_simple():
    ch = ideal_chain(3, 2, Fraction(1, 5))
    assert ch.simple and ch.entries == ()
    assert ch.denominator == 5


def test_chain_rank_one_has_no_variety_dims():
    ch = ideal_chain(4, 1, Fraction(1, 2))
    assert [e.variety_dim for e in ch.entries] == [None, None]


def test_chain_lengths_lambda_one_over_m():
    for n in range(1, 11):
        for m in range(1, n + 1):
            ch = ideal_chain(n, 2, Fraction(1, m))
            assert len(ch.entries) == n // m, (n, m)


def test_chain_is_checked_against_the_byte_limit(monkeypatch):
    # the i-th entry prints i parts m, each on a line of 12 bytes and the
    # digits of m, so a chain of count entries prints count(count + 1)/2 such
    # lines; their bytes are checked before any entry is built, and r = 1 has
    # no leaves limit to stop it first.  n = 893, the longest chain the
    # former digit count allowed, printed 5.27 MB
    assert len(ideal_chain(554, 1, 1).entries) == 554  # 153,735 lines of 13 bytes
    for n in (555, 893, 2000):
        with pytest.raises(ValueError, match="MAX_CHAIN_BYTES = 2000000"):
            ideal_chain(n, 1, 1)
    # n = 20 at m = 10: three parts of 12 + 2 bytes
    monkeypatch.setattr(il, "MAX_CHAIN_BYTES", 42)
    assert len(ideal_chain(20, 2, Fraction(1, 10)).entries) == 2
    monkeypatch.setattr(il, "MAX_CHAIN_BYTES", 41)
    with pytest.raises(ValueError, match="MAX_CHAIN_BYTES = 41"):
        ideal_chain(20, 2, Fraction(1, 10))
    # 100 ideals print 5,050 parts, each 12 bytes and at most 384 digits
    monkeypatch.undo()
    for digits, ok in ((384, True), (385, False)):
        m = 10 ** (digits - 1)
        if ok:
            assert len(ideal_chain(100 * m, 1, Fraction(1, m)).entries) == 100
        else:
            with pytest.raises(ValueError, match="5050 leaf parts .* MAX_CHAIN_BYTES = 2000000"):
                ideal_chain(100 * m, 1, Fraction(1, m))


def test_chain_variety_dims_strictly_decreasing_positive():
    for n in range(2, 9):
        for m in range(2, n + 1):
            ch = ideal_chain(n, 3, Fraction(1, m))
            dims = [e.variety_dim for e in ch.entries]
            assert dims == sorted(dims, reverse=True)
            assert len(set(dims)) == len(dims)
            for i, e in enumerate(ch.entries, start=1):
                if i < n / m:
                    assert e.variety_dim > 0
