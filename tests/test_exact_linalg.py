"""Exact rational linear algebra: echelon, rank, kernels, solving.

Everything here is checked by substitution (multiply back and compare),
which is the one oracle linear algebra always grants for free.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import gieseker.exact_linalg as el
from gieseker.exact_linalg import (
    _clear_rows,
    column_space_completion,
    fraction_free_echelon,
    identity,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve_matrix,
    transpose,
    zeros,
)

entries = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4)


def matrices(max_side=5):
    return st.integers(1, max_side).flatmap(
        lambda m: st.integers(1, max_side).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def test_identity_and_zeros():
    assert mat_mul(identity(3), identity(3)) == identity(3)
    assert mat_mul(zeros(2, 3), identity(3)) == zeros(2, 3)


def test_known_rank_and_kernel():
    a = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]
    assert rank(a) == 2
    ker = nullspace(a)
    assert len(ker) == 1
    assert all(x == 0 for x in mat_vec(a, ker[0]))


@given(matrices())
@settings(max_examples=120)
def test_rank_nullity(a):
    n = len(a[0])
    assert rank(a) + len(nullspace(a)) == n


@given(matrices())
@settings(max_examples=120)
def test_nullspace_vectors_annihilate(a):
    for v in nullspace(a):
        assert all(x == 0 for x in mat_vec(a, v))


@given(matrices(max_side=4))
@settings(max_examples=120)
def test_solve_by_substitution(a):
    # build a guaranteed-consistent right-hand side, then solve
    x0 = [Fraction(i + 1, 2) for i in range(len(a[0]))]
    b = [[y] for y in mat_vec(a, x0)]
    x = solve_matrix(a, b)
    assert x is not None
    assert mat_mul(a, x) == b


def test_solve_inconsistent():
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve_matrix(a, [[Fraction(0)], [Fraction(1)]]) is None


@given(matrices(max_side=4))
@settings(max_examples=60)
def test_solve_matrix_round_trip(a):
    x0 = [[Fraction((i + 2) * (j + 1), 3) for j in range(2)] for i in range(len(a[0]))]
    b = mat_mul(a, x0)
    x = solve_matrix(a, b)
    assert x is not None
    assert mat_mul(a, x) == b


def test_echelon_pivots_are_staircase():
    a = [
        [Fraction(0), Fraction(2), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(5)],
        [Fraction(0), Fraction(4), Fraction(7)],
    ]
    _, pivots = fraction_free_echelon(a)
    assert pivots == sorted(pivots)
    assert pivots == [1, 2]


@given(matrices())
@settings(max_examples=80)
def test_rank_invariant_under_transpose(a):
    assert rank(a) == rank(transpose(a))


def test_column_space_completion():
    span = [[Fraction(1), Fraction(1), Fraction(0)]]
    extra = column_space_completion(span, 3)
    assert len(extra) == 2
    # completed family really spans
    full = [list(span[0])]
    for t in extra:
        e = [Fraction(0)] * 3
        e[t] = Fraction(1)
        full.append(e)
    assert rank(full) == 3
    assert column_space_completion([], 2) == [0, 1]


def _greedy_completion(span, dim):
    # the former route: keep each e_t that raises the rank, one rank per t
    rows = [list(v) for v in span]
    chosen = []
    r = rank(rows) if rows else 0
    for t in range(dim):
        if r == dim:
            break
        e_t = [Fraction(int(s == t)) for s in range(dim)]
        if rank(rows + [e_t]) > r:
            rows.append(e_t)
            chosen.append(t)
            r += 1
    assert r == dim
    return chosen


@st.composite
def spans_with_dependencies(draw):
    # spans of dimension 0..5 padded with zero rows and combinations of rows
    dim = draw(st.integers(0, 5))
    vec = st.lists(entries, min_size=dim, max_size=dim)
    span = draw(st.lists(vec, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if span and draw(st.booleans()):
            i = draw(st.integers(0, len(span) - 1))
            j = draw(st.integers(0, len(span) - 1))
            c = draw(entries)
            span.append([x + c * y for x, y in zip(span[i], span[j])])
        else:
            span.append([Fraction(0)] * dim)
    return draw(st.permutations(span)), dim


@given(spans_with_dependencies())
@settings(max_examples=300)
def test_column_space_completion_matches_greedy_rank_loop(case):
    span, dim = case
    assert column_space_completion(span, dim) == _greedy_completion(span, dim)


def test_column_space_completion_is_one_elimination(monkeypatch):
    # the pivots past span of [span | e_0 ... e_{d-1}], with no kernel taken
    calls = Counter()
    for name in ("fraction_free_echelon", "nullspace"):
        real = getattr(el, name)
        monkeypatch.setattr(el, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    assert column_space_completion([[1, 1, 0], [2, 2, 0]], 3) == [0, 2]
    assert calls == Counter(fraction_free_echelon=1)


def test_shape_mismatch_raises_value_error():
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError):
        mat_vec([[1, 2]], [1])


# The former Fraction route, kept as the oracle for the integer one: every
# row converted to Fraction and cleared, back substitution over Fraction and
# one elimination per right-hand column.


def _fraction_clear_rows(a):
    out = []
    for row in a:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in fr)) if fr else 1
        out.append([int(x * mult) for x in fr])
    return out


def _fraction_echelon(a):
    return fraction_free_echelon(_fraction_clear_rows(a))


def _fraction_nullspace(a):
    if not a:
        return []
    n = len(a[0])
    ech, pivots = _fraction_echelon(a)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            s = sum((Fraction(ech[i][j]) * x[j] for j in range(c + 1, n)), Fraction(0))
            x[c] = -s / ech[i][c]
        basis.append(x)
    return basis


def _fraction_solve(a, b):
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(m)]
    ech, pivots = _fraction_echelon(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        s = sum((Fraction(ech[i][j]) * x[j] for j in range(c + 1, n)), Fraction(0))
        x[c] = (Fraction(ech[i][n]) - s) / ech[i][c]
    return x


def _fraction_solve_matrix(a, b):
    xs = []
    for col in transpose(b):
        x = _fraction_solve(a, col)
        if x is None:
            return None
        xs.append(x)
    if not xs:
        return [[] for _ in range(len(a[0]))] if a else []
    return transpose(xs)


small_ints = st.integers(-3, 3)


@st.composite
def systems(draw, entry=entries):
    # a·X = b with b either a·X0 (consistent) or arbitrary (often not)
    m, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
        b = [[sum(a[i][l] * x0[l][j] for l in range(n)) for j in range(k)] for i in range(m)]
    else:
        b = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    return a, b


def _as_mixed(rows):
    # integral Fractions as ints, the rest unchanged
    return [[int(x) if x == int(x) else x for x in row] for row in rows]


def _same_entries(got, want):
    return got is None and want is None or (
        got is not None
        and want is not None
        and len(got) == len(want)
        and all(list(g) == list(w) for g, w in zip(got, want))
    )


def _int_when_integral(rows):
    # every entry with an integral value is an int, every other a Fraction
    return all(
        type(x) is int if Fraction(x).denominator == 1 else type(x) is Fraction
        for row in rows
        for x in row
    )


@given(systems())
@settings(max_examples=200)
def test_solve_matrix_matches_fraction_route(system):
    a, b = system
    want = _fraction_solve_matrix(a, b)
    assert _same_entries(solve_matrix(a, b), want)
    assert _same_entries(solve_matrix(_as_mixed(a), _as_mixed(b)), want)
    for j in range(len(b[0]) if b else 0):
        # each column alone, as one right-hand side
        col = [row[j] for row in b]
        x, want_x = solve_matrix(a, [[y] for y in col]), _fraction_solve(a, col)
        assert (x is None) == (want_x is None) and (x is None or [v for v, in x] == want_x)


@given(matrices())
@settings(max_examples=200)
def test_nullspace_matches_fraction_route(a):
    want = _fraction_nullspace(a)
    assert _same_entries(nullspace(a), want)
    assert _same_entries(nullspace(_as_mixed(a)), want)


@given(matrices())
@settings(max_examples=60)
def test_clear_rows_matches_fraction_route(a):
    for rows in (a, _as_mixed(a)):
        cleared = _clear_rows(rows)
        assert cleared == _fraction_clear_rows(rows)
        assert all(type(x) is int for row in cleared for x in row)


@given(systems(entry=small_ints))
@settings(max_examples=200)
def test_integer_systems_give_int_entries_where_exact(system):
    a, b = system
    x = solve_matrix(a, b)
    assert _same_entries(x, _fraction_solve_matrix(a, b))
    if x is not None:
        assert _int_when_integral(x)
        assert mat_mul(a, x) == b
    kernel = nullspace(a)
    assert _same_entries(kernel, _fraction_nullspace(a))
    assert _int_when_integral(kernel)
    assert _clear_rows(a) == a


def test_solve_matrix_unit_system_stays_int_and_halves_are_fractions():
    x = solve_matrix([[1, 1], [0, 1]], [[2, 0], [1, 1]])
    assert x == [[1, -1], [1, 1]]
    assert all(type(v) is int for row in x for v in row)
    half = solve_matrix([[2]], [[1]])
    assert half == [[Fraction(1, 2)]] and type(half[0][0]) is Fraction
    # an inconsistent column anywhere in b: None
    assert solve_matrix([[1], [1]], [[1, 1], [1, 2]]) is None
    # no right-hand columns: the empty shape
    assert solve_matrix([[1, 2]], [[]]) == [[], []]
