"""Exact rational linear algebra: echelon, rank, kernels, solving.

Everything here is checked by substitution (multiply back and compare),
which is the one oracle linear algebra always grants for free.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gieseker.exact_linalg import (
    column_space_completion,
    fraction_free_echelon,
    identity,
    mat_eq,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve,
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
    assert mat_eq(mat_mul(identity(3), identity(3)), identity(3))
    assert mat_eq(mat_mul(zeros(2, 3), identity(3)), zeros(2, 3))


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
    b = mat_vec(a, x0)
    x = solve(a, b)
    assert x is not None
    assert mat_vec(a, x) == b


def test_solve_inconsistent():
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve(a, [Fraction(0), Fraction(1)]) is None


@given(matrices(max_side=4))
@settings(max_examples=60)
def test_solve_matrix_round_trip(a):
    x0 = [[Fraction((i + 2) * (j + 1), 3) for j in range(2)] for i in range(len(a[0]))]
    b = mat_mul(a, x0)
    x = solve_matrix(a, b)
    assert x is not None
    assert mat_eq(mat_mul(a, x), b)


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


def test_shape_mismatch_raises_value_error():
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError):
        mat_vec([[1, 2]], [1])
