"""Exact linear algebra over the rationals.

Matrices are lists of row lists with int/Fraction entries; everything built
here is int.  The elimination core is fraction-free (Bareiss) on integer
rows, clearing the denominators of a row only when it holds a non-int entry.
Back substitution divides in int and makes a Fraction only where a division
is inexact.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvariantError

Matrix = list[list[int | Fraction]]
Vector = list[int | Fraction]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"cannot multiply: {len(a[0])} columns against {len(b)} rows")
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise ValueError(f"cannot apply: {len(a[0])} columns against a vector of {len(v)}")
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def _clear_rows(a: Matrix) -> list[list[int]]:
    # scale each row by the lcm of entry denominators; row scaling preserves
    # the row space and the kernel
    out = []
    for row in a:
        if any(type(x) is not int for x in row):
            fr = [Fraction(x) for x in row]
            mult = lcm(*(x.denominator for x in fr))
            row = [int(x * mult) for x in fr]
        out.append(list(row))
    return out


def fraction_free_echelon(a: Matrix) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of an integer-cleared copy of ``a`` (Bareiss).

    Returns (echelon, pivot_columns).  Exact integer arithmetic throughout;
    the two-step division is checked to be exact.
    """
    e = _clear_rows(a)
    m = len(e)
    n = len(e[0]) if m else 0
    pivots: list[int] = []
    row = 0
    prev = 1
    for col in range(n):
        if row >= m:
            break
        p = next((i for i in range(row, m) if e[i][col] != 0), None)
        if p is None:
            continue
        e[row], e[p] = e[p], e[row]
        pivot = e[row][col]
        for i in range(row + 1, m):
            head = e[i][col]
            for j in range(col + 1, n):
                num = pivot * e[i][j] - head * e[row][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise InvariantError("a Bareiss minor did not divide exactly")
                e[i][j] = q
            e[i][col] = 0
        prev = pivot
        pivots.append(col)
        row += 1
    return e, pivots


def rank(a: Matrix) -> int:
    return len(fraction_free_echelon(a)[1])


def _divide(num: int | Fraction, den: int) -> int | Fraction:
    # an int when den divides num (Fraction // int is an int), else a Fraction
    return Fraction(num, den) if num % den else num // den


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel of ``a``, one vector per free column."""
    if not a:
        return []
    n = len(a[0])
    ech, pivots = fraction_free_echelon(a)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        x: Vector = [0] * n
        x[f] = 1
        # pivot rows are in column order; substitute bottom-up
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            row = ech[i]
            x[c] = _divide(-sum(row[j] * x[j] for j in range(c + 1, n)), row[c])
        basis.append(x)
    return basis


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """X with a·X = b, or None if some column of b is outside the column
    space of a.  One elimination of [a | b]: a pivot in the b block is a row
    combination vanishing on a but not on b.  Free unknowns are 0."""
    m = len(a)
    n = len(a[0]) if m else 0
    k = len(b[0]) if b else 0
    if not k:
        return [[] for _ in range(n)]
    ech, pivots = fraction_free_echelon([list(a[i]) + list(b[i]) for i in range(m)])
    if pivots and pivots[-1] >= n:
        return None
    x: Matrix = zeros(n, k)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        row = ech[i]
        for j in range(k):
            s = sum(row[l] * x[l][j] for l in range(c + 1, n))
            x[c][j] = _divide(row[n + j] - s, row[c])
    return x


def column_space_completion(span: list[Vector], dim: int) -> list[int]:
    """Indices of standard basis vectors extending ``span`` to all of Q^dim.

    These are the t with e_t outside span + <e_0, ..., e_{t-1}>, the set a
    greedy left-to-right scan would pick.  A column is a pivot exactly when it
    lies outside the span of the columns before it, so they are the pivot
    columns past span in one elimination of the columns [span | e_0 ... e_{dim-1}].
    """
    k = len(span)
    cols = [[v[i] for v in span] + [int(j == i) for j in range(dim)] for i in range(dim)]
    return [c - k for c in fraction_free_echelon(cols)[1] if c >= k]
