"""Exact linear algebra over the rationals.

Matrices are lists of row lists with int/Fraction entries.  The elimination
core is fraction-free (Bareiss) on integer-cleared rows; back substitution
runs over Fraction.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvariantError

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
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
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def _clear_rows(a: Matrix) -> list[list[int]]:
    # scale each row by the lcm of entry denominators; row scaling preserves
    # the row space and the kernel
    out = []
    for row in a:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in fr)) if fr else 1
        out.append([int(x * mult) for x in fr])
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


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel of ``a``, one vector per free column."""
    if not a:
        return []
    n = len(a[0])
    ech, pivots = fraction_free_echelon(a)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        # pivot rows are in column order; substitute bottom-up
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            s = sum((Fraction(ech[i][j]) * x[j] for j in range(c + 1, n)), Fraction(0))
            x[c] = -s / ech[i][c]
        basis.append(x)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a·x = b, or None if inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(m)]
    ech, pivots = fraction_free_echelon(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        s = sum((Fraction(ech[i][j]) * x[j] for j in range(c + 1, n)), Fraction(0))
        x[c] = (Fraction(ech[i][n]) - s) / ech[i][c]
    return x


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """X with a·X = b (columnwise solve), or None if any column fails."""
    cols_b = transpose(b)
    xs = []
    for col in cols_b:
        x = solve(a, col)
        if x is None:
            return None
        xs.append(x)
    if not xs:
        return [[] for _ in range(len(a[0]))] if a else []
    return transpose(xs)


def column_space_completion(span: list[Vector], dim: int) -> list[int]:
    """Indices of standard basis vectors extending ``span`` to all of Q^dim.

    These are the t with e_t outside span + <e_0, ..., e_{t-1}>, the set a
    greedy left-to-right scan would pick: exactly the t where some functional
    vanishing on span and on e_0..e_{t-1} is nonzero at e_t, i.e. the pivot
    columns of a basis of the annihilator of span, the kernel of the matrix
    whose rows are span.
    """
    kernel = nullspace(span) if span else identity(dim)
    pivots = fraction_free_echelon(kernel)[1]
    if len(pivots) != len(kernel):
        rank_reached = dim - len(kernel) + len(pivots)
        raise InvariantError(f"completion reached rank {rank_reached}, not {dim}")
    return pivots
