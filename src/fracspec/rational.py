"""Exact linear algebra over fractions.Fraction.

Everything in here operates on tuples of Fractions (vectors) and tuples of
row tuples (matrices).  Sizes are tiny (dimension <= 3 in practice), so the
implementations favour exactness and clarity over speed.  A large point set
is lifted once to integer vectors over a common denominator (`lift`) and
turned back into Fractions once at the end (`unlift`).
"""

from __future__ import annotations

import math
from fractions import Fraction

Vec = tuple
Mat = tuple


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def vec(entries) -> Vec:
    return tuple(as_fraction(e) for e in entries)


def mat(rows) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def mat_vec(m: Mat, v: Vec) -> Vec:
    if len(m[0]) != len(v):
        raise ValueError("dimension mismatch in mat_vec")
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vec) -> Vec:
    c = as_fraction(c)
    return tuple(c * a for a in v)


def lift(vectors) -> tuple:
    """Integer vectors over one common denominator: (ivecs, scale) with
    vectors[i] = ivecs[i] / scale, scale the lcm of every denominator.  Lift
    a point set once and work on the integers: scale > 0, so sums, equality,
    lexicographic order and orientation signs carry over unchanged."""
    scale = math.lcm(*(c.denominator for v in vectors for c in v))
    return [tuple(c.numerator * (scale // c.denominator) for c in v) for v in vectors], scale


def unlift(ivecs, scale: int) -> list:
    """The rational vectors ivecs[i] / scale, built once per coordinate."""
    return [tuple(Fraction(c, scale) for c in v) for v in ivecs]


def _eliminate(rows):
    """Forward elimination; returns (echelon rows, pivot columns, sign)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        for i in range(r + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                for j in range(c, m):
                    rows[i][j] -= f * rows[r][j]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots, sign


def rank(m: Mat) -> int:
    if not m:
        return 0
    _, pivots, _ = _eliminate(m)
    return len(pivots)


def pivot_columns(m: Mat) -> list:
    """Column indices of a maximal independent set of columns."""
    _, pivots, _ = _eliminate(m)
    return pivots


def det(m: Mat) -> Fraction:
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of non-square matrix")
    rows, pivots, sign = _eliminate(m)
    if len(pivots) < n:
        return Fraction(0)
    d = Fraction(sign)
    for i in range(n):
        d *= rows[i][pivots[i]]
    return d


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs exactly (m square, nonsingular)."""
    n = len(m)
    aug = [list(m[i]) + [as_fraction(rhs[i])] for i in range(n)]
    rows, pivots, _ = _eliminate(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("singular system")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        c = pivots[i]
        s = rows[i][n] - sum(rows[i][j] * x[j] for j in range(c + 1, n))
        x[c] = s / rows[i][c]
    return tuple(x)


def inverse(m: Mat) -> Mat:
    n = len(m)
    cols = [solve(m, tuple(Fraction(1 if i == j else 0) for i in range(n)))
            for j in range(n)]
    return transpose(mat(cols))
