"""Exact linear algebra over fractions.Fraction.

Vectors are tuples of Fractions and matrices tuples of row tuples.  A large
point set is lifted once to integer vectors over a common denominator
(`lift`) and turned back into Fractions once at the end (`unlift`).  One
fraction-free elimination (`_eliminate`, Bareiss's integer-preserving
Gaussian elimination on `lift` output) is behind `det`, `rank`,
`pivot_columns`, `solve` and `inverse`; `det` and `dot` work in the
entries' own arithmetic, so integer input gives an int.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

Vec = tuple
Mat = tuple


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject bools, floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def format_fraction(x) -> str:
    """'p/q', or 'p' for an integer, of an exact rational: an int or a
    Fraction is read as it is, any other input goes through Fraction first."""
    if not isinstance(x, (int, Fraction)):
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
    return tuple(sum(map(operator.mul, r, v)) for r in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def scalar(m: Mat):
    """c when m = c I, None for any other matrix."""
    c = m[0][0]
    return c if m == tuple(tuple(c if i == j else 0 for j in range(len(m)))
                           for i in range(len(m))) else None


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def dot(u: Vec, v: Vec):
    """u . v of two vectors of one length, in the entries' own arithmetic:
    an int for integer vectors."""
    return sum(map(operator.mul, u, v))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vec) -> Vec:
    c = as_fraction(c)
    return tuple(c * a for a in v)


def pairwise_sq_distances(points) -> tuple:
    """(dists, scale): the points lifted once (`lift`), and the integer
    squared distance of each pair of the lifted points, in
    `itertools.combinations` order, so that |a - b| = sqrt_ratio(dist, scale^2)."""
    ivecs, scale = lift(points)
    diffs = (tuple(map(operator.sub, a, b)) for a, b in itertools.combinations(ivecs, 2))
    return (dot(d, d) for d in diffs), scale


def sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) of ints num >= 0 and den > 0 as sqrt(num 4^k / den) 2^-k,
    the quotient near 1: int / int rounds correctly and 4^k is exact, so it is
    math.sqrt(num / den) bit for bit where num / den is a normal float, and
    within an ulp of the exact root wherever that root is a normal float."""
    k = (den.bit_length() - num.bit_length()) // 2
    q = (num << 2 * k) / den if k >= 0 else num / (den << -2 * k)
    return math.ldexp(math.sqrt(q), -k)


def lift(vectors) -> tuple:
    """Integer vectors over one common denominator: (ivecs, scale) with
    vectors[i] = ivecs[i] / scale, scale the lcm of every denominator.  Lift
    a point set once and work on the integers: scale > 0, so sums, equality,
    lexicographic order and orientation signs carry over unchanged."""
    scale = math.lcm(*[c.denominator for v in vectors for c in v])
    return [tuple([c.numerator * (scale // c.denominator) for c in v]) for v in vectors], scale


def unlift(ivecs, scale: int) -> list:
    """The rational vectors ivecs[i] / scale, built once per coordinate."""
    return [tuple(Fraction(c, scale) for c in v) for v in ivecs]


def _eliminate(m):
    """Bareiss's fraction-free forward elimination of the rows of m, lifted
    to integers over one common denominator.  Returns (echelon rows, pivot
    columns, d, scale): pivots are the greedy first independent columns,
    and d is the last pivot with the sign of the row swaps, so that for a
    square nonsingular m, d = det(m) * scale^n.  Each step divides exactly
    by the pivot before it, so every entry stays a minor of the lifted rows."""
    rows, scale = lift(m)
    rows = [list(r) for r in rows]
    n = len(rows)
    width = len(rows[0]) if rows else 0
    pivots, d, prev = [], 1, 1
    for c in range(width):
        r = len(pivots)
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            d = -d
        top, p = rows[r], rows[r][c]
        for row in rows[r + 1:]:
            f, row[c] = row[c], 0
            for j in range(c + 1, width):
                row[j] = (p * row[j] - f * top[j]) // prev
        pivots.append(c)
        prev = p
        if r + 1 == n:
            break
    return rows, pivots, d * prev, scale


def rank(m: Mat) -> int:
    return len(pivot_columns(m))


def pivot_columns(m: Mat) -> list:
    """Column indices of a maximal independent set of columns: the greedy
    choice, each column kept when it is independent of those kept before."""
    return _eliminate(m)[1]


def det(m: Mat):
    """Determinant in the entries' own arithmetic: an int for integer
    entries, a Fraction otherwise."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of non-square matrix")
    _, pivots, d, scale = _eliminate(m)
    d = d if len(pivots) == n else 0
    if all(type(c) is int for r in m for c in r):
        return d
    return Fraction(d, scale ** n)


def _solve_columns(m: Mat, rhs: Mat) -> Mat:
    """X with m X = rhs (m square, nonsingular): one elimination of
    [m | rhs], then back substitution on the integers d X, d the eliminated
    determinant, whose entries are integers by Cramer's rule."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("solve of a non-square matrix")
    rows, pivots, d, _ = _eliminate([tuple(m[i]) + tuple(rhs[i]) for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    Y = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        Y[i] = [(d * row[c] - sum(row[j] * Y[j][c - n] for j in range(i + 1, n))) // row[i]
                for c in range(n, len(row))]
    return tuple(tuple(Fraction(y, d) for y in r) for r in Y)


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs exactly (m square, nonsingular)."""
    return tuple(r[0] for r in _solve_columns(m, [(as_fraction(x),) for x in rhs]))


def inverse(m: Mat) -> Mat:
    """m^{-1}: one elimination of [m | I]."""
    return _solve_columns(m, identity(len(m)))
