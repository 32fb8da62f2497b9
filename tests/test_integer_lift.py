"""The integer layer of the exact code against the Fraction loops it stands
for: the word walk, the attractor fixed points, the compatibility check and
the pairwise distance scan.  Each reference below is the plain Fraction
computation, written out."""

import dataclasses
import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import fracspec as fs
from fracspec import rational as rat
from fracspec.system import DEFAULT_N_CHECK, SIDES


F = Fraction


def fraction_word_walk(sysm, side, depth):
    """(point, word) level by level in Fractions: level k adds M^k t_d."""
    M, table = sysm.maps[side]
    step = list(table.items())
    walk = [(sysm.zero(), ())]
    for _ in range(depth):
        walk = [(rat.vec_add(p, t), w + (d,)) for p, w in walk for d, t in step]
        step = [(d, rat.mat_vec(M, t)) for d, t in step]
    return walk


def fraction_attractor_points(sysm, side, depth):
    """Sorted distinct word images, mapped by (I - M^n)^{-1} on the
    contractive sides; None when I - M^n is singular."""
    pts = tuple(sorted({p for p, _ in fraction_word_walk(sysm, side, depth)}))
    if side in ("sigma", "rho"):
        Mn = functools.reduce(rat.mat_mul, [sysm.maps[side][0]] * depth)
        ImMn = rat.mat([[int(i == j) - Mn[i][j] for j in range(sysm.dim)]
                        for i in range(sysm.dim)])
        if rat.det(ImMn) == 0:
            return None
        inv = rat.inverse(ImMn)
        pts = tuple(sorted(rat.mat_vec(inv, t) for t in pts))
    return pts


def fraction_compatibility(sysm):
    """(passed, first five witnesses or None) of R^n b . l in Z over every
    power n <= DEFAULT_N_CHECK."""
    failures = []
    Rn = rat.identity(sysm.dim)
    for n in range(1, DEFAULT_N_CHECK + 1):
        Rn = rat.mat_mul(Rn, sysm.R.entries)
        for b in sysm.B:
            Rnb = rat.mat_vec(Rn, b)
            for l in sysm.L:
                v = rat.dot(Rnb, l)
                if v.denominator != 1:
                    failures.append((n, tuple(map(rat.format_fraction, b)),
                                     tuple(map(rat.format_fraction, l)),
                                     rat.format_fraction(v)))
    return not failures, failures[:5] or None


def random_system(seed, dim):
    """A rational system with a nonsingular R near 3 I and 2-4 distinct
    digits on each side, zero among them."""
    rng = random.Random(seed)

    def q():
        return F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5)))

    while True:
        R = [[q() + 3 * (i == j) for j in range(dim)] for i in range(dim)]
        if rat.det(rat.mat(R)) != 0:
            break
    n = rng.randint(2, 4)
    zero = (F(0),) * dim
    digits = []
    for _ in range(2):
        pts = {zero}
        while len(pts) < n:
            pts.add(tuple(q() for _ in range(dim)))
        digits.append(sorted(pts))
    return fs.make_system(R, *digits, name=f"random{dim}d-{seed}")


SYSTEMS = (
    [(name, functools.partial(fs.get_system, name))
     for name in ("scale4", "scale2", "triadic", "planar-collapse")]
    + [(f"eiffel{r}", functools.partial(fs.eiffel_system, r)) for r in (2, 3, 4)]
    + [("scale5half", lambda: fs.make_system(F(5, 2), (F(0), F(1, 2)), (F(0), F(1)))),
       ("planar3d", lambda: fs.make_system(
           [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
           [(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 2), 0), (F(1, 2), F(1, 2), 0)],
           [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]))]
    + [(f"random{dim}d-{seed}", functools.partial(random_system, seed, dim))
       for dim in (2, 3) for seed in range(4)])


def _all_fractions(points):
    return all(type(c) is Fraction for p in points for c in p)


@pytest.fixture(scope="module", params=SYSTEMS, ids=[name for name, _ in SYSTEMS])
def system(request):
    return request.param[1]()


@pytest.mark.parametrize("side", SIDES)
class TestAgainstFractionLoops:
    def test_word_walk(self, system, side):
        # the lifted walk, unlifted and paired with its words in product order
        for depth in range(1, 5):
            ivecs, scale = system.lifted_walk(side, depth)
            words = itertools.product(system.maps[side][1], repeat=depth)
            walk = list(zip(rat.unlift(ivecs, scale), words))
            assert walk == fraction_word_walk(system, side, depth)
            assert _all_fractions(p for p, _ in walk)

    def test_walk_keeps_the_lift_of_its_steps(self, system, side):
        # the steps M^k t lifted over their least common denominator, and
        # the walk summed from those integers
        M, table = system.maps[side]
        for depth in range(0, 5):
            steps = [list(table.values())]
            for _ in range(depth - 1):
                steps.append([rat.mat_vec(M, t) for t in steps[-1]])
            isteps, scale = rat.lift([t for level in steps[:depth] for t in level])
            n = len(table)
            walk = [(0,) * system.dim]
            for k in range(depth):
                walk = [tuple(a + b for a, b in zip(p, t))
                        for p in walk for t in isteps[k * n:(k + 1) * n]]
            assert system.lifted_walk(side, depth) == (walk, scale)

    def test_attractor_points(self, system, side):
        for depth in range(1, 5):
            want = fraction_attractor_points(system, side, depth)
            if want is None:
                with pytest.raises(ValueError, match="singular"):
                    fs.attractor_points(system, side, depth)
                continue
            got = fs.attractor_points(system, side, depth).points
            assert got == want
            assert _all_fractions(got)


@st.composite
def lifted_point_sets(draw):
    """(ivecs, scale) of a rational point set in 1-4 dimensions spanning an
    affine subspace of dimension 0-3: an origin plus rational combinations of
    up to three rational directions, lifted once."""
    ambient = draw(st.integers(1, 4))
    q = st.fractions(-6, 6, max_denominator=7)
    vector = st.lists(q, min_size=ambient, max_size=ambient)
    origin = draw(vector)
    directions = draw(st.lists(vector, min_size=0, max_size=min(ambient, 3)))
    coeffs = draw(st.lists(st.lists(q, min_size=len(directions), max_size=len(directions)),
                           min_size=len(directions) + 1, max_size=12))
    points = [tuple(o + sum((c * d[i] for c, d in zip(cs, directions)), F(0))
                    for i, o in enumerate(origin)) for cs in coeffs]
    return rat.lift(points)


class TestHullOfALift:
    """`convex_hull(points, scale)` reads the points points[i] / scale, so
    every lift of one point set gives the same hull."""

    @settings(max_examples=150, deadline=None)
    @given(lifted_point_sets(), st.integers(2, 60))
    def test_same_hull_for_a_multiple_of_the_lift(self, lifted, k):
        ivecs, scale = lifted
        P = fs.convex_hull(ivecs, scale)
        Q = fs.convex_hull([tuple(k * c for c in v) for v in ivecs], k * scale)
        for field in dataclasses.fields(P):
            assert getattr(Q, field.name) == getattr(P, field.name), field.name
        assert fs.hull_volume(Q) == fs.hull_volume(P)
        assert P.affine_dim <= 3 and set(P.vertices) <= set(rat.unlift(ivecs, scale))

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fs.convex_hull([(1,), (2,)], -1)


def fraction_extreme_sq_distances(points):
    """(least, largest) |a - b|^2 over the pairs of the points, in Fractions.
    In one dimension the nearest pair is adjacent in sorted order and the
    farthest is the two ends; above, every pair is scanned."""
    if len(points[0]) == 1:
        xs = sorted(x for (x,) in points)
        return min((b - a) ** 2 for a, b in zip(xs, xs[1:])), (xs[-1] - xs[0]) ** 2
    sq = [rat.dot(d, d) for d in (rat.vec_sub(a, b) for a, b in itertools.combinations(points, 2))]
    return min(sq), max(sq)


def ten_digit_system():
    """R = 10, B = {k/10}, L = {0..9}: a depth-3 enumeration of 1000 points."""
    return fs.make_system(10, [(F(k, 10),) for k in range(10)], [(k,) for k in range(10)],
                          "ten-digit")


@pytest.mark.parametrize("name", ["scale4", "scale2", "triadic", "planar-collapse",
                                  "eiffel(2)", "eiffel(3)", "eiffel(4)", "ten-digit"])
def test_separation_and_diameter_against_fraction_scan(name):
    # the lifted scan, divided once, is the float of the Fraction extreme
    # bit for bit, on the enumeration `report` reads and on the hull Y
    sysm = ten_digit_system() if name == "ten-digit" else fs.get_system(name)
    enum = fs.enumerate_P(sysm, 3)
    least, largest = fraction_extreme_sq_distances(enum.coords())
    assert fs.uniform_discreteness(enum) == math.sqrt(float(least))
    assert fs.hull_diameter(enum.coords()) == math.sqrt(float(largest))
    vertices = fs.dual_hull(sysm).vertices
    if len(vertices) > 1:
        _, largest = fraction_extreme_sq_distances(vertices)
        assert fs.hull_diameter(vertices) == math.sqrt(float(largest))


def ratios(max_shift):
    """(num, den): a ratio of two integers below 2^80, times 2^e, |e| <= max_shift."""
    return st.tuples(st.integers(0, 2 ** 80), st.integers(1, 2 ** 80),
                     st.integers(-max_shift, max_shift)).map(
        lambda t: (t[0] << t[2], t[1]) if t[2] >= 0 else (t[0], t[1] << -t[2]))


class TestSqrtRatio:
    """`rational.sqrt_ratio`, the root of every exact squared length."""

    @settings(max_examples=300, deadline=None)
    @given(ratios(1100))
    def test_is_the_float_root_where_the_quotient_is_normal(self, ratio):
        num, den = ratio
        try:
            q = num / den
        except OverflowError:
            q = math.inf
        assume(num == 0 or sys.float_info.min <= q < math.inf)
        assert rat.sqrt_ratio(num, den) == math.sqrt(q)

    @settings(max_examples=300, deadline=None)
    @given(ratios(2100))
    def test_within_an_ulp_from_1e_minus_610_to_1e610(self, ratio):
        num, den = ratio
        assume(den <= num * 10 ** 610 and num <= den * 10 ** 610)
        got = rat.sqrt_ratio(num, den)
        with mpmath.workdps(50):
            root = mpmath.sqrt(mpmath.mpf(num) / mpmath.mpf(den))
            assert abs(mpmath.mpf(got) - root) <= math.ulp(got)

    def test_stays_finite_where_the_quotient_leaves_the_float_range(self):
        # 10^610 / 1 is past the largest float and 1 / 10^610 below the least
        assert rat.sqrt_ratio(10 ** 610, 1) == pytest.approx(1e305, rel=1e-15)
        assert rat.sqrt_ratio(1, 10 ** 610) == pytest.approx(1e-305, rel=1e-15)
        assert rat.sqrt_ratio(0, 10 ** 610) == 0.0


class TestCompatibility:
    """Integer R decides R^n b . l in Z at n <= dim (Cayley-Hamilton);
    rational R keeps the 12-power sample.  Verdict and witnesses must match
    the 12-power loop either way."""

    @staticmethod
    def _check(sysm):
        check = fs.validate_system(sysm).checks["compatibility"]
        assert (check.passed, check.witness) == fraction_compatibility(sysm)
        return check

    def test_triadic_recorded_witnesses(self, triadic):
        check = self._check(triadic)
        assert check.witness == [(n, ("2/3",), ("3/4",), f"{3 ** n}/2") for n in range(1, 6)]

    def test_scale5half(self, scale5half):
        check = self._check(scale5half)
        assert check.witness == [(n, ("1/2",), ("1",), rat.format_fraction(F(5, 2) ** n / 2))
                                 for n in range(1, 6)]

    def test_rational_scale_fails_late(self):
        # (3/2)^n * 8 is an integer up to n = 3 and not from n = 4 on, which
        # only the 12-power sample sees
        sysm = fs.make_system(F(3, 2), (F(0), F(8)), (F(0), F(1)))
        check = self._check(sysm)
        assert [w[0] for w in check.witness] == [4, 5, 6, 7, 8]

    def test_integer_scale_fails_first_at_dim(self):
        # R = [[0, 3], [1, 0]]: R b . l = 0 and R^2 = 3 I gives 3/2
        sysm = fs.make_system([[0, 3], [1, 0]], [(0, 0), (F(1, 2), 0)], [(0, 0), (1, 0)])
        check = self._check(sysm)
        assert [w[0] for w in check.witness] == [2, 4, 6, 8, 10]

    @staticmethod
    def _digits(data, dim, n):
        # n distinct points of (Z / q)^dim, q drawn per set, so that both
        # verdicts come up often
        q = data.draw(st.sampled_from((1, 2, 3, 4)))
        coord = st.integers(-4, 4).map(lambda k: F(k, q))
        return data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n,
                                  unique=True))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_integer_scale_agrees_with_loop(self, data):
        dim = data.draw(st.sampled_from((1, 2)))
        entry = st.integers(-6, 6)
        R = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                               min_size=dim, max_size=dim)
                      .filter(lambda m: rat.det(rat.mat(m)) != 0))
        n = data.draw(st.integers(1, 4))      # N = #B = #L
        self._check(fs.make_system(R, self._digits(data, dim, n), self._digits(data, dim, n)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rational_scale_agrees_with_loop(self, data):
        r = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
        n = data.draw(st.integers(1, 4))
        self._check(fs.make_system(r, self._digits(data, 1, n), self._digits(data, 1, n)))


def cofactor_det(rows):
    """Determinant by cofactor expansion along the first row (0 x 0
    included), in the entries' own arithmetic."""
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    return sum((-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(st.tuples(*[st.integers(-9, 9)] * k), min_size=k, max_size=k)))
def test_face_normal_is_the_signed_cofactor_row(face):
    # the written-out normals of `geometry._plane` against the cofactors of
    # the edges, n_j = (-1)^j det(edges without column j)
    a = face[0]
    edges = [tuple(x - y for x, y in zip(q, a)) for q in face[1:]]
    n = tuple((-1) ** j * cofactor_det([e[:j] + e[j + 1:] for e in edges])
              for j in range(len(a)))
    assert fs.geometry._plane(face) == (n, rat.dot(n, a))


def greedy_pivot_columns(rows):
    """Indices of the columns kept by a greedy scan: each column is reduced,
    fraction-free, against the reduced columns kept so far, and kept when a
    remainder is left."""
    kept, reduced = [], []
    for i, col in enumerate(zip(*rows)):
        r = col
        for e in reduced:
            c = next(k for k, x in enumerate(e) if x)
            if r[c]:
                r = tuple(e[c] * x - r[c] * y for x, y in zip(r, e))
        if any(r):
            kept.append(i)
            reduced.append(r)
    return kept


@st.composite
def matrices(draw, square=False):
    """Integer or rational matrices up to 5 x 5; half of them are a product
    through a narrower inner dimension, so that rank deficiency is common."""
    n = draw(st.integers(1, 5))
    m = n if square else draw(st.integers(1, 5))
    entry = draw(st.sampled_from((st.integers(-4, 4),
                                  st.fractions(-4, 4, max_denominator=6))))

    def block(rows, cols):
        return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]

    if draw(st.booleans()):
        return block(n, m)
    k = draw(st.integers(1, min(n, m)))
    left, right = block(n, k), block(k, m)
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def _integer(m):
    return all(type(c) is int for r in m for c in r)


class TestEliminationKernel:
    """`det`, `rank`, `pivot_columns`, `solve` and `inverse` read one
    fraction-free elimination; each is checked against a written-out
    reference."""

    @settings(max_examples=60, deadline=None)
    @given(matrices(square=True))
    def test_det_against_cofactor_expansion(self, m):
        d = rat.det(m)
        assert d == cofactor_det(m)
        assert type(d) is (int if _integer(m) else Fraction)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_pivot_columns_and_rank_against_greedy_selection(self, m):
        want = greedy_pivot_columns(m)
        assert rat.pivot_columns(m) == want
        assert rat.rank(m) == len(want)

    @settings(max_examples=60, deadline=None)
    @given(matrices(square=True), st.data())
    def test_inverse_and_solve(self, m, data):
        if cofactor_det(m) == 0:
            with pytest.raises(ValueError, match="singular"):
                rat.inverse(m)
            return
        n = len(m)
        M = rat.mat(m)
        assert rat.mat_mul(M, rat.inverse(m)) == rat.identity(n)
        b = data.draw(st.lists(st.fractions(-9, 9, max_denominator=5), min_size=n, max_size=n))
        x = rat.solve(m, b)
        assert rat.mat_vec(M, x) == tuple(b)
        assert all(type(c) is Fraction for c in x)

    def test_empty_matrix(self):
        assert rat.det(()) == 1
        assert rat.rank(()) == 0 and rat.pivot_columns(()) == []

    def test_non_square_is_refused(self):
        m = [[1, 2, 3], [4, 5, 6]]
        for call in (rat.det, rat.inverse, lambda m: rat.solve(m, [1, 1])):
            with pytest.raises(ValueError, match="non-square"):
                call(m)
