import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import fracspec as fs
from fracspec import rational as rat
from oracles import exact_inside, support_hull


F = Fraction


class TestAttractorPoints:
    def test_scale4_sigma_depth1(self, scale4):
        pts = fs.attractor_points(scale4, "sigma", 1).points
        assert pts == ((F(0),), (F(2, 3),))

    def test_scale4_rho_depth1(self, scale4):
        pts = fs.attractor_points(scale4, "rho", 1).points
        assert pts == ((F(-1, 3),), (F(0),))

    def test_eiffel_rho_depth1(self, eiffel2):
        pts = set(fs.attractor_points(eiffel2, "rho", 1).points)
        expected = {eiffel2.zero()} | {
            tuple(-c / (2 - 1) for c in l) for l in eiffel2.L if l != eiffel2.zero()}
        assert pts == expected

    def test_tau_side_is_spectrum(self, scale4):
        pts = set(fs.attractor_points(scale4, "tau", 3).points)
        assert {p[0] for p in pts} == {0, 1, 4, 5, 16, 17, 20, 21}

    def test_omega_side_sign(self, scale4):
        pts = {p[0] for p in fs.attractor_points(scale4, "omega", 1).points}
        assert pts == {0, -2}          # -R b for b in {0, 1/2}

    def test_bad_side(self, scale4):
        with pytest.raises(ValueError):
            fs.attractor_points(scale4, "phi", 1)


class TestConvexHull:
    def test_scale4_depth2_segment(self, scale4):
        pts = fs.attractor_points(scale4, "rho", 2).points
        hull = fs.convex_hull(*rat.lift(pts))
        assert hull.vertices == ((F(-1, 3),), (F(0),))
        assert hull.affine_dim == 1

    def test_planar_collapse_segment(self, planar):
        hull = fs.convex_hull(*rat.lift(fs.attractor_points(planar, "rho", 2).points))
        assert hull.affine_dim == 1
        assert set(hull.vertices) == {(F(-2, 15), F(2, 15)), (F(2, 15), F(-2, 15))}

    def test_square_with_noise_points(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1),
               (F(1, 2), F(1, 2)), (F(1, 2), 0), (F(1, 3), F(2, 3))]
        hull = fs.convex_hull(*rat.lift(pts))
        assert len(hull.vertices) == 4
        assert fs.hull_volume(hull) == 1

    def test_cube_with_interior_points(self):
        pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        pts += [(F(1, 2), F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), F(0))]
        hull = fs.convex_hull(*rat.lift(pts))
        assert len(hull.vertices) == 8
        assert fs.hull_volume(hull) == 1

    def test_membership_exact(self):
        hull = fs.convex_hull(*rat.lift([(0, 0), (4, 0), (0, 4)]))
        assert hull.contains((F(1), F(1)))
        assert hull.contains((F(2), F(2)))          # on the slanted edge
        assert not hull.contains((F(2), F(2)), strict=True)
        assert not hull.contains((F(3), F(3)))

    def test_above_dimension_three_names_the_span(self):
        simplex = [tuple(F(int(i == j)) for j in range(4)) for i in range(5)]
        with pytest.raises(ValueError, match="span 4"):
            fs.convex_hull(*rat.lift(simplex))

    def test_single_point(self):
        hull = fs.convex_hull(*rat.lift([(F(1, 2), F(1, 3))]))
        assert hull.affine_dim == 0
        assert hull.contains((F(1, 2), F(1, 3)))
        assert not hull.contains((F(0), F(0)))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _coprime_plane(n, c):
    """(n, c) scaled by a positive rational to coprime integers."""
    den = math.lcm(*(x.denominator for x in n + (c,)))
    ints = [int(x * den) for x in n + (c,)]
    g = math.gcd(*ints)
    return tuple(F(v, g) for v in ints[:-1]), F(ints[-1], g)


def _oracle_hull(pts):
    """Brute-force facets and vertices of a full-dimensional 3-D point set.

    A facet is the plane through a non-collinear triple with every point on
    one side, as n . x <= c; a vertex is an input point on three facets with
    independent normals.  The search runs on the points times the lcm L of
    their denominators, in int64 (the bound on the scaled coordinates keeps
    every product exact), and a plane n . y <= c found there is n . x <= c / L.
    """
    pts = sorted(set(pts))
    L = math.lcm(*(x.denominator for p in pts for x in p))
    P = np.array([[int(x * L) for x in p] for p in pts], dtype=np.int64)
    assert np.abs(P).max() < 2 ** 16
    a, b, c = P[np.array(list(itertools.combinations(range(len(P)), 3))).T]
    n = np.cross(b - a, c - a)
    off = (n * a).sum(axis=1)
    side = P @ n.T - off                                  # points x triples
    above, below = (side > 0).any(axis=0), (side < 0).any(axis=0)
    one_side = n.any(axis=1) & ~(above & below)
    sign = np.where(above, -1, 1)[one_side]
    planes = set()
    for nv, cv in zip((n[one_side] * sign[:, None]).tolist(), (off[one_side] * sign).tolist()):
        g = math.gcd(*nv, cv)
        planes.add((tuple(x // g for x in nv), cv // g))
    facets = {_coprime_plane(tuple(F(x) for x in n), F(off, L)) for n, off in planes}
    vertices = []
    for p, q in zip(pts, P.tolist()):
        active = [n for n, off in planes if _dot(n, q) == off]
        if any(_dot(_cross(n1, n2), n3) for n1, n2, n3 in itertools.combinations(active, 3)):
            vertices.append(p)
    return facets, tuple(vertices)


def _random_points(seed):
    """5-40 points with mixed denominators and a few duplicates; every third
    seed adds up to 40 points on the faces of the box [-2, 2]^3, with its
    corners on every sixth."""
    rng = random.Random(seed)

    def coord():
        return F(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 6, 7)))

    pts = [tuple(coord() for _ in range(3)) for _ in range(rng.randint(5, 40))]
    pts += rng.sample(pts, 3)
    if seed % 3 == 0:
        for _ in range(rng.randint(10, 40)):
            p = [max(F(-2), min(F(2), coord())) for _ in range(3)]
            p[rng.randrange(3)] = F(rng.choice((-2, 2)))
            pts.append(tuple(p))
    if seed % 6 == 0:
        pts += [(F(x), F(y), F(z)) for x in (-2, 2) for y in (-2, 2) for z in (-2, 2)]
    return pts


def _signed_volume6(hull):
    """Sum of det(a, b, c) over the faces: 6 times the volume when every face
    is outward-oriented."""
    return sum(rat.det(rat.mat(list(face))) for face in hull.faces)


class TestAffineFrame:
    """The hull's chart: the first independent differences, found by a scan
    that stops at the ambient dimension."""

    @pytest.mark.parametrize("seed", range(40))
    def test_basis_is_the_pivot_columns_of_every_difference(self, seed):
        # points of a random affine dimension 0..3 in 1..4 ambient dimensions,
        # on a lattice coarse enough for repeated and collinear points
        rng = random.Random(seed)
        ambient = rng.randint(1, 4)
        k = rng.randint(0, min(ambient, 3))
        gens = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(k)]
        base = [rng.randint(-5, 5) for _ in range(ambient)]
        pts = sorted({tuple(b + sum(rng.randint(-2, 2) * g[i] for g in gens)
                            for i, b in enumerate(base)) for _ in range(rng.randint(1, 30))})
        origin, basis = fs.geometry._affine_frame(pts)
        diffs = [[x - o for x in xs] for xs, o in zip(zip(*pts[1:]), origin)]
        assert origin == pts[0]
        assert basis == [tuple(x - o for x, o in zip(pts[c + 1], origin))
                         for c in rat.pivot_columns(diffs)]

    def test_eiffel_rho_hull_spans_the_space(self, eiffel2):
        walk, _ = eiffel2.lifted_walk("rho", 4)
        origin, basis = fs.geometry._affine_frame(sorted(set(walk)))
        assert len(basis) == 3 and rat.rank(basis) == 3


class TestHullOracle:
    """`convex_hull` in 3-D against brute force over every triple."""

    @staticmethod
    def _check(pts):
        # facets and vertices as the oracle's, every face corner a vertex,
        # every face outward
        hull = fs.convex_hull(*rat.lift(pts))
        assert hull.affine_dim == 3
        facets, vertices = _oracle_hull(pts)
        assert set(hull.facets) == facets
        assert hull.vertices == vertices
        assert set(itertools.chain.from_iterable(hull.faces)) == set(vertices)
        assert _signed_volume6(hull) == 6 * fs.hull_volume(hull)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rational_sets(self, seed):
        self._check(_random_points(seed))

    def test_lattice_cube(self):
        pts = [(F(x), F(y), F(z)) for x in range(4) for y in range(4) for z in range(4)]
        hull = fs.convex_hull(*rat.lift(pts))
        facets, vertices = _oracle_hull(pts)
        assert set(hull.facets) == facets and len(facets) == 6
        assert hull.vertices == vertices and len(vertices) == 8
        assert fs.hull_volume(hull) == 27
        assert _signed_volume6(hull) == 6 * 27
        # two triangles per square: no boundary lattice point becomes a face corner
        assert len(hull.faces) == 12

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", range(24))
    def test_lattice_subsets(self, seed, m):
        # 14-22 points of {0..m}^3: many boundary points that are not
        # vertices, and ties for the point farthest above a face
        rng = random.Random(seed)
        n = rng.randint(14, 22)
        self._check([tuple(F(rng.randint(0, m)) for _ in range(3)) for _ in range(n)])

    @staticmethod
    def _extreme_params(params):
        """Brute force over the 1-D or 2-D parameters: a point is extreme
        unless it lies on a segment between two others or in a triangle of
        three others (Caratheodory in the plane)."""
        params = sorted(set(params))

        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        def on_segment(p, a, b):
            return (len(p) == 1 or cross(a, b, p) == 0) and \
                _dot(rat.vec_sub(p, a), rat.vec_sub(p, b)) <= 0

        def in_triangle(p, a, b, c):
            signs = {cross(a, b, p) >= 0, cross(b, c, p) >= 0, cross(c, a, p) >= 0}
            return cross(a, b, c) != 0 and len(signs) == 1

        extreme = []
        for p in params:
            rest = [q for q in params if q != p]
            if any(on_segment(p, a, b) for a, b in itertools.combinations(rest, 2)):
                continue
            if len(p) == 2 and any(in_triangle(p, *t) for t in itertools.combinations(rest, 3)):
                continue
            extreme.append(p)
        return extreme

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("ambient, k", [(3, 1), (3, 2), (2, 1), (2, 2), (1, 1)])
    def test_degenerate_sets(self, seed, ambient, k):
        # points o + sum_j s_j e_j on a rational line or plane: the hull
        # keeps the images of the extreme parameters and contains every input
        rng = random.Random(1000 * ambient + 100 * k + seed)

        def coord(lo=-12, hi=12):
            return F(rng.randint(lo, hi), rng.choice((1, 2, 3, 5, 6)))

        while True:
            frame = [tuple(coord() for _ in range(ambient)) for _ in range(k + 1)]
            if rat.rank(rat.mat(frame[1:])) == k:
                break
        o, dirs = frame[0], frame[1:]

        def image(s):
            return tuple(o[i] + sum(s[j] * dirs[j][i] for j in range(k)) for i in range(ambient))

        params = [tuple(coord(-4, 4) for _ in range(k)) for _ in range(rng.randint(3, 14))]
        params += [tuple(F(int(i == j)) for j in range(k)) for i in range(k + 1)]
        params += rng.sample(params, 2)                       # duplicates
        pts = [image(s) for s in params]
        hull = fs.convex_hull(*rat.lift(pts))
        assert hull.affine_dim == k
        assert hull.vertices == tuple(sorted(image(s) for s in self._extreme_params(params)))
        assert all(hull.contains(p) for p in pts)
        # the kept chart solver inverts the basis on its pivot rows, and the
        # chart coordinates rebuild every input point
        pivots, sub_inv = hull.solver
        sub = [[b[i] for b in hull.basis] for i in pivots]
        assert rat.mat_mul(sub_inv, sub) == rat.identity(k)
        for p in pts:
            u = hull.chart_coords(p)
            assert rat.vec_add(hull.origin, rat.mat_vec(rat.transpose(hull.basis), u)) == p
        if k == ambient:
            # the identity chart: every face corner is a vertex, and in the
            # plane every edge (a, b) is outward, so sum det(a, b) = 2 vol
            assert set(itertools.chain.from_iterable(hull.faces)) == set(hull.vertices)
            if k == 2:
                assert sum(rat.det(rat.mat(list(e))) for e in hull.faces) == 2 * fs.hull_volume(hull)
        # off the carrying subspace (none when k == ambient), and past a
        # vertex away from the centroid
        normal = next((n for n in itertools.product((0, 1, 2), repeat=ambient)
                       if rat.rank(rat.mat(dirs + [n])) == k + 1), None)
        centroid = [sum(c) / len(pts) for c in zip(*pts)]
        for v in hull.vertices:
            if k < ambient:
                assert not hull.contains(rat.vec_add(v, rat.vec_scale(F(1, 7), normal)))
            assert not hull.contains(tuple(2 * a - b for a, b in zip(v, centroid)))

    @pytest.mark.parametrize("r", [2, 3])
    def test_tower_hull_volume(self, r):
        # a triangulation of the 256-point depth-4 hull against the closed form
        hull = fs.dual_hull(fs.eiffel_system(r), 4)
        assert fs.hull_volume(hull) == F(1, 3 * (r - 1) ** 3)
        assert _signed_volume6(hull) == 6 * fs.hull_volume(hull)

    @pytest.mark.parametrize("hull", [fs.dual_hull, support_hull], ids=["rho", "sigma"])
    def test_tower_hull_keeps_no_coplanar_faces(self, eiffel2, hull):
        # the depth-4 rho and sigma hulls are simplices: four triangles, with
        # none of the boundary points that are not vertices made into faces
        assert len(hull(eiffel2, 4).faces) == 4


class TestFloatChart:
    def test_identity_chart_param_is_the_points(self):
        X = np.random.default_rng(3).normal(size=(7, 3))
        assert np.array_equal(fs.Chart(np.zeros(3), np.eye(3)).param(X), X)

    def test_full_rank_chart_param_is_the_exact_inverse(self):
        # u = B^{-T} (x - o): the parameters of rational points, exactly
        o = (F(1, 2), F(-1), F(0))
        B = rat.mat([[2, 1, 0], [F(1, 3), 1, 0], [0, F(-1, 2), 4]])
        X = [(F(i, 3), F(-j, 5), F(i * j, 7)) for i in range(3) for j in range(3)]
        BinvT = rat.transpose(rat.inverse(B))
        want = [rat.mat_vec(BinvT, rat.vec_sub(x, o)) for x in X]
        chart = fs.Chart(np.array(o, dtype=float), np.array(B, dtype=float))
        got = chart.param(np.array(X, dtype=float))
        assert np.allclose(got, np.array(want, dtype=float), rtol=1e-13, atol=1e-13)
        assert np.allclose(chart.ambient(got), np.array(X, dtype=float), rtol=0, atol=1e-13)

    def test_sample_falls_back_to_the_vertices(self):
        # a thin tetrahedron between the nodes of the 3-per-axis mesh of its
        # box: no mesh point lies inside, so the sample is its 4 vertices
        hull = fs.convex_hull(*rat.lift([
            (F(1, 6), F(11, 24), F(5, 12)), (F(3, 8), F(5, 8), F(5, 6)),
            (F(17, 24), F(5, 12), F(7, 24)), (F(19, 24), F(1, 2), F(17, 24))]))
        assert hull.affine_dim == 3
        us = hull.chart.param(hull.vertex_array())
        axes = [np.linspace(us[:, d].min(), us[:, d].max(), 3) for d in range(3)]
        mesh = np.array(list(itertools.product(*axes)))
        assert not exact_inside(hull, hull.chart.ambient(mesh)).any()
        assert np.array_equal(hull.sample(3), hull.vertex_array())
        assert len(hull.sample(3)) == 4

    def test_point_hull_membership(self):
        hull = fs.convex_hull(*rat.lift([(F(1, 2), F(1, 3))]))
        assert hull.affine_dim == 0
        assert hull.contains((F(1, 2), F(1, 3)))
        assert not hull.contains((F(1, 2), F(34, 100))) and not hull.contains((F(3, 5), F(1, 3)))
        assert np.array_equal(hull.sample(5), [[0.5, 1 / 3]])

    def test_planar_hull_in_space(self, planar3d):
        hull = fs.dual_hull(planar3d, 4)
        assert hull.affine_dim == 2
        pts = hull.sample(9)
        assert exact_inside(hull, pts).all()
        assert not exact_inside(hull, pts + [0, 0, 1e-3]).any()     # off the plane
        assert not exact_inside(hull, pts + [0.5, 0, 0]).any()      # beside the square
        # brute force: the same mesh, each point mapped and tested on its own
        us = hull.chart.param(hull.vertex_array())
        axes = [np.linspace(us[:, d].min(), us[:, d].max(), 9) for d in range(2)]
        mesh = [hull.chart.ambient(np.array(u))[0] for u in itertools.product(*axes)]
        inside = [p for p in mesh if exact_inside(hull, p)[0]]
        assert len(inside) == len(pts)
        assert np.allclose(inside, pts, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["planar3d", "eiffel2"])
    def test_facet_tolerance_is_ambient_distance(self, request, name):
        # a point off a facet's centre along its ambient unit normal passes the
        # facet test of `sample` at 0.5 FLOAT_TOL and fails it at 2 FLOAT_TOL,
        # whatever the chart scale; the tower's depth-4 hull is its simplex
        # (TestSimplex)
        sysm = request.getfixturevalue(name)
        hull = fs.dual_hull(sysm, 4) if name == "planar3d" else fs.simplex_Y(sysm)
        tol = fs.geometry.FLOAT_TOL
        us = [hull.chart_coords(v) for v in hull.vertices]
        Ginv = np.linalg.inv(hull.chart.metric())
        for n, c in hull.facets:
            on = [u for u in us if rat.dot(n, u) == c]
            centre = [sum(u[i] for u in on) / len(on) for i in range(hull.affine_dim)]
            x = hull.chart.ambient(np.array(centre, dtype=float))[0]
            nf = np.array(n, dtype=float)
            w = hull.chart.basis.T @ Ginv @ nf / math.sqrt(nf @ Ginv @ nf)
            assert hull._in_facets(hull.chart.param(x + 0.5 * tol * w))[0], (n, c)
            assert not hull._in_facets(hull.chart.param(x + 2 * tol * w))[0], (n, c)


class TestSimplex:
    def test_vertex_formula(self):
        Y = fs.simplex_Y(fs.eiffel_system(3))
        assert (F(-1, 2), F(-1, 2), F(0)) in Y.vertices

    def test_r2_vertices_are_minus_l(self, eiffel2):
        Y = fs.simplex_Y(eiffel2)
        for l in eiffel2.L:
            assert tuple(-c for c in l) in Y.vertices

    def test_volume_formula(self):
        for r in range(2, 7):
            Y = fs.simplex_Y(fs.eiffel_system(r))
            assert fs.hull_volume(Y) == F(1, 3 * (r - 1) ** 3)

    def test_hypothesis_rejected(self, planar):
        sysm = fs.make_system([[2, 1], [0, 2]], [(0, 0)], [(0, 0)])
        with pytest.raises(ValueError, match=r"use dual_hull\(sys, depth\) instead"):
            fs.simplex_Y(sysm)
        # the call the message names runs on the refused system
        assert fs.dual_hull(sysm, 4).affine_dim == 0

    def test_depth4_hull_equals_simplex(self):
        for r in (2, 3):
            e = fs.eiffel_system(r)
            assert set(fs.dual_hull(e, 4).vertices) == set(fs.simplex_Y(e).vertices)


class TestVolumes:
    def test_unit_cube(self):
        cube = fs.convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], 1)
        assert fs.hull_volume(cube) == 1

    def test_degenerate_zero(self, planar):
        hull = fs.convex_hull(*rat.lift(fs.attractor_points(planar, "rho", 2).points))
        assert fs.hull_volume(hull) == 0

    def test_segment_length_1d(self, scale4):
        hull = fs.dual_hull(scale4, 2)
        assert fs.hull_volume(hull) == F(1, 3)


class TestInvariance:
    def test_scale4_interval(self, scale4):
        hull = fs.dual_hull(scale4, 2)
        assert fs.invariance_check(scale4, hull).passed

    def test_eiffel_simplices(self):
        for r in (2, 3):
            e = fs.eiffel_system(r)
            assert fs.invariance_check(e, fs.simplex_Y(e)).passed

    def test_shrunk_simplex_violates(self, eiffel2):
        Y = fs.simplex_Y(eiffel2)
        small = fs.convex_hull(*rat.lift([tuple(F(9, 10) * c for c in v) for v in Y.vertices]))
        rep = fs.invariance_check(eiffel2, small)
        assert not rep.passed
        assert [r for r in rep.rows if not r[-1]]       # the rows that violate

    def test_planar_segment_invariant(self, planar):
        hull = fs.dual_hull(planar, 2)
        assert fs.invariance_check(planar, hull).passed

    def test_images_are_rho_of_the_shifted_vertices(self, eiffel2, planar):
        # one row per map and vertex, its image read from the rho maps'
        # table: rho_l(v) = R*^{-1}(v - l)
        for sysm in (eiffel2, planar):
            Rti = sysm.R.inverse_transpose
            vertices = fs.dual_hull(sysm, 3).vertices
            rows = fs.invariance_check(sysm, fs.dual_hull(sysm, 3)).rows
            assert [(l, v) for l, v, _, _ in rows] == [(l, v) for l in sysm.L for v in vertices]
            for l, v, img, _ in rows:
                assert img == rat.mat_vec(Rti, rat.vec_sub(v, l))

    def test_hull_without_zero_in_L(self):
        # R = 4, B = {0, 1/2}, L = {1, 2}: Y = [-2/3, -1/3] is invariant,
        # rho_1(Y) = [-5/12, -1/3] and rho_2(Y) = [-2/3, -7/12]
        sysm = fs.make_system(4, (0, F(1, 2)), (1, 2))
        Y = fs.dual_hull(sysm)
        assert Y.vertices == ((F(-2, 3),), (F(-1, 3),))
        rep = fs.invariance_check(sysm, Y)
        assert rep.passed
        assert {(l, img) for l, _, img, _ in rep.rows} == {
            ((F(1),), (F(-5, 12),)), ((F(1),), (F(-1, 3),)),
            ((F(2),), (F(-2, 3),)), ((F(2),), (F(-7, 12),))}

    @pytest.mark.parametrize("name", ["scale4", "scale2", "triadic", "planar-collapse",
                                      "eiffel(2)", "eiffel(3)"])
    def test_midpoint_rows_are_implied_when_zero_in_L(self, name):
        # with 0 in L, M v = rho_0(v) and M v + t_l / 2 is the midpoint of two
        # vertex images: the rows for s in {0, 1/2} decide nothing more
        sysm = fs.get_system(name)
        for P in (fs.dual_hull(sysm), fs.convex_hull(*rat.lift(
                [tuple(F(9, 10) * c for c in v) for v in fs.dual_hull(sysm).vertices]))):
            M, shift = sysm.maps["rho"]
            with_midpoints = all(
                P.contains(rat.vec_add(rat.mat_vec(M, v), rat.vec_scale(s, shift[l])))
                for l in sysm.L for v in P.vertices for s in (0, F(1, 2), 1))
            assert fs.invariance_check(sysm, P).passed == with_midpoints


class TestNesting:
    def test_hulls_nest_into_simplex(self):
        for r in (2, 3):
            e = fs.eiffel_system(r)
            Y = fs.simplex_Y(e)
            prev = None
            for n in (1, 2, 3, 4):
                pts = fs.attractor_points(e, "rho", n).points
                assert all(Y.contains(p) for p in pts)
                hull = fs.convex_hull(*rat.lift(pts))
                if prev is not None:
                    assert all(hull.contains(v) for v in prev.vertices)
                prev = hull

    def test_word_images_in_deeper_closure(self, scale4):
        # the images of 0 under the depth-n words: the sigma side's word walk
        for n in (1, 2, 3):
            imgs = rat.unlift(*scale4.lifted_walk("sigma", n))
            deeper = list(rat.unlift(*scale4.lifted_walk("sigma", n + 1)))
            deeper += list(fs.attractor_points(scale4, "sigma", n + 1).points)
            hull = fs.convex_hull(*rat.lift(deeper))
            assert all(hull.contains(p) for p in imgs)


class TestHausdorff:
    def test_scale4(self, scale4):
        assert fs.hausdorff_dimension(scale4) == pytest.approx(0.5, abs=1e-15)

    def test_triadic(self, triadic):
        assert fs.hausdorff_dimension(triadic) == pytest.approx(math.log(2) / math.log(3))

    def test_planar_measure_side(self, planar):
        assert fs.hausdorff_dimension(planar) == pytest.approx(math.log(3) / math.log(6))

    def test_non_similitude_unavailable(self):
        sysm = fs.make_system([[2, 1], [0, 3]], [(0, 0)], [(0, 0)])
        assert fs.hausdorff_dimension(sysm) is None
