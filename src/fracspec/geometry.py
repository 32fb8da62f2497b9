"""Dual attractors, exact convex hulls (dimension <= 3), invariant simplices,
and the float chart and sampling of a hull.

All hull computations run in exact arithmetic, on integer points over one
common denominator (the lift `rational.lift` makes, or the one the word walk
hands on), so membership and invariance checks are decisions, not tolerance
calls.  Degenerate point sets
(affine dimension below the ambient one) come back as lower-dimensional hulls
carried by an explicit affine chart.  The float side (chart coordinates,
membership within FLOAT_TOL, mesh samples) feeds the grid and sampling code.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rational as rat
from .system import AffineSystem, point

MAX_MESH_POINTS = 2 ** 20   # float nodes of one mesh or grid, entries of one Gram matrix
FLOAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# attractor samples from the word walk of `AffineSystem.lifted_walk`

@dataclass(frozen=True)
class AttractorSample:
    """The points of one side's depth-n words, sorted, as an integer lift
    that need not be in lowest terms: point i is lifted[i] / scale.
    `attractor_points` returns it."""
    lifted: tuple
    scale: int

    @functools.cached_property
    def points(self) -> tuple:
        """The points as Fractions, built on first read."""
        return tuple(rat.unlift(self.lifted, self.scale))


def attractor_points(sys: AffineSystem, side: str, depth: int) -> AttractorSample:
    """Fixed points of every depth-n word on the contractive sides (sigma, rho);
    word images of 0 on the expansive sides (tau, omega).  The walk's lift
    is kept: the fixed-point map is applied to it as integer rows, and no
    Fraction is built per point."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    walk, scale = sys.lifted_walk(side, depth)
    pts = sorted(set(walk))       # the distinct images of 0, lifted to integers
    if side in ("sigma", "rho"):
        # the word map x -> M^n x + t fixes (I - M^n)^{-1} t.  On the lift
        # M = Mi / m that is m^n A^{-1} t with the integer A = m^n I - Mi^n,
        # one integer matrix over the lifted images; it is injective, so no
        # point repeats
        Mi, m = rat.lift(sys.maps[side][0])
        Mn, mn = functools.reduce(rat.mat_mul, [Mi] * depth), m ** depth
        A = tuple(tuple(mn * (i == j) - Mn[i][j] for j in range(sys.dim))
                  for i in range(sys.dim))
        if rat.det(A) == 0:
            raise ValueError("I - M^n is singular; the word maps are not contractions")
        inv, den = rat.lift(rat.inverse(A))
        inv = tuple(tuple(mn * c for c in r) for r in inv)
        pts = sorted(rat.mat_vec(inv, t) for t in pts)
        scale *= den
    return AttractorSample(tuple(pts), scale)


# ---------------------------------------------------------------------------
# float charts

@dataclass
class Chart:
    """Affine parametrization u -> origin + u @ basis of the carrying subspace."""
    origin: np.ndarray           # (ambient,)
    basis: np.ndarray            # (k, ambient), rows independent

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    def ambient(self, U: np.ndarray) -> np.ndarray:
        return self.origin + np.atleast_2d(U) @ self.basis

    @functools.cached_property
    def dual_basis(self) -> np.ndarray:
        """basis^T (basis basis^T)^{-1}, (ambient, k): ambient offsets to
        their least-squares chart parameters, inverted once per chart."""
        return self.basis.T @ np.linalg.inv(self.basis @ self.basis.T)

    def param(self, X: np.ndarray) -> np.ndarray:
        """Least-squares parameters of ambient points; raises when a point
        leaves the carrying subspace by more than FLOAT_TOL."""
        X = np.atleast_2d(X) - self.origin
        U = X @ self.dual_basis
        resid = np.abs(U @ self.basis - X)
        worst = resid.max() if resid.size else 0.0
        if worst > FLOAT_TOL:
            raise ValueError(f"point leaves the hull's carrying subspace "
                             f"(residual {worst:.2e})")
        return U

    def metric(self) -> np.ndarray:
        return self.basis @ self.basis.T


# ---------------------------------------------------------------------------
# exact convex hulls

@dataclass(frozen=True)
class Polytope:
    """Convex polytope in exact coordinates.

    For full-dimensional hulls the chart is the identity, so the hull is
    built in ambient coordinates; otherwise `origin` and `basis` give the
    affine subspace carrying the hull, and facets and faces live in the
    chart coordinates.  `facets` is a tuple of (normal, offset) pairs with
    the meaning  normal . u <= offset, scaled to coprime integers.
    """

    ambient_dim: int
    affine_dim: int
    vertices: tuple                      # ambient points, sorted
    origin: tuple
    basis: tuple                         # affine_dim ambient vectors
    facets: tuple                        # halfspaces in chart coordinates
    solver: tuple                        # (k pivot rows of the basis, exact inverse
                                         # of the k x k submatrix they select)
    faces: tuple                         # boundary: affine_dim chart vertices per face,
                                         # outward-oriented for affine_dim 2 and 3

    def chart_coords(self, x) -> tuple | None:
        """Exact chart coordinates of ambient point x, or None when x is off
        the carrying subspace."""
        x = point(x, self.ambient_dim)
        d = rat.vec_sub(x, self.origin)
        if self.affine_dim == 0:
            return () if all(c == 0 for c in d) else None
        pivots, sub_inv = self.solver
        u = rat.mat_vec(sub_inv, tuple(d[i] for i in pivots))
        recon = tuple(sum(self.basis[j][i] * u[j] for j in range(self.affine_dim))
                      for i in range(self.ambient_dim))
        if tuple(recon) != tuple(d):
            return None
        return u

    def contains(self, x, strict: bool = False) -> bool:
        u = self.chart_coords(x)
        if u is None:
            return False
        if strict and self.affine_dim < self.ambient_dim:
            return False
        for n, c in self.facets:
            v = rat.dot(n, u)
            if v > c or (strict and v == c):
                return False
        return True

    def vertex_array(self) -> np.ndarray:
        return np.array(self.vertices, dtype=float)

    @functools.cached_property
    def chart(self) -> Chart:
        """Float chart of the carrying subspace (the identity when the hull
        is full-dimensional)."""
        return Chart(np.array(self.origin, dtype=float),
                     np.array(self.basis, dtype=float).reshape(self.affine_dim, self.ambient_dim))

    @functools.cached_property
    def _unit_facets(self):
        """Float facets (A, c), A u <= c, each row scaled so that A u - c is
        the ambient distance beyond the facet: the normal n has length
        sqrt(n^T G^{-1} n) in the chart metric G."""
        A = np.array([n for n, _ in self.facets], dtype=float)
        c = np.array([c for _, c in self.facets], dtype=float)
        Ginv = np.linalg.inv(self.chart.metric())
        scale = np.sqrt(np.einsum("fi,ij,fj->f", A, Ginv, A))
        return A / scale[:, None], c / scale

    def _in_facets(self, U: np.ndarray) -> np.ndarray:
        A, c = self._unit_facets
        return (U @ A.T <= c + FLOAT_TOL).all(axis=1)

    def sample(self, n: int) -> np.ndarray:
        """Ambient points of the n-per-axis mesh of the chart box of the
        vertices that lie inside every facet, or the vertices when no mesh
        point does (a thin simplex can miss a coarse mesh); the point itself
        for a 0-dim hull.  Always a new array: the hull is shared."""
        if self.affine_dim == 0:
            return self.vertex_array()
        if n ** self.affine_dim > MAX_MESH_POINTS:
            raise ValueError(f"a mesh of {n}^{self.affine_dim} points exceeds the cap "
                             f"of {MAX_MESH_POINTS}")
        us = self.chart.param(self.vertex_array())
        axes = [np.linspace(us[:, d].min(), us[:, d].max(), n) for d in range(self.affine_dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        U = np.stack([g.ravel() for g in mesh], axis=-1)
        inside = U[self._in_facets(U)]
        return self.chart.ambient(inside) if len(inside) else self.vertex_array()


def _affine_frame(ipts):
    """Origin plus a maximal independent set of difference vectors of the
    integer points: the first independent ones, the pivot columns of the
    matrix whose column i is point i + 1 minus the origin."""
    origin = ipts[0]
    diffs = [[x - o for x in xs] for xs, o in zip(zip(*ipts[1:]), origin)]
    return origin, [tuple(map(operator.sub, ipts[c + 1], origin))
                    for c in rat.pivot_columns(diffs)]


def _plane(face):
    """Normal n of face (a, ...) as the signed first-row cofactors of its
    edges, so n . (p - a) = det(p - a, edges), and its offset n . a; p lies
    above the face (sees it) iff n . p > n . a.  The cofactors are written
    out for the k <= 3 of every hull: the cross product of the two edges of
    a 3-D face, (e2, -e1) of the edge e of a 2-D face, and n = (1,) for a
    1-D face (a,)."""
    a = face[0]
    edges = [tuple(map(operator.sub, q, a)) for q in face[1:]]
    if len(a) == 3:
        (x1, y1, z1), (x2, y2, z2) = edges
        n = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    elif len(a) == 2:
        n = (edges[0][1], -edges[0][0])
    else:
        n = (1,)
    return n, rat.dot(n, a)


def _hull(ips):
    """Quickhull over sorted distinct integer points of affine dimension k,
    the length of each point; returns the faces as (k corners, outward
    normal, offset).

    The start is the two lexicographic extremes; for k = 3 the point
    farthest from their line; for k >= 2 the point farthest from the
    hyperplane the start then spans.  Each face is oriented against the
    start's centroid, an interior point of every hull built from it.  Each
    visibility test is an integer dot product with a face's plane.  Every
    face keeps all the points strictly above it (its outside set), and each
    step inserts the point farthest above a face, ties going to the
    lexicographically largest.  That point, like each starting point (a
    maximizer of a convex function with the same tie rule), is a vertex of
    the hull, so the boundary points that are not vertices never become
    corners: a 3-D facet with m vertices gives m - 2 triangles.
    """
    k = len(ips[0])
    a = ips[0]
    start = [a, ips[-1]]
    if len(start) < k:                         # a line ab: Lagrange's identity
        u = tuple(map(operator.sub, start[1], a))
        uu = rat.dot(u, u)

        def line_dist2(p):                     # |u|^2 |w|^2 - (u.w)^2 = |ab x ap|^2
            w = tuple(map(operator.sub, p, a))
            return uu * rat.dot(w, w) - rat.dot(u, w) ** 2, p
        start.append(max(ips, key=line_dist2))
    if len(start) == k:                        # a hyperplane
        n, off = _plane(start)
        start.append(max(ips, key=lambda p: (abs(rat.dot(n, p) - off), p)))
    inner = tuple(map(sum, zip(*start)))       # (k + 1) times the centroid

    def face(t, pending):
        n, off = _plane(t)
        if rat.dot(n, inner) > (k + 1) * off:
            n, off = tuple(-x for x in n), -off
            t = (t[1], t[0]) + t[2:] if k > 1 else t
        return t, n, off, [p for p in pending if rat.dot(n, p) > off]

    faces = [face(t, ips) for t in itertools.combinations(start, k)]
    while (f := next((f for f in faces if f[3]), None)) is not None:
        p = max(f[3], key=lambda q: (rat.dot(f[1], q), q))
        pending = {q for g in faces for q in g[3]} - {p}   # outside the hull but p
        visible, kept = [], []
        for g in faces:
            (visible if rat.dot(g[1], p) > g[2] else kept).append(g)
        ridges = collections.Counter(r for t, _, _, _ in visible
                                     for r in itertools.combinations(sorted(t), k - 1))
        faces = kept + [face(r + (p,), pending) for r, m in ridges.items() if m == 1]
    return tuple(f[:3] for f in faces)


def _normalize_halfspace(n, off, den):
    """The halfspace n . u <= off / den of an integer plane as coprime
    integers (Fractions)."""
    ints = [x * den for x in n] + [off]
    g = math.gcd(*ints)
    return tuple(Fraction(v, g) for v in ints[:-1]), Fraction(ints[-1], g)


def convex_hull(points, scale: int) -> Polytope:
    """Exact convex hull of the rational points points[i] / scale, given as
    integer vectors over one positive denominator (`rational.lift`), of
    affine dimension k <= 3.

    Degenerate inputs return the hull of their affine span, flagged through
    `affine_dim` and carried by the chart (origin, basis).  One Quickhull
    builds the hull of every k >= 1 on integer chart coordinates: the points
    themselves when they span the ambient space, else A^{-1} (x - origin) on
    k independent ambient coordinates, lifted once more.  The hull is the
    same for every lift of the same points.  Every hull vertex is an input
    point, and `faces` holds k vertices per face.
    """
    if not points:
        raise ValueError("convex hull of an empty point set")
    if scale < 1:
        raise ValueError(f"the common denominator must be positive, got {scale}")
    ipts = sorted(set(points))
    ambient = len(ipts[0])
    origin, basis = _affine_frame(ipts)
    k = len(basis)
    if k > 3:
        raise ValueError(f"exact hulls are implemented for affine dimension <= 3; "
                         f"these points span {k}")

    if k == 0:
        p = rat.unlift(ipts[:1], scale)[0]
        return Polytope(ambient, 0, (p,), p, (), (), (), ())

    if k == ambient:
        # the identity chart: the hull is built in ambient coordinates
        us, den = ipts, scale
        origin, basis = tuple(Fraction(0) for _ in origin), rat.identity(ambient)
        solver = (tuple(range(ambient)), basis)
    else:
        # A u = (x - origin)[pivots]; the Fraction basis A / scale has inverse scale A^-1
        pivots = rat.pivot_columns(basis)
        sub_inv = rat.inverse([[b[i] for b in basis] for i in pivots])
        inv, den = rat.lift(sub_inv)
        us = [rat.mat_vec(inv, [p[i] - origin[i] for i in pivots]) for p in ipts]
        origin, = rat.unlift([origin], scale)
        basis = tuple(rat.unlift(basis, scale))
        solver = (tuple(pivots), tuple(rat.vec_scale(scale, r) for r in sub_inv))
    point_of = dict(zip(us, ipts))

    hull = _hull(sorted(us))                   # every face corner is a vertex
    facets = tuple(dict.fromkeys(_normalize_halfspace(n, off, den) for _, n, off in hull))
    chart_vs = set(itertools.chain.from_iterable(t for t, _, _ in hull))
    frac = dict(zip(chart_vs, rat.unlift(chart_vs, den)))
    faces = tuple(tuple(frac[q] for q in t) for t, _, _ in hull)
    vertices = tuple(rat.unlift(sorted(point_of[u] for u in chart_vs), scale))
    return Polytope(ambient, k, vertices, origin, basis, facets, solver, faces)


def hull_volume(P: Polytope) -> Fraction:
    """Exact ambient-dimensional volume (0 for degenerate hulls): the cones
    from the first vertex c over the faces, sum |det(v - c)| / k!."""
    if P.affine_dim < P.ambient_dim:
        return Fraction(0)
    c = P.vertices[0]
    cones = sum(abs(rat.det([rat.vec_sub(v, c) for v in face])) for face in P.faces)
    return Fraction(cones) / math.factorial(P.affine_dim)


def simplex_Y(sys: AffineSystem) -> Polytope:
    """Invariant simplex with vertices 0 and -(R - I)^{-1} l over nonzero l.

    Requires R to be a positive integer multiple of the identity (the only
    shape for which the simplex identity is proven); any other matrix raises
    and the caller should fall back to hulls of deep attractor samples.
    """
    M = sys.R.entries
    d = sys.dim
    c = rat.scalar(M)
    if c is None:
        raise ValueError("simplex construction needs R = c*I; "
                         "use dual_hull(sys, depth) instead")
    if c.denominator != 1 or c < 2:
        raise ValueError("simplex construction needs an integer scale >= 2")
    MmI = tuple(tuple(M[i][j] - (1 if i == j else 0) for j in range(d)) for i in range(d))
    verts = [sys.zero()]
    for l in sys.L:
        if l == sys.zero():
            continue
        verts.append(rat.vec_scale(-1, rat.solve(MmI, l)))
    return convex_hull(*rat.lift(verts))


@dataclass
class InvarianceReport:
    """One (l, vertex, image, inside) row per rho map and vertex; `invariance_check` returns it."""
    rows: list          # (l, vertex, image, inside)

    @property
    def passed(self) -> bool:
        return all(r[-1] for r in self.rows)


def invariance_check(sys: AffineSystem, P: Polytope) -> InvarianceReport:
    """Check rho_l(P) within P exactly for every l: P is convex and rho_l
    affine, so it holds iff every vertex image rho_l(v) = M v + t_l, with M
    and t_l from the rho maps' table, lies in P."""
    M, shift = sys.maps["rho"]
    rows = []
    for l in sys.L:
        for v in P.vertices:
            img = rat.vec_add(rat.mat_vec(M, v), shift[l])
            rows.append((l, v, img, P.contains(img)))
    return InvarianceReport(rows)


def hausdorff_dimension(sys: AffineSystem):
    """ln N / ln r for similitudes R = r * (orthogonal matrix); None otherwise."""
    s = rat.scalar(rat.mat_mul(rat.transpose(sys.R.entries), sys.R.entries))
    if s is None:
        return None
    return math.log(sys.N) / (0.5 * math.log(float(s)))


def dual_hull(sys: AffineSystem, depth: int = 4) -> Polytope:
    """Convex hull of the depth-n rho-side fixed points (the hull Y), built
    from their integer lift once per system and depth (`AffineSystem.once`)
    and shared."""
    def build():
        sample = attractor_points(sys, "rho", depth)
        return convex_hull(sample.lifted, sample.scale)
    return sys.once(("dual_hull", depth), build)


def hull_diameter(points) -> float:
    """Largest distance between two of the exact points, the diameter of
    their hull (pass a hull's vertices), squared exactly before the root."""
    dists, scale = rat.pairwise_sq_distances(points)
    return rat.sqrt_ratio(max(dists, default=0), scale ** 2)
