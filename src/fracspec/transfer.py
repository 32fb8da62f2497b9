"""Transfer operator on grid functions over the hull Y, assembled once per
grid, its fixed-point iteration, and the contractivity constants."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry, rational as rat
from .geometry import Chart, Polytope
from .system import AffineSystem

DEFAULT_PAD = 0.05
MIN_RESOLUTION = 8
BETA_SAMPLES = 32     # mesh points per chart axis: at most 32**3 for a 3-D hull
MAX_ITERS = 200        # iterations of C before a fixed-point run gives up
FIXED_POINT_TOL = 1e-8  # sup-norm residual at which a fixed-point run has converged
# Longest grid axis whose interpolation is one (n, n) matrix product a step; a
# longer axis keeps its two-node stencil.  Measured per axis sweep of one
# digit on a 2-vCPU machine, in ms, stencil gathers against the matrix
# product: 3-D grids of n = 24, 64, 101 nodes per axis 0.31 / 0.08, 7.2 / 4.6,
# 20.3 / 21.9; 2-D grids of n = 48, 128, 1024: 0.027 / 0.016, 0.13 / 0.20,
# 20.8 / 99.6.  Every default grid of the transfer command (64, 48 and 24
# nodes per axis in 1, 2 and 3 dimensions) falls under it.
MATRIX_AXIS = 64


# ---------------------------------------------------------------------------
# grid functions over the hull's chart

class GridFunction:
    """Real samples on a uniform rectangular grid in chart coordinates,
    with multilinear interpolation."""

    def __init__(self, axes, values, chart: Chart):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.chart = chart
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("value array does not match the grid axes")
        if any(len(a) < MIN_RESOLUTION for a in self.axes):
            raise ValueError(f"resolution must be >= {MIN_RESOLUTION} per axis")
        # from the whole axis: a[1] - a[0] carries one rounding that a
        # node's stencil position would multiply by its index
        self.spacing = tuple(float(a[-1] - a[0]) / (len(a) - 1) for a in self.axes)

    @property
    def k(self) -> int:
        return len(self.axes)

    def node_params(self) -> np.ndarray:
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def node_points(self) -> np.ndarray:
        return self.chart.ambient(self.node_params())

    def stencil(self, U: np.ndarray) -> tuple:
        """Flat index of the lower corner of the grid cell of each parameter
        row of U, and the per-axis fractions of the row within it, (k, m);
        raises when a row escapes the grid box."""
        U = np.atleast_2d(U)
        base = np.zeros(U.shape[0], dtype=np.intp)
        frac = np.empty((self.k, U.shape[0]))
        for d, axis in enumerate(self.axes):
            lo, h, n = axis[0], self.spacing[d], len(axis)
            s = (U[:, d] - lo) / h
            out = (s < -1e-9) | (s > n - 1 + 1e-9)
            if out.any():
                bad = U[np.argmax(out)]
                raise ValueError(f"interpolation point {self.chart.ambient(bad[None])[0]} "
                                 f"escapes the grid box")
            s = np.clip(s, 0.0, n - 1)
            i = np.minimum(s.astype(np.intp), n - 2)
            base = base * n + i
            frac[d] = s - i
        return base, frac

    def corner_sum(self, values: np.ndarray, base: np.ndarray, frac: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of the node values over a `stencil`: a
        corner's weight is the product of its axis factors in axis order,
        and its values are a gather at `base` from the node array shifted by
        the corner's flat offset."""
        flat = values.ravel()
        rest = 1.0 - frac
        out = np.zeros(base.shape[0])
        for corner in itertools.product((0, 1), repeat=self.k):
            w, offset = 1.0, 0
            for d in range(self.k):
                w = w * (frac[d] if corner[d] else rest[d])
                offset = offset * len(self.axes[d]) + corner[d]
            out += w * flat[offset:].take(base)
        return out

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.axes, values, self.chart)

    def value_at_zero(self) -> float:
        """Q(0), read at the node whose chart parameters are the origin's:
        `grid_frame` builds each axis as u0 + h k, so its node at k = 0 is
        exactly u0.  A grid without that node is refused."""
        u0 = self.chart.param(np.zeros((1, len(self.chart.origin))))[0]
        at = [np.flatnonzero(a == u) for a, u in zip(self.axes, u0)]
        if not all(i.size for i in at):
            raise ValueError("the origin is not a node of the grid, so Q0(0) cannot be read")
        return float(self.values[tuple(i[0] for i in at)])

    def quadratic_bump(self) -> "GridFunction":
        """1 + |u - u0|^2 / 2, with u0 the chart parameter of the ambient origin."""
        u0 = self.chart.param(np.zeros((1, len(self.chart.origin))))[0]
        pts = self.node_params()
        with np.errstate(over="ignore"):      # refused as a start by iterate_fixed_point
            vals = 1.0 + 0.5 * ((pts - u0) ** 2).sum(axis=1)
        return self.with_values(vals.reshape(self.values.shape))


def grid_frame(sys: AffineSystem, resolution: int) -> GridFunction:
    """Constant-1 grid over the (padded) bounding box of the hull
    `dual_hull(sys)`, in the hull's chart, with the origin snapped onto
    the node lattice and the box grown until every rho_l image of it stays
    inside."""
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    hull = geometry.dual_hull(sys)
    if hull.affine_dim == 0:
        where = ", ".join(rat.format_fraction(c) for c in hull.vertices[0])
        raise ValueError(f"the hull Y is the single point ({where}); the transfer "
                         f"operator needs a hull of dimension >= 1 to grid")
    if resolution ** hull.affine_dim > geometry.MAX_MESH_POINTS:
        raise ValueError(f"a grid of {resolution}^{hull.affine_dim} nodes exceeds the cap "
                         f"of {geometry.MAX_MESH_POINTS}")
    chart = hull.chart
    vertices_u = chart.param(hull.vertex_array())
    u0 = chart.param(np.zeros((1, sys.dim)))[0]

    S = np.array(sys.R.inverse_transpose, dtype=float)
    pad = DEFAULT_PAD
    Ls = sys.l_array()
    for attempt in range(6):
        axes = []
        for d in range(chart.k):
            lo = vertices_u[:, d].min()
            hi = vertices_u[:, d].max()
            width = max(hi - lo, 1e-9)
            lo -= pad * width
            hi += pad * width
            # lattice through the parameter image of the ambient origin
            h = (hi - lo) / (resolution - 2)
            i_lo = math.floor((lo - u0[d]) / h)
            axes.append(u0[d] + h * (i_lo + np.arange(resolution)))
        frame = GridFunction(axes, np.ones([resolution] * chart.k), chart)
        corners_u = np.array(list(itertools.product(*[(a[0], a[-1]) for a in axes])))
        corners = chart.ambient(corners_u)
        images = np.concatenate([(corners - l) @ S.T for l in Ls], axis=0)
        try:
            U = chart.param(images)
        except ValueError:
            raise ValueError("the rho_l images leave the hull's carrying subspace; "
                             "this system has no invariant grid chart")
        ok = all((U[:, d] >= axes[d][0] - 1e-12).all() and
                 (U[:, d] <= axes[d][-1] + 1e-12).all() for d in range(chart.k))
        if ok:
            return frame
        pad *= 1.7
    raise ValueError("could not find a self-mapped grid box for this system")


# ---------------------------------------------------------------------------
# the operator and its iteration

class TransferOperator:
    """C assembled on one grid: (Cv)(t) = sum_l |chi_B(t - l)|^2 v(R*^{-1}(t - l))
    at the grid nodes t.  Per digit l it keeps the weights at the nodes, from
    one phase table per grid axis (`_digit_weights`), and the interpolation
    of R*^{-1}(t - l), in a form decided once from the matrix M of R*^{-1} in
    the grid's chart:

    - `factored`: when M is diagonal (always for k = 1, and on every catalog
      system), R*^{-1} maps each grid axis into itself, and axis d keeps the
      two-node interpolation of the line of nodes along it through the first
      node.  An axis of at most MATRIX_AXIS nodes keeps it as one (n_d, n_d)
      matrix, row i holding 1 - f at the lower node and f at the upper one,
      and a step applies the axis as one matrix product; a longer axis keeps
      the stencil, lower and upper node indices, (n_d,), and weights 1 - f
      and f shaped to broadcast along d, so memory stays linear in its length;
    - `gathered`: otherwise (a sheared R, say), the stencil's base indices and
      fractions, so each application is a gather over the cell corners.

    Either way a step ends in a multiply-add over node value arrays."""

    def __init__(self, sys: AffineSystem, frame: GridFunction):
        self.frame = frame
        self.factored, self.gathered = [], []
        chart, shape, k = frame.chart, frame.values.shape, frame.k
        S = np.array(sys.R.inverse_transpose, dtype=float)
        M = chart.param(chart.ambient(np.eye(k)) @ S.T) - chart.param(chart.origin @ S.T)
        if M[~np.eye(k, dtype=bool)].any():
            nodes = frame.node_points()
            self.gathered = [(w.ravel(), *frame.stencil(chart.param((nodes - l) @ S.T)))
                             for l, w in zip(sys.l_array(), _digit_weights(sys, frame))]
            return
        # the axis lines in one stencil call: its escape check meets them in grid order
        first = [a[0] for a in frame.axes]
        lines = chart.ambient(np.concatenate(
            [np.where(np.arange(k) == d, a[:, None], first) for d, a in enumerate(frame.axes)]))
        rows = [slice(end - n, end) for n, end in zip(shape, np.cumsum(shape))]
        for l, w in zip(sys.l_array(), _digit_weights(sys, frame)):
            base, frac = frame.stencil(chart.param((lines - l) @ S.T))
            cells = np.unravel_index(base, shape)
            self.factored.append((w, [_axis_step(cells[d][r], frac[d, r], d, k)
                                      for d, r in enumerate(rows)]))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        shape = values.shape
        total = np.zeros(shape)
        for w, axes in self.factored:
            y = values
            for d, step in enumerate(axes):
                if isinstance(step, np.ndarray):
                    n = shape[d]
                    if d == len(shape) - 1:
                        y = y.reshape(-1, n) @ step.T
                    else:
                        y = step @ y.reshape(math.prod(shape[:d]), n, -1)
                    y = y.reshape(shape)
                    continue
                lower, upper, rest, f = step
                y, hi = y.take(lower, axis=d), y.take(upper, axis=d)
                y *= rest                # in place: both gathers are new arrays
                hi *= f
                y += hi
            y *= w                       # in place: every axis leaves a new array
            total += y
        flat = total.reshape(-1)
        for w, base, frac in self.gathered:
            flat += w * self.frame.corner_sum(values, base, frac)
        return total


def _axis_step(lower: np.ndarray, f: np.ndarray, d: int, k: int):
    """The two-node interpolation along axis d of a k-axis grid, from the
    lower node index and the fraction f of each node's image: an (n, n)
    matrix up to MATRIX_AXIS nodes, (lower, upper, 1 - f, f) above, with the
    weights shaped to broadcast along d."""
    n = len(lower)
    if n <= MATRIX_AXIS:
        A, i = np.zeros((n, n)), np.arange(n)
        A[i, lower] = 1.0 - f
        A[i, lower + 1] = f
        return A
    f = f.reshape([-1 if e == d else 1 for e in range(k)])
    return lower, lower + 1, 1.0 - f, f


def _digit_weights(sys: AffineSystem, frame: GridFunction) -> list:
    """|chi_B(t - l)|^2 at the grid nodes t, one array of the grid's shape
    per digit l.  The nodes form the tensor grid t = o + sum_d u_d b_d of the
    chart, so each term e^{i 2 pi e.(t - l)} of the bracket of
    `AffineSystem.mask_table` is e^{i 2 pi e.(o - l)} prod_d
    e^{i 2 pi u_d (e.b_d)}, read from one phase table per axis.  The bracket
    is summed one mask digit e at a time into one complex node array, and
    squared only then: its real part for a real table, its modulus
    otherwise."""
    E, wj, real, _ = sys.mask_table
    chart = frame.chart
    tables = [np.exp(2j * np.pi * np.multiply.outer(E @ b, a))
              for b, a in zip(chart.basis, frame.axes)]
    out = []
    for offsets in wj * np.exp(2j * np.pi * ((chart.origin - sys.l_array()) @ E.T)):
        bracket = np.zeros(frame.values.shape, dtype=complex)
        for j, c in enumerate(offsets):
            term = c * tables[0][j]
            for table in tables[1:]:
                term = np.multiply.outer(term, table[j])
            bracket += term
        re = bracket.real
        out.append(re * re if real else re * re + bracket.imag * bracket.imag)
    return out


def apply_C(sys: AffineSystem, Q: GridFunction) -> GridFunction:
    """(CQ)(t) = sum_l |chi_B(t - l)|^2 Q(R*^{-1}(t - l)) at the grid nodes."""
    return Q.with_values(TransferOperator(sys, Q)(Q.values))


@dataclass
class FixedPointResult:
    """The last iterate of C and its residuals; `iterate_fixed_point` returns it."""
    final: GridFunction
    residuals: list
    converged: bool
    diverged: bool


def iterate_fixed_point(sys: AffineSystem, Q0: GridFunction,
                        max_iters: int = MAX_ITERS,
                        tol: float = FIXED_POINT_TOL) -> FixedPointResult:
    """Iterate C, assembled once on Q0's grid, from Q0 (normalized to
    Q0(0) = 1), recording sup-norm residuals.

    Residual growth over ten consecutive iterations flags divergence without
    raising; convergent runs stop once the residual drops below `tol`.  A Q0
    with a value that is not finite is refused.
    """
    if abs(Q0.value_at_zero() - 1.0) > 1e-8:
        raise ValueError("Q0 must be normalized to Q0(0) = 1")
    if not np.isfinite(Q0.values).all():
        raise ValueError("the transfer start Q0 leaves the floating-point range on its grid")
    C = TransferOperator(sys, Q0)
    values = Q0.values
    residuals = []
    growth = 0
    diverged = False
    for _ in range(max_iters):
        new = C(values)
        r = float(np.abs(new - values).max())
        residuals.append(r)
        values = new
        if len(residuals) >= 2 and r > residuals[-2]:
            growth += 1
            if growth >= 10:
                diverged = True
                break
        else:
            growth = 0
        if r < tol:
            break
    converged = bool(residuals and residuals[-1] < tol)
    return FixedPointResult(Q0.with_values(values), residuals, converged, diverged)


# ---------------------------------------------------------------------------
# contractivity constants

def gamma_1d(R: int) -> float:
    """Contractivity constant of the two-digit family: depends only on the
    integer scale, with the sup of |sin| over the invariant interval saturating
    to 1 at |R| = 2."""
    if int(R) != R or abs(R) <= 1:
        raise ValueError("the scale must be an integer with |R| >= 2")
    R = int(R)
    a = abs(R)
    if R > 0:
        s = 1.0 if a == 2 else math.sin(math.pi / (a - 1))
    else:
        s = abs(math.sin(math.pi / (R * R - 1)))
    return (math.pi / (2 * a)) * s + 1.0 / a


def gamma_eiffel(r: int) -> float:
    """Gradient-norm operator bound (1/r)(1 + 3 pi/(2(r-1)^3) sin(pi/(r-1)))
    of the tower family; the sin factor saturates to 1 at r = 2."""
    if int(r) != r or r < 2:
        raise ValueError("r must be an integer >= 2")
    r = int(r)
    s = 1.0 if r == 2 else math.sin(math.pi / (r - 1))
    return (1.0 / r) * (1.0 + 3.0 * math.pi / (2.0 * (r - 1) ** 3) * s)


def _sin_sup_on_interval(qmin: Fraction, qmax: Fraction) -> float:
    """sup |sin(2 pi q)| over q in [qmin, qmax], exact peak detection."""
    lo = 2 * qmin - Fraction(1, 2)
    hi = 2 * qmax - Fraction(1, 2)
    if math.floor(hi) >= math.ceil(lo):       # contains 1/4 + k/2
        return 1.0
    return max(abs(math.sin(2 * math.pi * float(qmin))),
               abs(math.sin(2 * math.pi * float(qmax))))


@dataclass(frozen=True)
class BetaResult:
    """beta, diam(B) and the sampled cross-check's agreement; `beta_constant` returns it."""
    beta: float
    diam_B: float
    sample_agrees: bool          # exact vs sampled within 1%


def beta_constant(sys: AffineSystem, Y: Polytope) -> BetaResult:
    """2 pi diam(B) max_{b,b',l} ||sin(2 pi (b-b')(. - l))||_{inf, Y}.

    The sin argument is linear over the polytope, so its range is pinned by
    the vertices exactly and the sup has a closed form on that interval; a
    sampled maximization cross-checks the value.  Both visit each unordered
    pair {b, b'} once: (b', b) negates the argument, and |sin| and the peaks
    of |sin 2 pi q| are symmetric under q -> -q, so it gives the same value
    bit for bit.  The extremes are taken on the integer lifts of B, of Y's
    vertices and of L: (b - b').(v - l) is (b - b').v less (b - b').l, and
    only the first term moves with v, so one scan of the vertices per pair
    serves every l.
    """
    diam_B = geometry.hull_diameter(sys.B)
    Bi, sb = rat.lift(sys.B)
    VL, sv = rat.lift(Y.vertices + sys.L)
    Vi, Li = VL[:len(Y.vertices)], VL[len(Y.vertices):]
    den = sb * sv
    sin_sup = 0.0
    for bi, bj in itertools.combinations(Bi, 2):
        d = tuple(map(operator.sub, bi, bj))
        proj = [rat.dot(d, v) for v in Vi]
        lo, hi = min(proj), max(proj)
        for l in Li:
            c = rat.dot(d, l)
            sin_sup = max(sin_sup, _sin_sup_on_interval(Fraction(lo - c, den),
                                                        Fraction(hi - c, den)))
    beta = 2 * math.pi * diam_B * sin_sup

    sampled = _beta_sampled(sys, Y)
    agrees = sampled <= sin_sup * (1 + 1e-9) and sampled >= sin_sup - 0.01 * max(sin_sup, 1e-12)
    return BetaResult(beta, diam_B, agrees)


def _beta_sampled(sys: AffineSystem, Y: Polytope):
    """max |sin(2 pi (b - b').(x - l))| over the unordered pairs {b, b'},
    the digits l and the points x of Y's vertices and its BETA_SAMPLES mesh.

    With q = (b - b').x and c = (b - b').l, |sin 2 pi (q - c)| = |cos pi x'|
    for x' = 2 (q - c) - 1/2, which falls as x' moves away from the nearest
    integer.  So the mesh is projected once per pair, and for each l the
    sine is evaluated once, at the point whose x' lies nearest an integer:
    the maximum of the full scan, one sine per (pair, digit) instead of one
    per mesh point."""
    pts = np.concatenate([Y.vertex_array(), Y.sample(BETA_SAMPLES)], axis=0)

    best = 0.0
    bs = sys.b_array()
    ls = sys.l_array()
    for i, j in itertools.combinations(range(sys.N), 2):
        d = bs[i] - bs[j]
        q2 = 2 * (pts @ d)
        at = []
        for c in ls @ d:
            x = q2 - (2 * c + 0.5)
            x -= np.rint(x)
            at.append(np.abs(x, out=x).argmin())
        # the full scan's argument at each chosen point, one sine per digit
        args = (pts[at] - ls) @ d
        best = max(best, float(np.abs(np.sin(2 * np.pi * args)).max()))
    return best


@dataclass(frozen=True)
class ContractivityReport:
    """The transfer operator's contractivity constants on Y; `gamma_supnorm` returns it."""
    beta: float
    gamma_sup: float
    gamma_L1: float
    gamma_L1_sharp: float
    sharp_valid: bool
    norms: dict
    beta_sample_agrees: bool
    gamma_L1_detfree: float | None      # mixed-norm diagnostic, see gamma_supnorm

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "gamma_sup": self.gamma_sup,
            "gamma_L1": self.gamma_L1,
            "gamma_L1_sharp": self.gamma_L1_sharp,
            "sharp_valid": self.sharp_valid,
            "gamma_L1_detfree": self.gamma_L1_detfree,
            "norms": dict(self.norms),
            "beta_sample_agrees": self.beta_sample_agrees,
        }


def overlaps_measure_zero(sys: AffineSystem, Y: Polytope) -> bool:
    """True when Y and Y - l have interiors that miss each other for every
    nonzero l.  For convex Y the interiors meet iff l lies in the interior of
    the difference body Y - Y, so this is an exact decision (and True when Y
    has no interior)."""
    vs, scale = rat.lift(Y.vertices)
    D = geometry.convex_hull([tuple(map(operator.sub, v, w)) for v in vs for w in vs], scale)
    return not any(D.contains(l, strict=True) for l in sys.L if any(l))


def gamma_supnorm(sys: AffineSystem) -> ContractivityReport:
    """All contractivity constants of the transfer operator on the hull
    Y = `geometry.dual_hull(sys)`, computed once per system
    (`AffineSystem.once`) and shared.

    `gamma_L1_detfree` is the determinant-free diagnostic
    N vol(Y) [(1 - 1/N) beta ||R^{-1}||_op max|l| + N ||R^{-1}||_hs]: it bounds
    the integral gradient norm of CQ by the supremum gradient norm over the
    union of the rho_l images, so it compares mixed norms and certifies
    nothing by itself; None when Y is degenerate.
    """
    return sys.once("gamma_supnorm", lambda: _contractivity(sys, geometry.dual_hull(sys)))


def _contractivity(sys: AffineSystem, Y: Polytope) -> ContractivityReport:
    beta_res = beta_constant(sys, Y)
    Rinv = np.array(sys.R.inverse, dtype=float)
    op = float(np.linalg.norm(Rinv, 2))
    hs = float(np.linalg.norm(Rinv, "fro"))
    det_abs = abs(float(sys.R.det))
    lvecs, scale = rat.lift(sys.L)
    max_l = rat.sqrt_ratio(max(rat.dot(l, l) for l in lvecs), scale ** 2)
    N = sys.N
    first = beta_res.beta * op * max_l
    bracket = (1 - 1 / N) * first + N * hs
    gamma_sup = (N - 1) ** 2 / N * first + hs
    gamma_l1 = det_abs * bracket
    gamma_l1_sharp = det_abs * ((1 - 1 / N) * first + hs)
    sharp_ok = overlaps_measure_zero(sys, Y)
    vol = geometry.hull_volume(Y)
    detfree = float(N * vol * bracket) if vol > 0 else None
    norms = {
        "op_norm_Rinv": op,
        "hs_norm_Rinv": hs,
        "abs_det_R": det_abs,
        "max_l_norm": max_l,
        "diam_B": beta_res.diam_B,
        "det_times_hs": det_abs * hs,
    }
    return ContractivityReport(beta_res.beta, gamma_sup, gamma_l1,
                               gamma_l1_sharp, sharp_ok, norms, beta_res.sample_agrees, detfree)
