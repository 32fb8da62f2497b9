"""Reference oracles that several test modules check the package against.

None of this runs in the pipeline: closed forms, |chi_B|^2 with its trig
taken at every point, the exact zero set of a
two-digit measure, |mu_hat|^2 pair by pair, the convolution of two
self-similar measures with its dense completeness sums, word quadrature
atoms, the support side of the attractor, the Lebesgue second fixed point,
the isometric coefficient splitting and the derivative identities of Q1 at
the origin, a system's conjugates and iterates, which carry the same
answers, plus readers of report fields that only tests ask for.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

import fracspec as fs
from fracspec import geometry, rational as rat, spectrum
from fracspec.system import MAX_WORDS, point, probe_rows

LEBESGUE_TERMS = 4000  # terms of the Lebesgue fixed point's series


# ---------------------------------------------------------------------------
# closed forms

def mu2_closed_form(t):
    """e^{i pi t} sin(pi t)/(pi t) with the removable singularity at 0."""
    t = np.asarray(t, dtype=float)
    val = np.exp(1j * np.pi * t) * np.sinc(t)
    return complex(val) if val.ndim == 0 else val


def lebesgue_Q(t):
    """sin^2(pi t)/pi^2 * sum_{n>=0} (t - n)^{-2}, summed directly over
    LEBESGUE_TERMS terms with an integral tail correction; equals the
    completeness sum of the Lebesgue system over the nonnegative integers."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if (t > LEBESGUE_TERMS / 2).any():
        raise ValueError("argument too large for the configured series length")
    n = np.arange(LEBESGUE_TERMS + 1)
    main = (np.sinc(t[:, None] - n[None, :]) ** 2).sum(axis=1)
    tail = (np.sin(np.pi * t) / np.pi) ** 2 / (LEBESGUE_TERMS + 0.5 - t)
    out = main + tail
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ZeroSetPredicate:
    """Zero set {scale^n / (2 offset) * (odd integers) : n >= 0} of the
    transform of a two-digit measure with digits {0, offset} at `scale`."""
    scale: int
    offset: Fraction

    @classmethod
    def of(cls, sys) -> "ZeroSetPredicate":
        """The zero set of a one-dimensional system with an integer scale
        and digits B = {0, b}; ValueError for any other system."""
        zero = sys.zero()
        if (sys.dim != 1 or sys.N != 2 or zero not in sys.B
                or sys.R.entries[0][0].denominator != 1):
            raise ValueError(f"{sys!r} is not a one-dimensional two-digit system "
                             "with an integer scale and 0 in B")
        (b,) = next(d for d in sys.B if d != zero)
        return cls(int(sys.R.entries[0][0]), b)

    def member(self, t) -> bool:
        t = rat.as_fraction(t)
        if t == 0:
            return False
        u = 2 * abs(self.offset) * abs(t)
        base = abs(self.scale)
        while u >= 1:
            if u.denominator == 1 and u.numerator % 2 == 1:
                return True
            u = u / base
        return False

    def orthogonal(self, a, b) -> bool:
        """Exact orthogonality of the exponentials at candidates a and b:
        their difference lies in the zero set (`fs.max_orthogonal_family`'s
        pair test)."""
        return self.member(rat.as_fraction(a) - rat.as_fraction(b))


# ---------------------------------------------------------------------------
# |mu_hat|^2 pair by pair, and the convolution

def sq_levels(measure, depth):
    """The level columns of a `mu_hat_sq_sums` call of `depth`: those of the
    levels k < depth and, when the measure has a closure, its closure
    column of `depth` as one more level."""
    U = measure._level_data(depth)
    if measure._V is None:
        return U
    return np.concatenate([U, measure._closure_data(depth + 1)[depth:]])


def float_sq_sums(measure, T, Lam, starts):
    """`mu_hat_sq_sums` of float rows and points, on the side tables of the
    float points themselves (`_side_tables` at the levels of `sq_levels`,
    the closure included)."""
    T, Lam = probe_rows(T, measure.dim), probe_rows(Lam, measure.dim)
    return measure.mu_hat_sq_sums(
        T, Lam, starts, lambda depth: measure._side_tables(T, Lam, sq_levels(measure, depth)))


def mu_hat_sq_pairs(measure, T, Lam):
    """|mu_hat(t - lambda)|^2 for every row t of T and lambda of Lam, as an
    (m, n) array, with the tail bound of its closed product
    (`sq_tail_bound`): the row sums of `mu_hat_sq_sums` over one column
    group per lambda."""
    return float_sq_sums(measure, T, Lam, range(len(probe_rows(Lam, measure.dim))))


def per_digit_levels(sysm, X, depth):
    """prod_{k < depth} (1/N) sum_b e^{i 2 pi b.R*^{-k} x} at the rows of X,
    shape (..., dim): one complex exponential per digit and level."""
    S = np.array(sysm.R.inverse_transpose, dtype=float)
    B = sysm.b_array()
    vals, Y = np.ones(X.shape[:-1], dtype=complex), X
    for _ in range(depth):
        vals = vals * np.exp(2j * np.pi * (Y @ B.T)).sum(axis=-1) / sysm.N
        Y = Y @ S.T
    return vals


def layer_points(system, depth: int):
    """(d, points) of each spectrum layer d = 0..depth, one at a time from
    the levels of `spectrum.layer_digits`: layer 0 is {0}, layer d >= 1 the
    digit sum of the levels below d - 1 and the nonzero digits of level
    d - 1."""
    levels = spectrum.layer_digits(system, depth)
    yield 0, np.zeros((1, system.dim))
    for d in range(1, depth + 1):
        yield d, spectrum.digit_sum(levels[:d - 1] + [levels[d - 1][1:]], system.dim)


class ConvolvedMeasure:
    """Convolution of two measures: transforms multiply, tail bounds add."""

    def __init__(self, a, b):
        if a.dim != b.dim:
            raise ValueError("convolution needs equal ambient dimensions")
        self.parts = (a, b)
        self.dim = a.dim

    def mu_hat_pairs(self, T, Lam):
        va, ta = self.parts[0].mu_hat_pairs(T, Lam)
        vb, tb = self.parts[1].mu_hat_pairs(T, Lam)
        return va * vb, ta + tb

    def q1_profile(self, system, tpoints, p_depth: int,
                   eps_conv: float | None = None) -> fs.Q1Profile:
        """Completeness layer sums of the convolution over P(L) of
        `system`, dense layer by layer: each layer's |mu_hat_a mu_hat_b|^2
        is the product of the parts' `mu_hat_sq_pairs`, and its tail the sum
        of theirs times the layer's points.  With `eps_conv` set the loop
        stops once every row's increment falls below it, as the package's
        Q1 pass does."""
        T = probe_rows(tpoints, self.dim)
        layers, tail = [], 0.0
        for d, layer in layer_points(system, p_depth):
            (va, ta), (vb, tb) = (mu_hat_sq_pairs(p, T, layer) for p in self.parts)
            layers.append((va * vb).sum(axis=1))
            tail += (ta + tb) * len(layer)
            if eps_conv is not None and d > 0 and (layers[-1] < eps_conv).all():
                break
        return fs.Q1Profile(np.stack(layers, axis=1), tail)

    def completeness_verdict(self, system, grid, eps_conv: float = spectrum.Q1_EPS_CONV):
        """(verdict, profile) of the convolution at the probes `grid`, by the
        verdict rule of `fs.completeness_test` at its default depth cap."""
        prof = self.q1_profile(system, grid, spectrum.q1_depth(system), eps_conv)
        return spectrum._verdict(prof, eps_conv), prof


# ---------------------------------------------------------------------------
# exact symmetries: conjugation and iteration

def conjugate(sysm, A):
    """(A R A^-1, A B, A^-T L) for an invertible rational A: its measure is
    the image of the system's under x -> A x, and its P(L) is A^-T P(L),
    word by word."""
    A = rat.mat(A)
    Ai = rat.inverse(A)
    return fs.make_system(rat.mat_mul(rat.mat_mul(A, sysm.R.entries), Ai),
                          [rat.mat_vec(A, b) for b in sysm.B],
                          [rat.mat_vec(rat.transpose(Ai), l) for l in sysm.L])


@st.composite
def conjugators(draw, dim):
    """An integer A with entries of modulus at most 3 and determinant +-1 or
    +-2: lower unitriangular times diag(+-1, .., +-1 or +-2) times upper
    unitriangular, with entries in -1..1, or that diagonal alone where the
    product has a larger entry."""
    unit = st.integers(-1, 1)
    Lo = [[1 if i == j else draw(unit) if j < i else 0 for j in range(dim)] for i in range(dim)]
    Up = [[1 if i == j else draw(unit) if j > i else 0 for j in range(dim)] for i in range(dim)]
    diag = [draw(st.sampled_from([1, -1])) for _ in range(dim)]
    diag[draw(st.integers(0, dim - 1))] *= draw(st.sampled_from([1, 2]))
    A = rat.mat_mul(rat.mat_mul(Lo, [[diag[i] if i == j else 0 for j in range(dim)]
                                     for i in range(dim)]), Up)
    A = [[int(x) for x in row] for row in A]
    if any(abs(x) > 3 for row in A for x in row):
        A = [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    return A


def iterate(sysm, p: int):
    """(R^p, B_p, L_p) with B_p = sum_{j<p} R^-j B and L_p = sum_{j<p} R*^j
    L: the same measure, and the same P(L), whose depth-d words are the
    system's depth-pd words."""
    def sums(M, digits):
        powers = [rat.identity(sysm.dim)]
        for _ in range(p - 1):
            powers.append(rat.mat_mul(M, powers[-1]))
        return [functools.reduce(rat.vec_add, (rat.mat_vec(P, d) for P, d in zip(powers, word)))
                for word in itertools.product(digits, repeat=p)]
    Rp = functools.reduce(rat.mat_mul, [sysm.R.entries] * p)
    return fs.make_system(Rp, sums(sysm.R.inverse, sysm.B), sums(sysm.R.transpose, sysm.L))


# ---------------------------------------------------------------------------
# the squared mask

def chi_B_sq(sys, T) -> np.ndarray:
    """|chi_B|^2 for an array of frequency vectors, shape (..., dim): the
    bracket of `AffineSystem.mask_table` with one cosine and one sine per
    vector and mask digit, squared.  The independent oracle for the weights
    `transfer.TransferOperator` reads from its axis phase tables."""
    E, w, real, _ = sys.mask_table
    P = 2 * np.pi * (np.asarray(T, dtype=float) @ E.T)
    re = np.cos(P) @ w
    im = np.zeros_like(re) if real else np.sin(P) @ w
    return re * re + im * im


# ---------------------------------------------------------------------------
# quadrature atoms and the support side

def atoms(measure, depth: int) -> np.ndarray:
    """All N^depth depth-d word images of 0 under the sigma maps."""
    if isinstance(measure, ConvolvedMeasure):
        aa, ab = (atoms(p, depth) for p in measure.parts)
        return (aa[:, None, :] + ab[None, :, :]).reshape(-1, measure.dim)
    sys = measure.system
    sys.check_words(depth, 20_000_000, "too many quadrature atoms", "atoms")
    Rinv = np.array(sys.R.inverse, dtype=float)
    bs = sys.b_array()
    a = np.zeros((1, measure.dim))
    for _ in range(depth):
        a = (a @ Rinv.T)[None, :, :] + bs[:, None, :]
        a = a.reshape(-1, measure.dim)
    return a


def support_hull(sys, depth: int = 4) -> fs.Polytope:
    """Convex hull of the depth-n sigma-side fixed points (the support side)."""
    return fs.convex_hull(*rat.lift(fs.attractor_points(sys, "sigma", depth).points))


def support_diameter(measure) -> float:
    if isinstance(measure, ConvolvedMeasure):
        return sum(support_diameter(p) for p in measure.parts)
    return geometry.hull_diameter(support_hull(measure.system).vertices)


def exact_inside(hull: fs.Polytope, X) -> np.ndarray:
    """`Polytope.contains` of each float row of X, read at its exact binary
    value: the exact oracle for float points such as `Polytope.sample`'s."""
    return np.array([hull.contains(tuple(map(Fraction, x)))
                     for x in np.atleast_2d(np.asarray(X, dtype=float)).tolist()])


def beta_sampled_scan(sys, Y: fs.Polytope) -> float:
    """The full scan `transfer._beta_sampled` stands for: max |sin(2 pi
    (b - b').(x - l))| over the unordered pairs {b, b'}, the digits l and
    every point x of Y's vertices and its BETA_SAMPLES mesh, one sine per
    point."""
    pts = np.concatenate([Y.vertex_array(), Y.sample(fs.transfer.BETA_SAMPLES)], axis=0)
    best = 0.0
    bs, ls = sys.b_array(), sys.l_array()
    for i, j in itertools.combinations(range(sys.N), 2):
        d = bs[i] - bs[j]
        for l in ls:
            best = max(best, float(np.abs(np.sin(2 * np.pi * ((pts - l) @ d))).max()))
    return best


# ---------------------------------------------------------------------------
# report fields only tests read

def residual_ratios(result: fs.FixedPointResult) -> np.ndarray:
    r = np.asarray(result.residuals)
    return r[1:] / np.maximum(r[:-1], 1e-300)


def max_diag_defect(report: fs.GramReport) -> float:
    return float(np.abs(np.diag(report.matrix) - 1.0).max())


# ---------------------------------------------------------------------------
# isometric coefficient splitting

def hardy_embedding(sys, coeffs: dict, split_depth: int) -> dict:
    """Partition spectrum-indexed coefficients by their leading digit words.

    Returns {prefix: {reduced_point: coefficient}} where prefix is the tuple
    of the first `split_depth` digits and the reduced point is the remaining
    expansion; the squared-coefficient mass is preserved exactly because the
    digit expansion is unique.

    The words are those of the tau walk that `enumerate_P` reads
    (`AffineSystem.lifted_walk`), trailing zero digits stripped, at the
    smallest depth whose walk reaches every point of `coeffs`, up to
    MAX_WORDS words; a point no word reaches, or one that two stripped words
    reach, has no unique expansion.  The reduced point is read from the same
    walk, at the word's tail padded with zero digits.
    """
    zero = sys.zero()
    keys = {point(lam, sys.dim) for lam in coeffs}
    for depth in itertools.count():
        walk, scale = sys.lifted_walk("tau", depth)
        lifted = {}
        for lam in keys:
            x = [c * scale for c in lam]
            if all(c.denominator == 1 for c in x):
                lifted[tuple(map(int, x))] = lam
        words = {}
        for p, word in zip(walk, itertools.product(sys.L, repeat=depth)):
            if p in lifted:
                words.setdefault(lifted[p], set()).add(spectrum._strip(word, zero))
        if len(words) == len(keys):
            break
        if max(sys.N, 2) ** (depth + 1) > MAX_WORDS:
            missing = min(keys - words.keys())
            raise ValueError(f"{missing} has no digit expansion within {MAX_WORDS} words")
    index = {l: i for i, l in enumerate(sys.L)}
    comps: dict = {}
    for lam, c in coeffs.items():
        found = words[point(lam, sys.dim)]
        if len(found) > 1:
            raise ValueError(f"{lam} has no unique digit expansion: {sorted(found)}")
        (word,) = found
        prefix = (word + (zero,) * split_depth)[:split_depth]
        tail = (word[split_depth:] + (zero,) * depth)[:depth]
        at = functools.reduce(lambda i, l: i * sys.N + index[l], tail, 0)   # product order
        rest = rat.unlift([walk[at]], scale)[0]
        part = comps.setdefault(prefix, {})
        part[rest] = part.get(rest, 0) + c
    return comps


# ---------------------------------------------------------------------------
# derivative identities at the origin

@dataclass
class ProjectionCheck:
    order: int
    fd_value: float
    reference: float

    @property
    def abs_error(self) -> float:
        return abs(self.fd_value - self.reference)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.reference), 1e-30)
        return self.abs_error / scale


def projection_norm_checks(system, n_order: int = 1, p_depth: int = 10,
                           measure=None, quad_depth: int | None = None) -> ProjectionCheck:
    """Match finite differences (step FD_STEP) of the completeness sum at 0
    along the first coordinate axis against the projection-norm identity
    computed by quadrature.  The sum is that of the self-similar measure of
    `system`, or with `measure` a `ConvolvedMeasure`, the convolution's dense
    sum over P(L) of `system`.

    Order 1 checks the vanishing gradient; order 2 checks
    d^2/dt_1^2 = 8 pi^2 (||A x_1||^2 - ||x_1||^2), the coordinate projected
    onto the exponential span (both sides computed by independent routes).

    The quadrature atoms must resolve the largest enumerated frequency or the
    discrete coefficients alias; the default depth leaves a four-level margin
    over `p_depth` where the atom budget allows it.  A convolution's atoms are
    the sums a + b of its parts' atoms, so each coefficient is built from the
    parts' own atom sums by the product rule, without the a + b grid.
    """
    if n_order not in (1, 2):
        raise ValueError("n_order must be 1 or 2")
    parts = (fs.SelfSimilarMeasure(system),) if measure is None else measure.parts
    if quad_depth is None:
        branching = math.prod(p.system.N for p in parts)
        quad_depth = p_depth + 4
        while branching ** quad_depth > 400_000 and quad_depth > 2:
            quad_depth -= 1

    def qval(ts):
        if measure is None:
            return fs.q1_profile(system, ts, p_depth).values()
        return measure.q1_profile(system, ts, p_depth).values()

    h = spectrum.FD_STEP
    dim = system.dim

    def axis_pts(*offsets):
        pts = np.zeros((len(offsets), dim))
        pts[:, 0] = offsets
        return pts if dim > 1 else pts[:, 0]

    if n_order == 1:
        v = qval(axis_pts(h, -h, h / 2, -h / 2))
        d_h = (v[0] - v[1]) / (2 * h)
        d_h2 = (v[2] - v[3]) / h
        fd = (4 * d_h2 - d_h) / 3
        return ProjectionCheck(1, float(fd), 0.0)

    v = qval(axis_pts(h, 0.0, -h, h / 2, -h / 2))
    d_h = (v[0] - 2 * v[1] + v[2]) / h ** 2
    d_h2 = (v[3] - 2 * v[1] + v[4]) / (h / 2) ** 2
    fd = (4 * d_h2 - d_h) / 3

    # E[x_1^2] and the coefficients E[e(-lambda.x) x_1] for x the sum of
    # independent parts: e and f carry E[e(-lambda.x)] and E[e(-lambda.x) x_1]
    part_atoms = [atoms(p, quad_depth) for p in parts]
    mean = x_norm_sq = 0.0
    for a in part_atoms:
        x1 = a[:, 0]
        x_norm_sq += 2 * mean * float(x1.mean()) + float(np.mean(x1 ** 2))
        mean += float(x1.mean())
    proj = 0.0
    lam_chunk = max(1, 8_000_000 // max(len(a) for a in part_atoms))
    for _, layer in layer_points(system, p_depth):
        for start in range(0, len(layer), lam_chunk):
            block = layer[start:start + lam_chunk]
            e, f = 1.0, 0.0
            for a in part_atoms:
                phases = np.exp(-2j * np.pi * (block @ a.T))     # (n, n_atoms)
                pe, pf = phases.mean(axis=1), phases @ a[:, 0] / len(a)
                e, f = e * pe, f * pe + e * pf
            proj += float((np.abs(f) ** 2).sum())
    reference = 8 * math.pi ** 2 * (proj - x_norm_sq)
    return ProjectionCheck(2, float(fd), reference)
