"""Candidate spectra P(L): enumeration, Gram matrices, completeness partial
sums, maximal orthogonal families."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, rational as rat
from .measure import STACK_ENTRIES, DigitPhases, SelfSimilarMeasure, extend_levels
from .system import AffineSystem, probe_rows

MAX_FLOAT_POINTS = 6_000_000
Q1_DEPTH_CAP = 14
Q1_POINT_BUDGET = 300_000   # spectrum points enumerated at the default Q1 depth
Q1_EPS_CONV = 1e-6
EPS_PASS = 0.02
EPS_FAIL = 0.05
# (t, lambda) pairs of one kernel call in a Q1 pass: it bounds the call's
# side tables and its rows t - eta (the kernel streams its row sums, so no
# call holds an array of its pairs)
Q1_SCRATCH = 6_000_000
# (t, lambda) pairs of the leading Q1 layers' one kernel call and of a whole
# later layer: `_brackets` takes 32 table rows of such a call in one stacked
# product, which is 32 levels, or 64 levels of a two-digit system (two a row)
Q1_RUN_PAIRS = STACK_ENTRIES // 32
FD_STEP = 1e-3              # step of the gradient stencil at the origin


# ---------------------------------------------------------------------------
# enumeration

@dataclass(frozen=True)
class SpectrumEnumeration:
    """All depth-n spectrum points with their digit words.

    `points` holds (point, word) pairs sorted lexicographically by coordinates;
    words are digit tuples with trailing zero digits stripped.
    """
    points: tuple
    collision_count: int

    def coords(self) -> tuple:
        return tuple(p for p, _ in self.points)


def enumerate_P(sys: AffineSystem, depth: int) -> SpectrumEnumeration:
    """Exact expansion of all N^depth words l_0 + R* l_1 + ... + R*^{d-1} l_{d-1},
    the tau side of `AffineSystem.lifted_walk` (capped at MAX_WORDS words); a
    point reached by several words keeps the first.  Points are deduplicated
    and sorted on the integer lift (one positive denominator keeps the order)
    and only the distinct ones turned back into Fractions."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    walk, scale = sys.lifted_walk("tau", depth)
    seen = {}
    for lam, word in zip(walk, itertools.product(sys.L, repeat=depth)):
        seen.setdefault(lam, word)
    lifted = sorted(seen)
    zero = sys.zero()
    cleaned = zip(rat.unlift(lifted, scale), (_strip(seen[lam], zero) for lam in lifted))
    return SpectrumEnumeration(tuple(cleaned), sys.N ** depth - len(seen))


def _strip(word, zero):
    k = len(word)
    while k and word[k - 1] == zero:
        k -= 1
    return word[:k]


def layer_digits(sys: AffineSystem, depth: int) -> list:
    """The float digit levels R*^k L of the spectrum, k < depth, each an
    (N, dim) array with 0 first.

    Layer d >= 1 of P(L), the points whose last nonzero digit is the d-th,
    is the Minkowski sum (`digit_sum`) of the levels below d - 1 and the
    nonzero digits of level d - 1; layer 0 is {0}.  So the digit sum of the
    levels below j holds the layers 0..j in order, layer d >= 1 at the
    indices N^(d-1) to N^d.  A system without 0 in L, whose layers are
    another set than P(L), a depth whose N^depth points exceed
    MAX_FLOAT_POINTS, or one whose points leave the floating-point range,
    is refused.
    """
    if all(map(any, sys.L)):
        raise ValueError("the Q1 layers need 0 in L (zero_in_L): without it they are not P(L)")
    sys.check_words(depth, MAX_FLOAT_POINTS, "spectrum layer exceeds the point cap", "points")
    R = np.array(sys.R.entries, dtype=float)
    Ls = np.array(_zero_first(sys), dtype=float).reshape(sys.N, sys.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        # the levels R*^k l, k < depth, by the recurrence of the kernel's levels
        levels = np.swapaxes(extend_levels(R, Ls.T[None], depth), 1, 2)
        # a point of layer d sums one point of each level k < d, so the sum
        # of their largest coordinates bounds its own; the sums only grow,
        # so the last is finite when every one is
        bound = np.cumsum(np.abs(levels).max(axis=(1, 2)))
    if not math.isfinite(bound[-1]):
        raise ValueError(f"spectrum layer {np.isfinite(bound).argmin() + 1} of depth {depth} "
                         "leaves the floating-point range")
    return list(levels)


def _zero_first(sys: AffineSystem) -> list:
    """The digits of L with 0 first and the others in their order, the order
    of every level of `layer_digits` (and of `measure._exact_residues`)."""
    return sorted(sys.L, key=any)


def digit_sum(sets, dim: int) -> np.ndarray:
    """Minkowski sum of digit sets as an (n, dim) array, the last set slowest:
    the first set itself when it is the only one, the origin for none."""
    if not sets:
        return np.zeros((1, dim))
    pts = sets[0]
    for s in sets[1:]:
        pts = (s[:, None, :] + pts[None, :, :]).reshape(-1, dim)
    return pts


def uniform_discreteness(enum: SpectrumEnumeration) -> float:
    """Exact minimum pairwise distance of the enumerated points."""
    if enum.collision_count:
        raise ValueError("enumeration has collisions; separation is zero")
    dists, scale = rat.pairwise_sq_distances(enum.coords())
    gap = min(dists, default=None)
    return math.inf if gap is None else rat.sqrt_ratio(gap, scale ** 2)


# ---------------------------------------------------------------------------
# Gram matrices

@dataclass
class GramReport:
    """Gram matrix of exponentials on given points, with its bounds; `gram_matrix` returns it."""
    matrix: np.ndarray
    moduli: np.ndarray            # |matrix| by np.hypot, as abs() rounds one entry
    tail_bound: float
    max_offdiag: float
    worst_pair: tuple             # two of the points as given, each a tuple


def check_gram_count(count: int) -> None:
    """Refuse a Gram matrix of more than geometry.MAX_MESH_POINTS entries."""
    if count ** 2 > geometry.MAX_MESH_POINTS:
        raise ValueError(f"a Gram matrix of {count} points exceeds the cap of "
                         f"{geometry.MAX_MESH_POINTS} entries")


def gram_matrix(system: AffineSystem, points) -> GramReport:
    """Inner products of exponentials in L^2 of the self-similar measure of
    `system`: entry (i, j) is the transform at lambda_j - lambda_i, the
    transpose of `mu_hat_pairs` of the points against themselves.  The
    points are compared as given (exactly, for Fractions) and turned into
    floats only as the kernel's input.  `worst_pair` is the first pair in
    row-major order whose off-diagonal modulus is within the Gram's own
    tail bound (at least 1e-12) of the largest: moduli that close are tied,
    as true ties such as triadic's |mu_hat(1.5)| = |mu_hat(4.5)| are."""
    pts = [tuple(np.atleast_1d(p).tolist()) for p in points]
    check_gram_count(len(pts))
    if len(set(pts)) != len(pts):
        raise ValueError("Gram points must be pairwise distinct")
    arr = np.array(pts, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"Gram point {np.isfinite(arr).all(axis=1).argmin()} is not finite")
    vals, tail = SelfSimilarMeasure(system).mu_hat_pairs(arr, arr)
    G = vals.T
    moduli = np.hypot(G.real, G.imag)
    off = moduli.copy()
    np.fill_diagonal(off, 0.0)
    top = float(off.max())
    # argmax of the flat mask is its first True: no index array of every tie
    i, j = divmod(int(np.argmax(off >= top - max(tail, 1e-12))), len(pts))
    return GramReport(G, moduli, tail, top, (pts[i], pts[j]))


# ---------------------------------------------------------------------------
# completeness partial sums

@dataclass
class Q1Profile:
    """Per-layer sums of sum_{lambda} |mu_hat(t - lambda)|^2, mu the
    self-similar measure of a system and lambda over its P(L): `layers[i, d]`
    is the sum over the depth-d layer of P(L) at probe point i, d = 0..depth.

    `fourier_tail` bounds, for every point, how far the closed transform
    products can move the last partial sum: each |mu_hat(t - lambda)|^2 is a
    product of factors a_k = |chi_B(R*^{-k}(t - lambda))|^2 in [0, 1], and
    its kernel call keeps those of the levels k < d and closes them with one
    bracket that stands for the levels k >= d, which puts it within the
    `SelfSimilarMeasure.sq_tail_bound` of that call of the exact value.  The
    budget is two-sided: a closed value may sit on either side of the exact
    one.  The tail is that bound times the call's pairs in the kept layers,
    summed over every call.
    """
    layers: np.ndarray            # shape (m, depth + 1)
    fourier_tail: float

    @property
    def depth(self) -> int:
        return self.layers.shape[1] - 1

    def values(self) -> np.ndarray:
        return np.cumsum(self.layers, axis=1)[:, -1]

    def last_increments(self) -> np.ndarray:
        return self.layers[:, -1]


def _q1_pass(system: AffineSystem, T: np.ndarray, p_depth: int,
             eps_conv: float | None, watch: int) -> Q1Profile:
    """Accumulate the partial sums of every row of T layer by layer, against
    the self-similar measure of `system` over its P(L).

    With `eps_conv` set, the layer loop stops once the increment of each of
    the first `watch` rows falls below it (partial sums are monotone, so
    later layers only add nonnegative mass); the other rows ride along.
    The stop is decided layer by layer, also among the leading layers
    (below), and drops the layers past it with their tail.  A row of T that
    is not finite is refused: its distance would set the truncation depth
    of every row of its kernel calls.

    Every call goes to `SelfSimilarMeasure.mu_hat_sq_sums`, which returns
    the row sums of |mu_hat(t - lambda)|^2 over column groups and never the
    pair values.  The leading layers, layer 0 and those after it whose
    m n pairs add up to at most Q1_RUN_PAIRS, go to the kernel in one call
    on the digit sum of their levels (`layer_digits`), one column group per
    layer, so each is closed at that call's adaptive depth, never
    shallower than its own, and within that call's tail of the exact
    values.  Every later layer is a call of its own, since a layer
    holds at least as many points as all the layers before it (N^{d-1}
    (N - 1) against N^{d-1}; with N = 1 the layers past 0 are empty).  A
    later layer of n points is the sum P_h + H of its first h digit sets
    (the low part) and the rest (the high part), so t - lambda runs over
    the rows t - eta, eta in H, against the points of P_h: the same pairs,
    and each row's one sum over P_h added up over eta.  With m n <=
    Q1_RUN_PAIRS every digit set is low (H = {0}); otherwise h is the
    largest with |P_h|^2 <= m n, balancing the two sides, and with
    m |P_h| <= Q1_SCRATCH.  H is chunked so that no call has more than
    Q1_SCRATCH pairs.

    The pass has one phase table (`DigitPhases`), which gives every call
    its side tables at the exact digit phases of its points: the kernel's
    cos and sin are taken once per probe row, once per eta and once per
    point of the largest low set, whose first N^h points are every other
    low set and the leading call's points, all at angles in [-pi, pi];
    the rows t - eta are products of the probe and eta tables.  The float
    points still decide each call's depth and tail.
    """
    m, dim = T.shape
    cap = Q1_SCRATCH // 1024          # so that a call has room for 1024 spectrum points a row
    if m > cap:
        raise ValueError(f"a Q1 pass over {m} rows exceeds its cap of {cap} rows")
    if p_depth < 1:
        # a profile's values and last increments need one layer past 0
        raise ValueError(f"a Q1 pass needs p_depth >= 1, got {p_depth}")
    if not np.isfinite(T).all():
        raise ValueError(f"Q1 probe row {np.isfinite(T).all(axis=1).argmin()} is not finite")
    layer_sums, tail = [], 0.0
    for inc, layer_tail in _layer_increments(system, T, p_depth):
        layer_sums.append(inc)
        tail += layer_tail
        if eps_conv is not None and len(layer_sums) > 1 and (inc[:watch] < eps_conv).all():
            break
    return Q1Profile(np.stack(layer_sums, axis=1), tail)


def _layer_increments(system: AffineSystem, T: np.ndarray, p_depth: int):
    """Yield each layer's increment of every row of T, d = 0..p_depth, with
    its Fourier tail per row (each call's bound times the layer's points in
    it): the k leading layers in one call on the N^(k-1) points of the
    levels below k - 1, one column group per layer, and each later layer in
    its own.

    The points are digit sums of the levels tagged with their digit
    columns (`DigitPhases.tagged`): their float coordinates decide each
    call's depth, and their digits give its side tables at exact phases.
    Each digit sum is carried on from the one before rather than redone:
    the low sets are the first N^h points of one sum of the levels from 0
    (and a whole layer's low set is its block in that sum), and the high
    sets of the layers that split at the same h share the sum of their
    full levels."""
    m, dim = T.shape
    N = system.N
    measure = SelfSimilarMeasure(system)
    phases = DigitPhases(measure, T, layer_digits(system, p_depth))
    tagged, width = phases.tagged, phases.tagged[0].shape[1]
    origin = np.zeros((1, width))
    first, below = origin, 0            # the sum of the levels below `below`
    run = (0, 0, origin)                # (h, j, the sum of the levels h..j-1)

    # a sum carried on from an earlier one is the digit sum with that sum
    # as its first set, the same additions after one of 0
    def low_points(H):
        nonlocal first, below
        if H > below:
            first, below = digit_sum([first] + tagged[below:H], width), H
        return first[:N ** H]

    def high_points(h, d):
        nonlocal run
        h0, j, pts = run
        if h0 != h or j > d - 1:
            j, pts = h, origin
        run = (h, d - 1, digit_sum([pts] + tagged[j:d - 1], width))
        return digit_sum([run[2], tagged[d - 1][1:]], width)

    k = 1                               # layer 0, one point, always leads
    while k <= p_depth and m * N ** k <= Q1_RUN_PAIRS:
        k += 1
    ends = [N ** j for j in range(k)]   # layer g is the block ends[g - 1]..ends[g]
    starts = [0] + ends[:-1]
    lead = low_points(k - 1)
    sums, lead_tail = measure.mu_hat_sq_sums(
        T, lead[:, :dim], starts, functools.partial(phases.tables, None, lead[:, dim:], True))
    for g, (a, b) in enumerate(zip(starts, ends)):
        yield sums[:, g], lead_tail * (b - a)
    # in one dimension a later layer's rows t - eta are their two extremes,
    # from those of the probe rows (`_extreme_rows`)
    extremes = (T.min(), T.max()) if dim == 1 and k <= p_depth else None
    for d in range(k, p_depth + 1):
        n = N ** (d - 1) * (N - 1)
        h, low_n = 0, 1
        while h < d:
            grown = low_n * (N if h < d - 1 else N - 1)
            if m * n > Q1_RUN_PAIRS and (grown ** 2 > m * n or m * grown > Q1_SCRATCH):
                break
            h, low_n = h + 1, grown
        # the low digits are the levels below h, or the whole layer: its
        # block in the sum of the levels below d, which the pass's low table
        # does not hold
        shared = h < d
        low = low_points(h) if shared else low_points(d)[N ** (d - 1):]
        high = high_points(h, d) if shared else origin
        chunk = Q1_SCRATCH // max(m * low_n, 1)
        inc, tail = np.zeros(m), 0.0
        for start in range(0, len(high), chunk):
            eta = high[start:start + chunk]
            rows = (T[:, None, :] - eta[None, :, :dim]).reshape(-1, dim) if extremes is None \
                else _extreme_rows(*extremes, eta[:, :dim])
            tables = functools.partial(phases.tables, eta[:, dim:] if shared else None,
                                       low[:, dim:], shared)
            sums, block_tail = measure.mu_hat_sq_sums(rows, low[:, :dim], [0], tables)
            inc += sums.reshape(m, len(eta)).sum(axis=1)
            tail += block_tail * len(eta) * low_n
        yield inc, tail


def _extreme_rows(t_lo, t_hi, eta: np.ndarray) -> np.ndarray:
    """The least and largest of the one-dimensional rows t - eta, t in
    [t_lo, t_hi] (the extremes of the probe rows) and eta a row of `eta`, as
    two rows: t_lo - max eta and t_hi - min eta, bit for bit, since float
    rounding is monotone.  The rows of a later layer's call only set its
    depth and tail (`measure._max_distance`, which in one dimension reads
    their extremes alone), as its side tables come from the digits, so
    these two stand for all m |eta|."""
    return np.array([[t_lo - eta.max()], [t_hi - eta.min()]])


def q1_depth(system: AffineSystem) -> int:
    """Default enumeration depth of the completeness sums: the largest
    d <= Q1_DEPTH_CAP with N^d <= Q1_POINT_BUDGET, and at least 1."""
    d = 1
    while system.N ** (d + 1) <= Q1_POINT_BUDGET and d < Q1_DEPTH_CAP:
        d += 1
    return d


def q1_profile(system: AffineSystem, tpoints, p_depth: int | None = None,
               eps_conv: float | None = None) -> Q1Profile:
    """Completeness partial sums of the self-similar measure of `system` at
    `tpoints`, accumulated layer by layer to `p_depth`, by default
    `q1_depth(system)`.

    Each transform value is truncated at the adaptive depth that meets the
    measure's tail tolerance.  With `eps_conv` set, the layer loop stops early
    once every probe point's increment falls below it.
    """
    T = probe_rows(tpoints, system.dim)
    if p_depth is None:
        p_depth = q1_depth(system)
    return _q1_pass(system, T, p_depth, eps_conv, len(T))


VERDICT_BASIS = "BASIS-CONSISTENT"
VERDICT_INCOMPLETE = "INCOMPLETE"
VERDICT_INDETERMINATE = "INDETERMINATE"


@dataclass
class CompletenessReport:
    """A verdict, its Q1 profile and Q1's gradient at 0; `completeness_test` returns it."""
    verdict: str
    profile: Q1Profile
    grad_at_zero: np.ndarray


def _verdict(prof: Q1Profile, eps_conv: float) -> str:
    """INCOMPLETE when a point stabilized (last increment below `eps_conv`)
    at or below 1 - EPS_FAIL; BASIS-CONSISTENT when every point stabilized
    at or above 1 - EPS_PASS; INDETERMINATE otherwise (the depth cap bound
    before stabilization)."""
    vals = prof.values()
    stabilized = prof.last_increments() < eps_conv
    if (stabilized & (vals <= 1 - EPS_FAIL)).any():
        return VERDICT_INCOMPLETE
    if stabilized.all() and (vals >= 1 - EPS_PASS).all():
        return VERDICT_BASIS
    return VERDICT_INDETERMINATE


def completeness_test(system: AffineSystem, grid, eps_conv: float = Q1_EPS_CONV,
                      p_depth_cap: int | None = None) -> CompletenessReport:
    """Run the partial-sum verdict (`_verdict`) of the self-similar measure
    of `system` over a grid inside the hull, with the layers capped at
    `p_depth_cap`, by default `q1_depth(system)`."""
    # the rows +-FD_STEP e_j of the gradient stencil at the origin ride along
    # in the same pass; only the probe rows decide when it stops
    T = probe_rows(grid, system.dim)
    m = len(T)
    if not m:
        # all() over no rows is True: an empty grid would pass unexamined
        raise ValueError("the completeness grid is empty: no probe point to decide on")
    E = np.eye(system.dim)
    stencil = np.stack([FD_STEP * E, -FD_STEP * E], axis=1).reshape(-1, system.dim)
    if p_depth_cap is None:
        p_depth_cap = q1_depth(system)
    full = _q1_pass(system, np.concatenate([T, stencil]), p_depth_cap, eps_conv, m)
    prof = Q1Profile(full.layers[:m], full.fourier_tail)
    # central finite-difference gradient of the partial sum at the origin
    v = full.values()[m:]
    grad = (v[0::2] - v[1::2]) / (2 * FD_STEP)
    return CompletenessReport(_verdict(prof, eps_conv), prof, grad)


# ---------------------------------------------------------------------------
# maximal orthogonal families

def max_orthogonal_family(orthogonal, candidates) -> tuple:
    """Maximum subset of `candidates` whose pairwise differences are
    orthogonal directions.

    `orthogonal(a, b)` decides whether candidates a and b are a pair.
    """
    cands = list(candidates)
    n = len(cands)
    if n > 64:
        raise ValueError("exact clique search is capped at 64 candidates")
    if n == 0:
        return ()

    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if orthogonal(cands[i], cands[j]):
                adj[i].add(j)
                adj[j].add(i)

    best: list[int] = []

    def expand(clique, allowed):
        nonlocal best
        if len(clique) + len(allowed) <= len(best):
            return
        if not allowed:
            if len(clique) > len(best):
                best = clique[:]
            return
        pivot = max(allowed, key=lambda v: len(adj[v] & allowed))
        for v in sorted(allowed - adj[pivot]):
            expand(clique + [v], allowed & adj[v])
            allowed = allowed - {v}
            if len(clique) + len(allowed) <= len(best):
                return

    expand([], set(range(n)))
    return tuple(cands[i] for i in sorted(best))
