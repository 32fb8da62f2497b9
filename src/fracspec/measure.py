"""Fourier side of a self-similar measure: the transform and |mu_hat|^2 as
truncated products over one bracket kernel, the transform's with its
quadratic tail bound and the |mu_hat|^2 sums' closed by one more bracket,
with its quartic one."""

from __future__ import annotations

import bisect
import functools
import math
import operator

import numpy as np

from . import rational as rat
from .system import AffineSystem, probe_rows

DEFAULT_TAIL_TOL = 1e-10
MAX_PRODUCT_DEPTH = 200
STACK_ENTRIES = 1 << 15     # (level, t, lambda) entries of one stacked product in _brackets
_AHEAD = 4                  # table rows a Q1 pass's phase table builds past a call's


def _stein(S: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The Stein sum Q = sum_{k >= 0} S^k' W S^k, Q - S'Q S = W, of an S of
    spectral radius below 1, by doubling (Q_2m = Q_m + S^m' Q_m S^m)."""
    Q, power = W, S
    while np.abs(power).max() > 1e-30 * np.abs(Q).max():
        Q, power = Q + power.T @ Q @ power, power @ power
    return Q


def _tails(sys: AffineSystem) -> tuple:
    """The tail data of a system, once per system (`AffineSystem.once`): S =
    R*^-1, sigma, n(d) = ||S^d||_2 and q(d) = tr Q^_0 n_d^2 (Q^_0 the Stein
    sum of Sigma_B / sigma^2 under S) of `tail_bound` for d <=
    MAX_PRODUCT_DEPTH, above(x), the count of the d in 1 .. MAX_PRODUCT_DEPTH
    whose running minimum of n_1 .. n_d is at least x (`_least_depth`), and
    the closure (`_closure`).  A scalar S = +-rho I reads n_d = rho^d and q_d
    = rho^{2d} / (1 - rho^2) on demand, and counts its powers of rho from
    their logarithm (`_scalar_above`); another S keeps the tables of its
    norms.  The shear R = [[2, 100], [0, 2]] first has n_d < 1 at d = 9."""
    S = np.array(sys.R.inverse_transpose, dtype=float)
    # D = N s (b - c) on B = I / s, c the mean of B: sigma^2 is sum_b |D_b|^2
    # / (N (N s)^2), and Sigma_B / sigma^2 is sum_b D_b D_b' / sum_b |D_b|^2
    I, s = sys.lifts[1]
    total = [sum(col) for col in zip(*I)]
    D = [tuple(sys.N * x - t for x, t in zip(b, total)) for b in I]
    sq = sum(rat.dot(d, d) for d in D)
    sigma = np.array([[sum(d[i] * d[j] for d in D) / (sq or 1) for j in range(sys.dim)]
                      for i in range(sys.dim)])
    if rat.scalar(sys.R.entries) is not None:
        rho = abs(float(S[0, 0]))
        norm, q, above, least, Q = (rho.__pow__, functools.partial(_scalar_q, rho ** 2),
                                    functools.partial(_scalar_above, rho), rho, None)
    else:                   # the powers by doubling: the first m, then those times S^m
        powers = S[None]
        while len(powers) < MAX_PRODUCT_DEPTH:
            powers = np.concatenate([powers, powers @ powers[-1]])
        n = [1.0] + np.linalg.norm(powers[:MAX_PRODUCT_DEPTH], 2, axis=(1, 2)).tolist()
        Q = _stein(S, sigma)
        trace, running = float(np.trace(Q)), np.minimum.accumulate(n[1:]).tolist()
        norm, q, above, least = (n.__getitem__, [trace * x * x for x in n].__getitem__,
                                 functools.partial(_table_above, running), running[-1])
    if not least < 1.0:
        raise ValueError(f"no power S^k, k <= {MAX_PRODUCT_DEPTH}, of the inverse transpose "
                         f"S = R*^-1 has operator norm below 1, so the transform's tail "
                         f"bound is unavailable")
    V0, quartic = _closure(sys, S, D, sys.N * s, sigma, Q) if sq else (None, None)
    return S, rat.sqrt_ratio(sq, sys.N * (sys.N * s) ** 2), norm, q, above, V0, quartic


def _scalar_q(r: float, d: int) -> float:
    """q_d = r^d / (1 - r) of a scalar S, r = rho^2 (`_tails`)."""
    return r ** d / (1.0 - r)


def _scalar_above(rho: float, x: float) -> int:
    """The count of the d in 1 .. MAX_PRODUCT_DEPTH with rho^d >= x, for 0 <
    rho < 1: rho^d decreases in d, so it is the largest such d, placed by
    log x / log rho and settled on the powers themselves; every d for x <= 0
    or NaN, as a bisection of the table of rho^d gives (`_table_above`)."""
    if not x > 0.0:
        return MAX_PRODUCT_DEPTH
    if x >= 1.0:
        return 0
    d = min(int(math.log(x) / math.log(rho)), MAX_PRODUCT_DEPTH)
    while d < MAX_PRODUCT_DEPTH and rho ** (d + 1) >= x:
        d += 1
    while d and not rho ** d >= x:
        d -= 1
    return d


def _table_above(running: list, x: float) -> int:
    """The count of the entries at least x of a nonincreasing table."""
    return bisect.bisect_right(running, -x, key=operator.neg)


def extend_levels(S: np.ndarray, stack: np.ndarray, depth: int) -> np.ndarray:
    """A stack of level columns (levels, dim, J) extended to `depth` levels by
    the recurrence column_{k+1} = S' column_k, or itself when it has them.
    In one dimension a step multiplies by the scalar S, so one running
    product takes every new level, with the same roundings."""
    built = len(stack)
    if depth <= built:
        return stack
    stack = np.concatenate([stack, np.empty((depth - built,) + stack.shape[1:])])
    if S.shape == (1, 1):
        stack[built:] = S[0, 0]
        np.cumprod(stack[built - 1:], axis=0, out=stack[built - 1:])
    else:
        for k in range(built, depth):
            np.matmul(S.T, stack[k - 1], out=stack[k])
    return stack


def _closure(sys: AffineSystem, S: np.ndarray, D, scale: int, sigma: np.ndarray, Q):
    """The closure level of the |mu_hat|^2 sums (`SelfSimilarMeasure.sq_tail_bound`):
    V0, the level-0 columns 2 pi G' e_j of the closure, whose level d is the
    bracket at A_d x = G S^d x, and the constants (kA, k4) of its quartic
    remainder; (None, None) when there is none.  D holds scale (b - c) for
    the digits b of B, sigma is Sigma_B / sigma^2 and Q its Stein sum under
    S, None for a scalar R (`_tails`).  With Q_0 the Stein sum of Sigma_B,
    G = Sigma_B^{+1/2} Q_0^{1/2} gives A_d' Sigma_B A_d = S^d' Q_0 S^d =
    Q_d, the quadratic form of the levels k >= d, whenever the range of Q_0
    lies in that of Sigma_B, that is when the span of the centred digits is
    R-invariant (exact ranks); sigma^2 cancels in G.  A scalar R has G =
    gamma I, gamma = (1 - n_1^2)^{-1/2}, n_1 = |S_11|: the closure of level
    d is gamma u_d.  With m4 = (2 pi)^4 N^-2 sum_{b,b'} |b - b'|^4 / 24,
    kA^4 = m4 ||G||^4 and k4^4 = m4 lambda_max P, P the Stein sum of I
    under S (x) S: 1 / (1 - n_1^4) for a scalar R."""
    N, dim, U0 = sys.N, sys.dim, 2 * np.pi * sys.mask_table[0].T
    if Q is None:
        n1 = abs(float(S[0, 0]))
        g, lam = 1.0 / math.sqrt(1.0 - n1 * n1), 1.0 / (1.0 - n1 ** 4)
        V0 = g * U0
    else:
        rank = rat.rank(D)
        if rank < dim and rat.rank(D + [rat.mat_vec(sys.lifts[0][0], d) for d in D]) > rank:
            return None, None
        lam, vec = np.linalg.eigh(sigma)
        keep = lam > 1e-12 * lam.max()
        root_inv = (vec[:, keep] / np.sqrt(lam[keep])) @ vec[:, keep].T
        lam, vec = np.linalg.eigh(Q)
        G = root_inv @ (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.T
        g, V0 = float(np.linalg.norm(G, 2)), G.T @ U0
        lam = float(np.linalg.eigvalsh(_stein(np.kron(S, S), np.eye(dim * dim)))[-1])
    # m4^{1/4}, from the logarithm of the exact sum so that no power of B
    # leaves the float range, rounded up
    quartic = sum(sum((x - y) ** 2 for x, y in zip(a, b)) ** 2 for a in D for b in D)
    root = 2 * math.pi * math.exp((math.log(quartic) - math.log(24 * N * N)) / 4) / scale
    root *= 1 + 1e-12
    return V0[None], (root * g, root * lam ** 0.25)


def _join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The two-digit table rows of the level pairs (a_k, b_k), stacked on
    the first axis: the columns a_k + b_k and a_k - b_k, on the last."""
    return np.concatenate([a + b, a - b], axis=-1)


def _row_tile(m: int, n: int) -> int:
    """Rows of one tile of an (m, n) block of pairs: all m rows of a block of
    at most 2 STACK_ENTRIES pairs, otherwise about STACK_ENTRIES pairs' worth
    (at least one row)."""
    return max(1, m if m * n <= 2 * STACK_ENTRIES else STACK_ENTRIES // n)


def _max_distance(T: np.ndarray, Lam: np.ndarray) -> float:
    """max |t - lambda| over the rows of T and Lam.  In one dimension it is
    max(max T - min Lam, max Lam - min T), exactly; above, the largest
    |t|^2 + |lambda|^2 - 2 t.lambda, scanned over the row tiles of
    `_row_tile`, so no (m, n) array is formed.  NaN when a coordinate is
    NaN, inf when one is infinite."""
    if not (T.size and Lam.size):
        return 0.0
    if T.shape[1] == 1:
        top = float(max(T.max() - Lam.min(), Lam.max() - T.min()))
    else:
        tt, ll = (T ** 2).sum(axis=1)[:, None], (Lam ** 2).sum(axis=1)[None, :]
        rows, top = _row_tile(len(T), len(Lam)), -math.inf
        for i in range(0, len(T), rows):
            top = np.maximum(top, (tt[i:i + rows] + ll - 2 * (T[i:i + rows] @ Lam.T)).max())
        top = math.sqrt(max(float(top), 0.0))
    if math.isnan(top) and not (np.isnan(T).any() or np.isnan(Lam).any()):
        return math.inf     # inf - inf: one infinity in both, or an infinite row
    return top


def _abs_sq(prod: np.ndarray) -> np.ndarray:
    """|prod|^2 elementwise, squared in place: the real array itself, or
    re^2 + im^2 in the real parts of a complex one."""
    if prod.dtype == complex:
        re, im = np.square(prod.real, out=prod.real), np.square(prod.imag, out=prod.imag)
        return np.add(re, im, out=re)
    return np.square(prod, out=prod)


def _group_sums(vals: np.ndarray, starts, out: np.ndarray) -> np.ndarray:
    """Row sums of `vals` over the column groups that begin at `starts`
    (nondecreasing, each group running to the next start or to the last
    column), written into `out`, a (rows, len(starts)) array of zeros, and
    returned; an empty group keeps its 0."""
    ends = list(starts[1:]) + [vals.shape[1]]
    for g, (a, b) in enumerate(zip(starts, ends)):
        if b > a:
            vals[:, a:b].sum(axis=1, out=out[:, g])
    return out


def _mean(sys: AffineSystem) -> np.ndarray:
    """The mean of the self-similar measure of `sys`, m = sum_k R^{-k} c =
    (R - I)^{-1} R c with c the exact mean of B (`AffineSystem.mask_table`),
    solved exactly and rounded to floats once."""
    R = sys.R.entries
    shifted = [rat.vec_sub(r, e) for r, e in zip(R, rat.identity(sys.dim))]
    return np.array(rat.solve(shifted, rat.mat_vec(R, sys.mask_table[3])), dtype=float)


class SelfSimilarMeasure:
    """The probability measure carried by (R, B); only the B side is used."""

    def __init__(self, sys: AffineSystem):
        self.system = sys
        self.dim = sys.dim
        # R*^-1, sigma, the tail data and the closure built so far (`_tails`)
        (self._S, self._sigma, self._norm, self._q, self._above, self._V,
         self._quartic) = sys.once("tails", lambda: _tails(sys))
        # the level frequencies built so far; see _level_data
        self._U = 2 * np.pi * sys.mask_table[0].T[None]
        # levels per table row (`_rows`), and the weights of a row: the mask's,
        # or 1/2 and 1/2 on two digits
        self._per = 2 if sys.N == 2 else 1
        self._w = np.array([0.5, 0.5]) if sys.N == 2 else sys.mask_table[1]

    # -- tail machinery ----------------------------------------------------
    def tail_bound(self, depth: int, t_norm: float) -> float:
        """Bound on what the levels k >= depth can move mu_hat or |mu_hat|^2
        at any frequency x with |x| <= t_norm.

        chi_B(y) is e^{i 2 pi c.y} times the centred bracket b(y) =
        N^-1 sum_b e^{i 2 pi (b - c).y}, c the mean of B, and the phases of
        all levels multiply to the mean phase of `_pairs`, which is kept
        whole, so only the brackets are cut.  With Sigma_B = N^-1 sum_b
        (b - c)(b - c)', 1 - |b(y)|^2 = N^-2 sum_{b,b'} (1 - cos 2 pi
        (b - b').y) <= 4 pi^2 y' Sigma_B y, and since the centred angles
        th_b = 2 pi (b - c).y sum to zero, |1 - b(y)| = |N^-1 sum_b (1 -
        e^{i th_b} + i th_b)| <= 2 pi^2 y' Sigma_B y.  For factors a_k of
        modulus at most one, |prod_{k<d} a_k - prod_k a_k| <= sum_{k>=d}
        |1 - a_k| (a plain truncation of |mu_hat|^2 is never below the true
        one; the sums close theirs, `sq_tail_bound`).  Level k is at S^k x,
        S = R*^-1, so the levels k >= d sum to at most 4 pi^2 x' Q_d x, Q_d =
        S^d' Q_0 S^d, Q_0 - S'Q_0 S = Sigma_B (`_stein`), and x' Q_d x <= tr
        Q_0 |S^d x|^2 <= tr Q_0 y^2, y = n_d t_norm (`_tails`).  The bound
        4 pi^2 sigma^2 tr Q^_0 y^2 is that of |mu_hat|^2, twice what mu_hat
        needs; 4 pi^2 sigma^2 t_norm^2 rho^{2d} / (1 - rho^2) for a scalar
        R.  A depth past MAX_PRODUCT_DEPTH takes that depth's bound.
        """
        if self._sigma == 0.0:
            return 0.0
        a = 2.0 * math.pi * self._sigma * t_norm
        # a * a, not a ** 2: a float ** raises OverflowError where a * a is inf
        amp = a * a
        if amp == math.inf:
            return amp                  # where q_d underflows to 0
        return amp * self._q(min(depth, MAX_PRODUCT_DEPTH))

    def depth_for(self, t_norm: float) -> int:
        """Smallest product depth d >= 1 whose tail bound is below
        DEFAULT_TAIL_TOL, or MAX_PRODUCT_DEPTH when no smaller one is."""
        return self._least_depth(self.tail_bound, t_norm, self.tail_bound(0, t_norm), 0.0)

    def sq_tail_bound(self, depth: int, t_norm: float) -> float:
        """Bound on how far a call of `mu_hat_sq_sums` at `depth` <=
        MAX_PRODUCT_DEPTH can put |mu_hat|^2 from the exact value, on either
        side, at any |x| <= t_norm: its levels k < depth times the closure,
        the bracket's |b(A x)|^2 with A' Sigma_B A = Q_d (`_closure`), or
        `tail_bound` when the measure has no closure.

        Write |b(y)|^2 = N^-2 sum_{b,b'} cos 2 pi (b - b').y = 1 - q(y) +
        r(y) with q(y) = 4 pi^2 y' Sigma_B y and, from cos z in [1 - z^2/2,
        1 - z^2/2 + z^4/24], 0 <= r(y) <= s(y) = (2 pi)^4 N^-2 sum_{b,b'}
        ((b - b').y)^4 / 24 <= m4 |y|^4 (`_closure`).  The levels k >= d
        multiply to T = prod (1 - a_k), a_k = q_k - r_k in [0, 1], whose sum
        A lies in [Q - S4, Q], Q = sum_k q(S^k x) = 4 pi^2 x' Q_d x and S4 =
        sum_k s(S^k x); so 1 - Q <= 1 - A <= T <= e^-A <= 1 - Q + S4 +
        Q^2/2, and T <= 1.  The closure is C = 1 - Q + r(A x), in [1 - Q,
        1 - Q + s(A x)] and at most 1.  So T - C lies in [-min(Q, s(A x)),
        min(Q, S4 + Q^2/2)], and so does the difference of the two products
        once both are multiplied by the levels k < d, which lie in [0, 1].
        With y = n_d t_norm, Q is at most `tail_bound`, s(A x) <= m4 |G S^d
        x|^4 <= (kA y)^4, and since |S^k x|^4 = |(S (x) S)^k (x (x) x)|^2,
        S4 <= m4 lambda_max P |S^d x|^4 <= (k4 y)^4 with P - (S (x) S)' P
        (S (x) S) = I (`_closure`).  The bound is min(Q, max((kA y)^4,
        (k4 y)^4 + Q^2/2)): quartic in the norm, never above `tail_bound`.
        """
        quad = self.tail_bound(depth, t_norm)
        if self._V is None:
            return quad
        y = t_norm * self._norm(depth)
        ka, k4 = self._quartic
        a, b = ka * y, k4 * y
        a, b = a * a, b * b
        closed = max(a * a, b * b + quad * quad / 2)
        return closed if closed < quad else quad        # also where y is NaN

    def sq_depth_for(self, t_norm: float) -> int:
        """The depth of a call of `mu_hat_sq_sums`: the smallest d >= 1 whose
        `sq_tail_bound` is below DEFAULT_TAIL_TOL (MAX_PRODUCT_DEPTH when no
        smaller one is), rounded up on two digits so that the levels of the
        call, the closure included, fill whole table rows (`_rows`): an odd
        d with a closure, an even one without, at most MAX_PRODUCT_DEPTH."""
        head, odd = self.tail_bound(0, t_norm), self._V is not None
        quartic = 0.0
        if odd:
            ka, k4 = self._quartic
            a, b = ka * t_norm, k4 * t_norm
            a, b = a * a, b * b
            quartic = max(a * a, b * b + head * head / 2)
        d = self._least_depth(self.sq_tail_bound, t_norm, head, quartic)
        return min(d + (d + odd) % self._per,
                   MAX_PRODUCT_DEPTH - (MAX_PRODUCT_DEPTH + odd) % self._per)

    def _least_depth(self, bound, t_norm: float, head: float, quartic: float) -> int:
        """Smallest d >= 1 with bound(d, t_norm) below DEFAULT_TAIL_TOL, or
        MAX_PRODUCT_DEPTH when no smaller one is: `tail_bound` is `head`
        (its depth-0 value) times v = n_d^2, within rounding, and
        `sq_tail_bound` min(head v, quartic v^2), so d meets the tolerance
        only where n_d is below one threshold.  The count of the running
        minima of n_1 .. n_d at or above it (`_tails`) places d at the first
        n_d a hair above it, and steps of `bound` settle the rounding and
        skip the larger n_d past it: d is the one a depth-by-depth search
        finds."""
        # the threshold of n_d^2: 0 at an infinite norm, inf at a zero or NaN one
        v = max(DEFAULT_TAIL_TOL / head, math.sqrt(DEFAULT_TAIL_TOL / quartic) if quartic
                else 0.0) if head > 0.0 else math.inf
        d = 1 + self._above(math.sqrt(v) * (1 + 1e-9))
        while d < MAX_PRODUCT_DEPTH and bound(d, t_norm) >= DEFAULT_TAIL_TOL:
            d += 1
        return min(d, MAX_PRODUCT_DEPTH)

    # -- evaluation --------------------------------------------------------
    def _level_data(self, depth: int) -> np.ndarray:
        """U of shape (depth, dim, J), the columns u_kj = 2 pi R*^{-k}' e_j
        of each level k < depth, e_j the rows of E in
        `AffineSystem.mask_table`.  It follows the recurrence
        u_{k+1} = R*^{-1}' u_k (`extend_levels`), run once per level and
        measure: a deeper product extends the stack, a shallower one takes a
        slice."""
        self._U = extend_levels(self._S, self._U, depth)
        return self._U[:depth]

    def _closure_data(self, depth: int) -> np.ndarray:
        """(depth, dim, J): the columns 2 pi A_k' e_j of the closure level of
        a call of each depth k < `depth`, A_k = G S^k (`_closure`), from
        those of depth 0 by the recurrence of `_level_data`: gamma u_k for a
        scalar R."""
        self._V = extend_levels(self._S, self._V, depth)
        return self._V[:depth]

    def _rows(self, A: np.ndarray) -> np.ndarray:
        """Kernel levels, on the first axis of A, as the rows of the bracket
        table, with the table's columns on the last axis: A itself, or on a
        two-digit system (N = 2) the row pairs a_k + a_{k+1}, a_k - a_{k+1}
        of levels k and k + 1, an odd count padded with a zero level (see
        `_brackets`).  It takes the level columns u_kj as well as the phases
        of digits at each level, which are linear in u_kj."""
        if self.system.N != 2:
            return A
        if len(A) % 2:
            A = np.concatenate([A, np.zeros((1,) + A.shape[1:])])
        return _join(A[0::2], A[1::2])

    def _side_tables(self, T: np.ndarray, Lam: np.ndarray, levels: np.ndarray) -> tuple:
        """The two side tables of `_brackets` for every row t of T and lambda
        of Lam at the level columns `levels` (of `_level_data`, and of
        `_closure_data` for a closure level), from the float points.

        The tables are formed once for all levels, in one
        (rows, width, m + n) array whose first m columns are the t side and
        the rest the lambda side: one stacked product for the angles, one cos
        and one sin, then the weights, set once.  A real table's columns are
        [w cos pt, w sin pt] against [cos pl; sin pl], a complex one's
        [w e^{i pt}] against [e^{-i pl}], with pt = t.u_kj and pl =
        lambda.u_kj.  A digit at the centre is a zero column u_kj, whose
        term is its weight."""
        real = self.system.mask_table[2]
        U, w, m = self._rows(levels), self._w, len(T)
        # a complex table's lambda side is e^{-i pl}, at the angles of -lambda
        # (exact; numpy 2.4's in-place negative of those columns of P is wrong
        # at a 64-byte stride)
        X = np.concatenate([T, Lam if real else -Lam])
        P = np.swapaxes(U, 1, 2) @ X.T              # (rows, J, m + n)
        tab = _unit_table(P, real)
        del X, P
        tab[:, :, :m] *= (np.concatenate([w, w]) if real else w)[:, None]
        return np.swapaxes(tab[..., :m], 1, 2), tab[..., m:]

    def _brackets(self, left: np.ndarray, right: np.ndarray, starts) -> np.ndarray:
        """The product over the table rows of the bracket of
        `AffineSystem.mask_table`, sum_j w_j e^{i u_kj.(t - lambda)}, from
        its two side tables: `left` of shape (rows, m, width) for the rows t
        and `right` of shape (rows, width, n) for the points lambda, so that
        one matrix product forms a row's bracket for every pair (angle
        addition splits each term into a t side and a lambda side).  It is
        an (m, n) array, real when the tables are, for `starts` None.  Given
        the column groups `starts` of `_group_sums`, it returns instead the
        (m, len(starts)) row sums of the squared modulus of that product
        over each group, and no (m, n) array is formed.  The tables come
        from float points (`_side_tables`) or from exact digit phases
        (`DigitPhases.tables`).

        The level loop forms c rows with c m n <= STACK_ENTRIES by one
        matrix product into one (c, m, n) buffer, reused by every step, and
        multiplies them into the result: a small block takes all its rows
        in one step, a large one a row per step.  A block of more than
        2 STACK_ENTRIES pairs runs all its rows on one tile of rows of
        `_row_tile` before the next, so the level buffer and the result rows
        it multiplies stay in cache; every tile reuses one tile-sized
        buffer.  The reduction squares each finished tile in place and adds
        its rows over the groups, so the result is one tile-sized buffer
        too; every element is the same product, only summed tile by tile.

        A row is a level, except on a two-digit table (N = 2: real, one row
        e of weight 1), where a row is two levels, by cos a cos b =
        (cos(a + b) + cos(a - b)) / 2: the columns u_k and u_{k+1} of levels
        k and k + 1 become the row pair u_k + u_{k+1}, u_k - u_{k+1} at
        weights 1/2 and 1/2 (`_rows`), so one width-4 product joins two
        levels where two width-2 products and two multiplies did.  An odd
        count of levels pads one zero level, which is exact: its row pair is
        u_k, u_k, and cos(a)/2 + cos(a)/2 = cos a is the last level itself;
        a call of `mu_hat_sq_sums` takes a depth whose levels, its closure
        included, fill whole rows (`sq_depth_for`).
        """
        depth, m, _ = left.shape
        n, dtype = right.shape[2], left.dtype
        rows = _row_tile(m, n)
        tile = min(rows, m) * n
        step = max(1, STACK_ENTRIES // max(tile, 1))
        buf = np.empty(min(step, depth) * tile, dtype=dtype)
        # the first step of a tile writes its product, so only a product of
        # no rows is ones
        out = (np.empty if depth else np.ones)((m if starts is None else min(rows, m), n),
                                               dtype=dtype)
        sums = None if starts is None else np.zeros((m, len(starts)))
        for i in range(0, m, rows):
            lhs = left[:, i:i + rows]
            block = out[i:i + rows] if starts is None else out[:lhs.shape[1]]
            for k in range(0, depth, step):
                c = min(step, depth - k)
                level = buf[:c * block.size].reshape((c,) + block.shape)
                np.matmul(lhs[k:k + step], right[k:k + step], out=level)
                if k:
                    block *= level[0] if c == 1 else level.prod(axis=0)
                else:
                    np.prod(level, axis=0, out=block)
            if starts is not None:
                _group_sums(_abs_sq(block), starts, sums[i:i + rows])
        return out if starts is None else sums

    def _pairs(self, T: np.ndarray, Lam: np.ndarray, depth: int) -> np.ndarray:
        """The depth-`depth` product mu_hat(t - lambda) as an (m, n) complex
        array: `_brackets` times the mean phase e^{i 2 pi m.(t - lambda)},
        m the mean of mu (`_mean`, once per system)."""
        mean = self.system.once("mean", lambda: _mean(self.system))
        out = self._brackets(*self._side_tables(T, Lam, self._level_data(depth)), None) * \
            np.exp(2j * np.pi * (T @ mean))[:, None]
        out *= np.exp(-2j * np.pi * (Lam @ mean))[None, :]
        return out

    def _adaptive(self, T, Lam, depth):
        """T and Lam as (m, dim) and (n, dim) arrays (`probe_rows`), the
        depth (when None, the one that meets the tail tolerance at the
        largest |t - lambda|), and its tail bound at that distance."""
        T, Lam = probe_rows(T, self.dim), probe_rows(Lam, self.dim)
        t_norm = _max_distance(T, Lam)
        if depth is None:
            depth = self.depth_for(t_norm)
        return T, Lam, depth, self.tail_bound(depth, t_norm)

    def mu_hat_batch(self, T, depth: int | None = None):
        """Transform values for an array of frequencies.

        In one dimension `T` is elementwise; above, its trailing axis must be
        the ambient dimension (`probe_rows`, through `_adaptive`).  Returns
        (values, tail_bound): the product at `depth`, by default the
        adaptive depth of the largest norm in the batch, shaped as T
        without that axis (one frequency gives a 0-d value), and one
        conservative tail bound taken at that norm.
        """
        shape = np.shape(T) if self.dim == 1 else np.shape(T)[:-1]
        T, origin, depth, tail = self._adaptive(T, np.zeros(self.dim), depth)
        return self._pairs(T, origin, depth).reshape(shape), tail

    def mu_hat_pairs(self, T, Lam):
        """mu_hat(t - lambda) for every row t of T and lambda of Lam: the
        (m, n) complex array and the tail bound of the adaptive depth."""
        T, Lam, depth, tail = self._adaptive(T, Lam, None)
        return self._pairs(T, Lam, depth), tail

    def mu_hat_sq_sums(self, T, Lam, starts, tables):
        """The row sums of |mu_hat(t - lambda)|^2, t a row of T and lambda of
        Lam, over the column groups that begin at `starts` (see
        `_group_sums`; an empty group sums to 0): the (m, len(starts)) array
        and the `sq_tail_bound` of its depth (`sq_depth_for`) at the largest
        |t - lambda|, which bounds each value's distance from the exact one,
        on either side.  `tables(depth)` gives the two side tables of
        `_brackets` for these rows and points at that depth, the closure
        level included (`_closure_data`): `_side_tables` of the float points,
        or a Q1 pass's tables at exact digit phases (`DigitPhases.tables`);
        the float rows and points decide the depth either way, through their
        largest |t - lambda| alone, so with the pass's tables the rows of T
        may stand for more (`spectrum._extreme_rows`).  The product of
        `_brackets` is squared tile by tile; the mean phase has modulus one
        and is left out.  Each bracket is formed before it is squared, so a
        factor near a zero of the mask keeps |chi_B|^2 accurate to rounding
        squared.  The kernel reduces each row tile as it finishes it, so no
        (m, n) array is formed."""
        T, Lam = probe_rows(T, self.dim), probe_rows(Lam, self.dim)
        t_norm = _max_distance(T, Lam)
        depth = self.sq_depth_for(t_norm)
        return self._brackets(*tables(depth), starts), self.sq_tail_bound(depth, t_norm)


def _exact_residues(sys: AffineSystem, count: int) -> np.ndarray:
    """(count, N - 1, J) floats in [0, 1): (R^n e_j).l mod 1 for n < count,
    each digit l of L past 0, in the order of `spectrum.layer_digits`, and
    each exact row e_j of the mask (`AffineSystem.mask_rows`).  It is the
    phase e_j.R*^{i-k} l, in turns, of a digit l of level i at kernel level
    k <= i, n = i - k.

    On the integer lifts R = Ri / r and L = Li / s of the system
    (`AffineSystem.lifts`) and E = Ei / e it is (Li.Ri^n Ei_j mod r^n e s) /
    (r^n e s), rounded once, so it is exact to half an ulp however large
    R*^i l is.  Every modulus divides M = r^(count-1) e s, so the lifts and
    the powers Ri^n Ei are kept mod M: in one dimension the powers of the
    scalar Ri by a running product of ints, and above by doubling, the
    stack of the first 2^k being the one before times Ri^(2^k).  They are
    integers in floats while every product, at most dim M^2, stays below
    2^53, and Python ints otherwise."""
    (Ri, r), _, (Li, s) = sys.lifts
    Ei, e, _, _ = sys.mask_rows
    g = math.gcd(e, *(x for row in Ei for x in row))    # E over its least denominator
    Ei, e = [[x // g for x in row] for row in Ei], e // g
    Li = [l for l in Li if any(l)]
    M = e * s * r ** (count - 1)
    dtype = float if sys.dim * M * M < 2 ** 53 else object
    if sys.dim == 1:
        powers = [1]
        while len(powers) < count:
            powers.append(powers[-1] * Ri[0][0] % M)
        phases = np.array(powers, dtype)[:, None, None] * \
            np.array([[l[0] * x[0] % M for x in Ei] for l in Li], dtype).reshape(len(Li), len(Ei))
    else:
        P, powers, Li = (np.array([[x % M for x in row] for row in A], dtype).reshape(
            len(A), sys.dim) for A in (Ri, Ei, Li))
        powers = powers.T[None]
        while len(powers) < count:
            powers = np.concatenate([powers, P @ powers % M])
            P = P @ P % M
        phases = Li @ powers[:count]
    den = e * s * np.array([r ** n for n in range(count)], dtype)[:, None, None]
    return np.asarray(phases % den / den, dtype=float)


@functools.cache
def _toeplitz(count: int, D: int) -> np.ndarray:
    """The (D, count) indices i - k + D - 1 of `DigitPhases._grow`, by which
    level k of the residue rows takes digit level i; kept per shape, and
    only read."""
    idx = np.arange(count) - np.arange(D)[:, None] + D - 1
    idx.flags.writeable = False
    return idx


def _unit_table(angles: np.ndarray, real: bool) -> np.ndarray:
    """e^{i angles} for angles of shape (rows, J, points), one cos and one
    sin per angle, in the layout of the side tables of `_brackets`: the
    (rows, 2 J, points) blocks [cos; sin] of a real table, or the complex
    values."""
    J = angles.shape[1]
    if real:
        out = np.empty((len(angles), 2 * J) + angles.shape[2:])
        np.cos(angles, out=out[:, :J])
        np.sin(angles, out=out[:, J:])
    else:
        out = np.empty(angles.shape, dtype=complex)
        np.cos(angles, out=out.real)
        np.sin(angles, out=out.imag)
    return out


def _turns(phases: np.ndarray, sign: int) -> np.ndarray:
    """The angles sign 2 pi x of phases x in turns, each reduced to its
    nearest residue in [-1/2, 1/2] first, so every angle is in [-pi, pi]."""
    x = phases - np.rint(phases)
    x *= sign * 2 * np.pi
    return x


class DigitPhases:
    """The phase table of one Q1 pass: the side tables of `_brackets` for
    its probe rows t, its rows t - eta and its points lambda, every eta and
    lambda a digit sum sum_i R*^i l_i of the levels of `spectrum.layer_digits`.

    The phase of lambda at kernel level k and mask row e_j, in turns, is
    the sum over its digits of e_j.R*^{i-k} l_i: exact mod 1 where i >= k
    (`_exact_residues`), and a float where i < k, where R*^{i-k} contracts
    (from the level columns of `SelfSimilarMeasure._level_data`).  So the
    digit sums of these residues, reduced mod 1, are the phases at the
    exact points, and no float spectrum coordinate reaches a cos or a sin:
    every angle is in [-pi, pi] however far lambda is.  A point carries its
    digits as digit columns, a one for each of its digits past 0 (0 has
    phase 0 at every level); `tagged` is each level's float digits with
    their columns, so a digit sum of tagged levels (`spectrum.digit_sum`)
    gives the float points and their columns together, and the residues
    times the columns give the phases.

    The tables are by table row (`SelfSimilarMeasure._rows`: two levels a
    row on two digits, whose sums and differences of phases are as exact).
    The cos and sin are taken once per probe row and table row, once per
    eta and table row of its call, and once per table row for each point
    of the pass's low table, the digit sum of the levels below the largest
    h so far, whose first N^h points are every low set of full levels and
    the leading call's points (`spectrum.layer_digits` puts digit 0 first).
    The rows t - eta are the probe table times the eta table, by angle
    addition.  The closure level of a call (`SelfSimilarMeasure._closure_data`)
    lies past every digit level of its points, where R*^{i-d} contracts,
    so its phases are floats, those of the float digits at the closure
    columns, with no residue.  The row that holds it is no row of a deeper
    call, so the residue, probe and low tables are laid out as the closure
    rows of the depths the pass reaches next, one slot and the full rows: a
    call copies its closure row into the slot of each (when it is another
    than the call before's), and its tables are the slot and its full rows.
    """

    def __init__(self, measure: SelfSimilarMeasure, T: np.ndarray, levels):
        sys = measure.system
        count, N, dim = len(levels), sys.N, sys.dim
        self._measure, self._T = measure, T
        self._per = measure._per                    # levels per table row
        self._real = sys.mask_table[2]
        self._exact = _exact_residues(sys, count)
        K = count * (N - 1)
        tagged = np.zeros((count, N, dim + K))
        tagged[:, :, :dim] = levels
        tagged[:, 1:, dim:] = np.eye(K).reshape(count, N - 1, K)
        self.tagged = list(tagged)
        self._L = tagged[0, 1:, :dim]               # the digits past 0, in floats
        self._F = tagged[:, 1:, :dim].reshape(K, dim)    # every digit column's float point
        # the rows before the full rows: the closure rows of the depths
        # first, first + per, ..., first + ahead (`_grow`) and the slot, with
        # ahead the levels of _AHEAD table rows
        self._ahead = _AHEAD * self._per
        self._lead = _AHEAD + 2 if measure._V is not None else 0
        # `_grow` sets the residues W by level and, in the layout above, the
        # residue rows (rows, width, K) and the probe rows' weighted complex
        # tables, `tables` the index of the closure row in their slot, and
        # `_low_rows` the low table, its points' digit columns and the index
        # of the closure row in its slot
        self._W = np.empty((0, K, self._exact.shape[2]))
        self._first, self._slot = 0, None
        self._low, self._low_digits, self._low_slot = None, None, None

    def _grow(self, depth: int) -> None:
        """Build the residue rows and the probe tables of the kernel levels
        below depth + ahead and of the closure rows of the depths depth,
        depth + per, ..., depth + ahead, once a call asks for a depth
        outside those, so a pass whose calls go a table row deeper each
        builds them every _AHEAD calls (a pass's calls never go shallower; one
        that did would build them again, with no fewer levels).  Level k of
        W holds in column i (N - 1) + a - 1 the residue of digit a of level
        i, exact where i >= k.  The closure row of a call of depth d is its
        closure alone, or on two digits its closure beside its last level
        d - 1 (`SelfSimilarMeasure.sq_depth_for` makes d odd)."""
        lead = self._lead
        ahead = self._ahead
        if depth <= len(self._W) and (not lead or self._first <= depth <= self._first + ahead):
            return
        D, measure, per = max(depth + ahead, len(self._W)), self._measure, self._per
        U = measure._level_data(D)
        below = self._L @ U[:0:-1] / (2 * np.pi)     # e_j.R*^-n l for n = D - 1 .. 1
        G = np.concatenate([below, self._exact])    # index i - k + D - 1
        W = self._W = G[_toeplitz(len(self._exact), D)].reshape(D, -1, G.shape[2])
        full, Wc, C = per * (D // per), None, None

        def stack(closing, levels):
            # the closure rows, the slot (a copy of the last of them) and the
            # full rows
            return np.concatenate([closing, closing[-1:], levels]) if lead else levels

        if lead:
            C = measure._closure_data(depth + ahead + 1)[depth::per]
            Wc = self._F @ C / (2 * np.pi)           # the digits' closure phases
            self._first = depth
        if per == 1:
            rows, columns = stack(Wc, W[:full]), stack(C, U[:full])
        else:
            # a row joins the levels k and k + 1 (`SelfSimilarMeasure._rows`),
            # and a closure row the call's last level and its closure
            last = slice(depth - 1, depth + ahead, 2)
            rows = _join(stack(W[last], W[:full:2]), stack(Wc, W[1:full:2]))
            columns = _join(stack(U[last], U[:full:2]), stack(C, U[1:full:2]))
        self._rows = np.swapaxes(rows, 1, 2)
        self._probe = _unit_table(np.swapaxes(columns, 1, 2) @ self._T.T,
                                  False) * self._measure._w[:, None]
        self._slot = None
        if lead and self._low is not None:          # the closure rows are new
            self._low[:lead] = self._low_table(self._rows[:lead] @ self._low_digits)
            self._low_slot = None

    def _low_table(self, phases: np.ndarray) -> np.ndarray:
        """The lambda side of `_brackets` at the phases of points, in turns:
        the table of e^{i 2 pi phi} on a real mask, of e^{-i 2 pi phi} on a
        complex one."""
        return _unit_table(_turns(phases, 1 if self._real else -1), self._real)

    def _low_rows(self, low: np.ndarray, shared: bool, start: int, end: int,
                  closing) -> np.ndarray:
        """The lambda side of `_brackets` at the rows start..end of the
        tables (the slot and a call's full rows, or its full rows alone) for
        points with digit columns `low`: from the pass's low table when they
        are its first points (`shared`).  The low table holds every row of
        the tables up to the deepest call's, the closure rows included, so
        a call that reads another closure row than the call before copies
        it into the slot (index `closing` of the tables) and forms nothing."""
        if not shared:
            return self._low_table(self._rows[start:end] @ low.T)
        if self._low is None:
            # the closure rows and the first call's; a deeper call takes every row built
            self._low = self._low_table(self._rows[:end] @ low.T)
            self._low_digits, self._low_slot = low.T, closing
        elif closing != self._low_slot:
            self._low[start] = self._low[closing]
            self._low_slot = closing
        n, have = len(low), self._low_digits.shape[1]
        if n > have:
            new = self._low_table(self._rows[:len(self._low)] @ low[have:].T)
            self._low = np.concatenate([self._low, new], axis=2)
            self._low_digits = np.concatenate([self._low_digits, low[have:].T], axis=1)
        if end > len(self._low):
            new = self._low_table(self._rows[len(self._low):] @ self._low_digits)
            self._low = np.concatenate([self._low, new])
        return self._low[start:end, :, :n]

    def tables(self, eta, low, shared: bool, depth: int) -> tuple:
        """The side tables of `_brackets` at `depth`, the closure level
        included, for the rows t - eta, t a probe row and eta a point with
        digit columns in the rows of `eta` (t alone for None), against the
        points with digit columns in the rows of `low`, which are the first
        points of the pass's low table when `shared` is set."""
        self._grow(depth)
        lead, per = self._lead, self._per
        if lead:
            # the call's closure row into the slot of each table
            i, start, end = (depth - self._first) // per, lead - 1, lead + (depth + 1) // per - 1
            if i != self._slot:
                self._rows[start], self._probe[start] = self._rows[i], self._probe[i]
                self._slot = i
        else:
            i, start, end = None, 0, depth // per
        rows, probe = self._rows[start:end], self._probe[start:end]
        if eta is not None:
            z = _unit_table(_turns(rows @ eta.T, -1), False)
            probe = (probe[..., None] * z[:, :, None, :]).reshape(probe.shape[:2] + (-1,))
        if self._real:
            probe = np.concatenate([probe.real, probe.imag], axis=1)
        return probe.swapaxes(1, 2), self._low_rows(low, shared, start, end, i)
