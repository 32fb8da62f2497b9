"""Fourier side of a self-similar measure: the transform and |mu_hat|^2 as
truncated products over one bracket kernel, the transform's with its
quadratic tail bound and the |mu_hat|^2 sums' closed by one more bracket,
with its quartic one."""

from __future__ import annotations

import math

import numpy as np

from . import rational as rat
from .system import AffineSystem, probe_rows

DEFAULT_TAIL_TOL = 1e-10
MAX_PRODUCT_DEPTH = 200
STACK_ENTRIES = 1 << 15     # (level, t, lambda) entries of one stacked product in _brackets
_AHEAD = 8                  # levels a Q1 pass's phase table builds past a call's depth


def _contraction_data(S: np.ndarray):
    """Smallest power kappa <= MAX_PRODUCT_DEPTH with ||S^kappa||_op < 1, plus
    the geometric data (rho, c) bounding ||S^n t|| <= c rho^{floor(n/kappa)} ||t||.
    A shear can take many powers to contract: R = [[2, 100], [0, 2]] first
    contracts at kappa = 9."""
    power, c = np.eye(S.shape[0]), 1.0      # c: the largest ||S^j||_op, j < k
    for k in range(1, MAX_PRODUCT_DEPTH + 1):
        power = power @ S
        # the operator norm of a 1 x 1 power is its modulus
        nrm = abs(float(power[0, 0])) if S.shape == (1, 1) else float(np.linalg.norm(power, 2))
        if nrm < 1.0:
            return k, nrm, c
        c = max(c, nrm)
    raise ValueError(f"no power S^k, k <= {MAX_PRODUCT_DEPTH}, of the inverse transpose "
                     f"S = R*^-1 has operator norm below 1, so the transform's tail "
                     f"bound is unavailable")


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


def _closure(sys: AffineSystem, lifted, S: np.ndarray, kappa: int, rho: float,
             U0: np.ndarray):
    """The closure level of the |mu_hat|^2 sums (`SelfSimilarMeasure.sq_tail_bound`):
    V0 = G' U0, the level-0 columns of the closure, whose level d is the
    bracket at A_d x = G S^d x, and the constants (kA, k4) of its quartic
    remainder; (None, None) when there is none.  `lifted` is the integer
    lift (I, s) of B.

    With Sigma_B = N^-1 sum_b (b - c)(b - c)' and Q_0 = sum_{k >= 0}
    S^k' Sigma_B S^k, G = Sigma_B^{+1/2} Q_0^{1/2} gives A_d' Sigma_B A_d =
    S^d' Q_0 S^d = Q_d, the quadratic form of the levels k >= d, whenever
    the range of Q_0 lies in that of Sigma_B, that is when the span of the
    centred digits is R-invariant (exact ranks).  For a scalar R it is
    G = gamma I, gamma = (1 - rho^2)^{-1/2}, and the closure of level d is
    gamma u_d.  With mu4 = N^-2 sum_{b,b'} |b - b'|^4 and m4 = (2 pi)^4
    mu4 / 24, kA^4 = m4 ||G||^4 and k4^4 = m4 kappa / (1 - rho^4)."""
    Ii, s = lifted
    N, scale = sys.N, sys.N * s
    total = [sum(col) for col in zip(*Ii)]
    D = [tuple(N * x - t for x, t in zip(b, total)) for b in Ii]     # N s (b - c)
    if not any(map(any, D)):
        return None, None                   # one point: no tail to close
    if sys.dim == 1 or rat.scalar(sys.R.entries) is not None:
        g = 1.0 / math.sqrt(1.0 - rho * rho)
        V0 = g * U0
    else:
        rank = rat.rank(D)
        if rank < sys.dim and rat.rank(D + [rat.mat_vec(sys.R.entries, d) for d in D]) > rank:
            return None, None
        Df = np.array(D, dtype=float) / scale
        Q = sigma = Df.T @ Df / N
        power = S
        while np.abs(power).max() > 1e-30 * np.abs(Q).max():
            Q, power = Q + power.T @ Q @ power, power @ power
        lam, vec = np.linalg.eigh(sigma)
        keep = lam > 1e-12 * lam.max()
        root_inv = (vec[:, keep] / np.sqrt(lam[keep])) @ vec[:, keep].T
        lam, vec = np.linalg.eigh(Q)
        G = root_inv @ (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.T
        g, V0 = float(np.linalg.norm(G, 2)), G.T @ U0
    # m4^{1/4}, from the logarithm of the exact sum so that no power of B
    # leaves the float range, rounded up
    quartic = sum(sum((x - y) ** 2 for x, y in zip(a, b)) ** 2 for a in D for b in D)
    root = 2 * math.pi * math.exp((math.log(quartic) - math.log(24 * N * N)) / 4) / scale
    root *= 1 + 1e-12
    return V0[None], (root * g, root * (kappa / (1.0 - rho ** 4)) ** 0.25)


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
        self._S = np.array(sys.R.inverse_transpose, dtype=float)
        self._kappa, self._rho, self._c = _contraction_data(self._S)
        # on B = I / s, with sigma^2 = N^-1 sum_b |b - c|^2 and c the mean of B:
        # (N s sigma)^2 = N sum_b |I_b|^2 - |sum_b I_b|^2
        I, s = rat.lift(sys.B)
        sq, total = [rat.dot(b, b) for b in I], [sum(col) for col in zip(*I)]
        self._sigma = rat.sqrt_ratio(sys.N * sum(sq) - rat.dot(total, total), (sys.N * s) ** 2)
        # the level frequencies built so far; see _level_data
        self._U = 2 * np.pi * sys.mask_table[0].T[None]
        # the closure columns built so far and the constants of their quartic
        # remainder, or None; see sq_tail_bound
        self._V, self._quartic = _closure(sys, (I, s), self._S, self._kappa, self._rho,
                                          self._U[0])
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
        whole, so only the brackets are cut.  With sigma^2 = N^-1
        sum_b |b - c|^2, 1 - |b(y)|^2 = N^-2 sum_{b,b'} (1 - cos 2 pi
        (b - b').y) <= 4 pi^2 sigma^2 |y|^2, and since the centred angles
        th_b = 2 pi (b - c).y sum to zero, |1 - b(y)| = |N^-1 sum_b (1 -
        e^{i th_b} + i th_b)| <= 2 pi^2 sigma^2 |y|^2.  For factors a_k of
        modulus at most one, |prod_{k<d} a_k - prod_k a_k| <= sum_{k>=d}
        |1 - a_k| (and for a_k = |b_k|^2 in [0, 1] the difference is
        nonnegative, so a plain truncation of |mu_hat|^2 is never below the
        true one; the sums close theirs instead, and a closed value may sit
        on either side of the true one, `sq_tail_bound`).  With
        ||R*^{-k} x|| <= c rho^{floor(k/kappa)} |x| and sum_{k >= d}
        rho^{2 floor(k/kappa)} <= kappa rho^{2 floor(d/kappa)} / (1 -
        rho^2), the bound is 4 pi^2 sigma^2 c^2 t_norm^2 kappa
        rho^{2 floor(d/kappa)} / (1 - rho^2): that of |mu_hat|^2, and twice
        what mu_hat needs.
        """
        if self._sigma == 0.0:
            return 0.0
        a = 2.0 * math.pi * self._sigma * self._c * t_norm
        # a * a, not a ** 2: a float ** raises OverflowError where a * a is inf
        amp, r = a * a, self._rho ** 2
        if amp == math.inf:
            return amp                  # where r^{floor(d/kappa)} underflows to 0
        return amp * (self._kappa * r ** (depth // self._kappa) / (1.0 - r))

    def depth_for(self, t_norm: float) -> int:
        """Smallest product depth d >= 1 whose tail bound is below
        DEFAULT_TAIL_TOL, or MAX_PRODUCT_DEPTH when no smaller one is."""
        return self._least_depth(self.tail_bound, t_norm, self.tail_bound(0, t_norm), 0.0)

    def sq_tail_bound(self, depth: int, t_norm: float) -> float:
        """Bound on how far a call of `mu_hat_sq_sums` at `depth` can put
        |mu_hat|^2 from the exact value, on either side, at any frequency x
        with |x| <= t_norm: its product of the levels k < depth times the
        closure level, the bracket's |b(A x)|^2 with A' Sigma_B A = Q_d (see
        `_closure`), or `tail_bound` when the measure has no closure.

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
        With Q at most `tail_bound`, |S^k x| <= c rho^{floor(k/kappa)} |x|,
        S4 <= (k4 y)^4 and s(A x) <= (kA y)^4, y = c t_norm
        rho^{floor(d/kappa)} (`_closure`), the bound is min(Q, max((kA y)^4,
        (k4 y)^4 + Q^2/2)): quartic in the norm, and never above
        `tail_bound`.
        """
        quad = self.tail_bound(depth, t_norm)
        if self._V is None:
            return quad
        kA, k4 = self._quartic
        y = self._c * t_norm * self._rho ** (depth // self._kappa)
        a, b = kA * y, k4 * y
        a, b = a * a, b * b
        closed = max(a * a, b * b + quad * quad / 2)
        return closed if closed < quad else quad        # also where y is NaN

    def sq_depth_for(self, t_norm: float) -> int:
        """The depth of a call of `mu_hat_sq_sums`: the smallest d >= 1 whose
        `sq_tail_bound` is below DEFAULT_TAIL_TOL (MAX_PRODUCT_DEPTH when no
        smaller one is), rounded up on two digits so that the levels of the
        call, the closure included, fill whole table rows (`_rows`): an odd
        d with a closure, an even one without."""
        head = self.tail_bound(0, t_norm)
        if self._V is None:
            d = self._least_depth(self.tail_bound, t_norm, head, 0.0)
            return d + d % self._per
        kA, k4 = self._quartic
        a, b = kA * self._c * t_norm, k4 * self._c * t_norm
        a, b = a * a, b * b
        d = self._least_depth(self.sq_tail_bound, t_norm, head,
                              max(a * a, b * b + head * head / 2))
        return d + (d + 1) % self._per

    def _least_depth(self, bound, t_norm: float, head: float, quartic: float) -> int:
        """Smallest d >= 1 with bound(d, t_norm) below DEFAULT_TAIL_TOL, or
        MAX_PRODUCT_DEPTH when no smaller one is: for `tail_bound`, whose
        value is its depth-0 value `head` times q = r^{floor(d/kappa)},
        r = rho^2, or for `sq_tail_bound`, min(head q, quartic q^2).

        One logarithm places d at the least q that meets the tolerance;
        steps of `bound` itself then settle the rounding, so d is the one a
        depth-by-depth search would find.
        """
        if not head >= DEFAULT_TAIL_TOL:             # also a zero or NaN norm
            d = 1
        elif head == math.inf:
            d = MAX_PRODUCT_DEPTH
        else:
            q = DEFAULT_TAIL_TOL / head
            if quartic:
                q = max(q, math.sqrt(DEFAULT_TAIL_TOL / quartic))
            q = math.floor(math.log(q) / math.log(self._rho ** 2)) + 1
            d = min(max(self._kappa * q, 1), MAX_PRODUCT_DEPTH)
        while d > 1 and bound(d - 1, t_norm) < DEFAULT_TAIL_TOL:
            d -= 1
        while d < MAX_PRODUCT_DEPTH and bound(d, t_norm) >= DEFAULT_TAIL_TOL:
            d += 1
        return d

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
        the float points decide the depth either way.  The product of
        `_brackets` is squared tile by tile; the mean phase has modulus one
        and is left out.  Each bracket is formed before it is squared, so a
        factor near a zero of the mask keeps |chi_B|^2 accurate to rounding
        squared.  The kernel reduces each row tile as it finishes it, so no
        (m, n) array is formed."""
        T, Lam = probe_rows(T, self.dim), probe_rows(Lam, self.dim)
        t_norm = _max_distance(T, Lam)
        depth = self.sq_depth_for(t_norm)
        return self._brackets(*tables(depth), starts), self.sq_tail_bound(depth, t_norm)


def _exact_residues(sys: AffineSystem, digits, count: int) -> np.ndarray:
    """(count, N - 1, J) floats in [0, 1): (R^n e_j).l mod 1 for n < count,
    each digit l of `digits` past the first, 0, and each exact row e_j of
    the mask (`AffineSystem.mask_rows`).  It is the phase e_j.R*^{i-k} l, in
    turns, of a digit l of level i at kernel level k <= i, n = i - k.

    On the integer lifts R = Ri / r, E = Ei / e and L = Li / s it is
    (Li.Ri^n Ei_j mod r^n e s) / (r^n e s), rounded once, so it is exact to
    half an ulp however large R*^i l is.  Every modulus divides
    M = r^(count-1) e s, so the lifts and the powers Ri^n Ei are kept mod M,
    and the powers are taken by doubling: the stack of the first 2^k is the
    one before times Ri^(2^k).  They are integers in floats while every
    product, at most dim M^2, stays below 2^53, and Python ints otherwise."""
    Ri, r = rat.lift(sys.R.entries)
    Ei, e = rat.lift(sys.mask_rows[0])
    Li, s = rat.lift(digits[1:])
    M = e * s * r ** (count - 1)
    dtype = float if sys.dim * M * M < 2 ** 53 else object
    P, powers, Li = (np.array([[x % M for x in row] for row in A], dtype).reshape(len(A), sys.dim)
                     for A in (Ri, Ei, Li))
    powers = powers.T[None]
    while len(powers) < count:
        powers = np.concatenate([powers, P @ powers % M])
        P = P @ P % M
    den = e * s * np.array([r ** n for n in range(count)], dtype)[:, None, None]
    return np.asarray(Li @ powers[:count] % den / den, dtype=float)


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
    call, so the residue and probe tables are laid out as the closure rows
    of the depths the pass reaches next, one slot and the full rows, and
    the low table as the slot and the full rows: a call puts its closure
    row into the slot (the low table's is formed anew when a call reads
    another closure row than the call before), and its tables are the slot
    and its full rows.
    """

    def __init__(self, measure: SelfSimilarMeasure, T: np.ndarray, levels, digits):
        sys = measure.system
        count, N, dim = len(levels), sys.N, sys.dim
        self._measure, self._T = measure, T
        self._per = measure._per                    # levels per table row
        self._real = sys.mask_table[2]
        self._exact = _exact_residues(sys, digits, count)
        K = count * (N - 1)
        tagged = np.zeros((count, N, dim + K))
        tagged[:, :, :dim] = levels
        tagged[:, 1:, dim:] = np.eye(K).reshape(count, N - 1, K)
        self.tagged = list(tagged)
        self._L = tagged[0, 1:, :dim]               # the digits past 0, in floats
        self._F = tagged[:, 1:, :dim].reshape(K, dim)    # every digit column's float point
        # the rows before the full rows: the closure rows of the depths
        # first, first + per, ..., first + _AHEAD (`_grow`) and the slot
        self._lead = _AHEAD // self._per + 2 if measure._V is not None else 0
        # `_grow` sets the residues W by level and, in the layout above, the
        # residue rows (rows, width, K) and the probe rows' weighted complex
        # tables; `_low_rows` sets the low table, its points' digit columns
        # and the index of the closure row in its slot
        self._W = np.empty((0, K, self._exact.shape[2]))
        self._first, self._low, self._low_digits, self._low_slot = 0, None, None, None

    def _grow(self, depth: int) -> None:
        """Build the residue rows and the probe tables of the kernel levels
        below depth + _AHEAD and of the closure rows of the depths depth,
        depth + per, ..., depth + _AHEAD, once a call asks for a depth
        outside those, so a pass whose calls go a level deeper each builds
        them every _AHEAD calls (a pass's calls never go shallower; one
        that did would build them again, with no fewer levels).  Level k of
        W holds in column i (N - 1) + a - 1 the residue of digit a of level
        i, exact where i >= k.  The closure row of a call of depth d is its
        closure alone, or on two digits its closure beside its last level
        d - 1 (`SelfSimilarMeasure.sq_depth_for` makes d odd)."""
        lead = self._lead
        if depth <= len(self._W) and (not lead or self._first <= depth <= self._first + _AHEAD):
            return
        D, measure, per = max(depth + _AHEAD, len(self._W)), self._measure, self._per
        U = measure._level_data(D)
        below = self._L @ U[:0:-1] / (2 * np.pi)     # e_j.R*^-n l for n = D - 1 .. 1
        G = np.concatenate([below, self._exact])    # index i - k + D - 1
        idx = np.arange(len(self._exact)) - np.arange(D)[:, None] + D - 1
        W = self._W = G[idx].reshape(D, -1, G.shape[2])
        full = D // per
        rows, columns = [measure._rows(W[:per * full])], [measure._rows(U[:per * full])]
        if lead:
            # the closure rows, and the slot as a copy of the last of them
            C = measure._closure_data(depth + _AHEAD + 1)[depth::per]
            Wc = self._F @ C / (2 * np.pi)           # the digits' closure phases
            if per == 2:
                last = slice(depth - 1, depth + _AHEAD, 2)
                Wc, C = _join(W[last], Wc), _join(U[last], C)
            rows, columns = [Wc, Wc[-1:]] + rows, [C, C[-1:]] + columns
            self._first = depth
        self._rows = np.swapaxes(np.concatenate(rows), 1, 2)
        self._probe = _unit_table(np.swapaxes(np.concatenate(columns), 1, 2) @ self._T.T,
                                  False) * self._measure._w[:, None]
        self._low_slot = None                       # the closure rows are new

    def _low_table(self, phases: np.ndarray) -> np.ndarray:
        """The lambda side of `_brackets` at the phases of points, in turns:
        the table of e^{i 2 pi phi} on a real mask, of e^{-i 2 pi phi} on a
        complex one."""
        return _unit_table(_turns(phases, 1 if self._real else -1), self._real)

    def _low_rows(self, low: np.ndarray, shared: bool, start: int, end: int,
                  closing) -> np.ndarray:
        """The lambda side of `_brackets` at the rows start..end of the
        tables (the slot and a call's full rows, or its full rows alone) for
        points with digit columns `low`: from the pass's low table, which
        holds the slot and the full rows, when they are its first points
        (`shared`).  Its slot holds the closure row at index `closing` of
        the tables, formed anew over the table's points when a call reads
        another one."""
        if not shared:
            return self._low_table(self._rows[start:end] @ low.T)
        if self._low is None:
            # the first call's rows; a deeper call takes every row built
            self._low = self._low_table(self._rows[start:end] @ low.T)
            self._low_digits, self._low_slot = low.T, closing
        elif closing != self._low_slot:
            self._low[0] = self._low_table(self._rows[start:start + 1] @ self._low_digits)[0]
            self._low_slot = closing
        n, have = len(low), self._low_digits.shape[1]
        if n > have:
            new = self._low_table(self._rows[start:start + len(self._low)] @ low[have:].T)
            self._low = np.concatenate([self._low, new], axis=2)
            self._low_digits = np.concatenate([self._low_digits, low[have:].T], axis=1)
        if end > start + len(self._low):
            new = self._low_table(self._rows[start + len(self._low):] @ self._low_digits)
            self._low = np.concatenate([self._low, new])
        return self._low[:end - start, :, :n]

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
            self._rows[start], self._probe[start] = self._rows[i], self._probe[i]
        else:
            i, start, end = None, 0, depth // per
        rows, probe = self._rows[start:end], self._probe[start:end]
        if eta is not None:
            z = _unit_table(_turns(rows @ eta.T, -1), False)
            probe = (probe[..., None] * z[:, :, None, :]).reshape(probe.shape[:2] + (-1,))
        if self._real:
            probe = np.concatenate([probe.real, probe.imag], axis=1)
        return np.swapaxes(probe, 1, 2), self._low_rows(low, shared, start, end, i)
