"""Fourier side of a self-similar measure: the transform and |mu_hat|^2 as
truncated products over one bracket kernel, with one tail bound."""

from __future__ import annotations

import math

import numpy as np

from . import rational as rat
from .system import AffineSystem, probe_rows

DEFAULT_TAIL_TOL = 1e-10
MAX_PRODUCT_DEPTH = 200
STACK_ENTRIES = 1 << 15     # (level, t, lambda) entries of one stacked product in _brackets


def _contraction_data(S: np.ndarray):
    """Smallest power kappa <= MAX_PRODUCT_DEPTH with ||S^kappa||_op < 1, plus
    the geometric data (rho, c) bounding ||S^n t|| <= c rho^{floor(n/kappa)} ||t||.
    A shear can take many powers to contract: R = [[2, 100], [0, 2]] first
    contracts at kappa = 9."""
    power, c = np.eye(S.shape[0]), 1.0      # c: the largest ||S^j||_op, j < k
    for k in range(1, MAX_PRODUCT_DEPTH + 1):
        power = power @ S
        nrm = float(np.linalg.norm(power, 2))
        if nrm < 1.0:
            return k, nrm, c
        c = max(c, nrm)
    raise ValueError(f"no power S^k, k <= {MAX_PRODUCT_DEPTH}, of the inverse transpose "
                     f"S = R*^-1 has operator norm below 1, so the transform's tail "
                     f"bound is unavailable")


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
        nonnegative, so the truncated |mu_hat|^2 is never below the true
        one).  With ||R*^{-k} x|| <= c rho^{floor(k/kappa)} |x| and
        sum_{k >= d} rho^{2 floor(k/kappa)} <= kappa rho^{2 floor(d/kappa)}
        / (1 - rho^2), the bound is 4 pi^2 sigma^2 c^2 t_norm^2 kappa
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
        DEFAULT_TAIL_TOL, or MAX_PRODUCT_DEPTH when no smaller one is.

        The bound is its depth-0 value times r^{floor(d/kappa)}, r = rho^2,
        so one logarithm places d; steps of `tail_bound` itself then settle
        the rounding, so d is the one a depth-by-depth search would find.
        """
        head = self.tail_bound(0, t_norm)
        if not head >= DEFAULT_TAIL_TOL:             # also a zero or NaN norm
            d = 1
        elif head == math.inf:
            d = MAX_PRODUCT_DEPTH
        else:
            q = math.floor(math.log(DEFAULT_TAIL_TOL / head) / math.log(self._rho ** 2)) + 1
            d = min(max(self._kappa * q, 1), MAX_PRODUCT_DEPTH)
        while d > 1 and self.tail_bound(d - 1, t_norm) < DEFAULT_TAIL_TOL:
            d -= 1
        while d < MAX_PRODUCT_DEPTH and self.tail_bound(d, t_norm) >= DEFAULT_TAIL_TOL:
            d += 1
        return d

    # -- evaluation --------------------------------------------------------
    def _level_data(self, depth: int) -> np.ndarray:
        """U of shape (depth, dim, J), the columns u_kj = 2 pi R*^{-k}' e_j
        of each level k < depth, e_j the rows of E in
        `AffineSystem.mask_table`.  It follows the recurrence
        u_{k+1} = R*^{-1}' u_k, run once per level and measure: a deeper
        product extends the stack, a shallower one takes a slice."""
        U = self._U
        if depth > len(U):
            built = len(U)
            U = np.concatenate([U, np.empty((depth - built,) + U.shape[1:])])
            for k in range(built, depth):
                np.matmul(self._S.T, U[k - 1], out=U[k])
            self._U = U
        return U[:depth]

    def _brackets(self, T: np.ndarray, Lam: np.ndarray, depth: int, starts) -> np.ndarray:
        """The product over levels k < depth of the bracket of
        `AffineSystem.mask_table`, sum_j w_j e^{i u_kj.(t - lambda)}, for
        every row t of T and lambda of Lam: an (m, n) array, real when the
        table is, for `starts` None.  Given the column groups `starts` of
        `_group_sums`, it returns instead the (m, len(starts)) row sums of
        the squared modulus of that product over each group, and no (m, n)
        array is formed.

        Angle addition splits each term into a t side and a lambda side, so
        one matrix product forms a level's bracket: [w cos pt, w sin pt] @
        [cos pl; sin pl] for a real table, [w e^{i pt}] @ [e^{-i pl}] for a
        complex one, with pt = t.u_kj and pl = lambda.u_kj.  A digit at the
        centre is a zero column u_kj, whose term is its weight.

        The tables are formed once per call for all levels, in one
        (depth, width, m + n) array whose first m columns are the t side and
        the rest the lambda side: one stacked product for the angles, one cos
        and one sin, then the weights, set once.  The level loop forms c
        levels with c m n <= STACK_ENTRIES by one matrix product into one
        (c, m, n) buffer, reused by every step, and multiplies them into the
        result: a small block takes all its levels in one step, a large one
        a level per step.  A block of more than 2 STACK_ENTRIES pairs runs
        all its levels on one tile of rows of `_row_tile` before the next,
        so the level buffer and the result rows it multiplies stay in cache;
        every tile reuses one tile-sized buffer.  The reduction squares each finished tile in place and adds
        its rows over the groups, so the result is one tile-sized buffer
        too; every element is the same product, only summed tile by tile.

        A two-digit table (N = 2: real, one row e of weight 1) takes two
        levels per table row, by cos a cos b = (cos(a + b) + cos(a - b)) / 2:
        the columns u_k and u_{k+1} of levels k and k + 1 become the row
        pair u_k + u_{k+1}, u_k - u_{k+1} at weights 1/2 and 1/2, and the
        tables and the level loop above run on these rows as they do on
        levels, so one width-4 product joins two levels where two width-2
        products and two multiplies did.  An odd
        depth pads one zero level, which is exact: its row pair is u_k, u_k,
        and cos(a)/2 + cos(a)/2 = cos a is the last level itself.
        """
        _, w, real, _ = self.system.mask_table
        U = self._level_data(depth)
        if self.system.N == 2:
            U = np.concatenate([U, np.zeros((depth % 2,) + U.shape[1:])])
            U = np.concatenate([U[0::2] + U[1::2], U[0::2] - U[1::2]], axis=2)
            w, depth = np.array([0.5, 0.5]), len(U)
        m, n, J = len(T), len(Lam), len(w)
        w, dtype = (np.concatenate([w, w]), float) if real else (w, complex)
        # a complex table's lambda side is e^{-i pl}, at the angles of -lambda
        # (exact; numpy 2.4's in-place negative of those columns of P is wrong
        # at a 64-byte stride)
        X = np.concatenate([T, Lam if real else -Lam])
        P = np.swapaxes(U, 1, 2) @ X.T              # (depth, J, m + n)
        tab = np.empty((depth, len(w), m + n), dtype=dtype)
        if real:
            np.cos(P, out=tab[:, :J])
            np.sin(P, out=tab[:, J:])
        else:
            np.cos(P, out=tab.real)
            np.sin(P, out=tab.imag)
        del X, P
        tab[:, :, :m] *= w[:, None]
        left, right = np.swapaxes(tab[..., :m], 1, 2), tab[..., m:]
        rows = _row_tile(m, n)
        tile = min(rows, m) * n
        step = max(1, STACK_ENTRIES // max(tile, 1))
        buf = np.empty(min(step, depth) * tile, dtype=dtype)
        out = np.ones((m if starts is None else min(rows, m), n), dtype=dtype)
        sums = None if starts is None else np.zeros((m, len(starts)))
        for i in range(0, m, rows):
            lhs = left[:, i:i + rows]
            block = out[i:i + rows] if starts is None else out[:lhs.shape[1]]
            for k in range(0, depth, step):
                c = min(step, depth - k)
                level = buf[:c * block.size].reshape((c,) + block.shape)
                np.matmul(lhs[k:k + step], right[k:k + step], out=level)
                block *= level[0] if len(level) == 1 else level.prod(axis=0)
            if starts is not None:
                _group_sums(_abs_sq(block), starts, sums[i:i + rows])
                block.fill(1)               # the next tile's product starts from ones
        return out if starts is None else sums

    def _pairs(self, T: np.ndarray, Lam: np.ndarray, depth: int) -> np.ndarray:
        """The depth-`depth` product mu_hat(t - lambda) as an (m, n) complex
        array: `_brackets` times the mean phase e^{i 2 pi m.(t - lambda)},
        m the mean of mu (`_mean`, once per system)."""
        mean = self.system.once("mean", lambda: _mean(self.system))
        out = self._brackets(T, Lam, depth, None) * np.exp(2j * np.pi * (T @ mean))[:, None]
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

    def mu_hat_sq_sums(self, T, Lam, starts):
        """The row sums of |mu_hat(t - lambda)|^2, t a row of T and lambda of
        Lam, over the column groups that begin at `starts` (see
        `_group_sums`; an empty group sums to 0): the (m, len(starts)) array
        and the tail bound of its own adaptive depth, which the truncated
        values overestimate by at most that bound.  The product of
        `_brackets` is squared tile by tile; the mean phase has modulus one
        and is left out.  Each bracket is formed before it is squared, so a
        factor near a zero of the mask keeps |chi_B|^2 accurate to rounding
        squared.  The kernel reduces each row tile as it finishes it, so no
        (m, n) array is formed."""
        T, Lam, depth, tail = self._adaptive(T, Lam, None)
        return self._brackets(T, Lam, depth, starts), tail
