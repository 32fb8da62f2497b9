"""Fourier side of a self-similar measure: the transform and |mu_hat|^2 as
truncated products over one bracket kernel, with tail bounds."""

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


class SelfSimilarMeasure:
    """The probability measure carried by (R, B); only the B side is used."""

    def __init__(self, sys: AffineSystem):
        if not sys.R.is_expansive():
            raise ValueError("transform evaluation needs an expansive matrix "
                             "(tail bound unavailable otherwise)")
        self.system = sys
        self.dim = sys.dim
        self._S = np.array(sys.R.inverse_transpose, dtype=float)
        self._kappa, self._rho, self._c = _contraction_data(self._S)
        # on B = I / s, with sigma^2 = N^-1 sum_b |b - c|^2 and c the mean of B:
        # (s max_b|b|)^2 = max_b |I_b|^2 and (N s sigma)^2 = N sum_b |I_b|^2 - |sum_b I_b|^2
        I, s = rat.lift(sys.B)
        sq, total = [rat.dot(b, b) for b in I], [sum(col) for col in zip(*I)]
        self._b_max = rat.sqrt_ratio(max(sq), s * s)
        self._sigma = rat.sqrt_ratio(sys.N * sum(sq) - rat.dot(total, total), (sys.N * s) ** 2)
        E, _, _, c = sys.mask_table
        # the level frequencies and centres built so far; see _level_data
        self._stack = (2 * np.pi * E.T[None], np.array(c, dtype=float)[None])

    # -- tail machinery ----------------------------------------------------
    def _form(self, squared: bool) -> tuple:
        """(s, r) of a tail bound's form: (sigma, rho^2) for |mu_hat|^2 and
        (max_b|b|, rho) for mu_hat."""
        return (self._sigma, self._rho ** 2) if squared else (self._b_max, self._rho)

    def tail_bound(self, depth: int, t_norm: float, squared: bool) -> float:
        """Bound on what the levels k >= depth can move the product at any
        frequency x with |x| <= t_norm, via ||R*^{-k} x|| <=
        c rho^{floor(k/kappa)} |x| and sum_{k >= d} r^{floor(k/kappa)} <=
        kappa r^{floor(d/kappa)} / (1 - r).

        Linear form, for mu_hat: |1 - chi_B(y)| <= 2 pi max_b|b| |y| and
        |prod a_k - prod b_k| <= sum |a_k - b_k| for factors of modulus at
        most one give 2 pi max_b|b| c t_norm kappa rho^{floor(d/kappa)} / (1 - rho).

        Squared form, for |mu_hat|^2: with sigma^2 = N^-1 sum_b |b - c|^2
        and c the mean of B, 1 - |chi_B(y)|^2 = N^-2 sum_{b,b'} (1 -
        cos 2 pi (b - b').y) <= 4 pi^2 sigma^2 |y|^2.  With a_k =
        |chi_B(R*^{-k} x)|^2 in [0, 1], 0 <= prod_{k<d} a_k - prod_k a_k <=
        sum_{k>=d} (1 - a_k), so the bound is 4 pi^2 sigma^2 c^2 t_norm^2
        kappa rho^{2 floor(d/kappa)} / (1 - rho^2), and the truncated value
        is never below the true one.
        """
        s, r = self._form(squared)
        if s == 0.0:
            return 0.0
        a = 2.0 * math.pi * s * self._c * t_norm
        # a * a, not a ** 2: a float ** raises OverflowError where a * a is inf
        amp = a * a if squared else a
        if amp == math.inf:
            return amp                  # where r^{floor(d/kappa)} underflows to 0
        return amp * (self._kappa * r ** (depth // self._kappa) / (1.0 - r))

    def depth_for(self, t_norm: float, squared: bool) -> int:
        """Smallest product depth d >= 1 whose tail bound (of the form
        `squared` picks) is below DEFAULT_TAIL_TOL, or MAX_PRODUCT_DEPTH when
        no smaller one is.

        Either bound is its depth-0 value times r^{floor(d/kappa)}, with
        r = rho for the linear form and rho^2 for the squared one, so one
        logarithm places d; steps of `tail_bound` itself then settle the
        rounding, so d is the one a depth-by-depth search would find.  The
        squared bound is below the linear one wherever the linear one meets
        the tolerance (sigma <= max_b|b|), so its depth is never deeper.
        """
        head = self.tail_bound(0, t_norm, squared)
        if not head >= DEFAULT_TAIL_TOL:             # also a zero or NaN norm
            d = 1
        elif head == math.inf:
            d = MAX_PRODUCT_DEPTH
        else:
            r = self._form(squared)[1]
            q = math.floor(math.log(DEFAULT_TAIL_TOL / head) / math.log(r)) + 1
            d = min(max(self._kappa * q, 1), MAX_PRODUCT_DEPTH)
        while d > 1 and self.tail_bound(d - 1, t_norm, squared) < DEFAULT_TAIL_TOL:
            d -= 1
        while d < MAX_PRODUCT_DEPTH and self.tail_bound(d, t_norm, squared) >= DEFAULT_TAIL_TOL:
            d += 1
        return d

    # -- evaluation --------------------------------------------------------
    def _level_data(self, depth: int):
        """(U, C) of the depth-`depth` product: U of shape (depth, dim, J)
        stacks the columns u_kj = 2 pi R*^{-k}' e_j of each level k, e_j the
        rows of E in `AffineSystem.mask_table`, and C of shape (depth, dim)
        the level centres R*^{-k}' c.  Both follow the recurrence
        x_{k+1} = R*^{-1}' x_k, run once per level and measure: a deeper
        product extends the stack, a shallower one takes a slice."""
        U, C = self._stack
        if depth > len(U):
            built = len(U)
            U = np.concatenate([U, np.empty((depth - built,) + U.shape[1:])])
            C = np.concatenate([C, np.empty((depth - built, self.dim))])
            for k in range(built, depth):
                np.matmul(self._S.T, U[k - 1], out=U[k])
                np.matmul(self._S.T, C[k - 1], out=C[k])
            self._stack = U, C
        return U[:depth], C[:depth]

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
        U, _ = self._level_data(depth)
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
        array: `_brackets` times the centre phase e^{i 2 pi c_d.(t - lambda)},
        with c_d = sum_{k < depth} R*^{-k}' c."""
        _, C = self._level_data(depth)
        cd = np.cumsum(C, axis=0)[-1] if depth else np.zeros(self.dim)
        out = self._brackets(T, Lam, depth, None) * np.exp(2j * np.pi * (T @ cd))[:, None]
        out *= np.exp(-2j * np.pi * (Lam @ cd))[None, :]
        return out

    def _adaptive(self, T, Lam, depth, squared):
        """T and Lam as (m, dim) and (n, dim) arrays (`probe_rows`), the
        depth (when None, the one that meets the tail tolerance at the
        largest |t - lambda|), and its tail bound at that distance;
        `squared` picks the tail of |mu_hat|^2 over that of mu_hat."""
        T, Lam = probe_rows(T, self.dim), probe_rows(Lam, self.dim)
        t_norm = _max_distance(T, Lam)
        if depth is None:
            depth = self.depth_for(t_norm, squared)
        return T, Lam, depth, self.tail_bound(depth, t_norm, squared)

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
        T, origin, depth, tail = self._adaptive(T, np.zeros(self.dim), depth, squared=False)
        return self._pairs(T, origin, depth).reshape(shape), tail

    def mu_hat_pairs(self, T, Lam):
        """mu_hat(t - lambda) for every row t of T and lambda of Lam: the
        (m, n) complex array and the tail bound of the adaptive depth."""
        T, Lam, depth, tail = self._adaptive(T, Lam, None, squared=False)
        return self._pairs(T, Lam, depth), tail

    def mu_hat_sq_sums(self, T, Lam, starts):
        """The row sums of |mu_hat(t - lambda)|^2, t a row of T and lambda of
        Lam, over the column groups that begin at `starts` (see
        `_group_sums`; an empty group sums to 0): the (m, len(starts)) array
        and the squared-form tail bound of its own adaptive depth, which the
        truncated values overestimate by at most that bound.  The product of
        `_brackets` is squared tile by tile; the centre phase has modulus one
        and is left out.  Each bracket is formed before it is squared, so a
        factor near a zero of the mask keeps |chi_B|^2 accurate to rounding
        squared.  The kernel reduces each row tile as it finishes it, so no
        (m, n) array is formed."""
        T, Lam, depth, tail = self._adaptive(T, Lam, None, squared=True)
        return self._brackets(T, Lam, depth, starts), tail

