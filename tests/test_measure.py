import json
import math
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracspec as fs
from fracspec import rational as rat
from oracles import (ConvolvedMeasure, ZeroSetPredicate, atoms, float_sq_sums, max_diag_defect,
                     mu2_closed_form, mu_hat_sq_pairs, per_digit_levels, sq_levels,
                     support_diameter)


def per_digit_product(meas, X):
    """Reference transform at the rows of X, shape (..., dim): the per-digit
    product of `mean_phase_levels` at the adaptive depth of the largest |x|.
    A convolution multiplies its parts' products and adds their tails.
    Returns (values, tail bound)."""
    X = np.asarray(X, dtype=float)
    norm = float(np.sqrt((X ** 2).sum(axis=-1)).max())
    vals, tail = np.ones(X.shape[:-1], dtype=complex), 0.0
    for part in getattr(meas, "parts", (meas,)):
        depth = part.depth_for(norm)
        vals = vals * mean_phase_levels(part.system, X, depth)
        tail += part.tail_bound(depth, norm)
    return vals, tail


def exact_mean(sysm):
    """The mean of the measure as exact rationals: its first moments."""
    table = moments(sysm, 1)
    return tuple(table[tuple(int(i == j) for j in range(sysm.dim))] for i in range(sysm.dim))


def mean_phase_levels(sysm, X, depth):
    """The depth-`depth` transform with its whole mean phase, at the rows of
    X: the per-digit product, whose phase is e^{i 2 pi c_d.x} with
    c_d = sum_{k < depth} R^{-k} c, times e^{i 2 pi (m - c_d).x}, m the
    exact mean (`exact_mean`).  m - c_d = R^{-depth} m exactly."""
    rest = exact_mean(sysm)
    for _ in range(depth):
        rest = rat.mat_vec(sysm.R.inverse, rest)
    phase = np.exp(2j * np.pi * (X @ np.array(rest, dtype=float)))
    return per_digit_levels(sysm, X, depth) * phase


def full_depth_sq(meas, T, Lam, depth=fs.measure.MAX_PRODUCT_DEPTH):
    """|mu_hat(t - lambda)|^2 from the same brackets as the kernel, as the
    plain product of the levels below `depth`, by default
    MAX_PRODUCT_DEPTH: the value a plain truncation may only exceed, and by
    at most its tail."""
    T = np.asarray(T, dtype=float).reshape(-1, meas.dim)
    Lam = np.asarray(Lam, dtype=float).reshape(-1, meas.dim)
    tables = meas._side_tables(T, Lam, meas._level_data(depth))
    return np.abs(meas._brackets(*tables, None)) ** 2


def closure_matrix(sysm, depth):
    """A_d = G S^d with G = Sigma_B^{+1/2} Q_0^{1/2} and Q_0 = sum_k S^k'
    Sigma_B S^k summed level by level until S^k < 1e-20, so that A_d'
    Sigma_B A_d = Q_d, the quadratic form of the levels k >= d; None when
    no A_d has it, Q_0 not in the range of Sigma_B, or when Sigma_B = 0."""
    S = np.array(sysm.R.inverse_transpose, dtype=float)
    B = sysm.b_array()
    centred = B - B.mean(axis=0)
    sigma = centred.T @ centred / sysm.N
    if not sigma.any():
        return None
    Q, power = np.zeros_like(sigma), np.eye(sysm.dim)
    while np.abs(power).max() > 1e-20:
        Q += power.T @ sigma @ power
        power = power @ S
    lam, vec = np.linalg.eigh(sigma)
    keep = lam > 1e-12 * lam.max()
    span = vec[:, keep] @ vec[:, keep].T
    if np.abs(Q - span @ Q @ span).max() > 1e-9 * np.abs(Q).max():
        return None
    lam_q, vec_q = np.linalg.eigh(Q)
    G = (vec[:, keep] / np.sqrt(lam[keep])) @ vec[:, keep].T \
        @ (vec_q * np.sqrt(np.maximum(lam_q, 0))) @ vec_q.T
    return G @ np.linalg.matrix_power(S, depth)


def closed_sq_levels(sysm, X, depth):
    """The closed |mu_hat|^2 of `mu_hat_sq_sums` at the rows of X, shape
    (..., dim), per digit: |prod_{k < depth} b(R*^-k x)|^2 times the
    closure |b(A_d x)|^2 (`closure_matrix`), or the plain product where
    there is no closure."""
    sq = np.abs(per_digit_levels(sysm, X, depth)) ** 2
    A = closure_matrix(sysm, depth)
    return sq if A is None else sq * np.abs(per_digit_levels(sysm, X @ A.T, 1)) ** 2


def closed_sq_product(meas, X):
    """`closed_sq_levels` at the depth of `sq_depth_for` at the largest |x|,
    with its `sq_tail_bound`: the values and tail `mu_hat_sq_sums` reports."""
    X = np.asarray(X, dtype=float)
    norm = float(np.sqrt((X ** 2).sum(axis=-1)).max())
    depth = meas.sq_depth_for(norm)
    return closed_sq_levels(meas.system, X, depth), meas.sq_tail_bound(depth, norm)


def _named_system(name):
    """A catalog system, "R=r" for (r, {0, 1/2}, {0, 1}), or "shear", whose
    inverse transpose first contracts at its ninth power."""
    if name.startswith("R="):
        return fs.two_digit_system(int(name[2:]), Fraction(1, 2))
    if name == "shear":
        return fs.make_system([[2, 100], [0, 2]], [(0, 0), (Fraction(1, 2), 0)],
                              [(0, 0), (1, 0)])
    return fs.get_system(name)


def _measure(request, name):
    meas = request.getfixturevalue(name)
    return fs.SelfSimilarMeasure(meas) if isinstance(meas, fs.AffineSystem) else meas


def _probe_pairs(dim):
    """Six probes t and forty points lambda with |t - lambda| <= 50."""
    rng = np.random.RandomState(11)
    T = rng.uniform(-1, 1, size=(6, dim))
    Lam = rng.uniform(-1, 1, size=(40, dim))
    Lam *= rng.uniform(0, 49, size=(40, 1)) / np.linalg.norm(Lam, axis=1, keepdims=True)
    return T, Lam


def _at_depths(values):
    """(value, depth) cases: each value at depth 30, with the value as its
    id, and at the odd depths 29 and 31, with the depth in its id."""
    return [pytest.param(v, d, id=str(v) if d == 30 else f"{v}-depth{d}")
            for d in (30, 29, 31) for v in values]


class TestMuHat:
    def test_at_zero_exact(self, mu4, mu2, mu3):
        for m in (mu4, mu2, mu3):
            assert m.mu_hat_batch(0.0, depth=10)[0] == 1.0

    def test_mu2_against_closed_form(self, mu2):
        v = mu2.mu_hat_batch(0.5, depth=40)[0]
        assert abs(v - 2j / math.pi) < 1e-8

    def test_mu4_vanishes_at_one(self, mu4):
        assert abs(mu4.mu_hat_batch(1.0, depth=40)[0]) <= 1e-8

    def test_recursion_consistency(self, mu4, scale4):
        rng = np.random.RandomState(5)
        for t in rng.uniform(-8, 8, 20):
            lhs = mu4.mu_hat_batch(t, depth=30)[0]
            rhs = fs.chi_B(scale4, (t,)) * mu4.mu_hat_batch(t / 4, depth=29)[0]
            assert abs(lhs - rhs) <= 1e-14

    def test_magnitude_bounded(self, mu4):
        rng = np.random.RandomState(6)
        T = rng.uniform(-50, 50, 200)
        vals, tail = mu4.mu_hat_batch(T, depth=25)
        assert (np.abs(vals) <= 1 + tail).all()

    def test_tail_bound_decreases_geometrically(self, mu4):
        tails = [mu4.tail_bound(d, 10.0) for d in (5, 10, 15, 20)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert tails[-1] < 1e-8 * tails[0]

    def test_adaptive_depth_reaches_tolerance(self, mu4):
        _, tail = mu4.mu_hat_batch(7.25)
        assert tail < 1e-10

    def test_infinite_frequency_has_no_bound(self, mu4):
        # the batch's largest norm is inf: the deepest product and an infinite
        # tail, for the rows of a batch and for pairs alike
        with np.errstate(invalid="ignore"):
            vals, tail = mu4.mu_hat_batch([np.inf, 1.0])
            assert tail == math.inf
            assert vals[1] == mu4.mu_hat_batch([1.0], fs.measure.MAX_PRODUCT_DEPTH)[0][0]
            assert mu4.mu_hat_pairs([[np.inf]], [[1.0]])[1] == math.inf
            assert math.isnan(mu4.mu_hat_batch([np.nan])[1])

    def test_non_expansive_rejected(self):
        # no power of R*^-1 = 1 contracts, so the transform has no tail bound
        sysm = fs.make_system(1, [(0,), (Fraction(1, 2),)], [(0,), (1,)])
        with pytest.raises(ValueError, match="tail bound is unavailable"):
            fs.SelfSimilarMeasure(sysm)

    def test_late_contracting_shear(self):
        # R is expansive (moduli 2, 2), but the first power of R*^-1 of norm
        # below 1 is the ninth (0.88)
        sysm = fs.make_system([[2, 100], [0, 2]], [(0, 0), (Fraction(1, 2), 0)],
                              [(0, 0), (1, 0)])
        assert fs.validate_system(sysm).passed
        assert fs.SelfSimilarMeasure(sysm).mu_hat_batch((0.0, 0.0))[0] == 1
        rep = fs.gram_matrix(sysm, fs.enumerate_P(sysm, 2).coords())
        assert rep.matrix.shape == (4, 4)
        assert rep.max_offdiag <= 1e-8 and max_diag_defect(rep) <= 1e-10

    def test_eiffel_value_finite(self, eiffel2):
        m = fs.SelfSimilarMeasure(eiffel2)
        value, _ = m.mu_hat_batch((1.0, 2.0, 3.0))
        assert np.isfinite(abs(value))


class TestMaxDistance:
    """The largest |t - lambda| of a kernel call, from which the adaptive
    depth and the tail bound are taken."""

    def test_one_dimension_from_the_ranges(self):
        # the extreme coordinates give the same subtraction as the pair, also
        # where |t|^2 + |lambda|^2 - 2 t lambda cancels (points near 1e6)
        rng = np.random.RandomState(8)
        for m, n, shift in ((1, 1, 0), (5, 1, 0), (1, 7, 0), (30, 200, 0), (30, 200, 1e6)):
            T = shift + rng.uniform(-50, 9, (m, 1))
            Lam = shift + rng.uniform(-3, 1e6 if not shift else 1, (n, 1))
            assert fs.measure._max_distance(T, Lam) == np.abs(T - Lam.T).max()
            assert fs.measure._max_distance(Lam, T) == np.abs(T - Lam.T).max()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_inf_and_nan(self, dim):
        dist = fs.measure._max_distance
        col = lambda *x: np.array(x, dtype=float)[:, None] * np.ones(dim)
        with np.errstate(invalid="ignore"):
            assert dist(col(np.inf, 1.0), col(2.0)) == math.inf
            assert dist(col(1.0), col(-np.inf)) == math.inf
            assert dist(col(np.inf), col(np.inf)) == math.inf
            assert math.isnan(dist(col(np.nan, 1.0), col(2.0)))
            assert math.isnan(dist(col(np.inf), col(np.nan)))
        assert dist(col(), col(2.0)) == dist(col(1.0), col()) == 0.0


class TestSquaredPairs:
    """The real |mu_hat(t - lambda)|^2 kernel of the completeness sums, pair
    by pair (one column group per lambda), and the complex kernels."""

    @pytest.mark.parametrize("name", ["scale4", "triadic", "planar", "eiffel2"])
    def test_matches_complex_transform(self, request, name):
        # the closed product, per digit: the levels below its depth and the
        # bracket at A_d x
        meas = _measure(request, name)
        T, Lam = _probe_pairs(meas.dim)
        vals, tail = closed_sq_product(meas, T[:, None, :] - Lam[None, :, :])
        got, got_tail = mu_hat_sq_pairs(meas, T, Lam)
        assert got.shape == (6, 40)
        assert np.abs(got - vals).max() <= 1e-12
        assert got_tail == pytest.approx(tail, rel=1e-12)

    @pytest.mark.parametrize("name", ["scale4", "triadic", "planar", "eiffel2", "mu34"])
    def test_complex_kernels_match_per_digit_product(self, request, name):
        # mu_hat_pairs reads the mask table; the reference takes one
        # exponential per digit
        meas = _measure(request, name)
        T, Lam = _probe_pairs(meas.dim)
        vals, tail = per_digit_product(meas, T[:, None, :] - Lam[None, :, :])
        got, got_tail = meas.mu_hat_pairs(T, Lam)
        assert got.shape == (6, 40)
        assert np.abs(got - vals).max() <= 1e-12
        assert got_tail == pytest.approx(tail, rel=1e-12)

    @pytest.mark.parametrize("name", ["scale4", "triadic", "planar", "eiffel2"])
    def test_batch_matches_per_digit_product(self, request, name):
        # mu_hat_batch of a self-similar measure, at the same differences
        meas = _measure(request, name)
        T, Lam = _probe_pairs(meas.dim)
        diffs = T[:, None, :] - Lam[None, :, :]
        vals, tail = per_digit_product(meas, diffs)
        batch, batch_tail = meas.mu_hat_batch(diffs if meas.dim > 1 else diffs[..., 0])
        assert batch.shape == (6, 40)
        assert np.abs(batch - vals).max() <= 1e-12
        assert batch_tail == pytest.approx(tail, rel=1e-12)

    @pytest.mark.parametrize("R,b", [(7, Fraction(1, 4)), (5, Fraction(1, 2)),
                                     (-7, Fraction(3, 2)), (3, Fraction(2, 3))])
    def test_mpmath_oracle_at_large_frequencies(self, R, b):
        # |mu_hat(x)|^2 = prod_{k>=0} cos^2(pi b R^-k x) for B = {0, b}, at 60
        # digits with the exact depth-14 spectrum points; |lambda| reaches 1e11
        sysm = fs.two_digit_system(R, b)
        rng = random.Random(R * 1000 + b.denominator)
        words = [[sysm.L[(n >> k) & 1] for k in range(14)]
                 for n in rng.sample(range(2 ** 14), 60)]
        lams = [sum(l[0] * Fraction(R) ** k for k, l in enumerate(w)) for w in words]
        probes = np.array([0.25, -0.625])
        got, _ = mu_hat_sq_pairs(fs.SelfSimilarMeasure(sysm), probes,
                                 np.array([float(lam) for lam in lams]))
        with mpmath.workdps(60):
            pib = mpmath.pi * b.numerator / b.denominator
            for i, t in enumerate(probes):
                for j, lam in enumerate(lams):
                    x = mpmath.mpf(t) - mpmath.mpf(lam.numerator) / lam.denominator
                    exact, k = mpmath.mpf(1), 0
                    while abs(pib * x) >= mpmath.mpf(10) ** -35 * abs(R) ** k:
                        exact *= mpmath.cos(pib * x / mpmath.mpf(R) ** k) ** 2
                        k += 1
                    assert abs(float(exact) - got[i, j]) <= 1e-9

    def test_zero_of_the_mask_stays_at_rounding_squared(self, eiffel2):
        # -(1, 1, 0) is orthogonal to the whole depth-4 spectrum at scale 2
        lam = np.array(fs.enumerate_P(eiffel2, 4).coords(), dtype=float)
        got, _ = mu_hat_sq_pairs(fs.SelfSimilarMeasure(eiffel2), [[-1.0, -1.0, 0.0]], lam)
        assert got.max() <= 1e-28


class TestSquaredSums:
    """mu_hat_sq_sums, the row sums of |mu_hat|^2 over column groups that
    the completeness sums read: the kernel squares and sums each row tile
    as it finishes it."""

    # groups of the 40 points: empty ones first, inside and last
    STARTS = [0, 0, 5, 5, 17, 39, 40, 40]

    @staticmethod
    def reference(meas, T, Lam, starts):
        vals, tail = mu_hat_sq_pairs(meas, T, Lam)
        ends = starts[1:] + [vals.shape[1]]
        return np.stack([vals[:, a:b].sum(axis=1) for a, b in zip(starts, ends)], axis=1), tail

    @pytest.mark.parametrize("name", ["scale4", "triadic", "planar", "eiffel2"])
    @pytest.mark.parametrize("entries", [None, 20, 80])
    def test_groups_match_the_pairs(self, request, monkeypatch, name, entries):
        # real tables (scale4, triadic) and complex ones (planar, eiffel2);
        # one tile, and row tiles of one and of two rows
        meas = _measure(request, name)
        if entries is not None:
            monkeypatch.setattr(fs.measure, "STACK_ENTRIES", entries)
        T, Lam = _probe_pairs(meas.dim)
        T = np.concatenate([T, -T[:1]])
        ref, ref_tail = self.reference(meas, T, Lam, self.STARTS)
        got, tail = float_sq_sums(meas, T, Lam, self.STARTS)
        assert got.shape == (7, len(self.STARTS))
        assert (got[:, [0, 2, 6, 7]] == 0).all()
        assert np.abs(got - ref).max() <= 1e-13
        assert tail == ref_tail

    def test_one_digit_system(self):
        # J = 0: every value is 1, so a group sums to its size
        meas = fs.SelfSimilarMeasure(fs.make_system(2, [(Fraction(1, 3),)], [(0,)]))
        T, Lam = _probe_pairs(1)
        got, _ = float_sq_sums(meas, T, Lam, self.STARTS)
        assert (got == np.diff(self.STARTS + [40])).all()

    @pytest.mark.parametrize("name", ["scale2", "eiffel2"])
    def test_no_pair_array(self, request, name):
        # the largest block of a catalog q1 (560 x 512 pairs, 32 levels)
        # holds the side tables, two tile-sized buffers (the level buffer
        # and the result tile) and its row sums: no (m, n) array
        sysm = request.getfixturevalue(name)
        meas = fs.SelfSimilarMeasure(sysm)
        rng = np.random.RandomState(5)
        T, Lam = rng.uniform(-20, 20, (560, sysm.dim)), rng.uniform(-200, 200, (512, sysm.dim))
        levels = meas._level_data(32)
        tracemalloc.start()
        try:
            sums = meas._brackets(*meas._side_tables(T, Lam, levels), [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, w, real, _ = sysm.mask_table
        width, itemsize = len(w) * (2 if real else 1), 8 if real else 16
        angles = 32 * len(w) * (len(T) + len(Lam)) * 8
        tables = 32 * width * (len(T) + len(Lam)) * itemsize
        tile = fs.measure.STACK_ENTRIES * itemsize
        assert sums.shape == (560, 1)
        assert peak <= angles + tables + 2 * tile + 2 ** 16
        full = np.abs(meas._brackets(*meas._side_tables(T, Lam, levels), None)) ** 2
        assert np.abs(sums[:, 0] - full.sum(axis=1)).max() <= 1e-12


class TestSquaredTail:
    """The tails of the |mu_hat|^2 kernel: a plain truncation of |mu_hat|^2
    is never below the full-depth one and at most its quadratic tail above
    it, and the closed product of the sums, cut where that plain one would
    not yet meet the tolerance, is within its quartic tail of the
    full-depth one, on either side."""

    ROUNDING = 1e-15
    TWO_DIGIT = [f"R={r}" for r in (2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8)]

    @staticmethod
    def assert_one_sided(meas, T, Lam):
        got, tail = mu_hat_sq_pairs(meas, T, Lam)
        full = full_depth_sq(meas, T, Lam)
        X, Y = (np.asarray(A, dtype=float).reshape(-1, meas.dim) for A in (T, Lam))
        t_norm = fs.measure._max_distance(X, Y)
        depth = meas.sq_depth_for(t_norm)
        plain = full_depth_sq(meas, T, Lam, depth) - full
        assert plain.min() >= -TestSquaredTail.ROUNDING
        assert plain.max() <= meas.tail_bound(depth, t_norm) + TestSquaredTail.ROUNDING
        assert np.abs(got - full).max() <= tail + TestSquaredTail.ROUNDING
        return tail

    @pytest.mark.parametrize("name", ["scale4", "scale2", "triadic", "planar-collapse",
                                      "eiffel(2)"] + TWO_DIGIT)
    def test_one_sided_up_to_large_frequencies(self, name):
        # |lambda| from 1 to 1e8, log-spaced, in random directions
        meas = fs.SelfSimilarMeasure(_named_system(name))
        rng = np.random.RandomState(21)
        T = rng.uniform(-1, 1, size=(6, meas.dim))
        Lam = rng.normal(size=(40, meas.dim))
        Lam *= np.logspace(0, 8, 40)[:, None] / np.linalg.norm(Lam, axis=1, keepdims=True)
        assert 0 < self.assert_one_sided(meas, T, Lam) < 2 * fs.measure.DEFAULT_TAIL_TOL

    def test_sigma_of_half_digits(self):
        # B = {0, 1/2}: c = 1/4 and sigma^2 = 1/16
        sysm = fs.two_digit_system(4, Fraction(1, 2))
        assert fs.SelfSimilarMeasure(sysm)._sigma == rat.sqrt_ratio(1, 16) == 0.25

    @pytest.mark.parametrize("name", ["scale4", "triadic", "planar-collapse", "eiffel(2)",
                                      "R=-5", "shear"])
    def test_sigma_is_the_variance_of_B(self, name):
        # real tables (scale4, triadic, R=-5) and complex ones alike: sigma is
        # the one rounding of the exact variance
        sysm = _named_system(name)
        c = [sum(b[i] for b in sysm.B) / sysm.N for i in range(sysm.dim)]
        exact = sum(sum((b[i] - c[i]) ** 2 for i in range(sysm.dim)) for b in sysm.B) / sysm.N
        assert fs.SelfSimilarMeasure(sysm)._sigma == rat.sqrt_ratio(exact.numerator,
                                                                    exact.denominator)

    def test_one_point_mass_has_no_tail(self):
        # B = {1/3}: sigma = 0, so mu is the point mass at its mean
        # m = (R - 1)^-1 R / 3 = 2/3 and mu_hat(x) = e^{i 2 pi m x} is its
        # mean phase alone, at depth 1 with no tail, as |mu_hat|^2 = 1 is
        meas = fs.SelfSimilarMeasure(fs.make_system(2, [(Fraction(1, 3),)], [(0,)]))
        assert meas.tail_bound(0, 1e8) == 0.0
        assert meas.depth_for(1e8) == 1
        T, Lam = _probe_pairs(1)
        got, tail = meas.mu_hat_pairs(T, Lam)
        assert tail == 0.0
        assert np.abs(got - np.exp(2j * np.pi * (2 / 3) * (T - Lam.T))).max() <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_two_digit_hadamard_triples(self, data):
        # (R, {0, 1/2}, {0, p}) with p odd: every point of P(L) up to depth 6
        # against up to four probes in [-2, 2]
        R = data.draw(st.integers(2, 9).flatmap(lambda a: st.sampled_from((a, -a))))
        p = data.draw(st.integers(0, 22)) * 2 + 1
        sysm = fs.make_system(R, (0, Fraction(1, 2)), (0, p))
        depth = data.draw(st.integers(1, 6))
        T = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=1, max_size=4)))
        Lam = np.array(fs.enumerate_P(sysm, depth).coords(), dtype=float)
        self.assert_one_sided(fs.SelfSimilarMeasure(sysm), T, Lam)


class TestBrackets:
    """The stacked bracket product behind every transform kernel, against
    the per-digit product at a fixed depth."""

    # real two-digit tables, two levels per table row: 1-D and 2-D
    TWO_DIGIT = ["scale4", "triadic", "scale4_2d", "shear_2d"]
    # one level per table row: a real table with a zero row (three_digit)
    # and complex tables
    ONE_LEVEL = ["three_digit", "planar", "eiffel2"]

    @pytest.mark.parametrize("name", TWO_DIGIT + ONE_LEVEL)
    @pytest.mark.parametrize("levels, depth", _at_depths([1, 7, 30]))
    def test_stack_boundaries(self, request, monkeypatch, name, levels, depth):
        # 1 table row per stacked product, 7 (which divides none of the
        # depths, nor their 15 or 16 rows of two levels) and 30; the two-digit
        # systems take two levels per row, an odd depth padded with a zero
        # level; the others one level per row
        sysm = request.getfixturevalue(name)
        meas = fs.SelfSimilarMeasure(sysm)
        T, Lam = _probe_pairs(sysm.dim)
        monkeypatch.setattr(fs.measure, "STACK_ENTRIES", levels * len(T) * len(Lam))
        diffs = T[:, None, :] - Lam[None, :, :]
        got = meas._pairs(T, Lam, depth)
        assert np.abs(got - mean_phase_levels(sysm, diffs, depth)).max() <= 1e-13
        ref, _ = closed_sq_product(meas, diffs)
        sq, _ = mu_hat_sq_pairs(meas, T, Lam)
        assert np.abs(sq - ref).max() <= 1e-13

    @pytest.mark.parametrize("name", TWO_DIGIT + ONE_LEVEL)
    @pytest.mark.parametrize("entries, depth", _at_depths([20, 40, 80, 120]))
    def test_row_tiles(self, request, monkeypatch, name, entries, depth):
        # 7 x 40 = 280 pairs, over 2 STACK_ENTRIES at each value, so the
        # block runs on row tiles: one row (20 is below a row of 40, 40 is
        # a row), two rows (7 = 2 + 2 + 2 + 1) and three rows (3 + 3 + 1)
        sysm = request.getfixturevalue(name)
        meas = fs.SelfSimilarMeasure(sysm)
        T, Lam = _probe_pairs(sysm.dim)
        T = np.concatenate([T, -T[:1]])
        monkeypatch.setattr(fs.measure, "STACK_ENTRIES", entries)
        diffs = T[:, None, :] - Lam[None, :, :]
        got = meas._pairs(T, Lam, depth)
        assert got.shape == (7, 40)
        assert np.abs(got - mean_phase_levels(sysm, diffs, depth)).max() <= 1e-13
        ref, _ = closed_sq_product(meas, diffs)
        sq, _ = mu_hat_sq_pairs(meas, T, Lam)
        assert np.abs(sq - ref).max() <= 1e-13

    @pytest.mark.parametrize("name", TWO_DIGIT)
    @pytest.mark.parametrize("entries", [None, 80])
    def test_squared_sums_at_an_odd_depth(self, request, monkeypatch, name, entries):
        # mu_hat_sq_sums over three column groups at depth 29, the last of
        # its 15 rows of two levels level 28 beside the closure; one tile,
        # and row tiles of two rows
        sysm = request.getfixturevalue(name)
        meas = fs.SelfSimilarMeasure(sysm)
        if entries is not None:
            monkeypatch.setattr(fs.measure, "STACK_ENTRIES", entries)
        monkeypatch.setattr(meas, "sq_depth_for", lambda t_norm: 29)
        T, Lam = _probe_pairs(sysm.dim)
        T = np.concatenate([T, -T[:1]])
        starts = [0, 13, 27]
        vals = closed_sq_levels(sysm, T[:, None, :] - Lam[None, :, :], 29)
        ref = np.stack([vals[:, a:b].sum(axis=1) for a, b in zip(starts, starts[1:] + [40])],
                       axis=1)
        got, tail = float_sq_sums(meas, T, Lam, starts)
        assert got.shape == (7, 3)
        assert np.abs(got - ref).max() <= 1e-13
        assert tail == meas.sq_tail_bound(29, fs.measure._max_distance(T, Lam))

    @pytest.mark.parametrize("name", ["scale2", "eiffel2"])
    def test_row_tiles_bound_the_level_buffer(self, request, name):
        # the largest block of a catalog q1 (560 x 512 pairs, 32 levels)
        # holds the side tables, the result and one tile-sized level buffer,
        # not a second (m, n) array
        sysm = request.getfixturevalue(name)
        meas = fs.SelfSimilarMeasure(sysm)
        rng = np.random.RandomState(5)
        T, Lam = rng.uniform(-20, 20, (560, sysm.dim)), rng.uniform(-200, 200, (512, sysm.dim))
        levels = meas._level_data(32)
        tracemalloc.start()
        try:
            out = meas._brackets(*meas._side_tables(T, Lam, levels), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, w, real, _ = sysm.mask_table
        width = len(w) * (2 if real else 1)
        angles = 32 * len(w) * (len(T) + len(Lam)) * 8
        tables = 32 * width * (len(T) + len(Lam)) * out.itemsize
        tile = fs.measure.STACK_ENTRIES * out.itemsize
        assert out.shape == (560, 512)
        assert peak <= angles + tables + out.nbytes + tile + 2 ** 16

    def test_one_digit_system(self):
        # B = {1/3}: no digit off the centre, so the table is the one zero
        # row of weight 1 and mu is a point mass
        sysm = fs.make_system(2, [(Fraction(1, 3),)], [(0,)])
        meas = fs.SelfSimilarMeasure(sysm)
        E, w, _, _ = meas.system.mask_table
        assert (E.tolist(), w.tolist()) == ([[0.0]], [1.0])
        T, Lam = _probe_pairs(1)
        diffs = T[:, None, :] - Lam[None, :, :]
        got = meas._pairs(T, Lam, 30)
        assert np.abs(got - mean_phase_levels(sysm, diffs, 30)).max() <= 1e-13
        sq, _ = mu_hat_sq_pairs(meas, T, Lam)
        assert (sq == 1.0).all()

    @pytest.mark.parametrize("name, m, n, depth", [
        ("scale4", 0, 40, 30), ("scale4", 6, 0, 30), ("scale4", 6, 40, 0),
        ("eiffel2", 0, 40, 30), ("eiffel2", 6, 0, 30), ("eiffel2", 6, 40, 0),
        ("eiffel2", 0, 0, 0), ("one_digit", 6, 40, 30), ("one_digit", 0, 40, 30),
        ("one_digit", 6, 40, 0),
    ])
    def test_edge_shapes(self, request, name, m, n, depth):
        # no rows, no points, no levels or no digit off the centre (J = 0):
        # the level buffer and the side tables may be empty, the product is
        # ones of shape (m, n)
        if name == "one_digit":
            sysm = fs.make_system(2, [(Fraction(1, 3),)], [(0,)])
        else:
            sysm = request.getfixturevalue(name)
        meas = fs.SelfSimilarMeasure(sysm)
        T, Lam = _probe_pairs(sysm.dim)
        T, Lam = T[:m], Lam[:n]
        got = meas._brackets(*meas._side_tables(T, Lam, meas._level_data(depth)), None)
        assert got.shape == (m, n) and (got == 1).all()
        diffs = T[:, None, :] - Lam[None, :, :]
        ref = mean_phase_levels(sysm, diffs, depth)
        assert np.abs(meas._pairs(T, Lam, depth) - ref).max(initial=0.0) <= 1e-13

    @pytest.mark.parametrize("name", ["scale4", "planar", "eiffel2"])
    def test_small_shapes(self, request, name):
        # every split of up to 18 table columns between the two sides,
        # vectors included: the strides of the t and lambda parts of the
        # tables run through each small value (planar-collapse at m + n = 8
        # puts the lambda column 64 bytes apart)
        sysm = request.getfixturevalue(name)
        meas = fs.SelfSimilarMeasure(sysm)
        rng = np.random.RandomState(3)
        for m in range(10):
            for n in range(10):
                T, Lam = rng.uniform(-20, 20, (m, sysm.dim)), rng.uniform(-20, 20, (n, sysm.dim))
                diffs = T[:, None, :] - Lam[None, :, :]
                ref = mean_phase_levels(sysm, diffs, 13)
                got = meas._pairs(T, Lam, 13)
                assert np.abs(got - ref).max(initial=0.0) <= 1e-13, (m, n)

    def test_level_per_call_holds_two_products(self, eiffel2):
        # a product too large to stack takes a level per call; beside the
        # side tables it holds the result and one reused level buffer, no
        # (m, n) array per level
        meas = fs.SelfSimilarMeasure(eiffel2)
        rng = np.random.RandomState(5)
        T, Lam = rng.uniform(-20, 20, (2000, 3)), rng.uniform(-20, 20, (500, 3))
        levels = meas._level_data(40)
        tracemalloc.start()
        try:
            out = meas._brackets(*meas._side_tables(T, Lam, levels), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, w, real, _ = eiffel2.mask_table
        width = len(w) * (2 if real else 1)
        tables = 40 * width * (len(T) + len(Lam)) * out.itemsize
        assert out.shape == (2000, 500)
        assert peak <= tables + 2 * out.nbytes + 2 ** 20

    @pytest.mark.parametrize("name", ["scale4", "eiffel2"])
    def test_shallower_after_deeper(self, request, name):
        # the level stack built for a deep product must be sliced, not run
        # through, for a shallower one, and extended for a deeper one
        sysm = request.getfixturevalue(name)
        meas = fs.SelfSimilarMeasure(sysm)
        T, Lam = _probe_pairs(sysm.dim)
        diffs = T[:, None, :] - Lam[None, :, :]
        for depth in (40, 12, 90, 3, 0):
            ref = mean_phase_levels(sysm, diffs, depth)
            got = meas._pairs(T, Lam, depth)
            assert np.abs(got - ref).max() <= 1e-13
            batch, _ = meas.mu_hat_batch(diffs if sysm.dim > 1 else diffs[..., 0], depth)
            assert np.abs(batch - ref).max() <= 1e-13


class TestDepthFor:
    """depth_for places the depth with one logarithm; it must give the depth
    of the depth-by-depth search everywhere, the cap included."""

    SYSTEMS = (["scale4", "scale2", "triadic", "eiffel(2)", "eiffel(3)", "eiffel(4)",
                "planar-collapse"]
               + [f"R={r}" for r in (2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8)]
               + ["shear"])

    @staticmethod
    def search(meas, t_norm, bound=None):
        """The least depth whose `bound` (by default the measure's tail) is
        below the tolerance, stepped one depth at a time up to the cap."""
        bound = bound or meas.tail_bound
        d = 1
        while bound(d, t_norm) >= fs.measure.DEFAULT_TAIL_TOL \
                and d < fs.measure.MAX_PRODUCT_DEPTH:
            d += 1
        return d

    @staticmethod
    def linear_tail(meas):
        """The linear tail of a transform whose phase is cut with its
        brackets, from |1 - chi_B(y)| <= 2 pi max_b|b| |y|:
        2 pi max_b|b| c t_norm kappa rho^{floor(d/kappa)} / (1 - rho)."""
        b_max = max(math.sqrt(sum(float(x) ** 2 for x in b)) for b in meas.system.B)
        return lambda d, t_norm: (2 * math.pi * b_max * meas._c * t_norm * meas._kappa
                                  * meas._rho ** (d // meas._kappa) / (1 - meas._rho))

    @staticmethod
    def norms(meas, bound=None, power=2):
        """Log-spaced norms, 0, inf and NaN, and the norms at which `bound`
        (by default the tail, quadratic in the norm; `power` 1 for a linear
        one) of each depth crosses the tolerance, with their neighbours; on
        the shear (kappa = 9) the cap binds from a norm of about 3e-13 on."""
        bound = bound or meas.tail_bound
        norms = [0.0, math.inf, math.nan] + np.logspace(-6, 12, 241).tolist()
        for d in range(1, 80):
            t = (fs.measure.DEFAULT_TAIL_TOL / bound(d, 1.0)) ** (1 / power)
            norms += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)]
        return norms

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_matches_depth_by_depth_search(self, name):
        meas = fs.SelfSimilarMeasure(_named_system(name))
        for t in self.norms(meas):
            assert meas.depth_for(t) == self.search(meas, t), t

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_squared_matches_search_and_is_never_deeper(self, name):
        # the one tail, quadratic in the norm, also at the norms where the
        # linear tail of a cut phase crosses the tolerance, and it never takes
        # the transform deeper than that linear tail would
        meas = fs.SelfSimilarMeasure(_named_system(name))
        linear = self.linear_tail(meas)
        for t in self.norms(meas) + self.norms(meas, linear, power=1):
            d = meas.depth_for(t)
            assert d == self.search(meas, t), t
            assert d <= self.search(meas, t, linear), t
        assert meas.depth_for(math.inf) == fs.measure.MAX_PRODUCT_DEPTH
        assert meas.depth_for(math.nan) == 1

    @pytest.mark.parametrize("name", [f"R={r}" for r in (2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7,
                                                         -7, 8, -8)]
                             + ["planar-collapse", "eiffel(2)", "eiffel(3)", "shear"])
    def test_contraction_data_of_the_operator_norm(self, name):
        # (kappa, rho, c) of every verdict-pool R, and of a shear, bit for bit
        # as the operator norm by SVD gives them: a 1 x 1 power's is its modulus
        S = np.array(_named_system(name).R.inverse_transpose, dtype=float)
        power, c = np.eye(len(S)), 1.0
        for k in range(1, fs.measure.MAX_PRODUCT_DEPTH + 1):
            power = power @ S
            norm = float(np.linalg.norm(power, 2))
            if norm < 1.0:
                break
            c = max(c, norm)
        assert fs.measure._contraction_data(S) == (k, norm, c)

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_closed_matches_search_and_is_never_deeper(self, name):
        # the depth of the sums is the depth-by-depth search of their closed
        # tail, quartic in the norm, rounded up to whole two-digit rows, also
        # at the norms where either tail crosses the tolerance; it is never
        # deeper than the quadratic depth
        meas = fs.SelfSimilarMeasure(_named_system(name))
        closed = meas._V is not None
        assert closed
        for t in self.norms(meas) + self.norms(meas, meas.sq_tail_bound, power=4):
            d, least = meas.sq_depth_for(t), self.search(meas, t, meas.sq_tail_bound)
            assert d == least + (least + 1) % meas._per, t
            if meas.depth_for(t) < fs.measure.MAX_PRODUCT_DEPTH:
                assert d <= meas.depth_for(t), t
        assert meas.sq_depth_for(math.nan) == 1


class TestGramOracle:
    @pytest.mark.parametrize("name", ["scale4", "triadic", "planar-collapse", "eiffel(2)"])
    def test_matches_per_digit_product(self, name):
        # 256 spectrum points: |lambda| reaches 2.2e4 on scale4, where angle
        # addition costs about 1e-12 of phase
        sysm = fs.get_system(name)
        depth = next(d for d in range(1, 10) if sysm.N ** d >= 256)
        pts = np.array(fs.enumerate_P(sysm, depth).coords(), dtype=float)[:256]
        rep = fs.gram_matrix(sysm, pts)
        ref, tail = per_digit_product(fs.SelfSimilarMeasure(sysm),
                                      pts[None, :, :] - pts[:, None, :])
        assert rep.matrix.shape == (256, 256)
        assert np.abs(rep.matrix - ref).max() <= 1e-11
        assert rep.tail_bound == pytest.approx(tail, rel=1e-12)


@st.composite
def _digit_systems(draw):
    """A system in one or two dimensions whose B is symmetric about its
    mean, not symmetric, symmetric with a digit at the centre, or one digit;
    L only matches B's size, since the transform reads B alone."""
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["symmetric", "asymmetric", "centre", "one"]))
    point = st.tuples(*[st.fractions(-1, 1, max_denominator=8)] * dim)
    scale = st.sampled_from([2, 3, 4, 5, -2, -3, -4, -5])
    R = [[draw(scale)]] if dim == 1 else [[draw(scale), draw(st.integers(0, 1))],
                                          [0, draw(scale)]]
    centre = draw(point)
    if kind == "one":
        B = [centre]
    elif kind == "asymmetric":
        B = draw(st.lists(point, min_size=2, max_size=4, unique=True))
    else:
        offsets = draw(st.lists(point, min_size=1, max_size=2, unique_by=lambda e: (
            max(e, rat.vec_scale(-1, e)))).filter(lambda es: all(any(es_i) for es_i in es)))
        B = [f(centre, e) for e in offsets for f in (rat.vec_add, rat.vec_sub)]
        B += [centre] if kind == "centre" else []
    L = [tuple([k] + [0] * (dim - 1)) for k in range(len(B))]
    return fs.make_system(R, B, L)


class TestOneTail:
    """One tail bounds both kernels.  The transform keeps its mean phase
    whole, so it is cut only in its centred brackets b, and |1 - b(y)| <=
    2 pi^2 sigma^2 |y|^2 is half the bound 4 pi^2 sigma^2 |y|^2 on
    1 - |b(y)|^2 that |mu_hat|^2 is cut at."""

    ROUNDING = 1e-12
    CATALOG = ["scale4", "scale2", "triadic", "planar-collapse", "eiffel(2)", "eiffel(3)",
               "eiffel(4)"]

    @settings(max_examples=60, deadline=None)
    @given(_digit_systems(), st.data())
    def test_within_the_tail_of_a_200_level_product(self, sysm, data):
        meas = fs.SelfSimilarMeasure(sysm)
        rows = st.lists(st.tuples(*[st.floats(-10, 10)] * sysm.dim), min_size=1, max_size=5)
        T, Lam = np.array(data.draw(rows)), np.array(data.draw(rows))
        ref = per_digit_levels(sysm, T[:, None, :] - Lam[None, :, :], 200)
        got, tail = meas.mu_hat_pairs(T, Lam)
        assert np.abs(got - ref).max() <= tail + self.ROUNDING
        # the closed |mu_hat|^2 is within its own tail on either side
        sq, sq_tail = mu_hat_sq_pairs(meas, T, Lam)
        assert np.abs(sq - np.abs(ref) ** 2).max() <= sq_tail + self.ROUNDING
        # at a depth where the bound binds, the transform takes half of it
        depth = data.draw(st.integers(0, 30))
        bound = meas.tail_bound(depth, fs.measure._max_distance(T, Lam))
        assert np.abs(meas._pairs(T, Lam, depth) - ref).max() <= bound / 2 + self.ROUNDING

    @pytest.mark.parametrize("name", CATALOG + ["rational-R"])
    def test_mean_is_the_first_moment(self, tmp_path, name):
        # the float mean of the phase is the exact first moment, rounded once,
        # on the catalog and on a file with a rational, non-diagonal R
        if name == "rational-R":
            path = tmp_path / "rational.json"
            path.write_text(json.dumps({"dim": 2, "R": [["5/2", "1/2"], ["0", "-7/3"]],
                                        "B": [["0", "0"], ["1/2", "0"], ["0", "1/3"]],
                                        "L": [["0", "0"], ["1", "0"], ["0", "1"]]}))
            sysm = fs.load_system_file(str(path))
        else:
            sysm = fs.get_system(name)
        mean = fs.measure._mean(sysm)
        assert mean.tolist() == [float(x) for x in exact_mean(sysm)]


@st.composite
def _phase_systems(draw):
    """A system in one to three dimensions with a triangular R whose
    diagonal is an integer, a non-integer or a negative rational, one to
    four digits in B and L, and 0 in L."""
    dim = draw(st.integers(1, 3))
    diag = st.sampled_from([2, 3, -2, -3, 4, Fraction(3, 2), Fraction(-5, 2), Fraction(7, 3)])
    upper = st.sampled_from([0, 1, Fraction(1, 2)])
    R = [[draw(diag) if i == j else draw(upper) if j > i else 0 for j in range(dim)]
         for i in range(dim)]
    N = draw(st.integers(1, 4))
    point = st.tuples(*[st.fractions(-1, 1, max_denominator=6)] * dim)
    B = draw(st.lists(point, min_size=N, max_size=N, unique=True))
    L = draw(st.lists(point.filter(any), min_size=N - 1, max_size=N - 1, unique=True))
    return fs.make_system(R, B, [(0,) * dim] + L)


class TestClosedTail:
    """The |mu_hat|^2 sums close each product with one bracket for the
    levels past its depth, at A x with A' Sigma_B A = Q_d, and cut it where
    the quartic remainder meets the tolerance: each value is within the
    call's `sq_tail_bound` of a 200-level product, on either side."""

    ROUNDING = 1e-12
    SYSTEMS = {
        # scalar R, real tables, in one and two dimensions, and negative R
        "scale4": lambda: fs.get_system("scale4"),
        "R=-5": lambda: fs.two_digit_system(-5, Fraction(1, 2)),
        "scale4-2d": lambda: fs.make_system([[4, 0], [0, 4]], [(0, 0), (Fraction(1, 2), 0)],
                                            [(0, 0), (1, 0)]),
        # a digit at the centre: the table's zero row
        "three-digit": lambda: fs.make_system(6, [0, Fraction(1, 6), Fraction(1, 3)],
                                              [0, 2, 4]),
        # complex tables in two and three dimensions
        "planar-collapse": lambda: fs.get_system("planar-collapse"),
        "eiffel(2)": lambda: fs.get_system("eiffel(2)"),
        # non-scalar R: the digits span an R-invariant line, or all of R^3
        "shear-2d": lambda: fs.make_system([[2, 1], [0, 2]], [(0, 0), (Fraction(1, 2), 0)],
                                           [(0, 0), (1, 0)]),
        "triangular-3d": lambda: fs.make_system(
            [[2, 1, 0], [0, -3, Fraction(1, 2)], [0, 0, Fraction(5, 2)]],
            [(0, 0, 0), (Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 0), (0, 0, Fraction(1, 2))],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        # no closure: the digits span a line that R does not keep, or one point
        "no-A": lambda: fs.make_system([[2, 1], [0, 2]], [(0, 0), (0, Fraction(1, 2))],
                                       [(0, 0), (1, 0)]),
        "one-digit": lambda: fs.make_system(2, [(Fraction(1, 3),)], [(0,)]),
    }

    @classmethod
    def assert_within_the_tail(cls, sysm, T, Lam):
        meas = fs.SelfSimilarMeasure(sysm)
        # the package and the oracle decide alike whether there is a closure
        assert (meas._V is None) == (closure_matrix(sysm, 0) is None)
        ref = np.abs(per_digit_levels(sysm, T[:, None, :] - Lam[None, :, :], 200)) ** 2
        got, tail = mu_hat_sq_pairs(meas, T, Lam)
        assert np.abs(got - ref).max() <= tail + cls.ROUNDING
        # and the sums are the closed product of the oracle, per digit
        closed, _ = closed_sq_product(meas, T[:, None, :] - Lam[None, :, :])
        assert np.abs(got - closed).max() <= cls.ROUNDING
        return meas, tail

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_within_the_tail_of_a_200_level_product(self, name):
        sysm = self.SYSTEMS[name]()
        T, Lam = _probe_pairs(sysm.dim)
        meas, tail = self.assert_within_the_tail(sysm, T, Lam)
        assert (meas._V is None) == (name in ("no-A", "one-digit"))
        assert tail < fs.measure.DEFAULT_TAIL_TOL

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_digit_systems(), _phase_systems()), st.data())
    def test_sums_within_the_tail_of_a_200_level_product(self, sysm, data):
        # one to three dimensions, real and complex tables, scalar,
        # triangular and negative R, a digit at the centre, one digit, and
        # digits whose span R does not keep
        rows = st.lists(st.tuples(*[st.floats(-10, 10)] * sysm.dim), min_size=1, max_size=5)
        T, Lam = np.array(data.draw(rows)), np.array(data.draw(rows))
        self.assert_within_the_tail(sysm, T, Lam)

    @pytest.mark.parametrize("name", ["scale4", "R=-5", "scale4-2d", "three-digit",
                                      "planar-collapse", "eiffel(2)", "shear-2d",
                                      "triangular-3d"])
    def test_the_closure_has_the_quadratic_form_of_the_tail(self, name):
        # the closure of depth d is the bracket at A_d x, its columns 2 pi
        # A_d' e_j, with A_d' Sigma_B A_d = Q_d = sum_{k >= d} S^k' Sigma_B
        # S^k, summed level by level: the quadratic term of the tail
        sysm = self.SYSTEMS[name]()
        meas = fs.SelfSimilarMeasure(sysm)
        S = np.array(sysm.R.inverse_transpose, dtype=float)
        sigma = np.cov(sysm.b_array().T, bias=True).reshape(sysm.dim, sysm.dim)
        for d in (0, 1, 6, 17):
            A = closure_matrix(sysm, d)
            got = meas._closure_data(d + 1)[d]
            assert np.abs(got - 2 * np.pi * A.T @ sysm.mask_table[0].T).max() \
                <= 1e-12 * np.abs(got).max()
            Q, power = np.zeros_like(sigma), np.linalg.matrix_power(S, d)
            for _ in range(400):
                Q += power.T @ sigma @ power
                power = power @ S
            assert np.abs(A.T @ sigma @ A - Q).max() <= 1e-12 * np.abs(Q).max()


class TestDigitPhases:
    """The phase table of a Q1 pass: exact digit residues, and side tables
    that are those of the float points wherever the float angles are
    accurate."""

    @staticmethod
    def check_residues(sysm, count):
        # (R^n e).l mod 1 in Fraction arithmetic, rounded once
        digits = fs.spectrum._zero_first(sysm)
        got = fs.measure._exact_residues(sysm, digits, count)
        power = rat.identity(sysm.dim)
        for n in range(count):
            for a, l in enumerate(digits[1:]):
                for j, e in enumerate(sysm.mask_rows[0]):
                    x = rat.dot(rat.mat_vec(power, e), l)
                    assert got[n, a, j] == float(x - math.floor(x))
            power = rat.mat_mul(sysm.R.entries, power)

    @settings(max_examples=40, deadline=None)
    @given(_phase_systems(), st.integers(1, 8))
    def test_residues_are_fraction_arithmetic_mod_1(self, sysm, count):
        self.check_residues(sysm, count)

    @pytest.mark.parametrize("R, B, L, count", [
        # R = [[7/3, 1], [0, -2]] at 40 levels: the modulus 3^39 e s is past
        # 2^53, so the powers are taken in Python ints
        ([[Fraction(7, 3), 1], [0, -2]], [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 3))],
         [(0, 0), (1, 0), (0, 1)], 40),
        # R = 100000001 with the modulus 4: R^2 is no float, but R is
        # reduced mod 4 before its first product, so every power is exact
        ([[100000001]], [(0,), (Fraction(1, 2),)], [(0,), (1,)], 6)],
        ids=["modulus-past-2^53", "R-past-the-modulus"])
    def test_residues_past_the_float_integers(self, R, B, L, count):
        self.check_residues(fs.make_system(R, B, L), count)

    @settings(max_examples=40, deadline=None)
    @given(_phase_systems(), st.data())
    def test_tables_are_those_of_the_float_points(self, sysm, data):
        # with |lambda| <= 1e4 the float angles are accurate, so the tables
        # of every kind of call of a pass, deeper and shallower, with their
        # closure level, match cos and sin of the float angles
        digits = fs.spectrum._zero_first(sysm)
        p_depth = 5
        while p_depth > 1 and sum(np.abs(lv).max() for lv in
                                  fs.spectrum.layer_digits(sysm, p_depth)) > 1e4:
            p_depth -= 1
        levels = fs.spectrum.layer_digits(sysm, p_depth)
        meas = fs.SelfSimilarMeasure(sysm)
        T = np.array(data.draw(st.lists(st.tuples(*[st.floats(-2, 2)] * sysm.dim),
                                        min_size=1, max_size=3)))
        phases = fs.measure.DigitPhases(meas, T, levels, digits)
        width = sysm.dim + p_depth * (sysm.N - 1)

        def points(sets):
            pts = fs.spectrum.digit_sum([phases.tagged[i][first:] for i, first in sets], width)
            return pts[:, :sysm.dim], pts[:, sysm.dim:]

        for _ in range(4):
            d = data.draw(st.integers(1, p_depth))
            sets = [(i, 0) for i in range(d - 1)] + [(d - 1, 1)]
            h = data.draw(st.integers(0, len(sets)))
            shared = data.draw(st.booleans())
            if shared:
                # the first points of the pass's low table, a digit sum of full levels
                sets = [(i, 0) for i in range(d)]
                h = min(h, d - 1)
            (low, low_digits), (high, high_digits) = points(sets[:h]), points(sets[h:])
            if not shared:
                # a low set of its own against the probe rows alone
                high, high_digits = np.zeros((1, sysm.dim)), None
            # a depth of `sq_depth_for`: odd with a closure and even without
            # on two digits, so the levels fill whole table rows
            depth = data.draw(st.integers(1, 25))
            depth += (depth + (meas._V is not None)) % meas._per
            rows = (T[:, None, :] - high[None]).reshape(-1, sysm.dim)
            left, right = phases.tables(high_digits, low_digits, shared, depth)
            ref_left, ref_right = meas._side_tables(rows, low, sq_levels(meas, depth))
            if meas._V is not None:
                # the phase table takes the closure row first, in its slot
                ref_left, ref_right = np.roll(ref_left, 1, axis=0), np.roll(ref_right, 1, axis=0)
            assert left.shape == ref_left.shape and right.shape == ref_right.shape
            assert np.abs(left - ref_left).max(initial=0) <= 1e-12
            assert np.abs(right - ref_right).max(initial=0) <= 1e-12


class TestClosedForm:
    def test_at_zero(self):
        assert mu2_closed_form(0.0) == 1.0

    def test_at_one(self):
        assert abs(mu2_closed_form(1.0)) < 1e-15

    def test_at_half(self):
        assert abs(mu2_closed_form(0.5) - 2j / math.pi) < 1e-15

    def test_oracle_for_product(self, mu2):
        rng = np.random.RandomState(7)
        ts = rng.uniform(-10, 10, 100)
        vals, _ = mu2.mu_hat_batch(ts)
        assert np.abs(vals - mu2_closed_form(ts)).max() <= 1e-8

    def test_mu4_cosine_product_oracle(self, mu4):
        # phase-extracted form: e^{i 2 pi t/3} prod_n cos(pi t / (2 4^n))
        for t in (0.3, 1.7, -2.25, 5.0):
            oracle = np.exp(2j * np.pi * t / 3) * np.prod(
                [math.cos(math.pi * t / (2 * 4 ** n)) for n in range(40)])
            assert abs(mu4.mu_hat_batch(t, depth=40)[0] - oracle) <= 1e-12

    def test_mu3_cosine_product_oracle(self, mu3):
        # phase-extracted form: e^{i pi t} prod_{n>=1} cos(2 pi t / 3^n)
        for t in (0.4, 1.5, -2.2):
            oracle = np.exp(1j * np.pi * t) * np.prod(
                [math.cos(2 * math.pi * t / 3 ** n) for n in range(1, 60)])
            assert abs(mu3.mu_hat_batch(t, depth=60)[0] - oracle) <= 1e-12


# ---------------------------------------------------------------------------
# exact moments

def _poly_mul(p, q, dim):
    out = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = tuple(ka[i] + kb[i] for i in range(dim))
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return out


def _affine_power(i, k, Rinv, b, dim):
    """((R^{-1} x + b)_i)^k as a polynomial in x."""
    lin = {tuple(1 if j == m else 0 for j in range(dim)): Rinv[i][m]
           for m in range(dim) if Rinv[i][m] != 0}
    if b[i] != 0:
        lin[tuple(0 for _ in range(dim))] = b[i]
    out = {tuple(0 for _ in range(dim)): Fraction(1)}
    for _ in range(k):
        out = _poly_mul(out, lin, dim)
    return out


def _multi_indices(dim, degree):
    if dim == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        out.extend((first,) + rest for rest in _multi_indices(dim - 1, degree - first))
    return out


def moments(sys, k_max: int) -> dict:
    """Exact rational moments m_k = int x^k dmu for all |k| <= k_max.

    The self-similarity turns each total degree into a small linear system in
    the same-degree moments with lower-degree data on the right-hand side;
    expansivity keeps those systems nonsingular.
    """
    dim, N = sys.dim, sys.N
    Rinv = sys.R.inverse
    table = {tuple(0 for _ in range(dim)): Fraction(1)}
    for degree in range(1, k_max + 1):
        idxs = _multi_indices(dim, degree)
        pos = {k: i for i, k in enumerate(idxs)}
        n = len(idxs)
        A = [[Fraction(0)] * n for _ in range(n)]
        rhs = [Fraction(0)] * n
        for row, k in enumerate(idxs):
            for b in sys.B:
                poly = {tuple(0 for _ in range(dim)): Fraction(1)}
                for i in range(dim):
                    if k[i]:
                        poly = _poly_mul(poly, _affine_power(i, k[i], Rinv, b, dim), dim)
                for alpha, coef in poly.items():
                    if sum(alpha) == degree:
                        A[row][pos[alpha]] += coef / N
                    else:
                        rhs[row] += coef * table[alpha] / N
        M = rat.mat(tuple(tuple((1 if r == c else 0) - A[r][c] for c in range(n))
                          for r in range(n)))
        sol = rat.solve(M, tuple(rhs))
        for k, v in zip(idxs, sol):
            table[k] = v
    return table


# ---------------------------------------------------------------------------
# word quadrature and the analytic growth check

def integrate(measure, f, depth: int):
    """Word quadrature N^{-d} sum_w f(sigma_w(0)) of a continuous f.

    `f` gets the whole atom array: shape (n,) in one dimension, (n, dim)
    above; it may return complex values.
    """
    a = atoms(measure, depth)
    if measure.dim == 1:
        a = a[:, 0]
    return np.mean(f(a), axis=0)


@dataclass
class GrowthBoundRow:
    s: tuple
    norm_sq: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.norm_sq <= self.bound * (1 + 1e-12)


def growth_bound_check(measure, samples, depth: int = 12) -> list[GrowthBoundRow]:
    """Check ||e_{t+is}||^2 = int e^{-4 pi s.x} dmu <= e^{4 pi m ||s||} at the
    given imaginary parts, with m the support diameter."""
    m = support_diameter(measure)
    rows = []
    for s in samples:
        sv = np.atleast_1d(np.asarray(s, dtype=float))
        if measure.dim == 1:
            val = integrate(measure, lambda x: np.exp(-4 * np.pi * sv[0] * x), depth)
        else:
            val = integrate(measure, lambda x: np.exp(-4 * np.pi * (x @ sv)), depth)
        bound = math.exp(4 * math.pi * m * float(np.linalg.norm(sv)))
        rows.append(GrowthBoundRow(tuple(sv.tolist()), float(np.real(val)), bound))
    return rows


class TestMoments:
    def test_mass_is_one(self, scale4):
        assert moments(scale4, 0)[(0,)] == 1

    def test_mu4_first_moment(self, scale4):
        assert moments(scale4, 1)[(1,)] == Fraction(1, 3)

    def test_mu2_matches_lebesgue(self, scale2):
        table = moments(scale2, 4)
        for k in range(1, 5):
            assert table[(k,)] == Fraction(1, k + 1)

    def test_eiffel_cross_moment(self, eiffel2):
        table = moments(eiffel2, 2)
        assert table[(1, 0, 0)] == Fraction(1, 4)
        assert table[(2, 0, 0)] == Fraction(1, 8)

    def test_against_quadrature(self, scale4, mu4):
        table = moments(scale4, 3)
        for k in (1, 2, 3):
            approx = integrate(mu4, lambda x, k=k: x ** k, depth=12)
            assert abs(approx - float(table[(k,)])) <= 1e-3


class TestQuadrature:
    def test_constant(self, mu4):
        assert integrate(mu4, lambda x: np.ones_like(x), depth=8) == 1.0

    def test_exponential_matches_transform(self, mu4):
        approx = integrate(mu4, lambda x: np.exp(-2j * np.pi * x), depth=12)
        expected = np.conj(mu4.mu_hat_batch(1.0, depth=40)[0])
        assert abs(approx - expected) <= 1e-3

    def test_atom_count(self, mu4):
        assert atoms(mu4, 5).shape == (32, 1)


class TestSupportDiameter:
    def test_mu4(self, mu4):
        assert abs(support_diameter(mu4) - 2 / 3) < 1e-12

    def test_mu2_lebesgue(self, mu2):
        assert abs(support_diameter(mu2) - 1.0) < 1e-12

    def test_eiffel_from_hull(self, eiffel2):
        m = fs.SelfSimilarMeasure(eiffel2)
        assert abs(support_diameter(m) - math.sqrt(2)) < 1e-12


def _zeros(name):
    return ZeroSetPredicate.of(fs.get_system(name))


class TestZeroSets:
    def test_mu4_examples(self):
        mu4 = _zeros("scale4")
        assert mu4.member(12)          # 12 = 4 * 3
        assert not mu4.member(2)
        assert mu4.member(1)
        assert not mu4.member(0)

    def test_mu3_examples(self):
        mu3 = _zeros("triadic")
        assert mu3.member(Fraction(3, 4))
        assert mu3.member(Fraction(9, 4))
        assert not mu3.member(Fraction(3, 2))

    def test_mu2_is_nonzero_integers(self):
        for n in range(-5, 6):
            assert _zeros("scale2").member(n) == (n != 0)

    def test_derived_from_the_catalog(self):
        assert _zeros("scale4") == ZeroSetPredicate(4, Fraction(1, 2))
        assert _zeros("scale2") == ZeroSetPredicate(2, Fraction(1, 2))
        assert _zeros("triadic") == ZeroSetPredicate(3, Fraction(2, 3))
        assert _zeros("scale4(3)") == ZeroSetPredicate(12, Fraction(1, 2))

    @pytest.mark.parametrize("name", ["planar-collapse", "eiffel(2)"])
    def test_not_a_two_digit_system(self, name):
        with pytest.raises(ValueError, match="not a one-dimensional two-digit system"):
            _zeros(name)

    def test_rational_scale_refused(self, scale5half):
        with pytest.raises(ValueError, match="integer scale"):
            ZeroSetPredicate.of(scale5half)

    def test_general_odd_scale_predicate(self):
        # two-digit measure at scale 5: the transform vanishes exactly on the
        # predicate set {5^n (2Z+1) / (2b)}
        sysm = fs.two_digit_system(5, Fraction(1, 2))
        m = fs.SelfSimilarMeasure(sysm)
        pred = ZeroSetPredicate(5, Fraction(1, 2))
        for t in (1, 3, 5, 15, 25):
            assert pred.member(t)
            assert abs(m.mu_hat_batch(float(t), depth=50)[0]) <= 1e-10
        for t in (2, 4, 10):
            assert not pred.member(t)
            assert abs(m.mu_hat_batch(float(t), depth=50)[0]) >= 1e-4

    def test_agreement_with_product(self, mu4):
        rng = np.random.RandomState(8)
        hits = 0
        for _ in range(50):
            t = Fraction(int(rng.randint(-50, 51)), int(rng.randint(1, 5)))
            if abs(t) > 50 or t == 0:
                continue
            v = abs(mu4.mu_hat_batch(float(t), depth=40)[0])
            if _zeros("scale4").member(t):
                hits += 1
                assert v <= 1e-8
            else:
                assert v >= 1e-4
        assert hits > 0


def _at_origin(measure, t):
    """mu_hat(t) and its tail bound through `mu_hat_pairs` against the
    origin, the one transform kernel of the convolution oracle."""
    vals, tail = measure.mu_hat_pairs([t], [0.0])
    return vals[0, 0], tail


class TestConvolution:
    def test_value_at_zero(self, mu34):
        assert _at_origin(mu34, 0.0)[0] == 1.0

    def test_vanishes_on_mu4_zero_set(self, mu34):
        for t in (1.0, 3.0, 4.0, 12.0):
            assert abs(_at_origin(mu34, t)[0]) <= 1e-8

    def test_pointwise_product(self, mu3, mu4, mu34):
        t = 1 / 6
        a = _at_origin(mu34, t)[0]
        b = _at_origin(mu3, t)[0] * _at_origin(mu4, t)[0]
        assert abs(a - b) < 1e-14

    def test_tail_bounds_add(self, mu3, mu4, mu34):
        t = 2.0
        assert abs(_at_origin(mu34, t)[1]
                   - (_at_origin(mu3, t)[1] + _at_origin(mu4, t)[1])) < 1e-15

    def test_dimension_mismatch(self, mu4, eiffel2):
        with pytest.raises(ValueError):
            ConvolvedMeasure(mu4, fs.SelfSimilarMeasure(eiffel2))

    def test_support_diameter_adds(self, mu3, mu4, mu34):
        assert abs(support_diameter(mu34)
                   - (support_diameter(mu3) + support_diameter(mu4))) < 1e-12


class TestGrowthBound:
    def test_zero_imaginary_part(self, mu4):
        row = growth_bound_check(mu4, [0.0])[0]
        assert row.norm_sq == 1.0 and row.ok

    def test_mu4_small_s(self, mu4):
        row = growth_bound_check(mu4, [0.1])[0]
        assert row.ok
        assert row.bound == pytest.approx(math.exp(0.4 * math.pi * (2 / 3)))

    def test_mu2_closed_form(self, mu2):
        row = growth_bound_check(mu2, [0.5], depth=14)[0]
        exact = (1 - math.exp(-2 * math.pi)) / (2 * math.pi)
        assert abs(row.norm_sq - exact) < 2e-4
        assert row.norm_sq <= math.exp(2 * math.pi)

    def test_vector_argument(self, eiffel2):
        m = fs.SelfSimilarMeasure(eiffel2)
        row = growth_bound_check(m, [(0.1, -0.2, 0.05)], depth=6)[0]
        assert row.ok
