import itertools
import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import polygamma

import fracspec as fs
from fracspec import cli, rational as rat
from oracles import beta_sampled_scan, chi_B_sq, exact_inside, lebesgue_Q, residual_ratios

# Passes every axiom; R* = [[4, 0], [2, 4]] mixes the grid axes, so the
# stencil of its transfer operator does not factor over them.
SHEARED = fs.make_system([[4, 2], [0, 4]],
                         [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
                          (Fraction(1, 2), Fraction(1, 2))],
                         [(0, 0), (1, 0), (0, 1), (1, 1)], name="sheared")
# The same digits under R = 4 I: the stencil factors over the grid axes.
PRODUCT = fs.make_system([[4, 0], [0, 4]], SHEARED.B, SHEARED.L, name="product")


def _system(name, request):
    # planar3d is the conftest fixture: a 2-D hull in 3-space, so a chart
    # that is not the identity
    if name == "planar3d":
        return request.getfixturevalue(name)
    return SHEARED if name == "sheared" else fs.get_system(name)


def _cases(*cases):
    # ids name the system and resolution only; the form taken is checked inside
    return [pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in cases]


def interp_params(Q, U):
    return Q.corner_sum(Q.values, *Q.stencil(U))


def interp(Q, X):
    """Multilinear interpolation at ambient points (m, ambient_dim)."""
    return interp_params(Q, Q.chart.param(X))


def _gradient_norm_field(Q):
    """Pointwise Euclidean norm of the ambient gradient at the nodes."""
    grads = [np.gradient(Q.values, h, axis=d) for d, h in enumerate(Q.spacing)]
    G = np.stack([g.ravel() for g in grads], axis=-1)       # d/du
    Ginv = np.linalg.inv(Q.chart.metric())
    sq = np.einsum("ni,ij,nj->n", G, Ginv, G)
    return np.sqrt(np.maximum(sq, 0.0))


def grad_norm(Q, flavor="sup", domain=None):
    """Sup or integral norm of |grad Q| over the grid (optionally restricted
    to nodes inside `domain`)."""
    field = _gradient_norm_field(Q)
    if domain is not None:
        field = field[exact_inside(domain, Q.node_points())]
    if flavor == "sup":
        return float(field.max())
    if flavor == "l1":
        cell = float(np.prod(Q.spacing)) * math.sqrt(np.linalg.det(Q.chart.metric()))
        return float(field.sum() * cell)
    raise ValueError("flavor must be 'sup' or 'l1'")


def _assert_form(sysm, frame, factored):
    C = fs.transfer.TransferOperator(sysm, frame)
    assert len(C.factored if factored else C.gathered) == sysm.N
    assert not (C.gathered if factored else C.factored)
    # an axis of at most MATRIX_AXIS nodes is one (n, n) matrix, a longer
    # one its stencil of (n,) arrays
    for _, axes in C.factored:
        for n, step in zip(frame.values.shape, axes):
            if n <= fs.transfer.MATRIX_AXIS:
                assert isinstance(step, np.ndarray) and step.shape == (n, n)
            else:
                assert [a.size for a in step] == [n] * 4


def _direct(sysm, Q):
    """sum_l |chi_B(t - l)|^2 Q(R*^{-1}(t - l)) at the nodes t of Q, from the
    oracle's weights and the interpolation at every point."""
    S = np.array(sysm.R.inverse_transpose, dtype=float)
    t = Q.node_points()
    return sum(chi_B_sq(sysm, t - l) * interp(Q, (t - l) @ S.T) for l in sysm.l_array())


class TestApplyC:
    def test_preserves_one_on_catalog(self):
        for name, res in (("scale4", 64), ("scale2", 64), ("triadic", 64),
                          ("planar-collapse", 64), ("eiffel", 10)):
            sysm = fs.get_system(name)
            frame = fs.grid_frame(sysm, res)
            one = frame.with_values(np.ones_like(frame.values))
            out = fs.apply_C(sysm, one)
            assert np.abs(out.values - 1).max() <= 1e-12, name

    def test_positivity(self, scale4):
        frame = fs.grid_frame(scale4, 32)
        rng = np.random.RandomState(12)
        Q = frame.with_values(rng.rand(*frame.values.shape))
        assert (fs.apply_C(scale4, Q).values >= 0).all()

    def test_q1_partial_is_near_fixed(self, scale4):
        frame = fs.grid_frame(scale4, 64)
        ts = frame.node_params()[:, 0]
        vals6 = fs.q1_profile(scale4, ts, 6).values().reshape(frame.values.shape)
        vals10 = fs.q1_profile(scale4, ts, 10).values().reshape(frame.values.shape)
        r6 = np.abs(fs.apply_C(scale4, frame.with_values(vals6)).values - vals6).max()
        r10 = np.abs(fs.apply_C(scale4, frame.with_values(vals10)).values - vals10).max()
        assert r10 <= 5e-3
        assert r10 <= r6

    def test_lebesgue_fixed_within_interp_error(self, scale2):
        frame = fs.grid_frame(scale2, 64)
        Q = frame.with_values(
            lebesgue_Q(frame.node_params()[:, 0]).reshape(frame.values.shape))
        resid = np.abs(fs.apply_C(scale2, Q).values - Q.values).max()
        assert resid <= 5e-4

    @pytest.mark.parametrize("name,res,factored", _cases(
        ("eiffel(2)", 10, True), ("eiffel(2)", 24, True), ("eiffel(2)", 70, True),
        ("scale2", 64, True), ("triadic", 64, True), ("planar-collapse", 48, True),
        ("planar3d", 24, True), ("sheared", 48, False)))
    def test_matches_the_sum_over_digits(self, request, name, res, factored):
        # C assembled once agrees with sum_l |chi_B(t - l)|^2 Q(R*^{-1}(t - l))
        sysm = _system(name, request)
        frame = fs.grid_frame(sysm, res)
        _assert_form(sysm, frame, factored)
        rng = np.random.RandomState(3)
        Q = frame.with_values(rng.rand(*frame.values.shape))
        out = fs.apply_C(sysm, Q).values.ravel()
        assert np.abs(out - _direct(sysm, Q)).max() <= 1e-14

    def test_matrix_and_stencil_axes_in_one_grid(self):
        # a grid whose first axis is short enough for a matrix and whose
        # second keeps its stencil, over the box of the product system's frame
        frame = fs.grid_frame(PRODUCT, 48)
        short, long = fs.transfer.MATRIX_AXIS - 24, fs.transfer.MATRIX_AXIS + 36
        axes = [np.linspace(a[0], a[-1], n) for a, n in zip(frame.axes, (short, long))]
        Q = fs.GridFunction(axes, np.random.RandomState(8).rand(short, long), frame.chart)
        _assert_form(PRODUCT, Q, True)
        out = fs.apply_C(PRODUCT, Q).values.ravel()
        assert np.abs(out - _direct(PRODUCT, Q)).max() <= 1e-14

    @pytest.mark.parametrize("name,res", [("scale4", 64), ("triadic", 64), ("eiffel(2)", 24),
                                          ("planar3d", 24), ("sheared", 48)])
    def test_weights_match_the_oracle(self, request, name, res):
        # the weights from the axis phase tables against the oracle's trig at
        # every node, digit by digit: real and complex mask tables, a chart
        # that is not the identity, and the gathered form
        sysm = _system(name, request)
        frame = fs.grid_frame(sysm, res)
        C = fs.transfer.TransferOperator(sysm, frame)
        weights = [w for w, *_ in C.factored + C.gathered]
        assert len(weights) == sysm.N
        t = frame.node_points()
        for w, l in zip(weights, sysm.l_array()):
            assert np.abs(w.ravel() - chi_B_sq(sysm, t - l)).max() <= 1e-15

    def test_interpolation_is_exact_on_affine_values(self, eiffel2):
        frame = fs.grid_frame(eiffel2, 10)
        a, c = np.array([0.3, -1.7, 2.2]), 0.4
        Q = frame.with_values((frame.node_params() @ a + c).reshape(frame.values.shape))
        lo = np.array([ax[0] for ax in frame.axes])
        hi = np.array([ax[-1] for ax in frame.axes])
        U = lo + (hi - lo) * np.random.RandomState(5).rand(200, 3)
        U[:3] = [lo, hi, (lo + hi) / 2]                    # box corners and centre
        assert np.abs(interp_params(Q, U) - (U @ a + c)).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_two_digit_hadamard_properties(self, data):
        # (R, {0, 1/2}, {0, p}) with p odd: C1 = 1, and C keeps a non-negative
        # grid non-negative
        R = data.draw(st.integers(2, 9).flatmap(lambda a: st.sampled_from((a, -a))))
        p = data.draw(st.integers(0, 22)) * 2 + 1
        sysm = fs.make_system(R, (0, Fraction(1, 2)), (0, p))
        frame = fs.grid_frame(sysm, 64)
        assert np.abs(fs.apply_C(sysm, frame).values - 1).max() <= 1e-12
        Q = frame.with_values(data.draw(arrays(float, frame.values.shape,
                                               elements=st.floats(0, 1e6))))
        assert (fs.apply_C(sysm, Q).values >= 0).all()

    def test_factored_form_is_linear_in_the_axis_lengths(self, scale4):
        # a fine 1-D grid: each axis keeps (n,) stencils, not an (n, n) matrix,
        # and one step equals the gather over the same stencil, with the
        # operator's own weights, bit for bit
        frame = fs.grid_frame(scale4, 20000)
        C = fs.transfer.TransferOperator(scale4, frame)
        assert len(C.factored) == scale4.N and not C.gathered
        assert all(a.size == 20000 for _, axes in C.factored for a in axes[0])
        v = np.random.RandomState(5).rand(20000)
        S = np.array(scale4.R.inverse_transpose, dtype=float)
        t = frame.node_points()
        gathered = np.zeros(20000)
        for (w, _), l in zip(C.factored, scale4.l_array()):
            assert np.abs(w - chi_B_sq(scale4, t - l)).max() <= 1e-15
            gathered += w * frame.corner_sum(
                v, *frame.stencil(frame.chart.param((t - l) @ S.T)))
        assert np.array_equal(C(v), gathered)

    def test_escaping_box_named(self, scale4):
        frame = fs.grid_frame(scale4, 32)
        narrow = fs.GridFunction([np.linspace(-0.05, 0.0, 32)],
                                 np.ones(32), frame.chart)
        with pytest.raises(ValueError) as exc:
            fs.apply_C(scale4, narrow)
        assert "escapes" in str(exc.value)


class TestIteration:
    def test_scale4_contracts_to_one(self, scale4):
        frame = fs.grid_frame(scale4, 64)
        res = fs.iterate_fixed_point(scale4, frame.quadratic_bump())
        assert res.converged and not res.diverged
        ratios = residual_ratios(res)
        assert ratios[1:].max() <= fs.gamma_1d(4) + 0.05
        assert np.abs(res.final.values - 1).max() <= 1e-8

    def test_constant_start_is_fixed(self, scale4):
        frame = fs.grid_frame(scale4, 32)
        res = fs.iterate_fixed_point(scale4, frame)
        assert res.residuals[0] <= 1e-12

    def test_lebesgue_start_stays_put(self, scale2):
        frame = fs.grid_frame(scale2, 64)
        Q0 = frame.with_values(
            lebesgue_Q(frame.node_params()[:, 0]).reshape(frame.values.shape))
        res = fs.iterate_fixed_point(scale2, Q0, max_iters=40, tol=1e-12)
        drift = np.abs(res.final.values - Q0.values).max()
        assert drift <= 2e-2            # pinned by interpolation error, not contraction

    @pytest.mark.parametrize("name,res,factored", _cases(
        ("scale4", 64, True), ("eiffel(2)", 10, True), ("eiffel(2)", 24, True),
        ("eiffel(2)", 70, True), ("planar3d", 24, True), ("sheared", 48, False)))
    def test_residuals_match_repeated_apply(self, request, name, res, factored):
        sysm = _system(name, request)
        Q = fs.grid_frame(sysm, res).quadratic_bump()
        _assert_form(sysm, Q, factored)
        # the long-axis grid runs all MAX_ITERS steps without converging, and
        # each apply_C below assembles C anew: twenty steps compare its path
        out = fs.iterate_fixed_point(sysm, Q, 20 if res == 70 else fs.transfer.MAX_ITERS)
        residuals = []
        for _ in out.residuals:
            QN = fs.apply_C(sysm, Q)
            residuals.append(float(np.abs(QN.values - Q.values).max()))
            Q = QN
        assert out.residuals == residuals
        assert np.array_equal(out.final.values, Q.values)

    def test_unnormalized_start_rejected(self, scale4):
        frame = fs.grid_frame(scale4, 32)
        bad = frame.with_values(2 * np.ones_like(frame.values))
        with pytest.raises(ValueError):
            fs.iterate_fixed_point(scale4, bad)

    def test_start_past_float_range_rejected(self):
        # B = {0, 1/(2 10^305)}: the bump squares node parameters near 3e304,
        # and C iterated from it gave NaN residuals
        sysm = fs.two_digit_system(4, Fraction(1, 2 * 10 ** 305))
        frame = fs.grid_frame(sysm, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q0 = frame.quadratic_bump()
        with pytest.raises(ValueError, match="the transfer start Q0 leaves the "
                                             "floating-point range"):
            fs.iterate_fixed_point(sysm, Q0)

    @pytest.mark.parametrize("name,res", [("scale4", 64), ("triadic", 64), ("planar3d", 24),
                                          ("sheared", 48), ("eiffel(2)", 10)])
    def test_value_at_zero_reads_the_origin_node(self, request, name, res):
        # the node at the origin's chart parameters, found by its ambient
        # point, holds the value that value_at_zero reads
        frame = fs.grid_frame(_system(name, request), res)
        at = np.flatnonzero(np.abs(frame.node_points()).max(axis=1) <= 1e-12)
        assert len(at) == 1
        assert frame.quadratic_bump().value_at_zero() == 1.0
        values = np.arange(frame.values.size, dtype=float).reshape(frame.values.shape)
        assert frame.with_values(values).value_at_zero() == at[0]

    def test_grid_without_the_origin_node_refused(self, scale4):
        frame = fs.grid_frame(scale4, 32)
        half = fs.GridFunction([frame.axes[0] + frame.spacing[0] / 2], frame.values,
                               frame.chart)
        with pytest.raises(ValueError, match="the origin is not a node of the grid"):
            half.value_at_zero()

    def test_divergence_flagged(self):
        # L = {0, 1/3} is no dual of B = {0, 1/2} at R = 4: the residual
        # grows over ten iterations in a row
        sysm = fs.make_system(4, [0, Fraction(1, 2)], [0, Fraction(1, 3)])
        res = fs.iterate_fixed_point(sysm, fs.grid_frame(sysm, 64).quadratic_bump())
        assert res.diverged and not res.converged
        assert len(res.residuals) == 11


class TestGridFrame:
    # the pad of the box taken, read back from an axis: h (resolution - 2) =
    # (1 + 2 pad) width; the rotation-scaling needs the sixth box, the last
    # grid_frame tries
    @pytest.mark.parametrize("R, B, L, boxes, iterations", [
        ([[2, -2], [2, 2]], [(0, 0), (Fraction(1, 2), 0)], [(0, 0), (1, 0)], 6, 20),
        ([[0, 3], [-3, 0]], [(0, 0), (Fraction(1, 3), 0), (Fraction(2, 3), 0)],
         [(0, 0), (1, 0), (2, 0)], 2, 16)])
    def test_box_grows_until_self_mapped(self, R, B, L, boxes, iterations):
        sysm = fs.make_system(R, B, L)
        frame = fs.grid_frame(sysm, 24)
        hull = fs.dual_hull(sysm)
        us = hull.chart.param(hull.vertex_array())
        for d, axis in enumerate(frame.axes):
            width = us[:, d].max() - us[:, d].min()
            pad = ((axis[1] - axis[0]) * 22 / width - 1) / 2
            assert abs(pad - fs.transfer.DEFAULT_PAD * 1.7 ** (boxes - 1)) <= 1e-9
        S = np.array(sysm.R.inverse_transpose, dtype=float)
        corners = frame.chart.ambient(np.array(
            list(itertools.product(*[(a[0], a[-1]) for a in frame.axes]))))
        for l in sysm.l_array():
            U = frame.chart.param((corners - l) @ S.T)
            for d, axis in enumerate(frame.axes):
                assert (U[:, d] >= axis[0] - 1e-12).all() and (U[:, d] <= axis[-1] + 1e-12).all()
        res = fs.iterate_fixed_point(sysm, frame.quadratic_bump())
        assert res.converged and len(res.residuals) == iterations


    @pytest.mark.parametrize("resolution", [-3, 0, 2, 7])
    def test_resolution_floor(self, scale4, resolution):
        # refused before the spacing (hi - lo) / (resolution - 2) is taken,
        # which divided by zero at 2 and sized a negative grid at -3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^resolution must be >= 8$"):
                fs.grid_frame(scale4, resolution)

    @pytest.mark.parametrize("name", ["scale4", "eiffel(2)", "planar-collapse", "slow-shear"])
    def test_nodes_sit_on_their_stencil_positions(self, name):
        # the spacing is read from the whole axis: a node's own stencil
        # fraction is a rounding off an integer, not its index times one
        if name == "slow-shear":
            sysm = fs.make_system([[Fraction(101, 100), 100], [0, Fraction(101, 100)]],
                                  [(0, 0), (Fraction(1, 2), 0)], [(0, 0), (1, 0)])
        else:
            sysm = fs.get_system(name)
        frame = fs.grid_frame(sysm, cli.GRID_RESOLUTIONS[sysm.dim])
        _, frac = frame.stencil(frame.node_params())
        assert np.abs(frac - np.round(frac)).max() <= 2e-14


class TestLebesgueQ:
    def test_value_at_minus_half(self):
        assert abs(lebesgue_Q(-0.5) - 0.5) <= 1e-9

    def test_value_at_zero(self):
        assert abs(lebesgue_Q(0.0) - 1.0) <= 1e-12

    def test_positive_integers(self):
        for k in (1, 2, 3):
            assert abs(lebesgue_Q(float(k)) - 1.0) <= 1e-6

    def test_against_trigamma(self):
        for t in (-0.25, -0.5, -0.9, -0.11):
            exact = math.sin(math.pi * t) ** 2 / math.pi ** 2 * polygamma(1, -t)
            assert abs(lebesgue_Q(t) - exact) <= 1e-10

    def test_against_partial_sums(self, scale2):
        value = fs.q1_profile(scale2, [-0.25], 18).values()[0]
        assert abs(lebesgue_Q(-0.25) - value) <= 1e-4
        # truncated partial sums sit below the series value
        assert value <= lebesgue_Q(-0.25)

    def test_operator_identity(self):
        ts = np.linspace(-1, 0, 128)
        lhs = (np.cos(np.pi * ts / 2) ** 2 * lebesgue_Q(ts / 2)
               + np.sin(np.pi * ts / 2) ** 2 * lebesgue_Q((ts - 1) / 2))
        assert np.abs(lhs - lebesgue_Q(ts)).max() <= 1e-4


class TestGamma1d:
    def test_scale4_value(self):
        assert abs(fs.gamma_1d(4) - (0.25 + math.pi * math.sqrt(3) / 16)) <= 1e-12

    def test_scale2_not_contractive(self):
        v = fs.gamma_1d(2)
        assert v > 1
        assert abs(v - (0.5 + math.pi / 4)) <= 1e-12

    def test_negative_branch(self):
        assert abs(fs.gamma_1d(-4) - (math.pi / 8 * math.sin(math.pi / 15) + 0.25)) <= 1e-12
        assert fs.gamma_1d(-4) < 1

    def test_rejects_unit_scale(self):
        with pytest.raises(ValueError):
            fs.gamma_1d(1)


class TestGammaEiffel:
    def test_r3(self):
        assert abs(fs.gamma_eiffel(3) - (1 + 3 * math.pi / 16) / 3) <= 1e-12

    def test_r2_no_contraction(self):
        assert fs.gamma_eiffel(2) > 1

    def test_large_r_decay(self):
        assert fs.gamma_eiffel(1000) == pytest.approx(1 / 1000, rel=1e-4)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            fs.gamma_eiffel(1)


class TestGammaSupnorm:
    def test_matches_closed_form_family(self):
        # the generic route reproduces the one-dimensional closed form
        for R in (4, 6, 8):
            sysm = fs.two_digit_system(R, Fraction(1, 2))
            rep = fs.gamma_supnorm(sysm)
            assert abs(rep.gamma_sup - fs.gamma_1d(R)) <= 1e-9

    def test_eiffel_beta(self):
        # r=2 over the sampled hull, r=3 over the exact simplex, which is
        # its default hull
        rep2 = fs.gamma_supnorm(fs.eiffel_system(2))
        e3 = fs.eiffel_system(3)
        assert fs.simplex_Y(e3) == fs.dual_hull(e3)
        rep3 = fs.gamma_supnorm(e3)
        for rep in (rep2, rep3):
            assert abs(rep.beta - math.pi * math.sqrt(2)) <= 1e-9

    def test_beta_sample_cross_check(self, scale4, eiffel2):
        for sysm in (scale4, eiffel2):
            rep = fs.gamma_supnorm(sysm)
            assert rep.beta_sample_agrees

    @pytest.mark.parametrize("name", ["scale4", "scale2", "triadic", "planar-collapse",
                                      "eiffel(2)", "eiffel(3)", "eiffel(4)"])
    def test_unordered_pairs_match_ordered(self, name):
        # the ordered-pair loops, kept as the reference for the halved ones
        sysm = fs.get_system(name)
        Y = fs.dual_hull(sysm, 4)
        pairs = [(i, j) for i in range(sysm.N) for j in range(sysm.N) if i != j]
        exact = 0.0
        for i, j in pairs:
            d = rat.vec_sub(sysm.B[i], sysm.B[j])
            for l in sysm.L:
                qs = [rat.dot(d, rat.vec_sub(v, l)) for v in Y.vertices]
                exact = max(exact, fs.transfer._sin_sup_on_interval(min(qs), max(qs)))
        pts = np.concatenate([Y.vertex_array(), Y.sample(fs.transfer.BETA_SAMPLES)])
        bs, sampled = sysm.b_array(), 0.0
        for i, j in pairs:
            for l in sysm.l_array():
                vals = np.abs(np.sin(2 * np.pi * ((pts - l) @ (bs[i] - bs[j]))))
                sampled = max(sampled, float(vals.max()))
        beta = fs.transfer.beta_constant(sysm, Y)
        assert beta.beta == 2 * math.pi * beta.diam_B * exact
        assert fs.transfer._beta_sampled(sysm, Y) == sampled

    @pytest.mark.parametrize("name", ["scale4", "scale2", "triadic", "planar-collapse",
                                      "eiffel(2)", "eiffel(3)", "eiffel(4)", "scale4(3)"])
    def test_diam_B_is_the_hull_diameter(self, name):
        # the reference: the largest squared distance over ordered pairs of B
        sysm = fs.get_system(name)
        diam_sq = max(rat.dot(rat.vec_sub(p, q), rat.vec_sub(p, q))
                      for p in sysm.B for q in sysm.B)
        assert fs.hull_diameter(sysm.B) == math.sqrt(float(diam_sq))
        assert fs.transfer.beta_constant(sysm, fs.dual_hull(sysm)).diam_B == math.sqrt(float(diam_sq))

    def test_rescaling_kills_gamma(self):
        vals = [fs.gamma_supnorm(fs.get_system(f"scale4({r})")).gamma_sup
                for r in (1, 4, 16)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05


def _two_digit_triples(seed, count):
    """Seeded 1-D two-digit systems (R, {0, b}, {0, l}), Hadamard or not."""
    rng = random.Random(seed)
    return [fs.make_system(rng.choice((2, 3, 4, 5, 6, 7, -2, -3, -5)),
                           (0, Fraction(rng.randint(1, 9), rng.randint(1, 9))),
                           (0, Fraction(rng.randint(1, 9), rng.randint(1, 9))),
                           name=f"two-digit-{seed}-{k}")
            for k in range(count)]


# B = {0, 10^9}, L = {0, 1}: the projections of Y = [-1/3, 0] span 3 10^8 periods
MANY_PERIODS = fs.make_system(4, (0, 10 ** 9), (0, 1), name="many-periods")
BETA_SYSTEMS = ([fs.get_system(n) for n in ("scale4", "scale2", "triadic", "planar-collapse",
                                            "scale4(3)")]
                + [fs.eiffel_system(r) for r in range(2, 7)]
                + _two_digit_triples(7, 12) + [MANY_PERIODS])


class TestBetaSampled:
    """`_beta_sampled` takes one sine per (pair, digit) where the full scan
    (`oracles.beta_sampled_scan`) takes one per mesh point."""

    @pytest.mark.parametrize("sysm", BETA_SYSTEMS, ids=[s.name for s in BETA_SYSTEMS])
    def test_agrees_with_the_full_scan(self, monkeypatch, sysm):
        Y = fs.dual_hull(sysm)
        want = beta_sampled_scan(sysm, Y)
        assert abs(fs.transfer._beta_sampled(sysm, Y) - want) <= 4 * math.ulp(want)
        got = fs.transfer.beta_constant(sysm, Y)
        monkeypatch.setattr(fs.transfer, "_beta_sampled", beta_sampled_scan)
        assert fs.transfer.beta_constant(sysm, Y) == got

    @pytest.mark.parametrize("sysm", [MANY_PERIODS, fs.eiffel_system(2)],
                             ids=["many-periods", "eiffel(2)"])
    def test_one_sine_per_pair_and_digit(self, monkeypatch, sysm):
        Y = fs.dual_hull(sysm)
        pts = np.concatenate([Y.vertex_array(), Y.sample(fs.transfer.BETA_SAMPLES)])
        sines, sin = [], np.sin
        monkeypatch.setattr(np, "sin", lambda x: sines.append(np.size(x)) or sin(x))
        fs.transfer._beta_sampled(sysm, Y)
        assert sum(sines) == math.comb(sysm.N, 2) * sysm.N < len(pts)
        if sysm is MANY_PERIODS:
            q = pts @ (sysm.b_array()[1] - sysm.b_array()[0])
            assert q.max() - q.min() > 10 ** 8


class TestGammaL1:
    def test_one_dimensional_floor(self, scale4):
        rep = fs.gamma_supnorm(scale4)
        assert abs(rep.norms["det_times_hs"] - 1.0) <= 1e-12
        assert rep.sharp_valid and rep.gamma_L1_sharp >= 1.0

    def test_eiffel_det_times_hs(self):
        for r in (2, 3):
            e = fs.eiffel_system(r)
            assert fs.simplex_Y(e) == fs.dual_hull(e)
            rep = fs.gamma_supnorm(e)
            assert abs(rep.norms["det_times_hs"] - math.sqrt(3) * r ** 2) <= 1e-9

    def test_degenerate_b_kills_first_term(self):
        sysm = fs.make_system(4, [(0,)], [(0,)])
        rep = fs.transfer._contractivity(sysm, fs.convex_hull([(0,), (1,)], 1))
        assert rep.beta == 0.0
        assert rep.gamma_L1 == pytest.approx(abs(4) * 1 * 0.25)

    def test_sharp_at_most_loose(self):
        for name in ("scale4", "eiffel", "planar-collapse"):
            rep = fs.gamma_supnorm(fs.get_system(name))
            assert rep.gamma_L1_sharp <= rep.gamma_L1 + 1e-15

    def test_detfree_diagnostic(self):
        # shrinks roughly like 1/r on the tower family, None on degenerate hulls
        vals = []
        for r in (2, 3, 4, 6):
            e = fs.eiffel_system(r)
            assert fs.simplex_Y(e) == fs.dual_hull(e)
            vals.append(fs.gamma_supnorm(e).gamma_L1_detfree)
        assert all(v is not None for v in vals)
        assert vals[0] > vals[1] > vals[2] > vals[3]
        assert fs.gamma_supnorm(fs.get_system("planar-collapse")).gamma_L1_detfree is None


class TestGradNorm:
    def test_constant_zero(self, scale4):
        frame = fs.grid_frame(scale4, 16)
        assert grad_norm(frame, "sup") == 0.0

    def test_linear_sup(self, scale4):
        frame = fs.grid_frame(scale4, 64)
        lin = frame.with_values(frame.node_params()[:, 0].reshape(frame.values.shape))
        assert abs(grad_norm(lin, "sup") - 1.0) <= 1e-6

    def test_quadratic_l1(self, scale4):
        frame = fs.grid_frame(scale4, 64)
        sq = frame.with_values((frame.node_params()[:, 0] ** 2).reshape(frame.values.shape))
        Y = fs.dual_hull(scale4, 2)
        assert abs(grad_norm(sq, "l1", domain=Y) - 1 / 9) <= 2e-3

    def test_bad_flavor(self, scale4):
        with pytest.raises(ValueError):
            grad_norm(fs.grid_frame(scale4, 16), "l2")


class TestFunctionalIdentity:
    def test_scale4_grid_identity(self, scale4):
        grid = np.linspace(-1 / 3, 0, 64)
        q = fs.q1_profile(scale4, grid, 10).values()
        qa = fs.q1_profile(scale4, grid / 4, 10).values()
        qb = fs.q1_profile(scale4, (grid - 1) / 4, 10).values()
        rhs = np.cos(np.pi * grid / 2) ** 2 * qa + np.sin(np.pi * grid / 2) ** 2 * qb
        assert np.abs(q - rhs).max() <= 5e-3


class TestOverlapDecision:
    # Y and Y - l have disjoint interiors iff no nonzero l lies in the
    # interior of the difference body Y - Y
    def test_disjoint_translates(self, scale4, scale2, eiffel2):
        for sysm in (scale4, scale2):                   # scale2: Y and Y - 1 touch
            assert fs.transfer.overlaps_measure_zero(sysm, fs.dual_hull(sysm, 4))
        # the tower's depth-4 hull is this simplex (see test_geometry)
        assert fs.transfer.overlaps_measure_zero(eiffel2, fs.simplex_Y(eiffel2))

    def test_degenerate_hull(self, planar):
        Y = fs.dual_hull(planar, 4)
        assert Y.affine_dim < Y.ambient_dim
        assert fs.transfer.overlaps_measure_zero(planar, Y)

    def test_overlapping_translates(self):
        sysm = fs.make_system(4, [0, Fraction(1, 3), Fraction(2, 3)], [0, 1, 5])
        Y = fs.dual_hull(sysm, 4)                       # [-5/3, 0] meets Y - 1
        assert Y.vertices == ((Fraction(-5, 3),), (Fraction(0),))
        assert not fs.transfer.overlaps_measure_zero(sysm, Y)

    def test_overlap_below_float_tolerance(self):
        # Y = [-1 - 1e-10, 0] overlaps Y - 1 on an interval of length 1e-10
        far = Fraction(3) + Fraction(3, 10 ** 10)
        sysm = fs.make_system(4, [0, Fraction(1, 3), Fraction(2, 3)], [0, 1, far])
        Y = fs.dual_hull(sysm, 4)
        assert Y.vertices[0] == (-far / 3,)
        assert not fs.transfer.overlaps_measure_zero(sysm, Y)
        assert Y is fs.dual_hull(sysm)                  # the hull gamma_supnorm reads
        assert not fs.gamma_supnorm(sysm).sharp_valid

    def test_cli_imports_no_scipy(self):
        code = ("import sys, fracspec.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"
