import itertools
import json
import math
import pathlib
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracspec as fs
from fracspec import rational as rat
from oracles import (ZeroSetPredicate, atoms, hardy_embedding, layer_points, max_diag_defect,
                     mu_hat_sq_pairs, per_digit_levels, projection_norm_checks)


F = Fraction


def _named_system(name):
    """A catalog system, or "R=r" for (r, {0, 1/2}, {0, 1})."""
    if name.startswith("R="):
        return fs.two_digit_system(int(name[2:]), F(1, 2))
    return fs.get_system(name)


def _exact_layers(sysm, depth):
    """Float points of P(L) from the exact enumeration, by the depth of
    their last nonzero digit: a list of (n, dim) arrays, d = 0..depth."""
    enum = fs.enumerate_P(sysm, depth)
    return [np.array([p for p, word in enum.points if len(word) == d],
                     dtype=float).reshape(-1, sysm.dim) for d in range(depth + 1)]


def _joined_runs(m, sizes):
    """Layer indices grouped as a Q1 pass of m rows joins them: a layer of n
    points joins the run before it while the run's m n pairs add up to at
    most Q1_RUN_PAIRS, and a larger layer stands alone."""
    runs = []
    for d, n in enumerate(sizes):
        if runs and m * (sum(sizes[k] for k in runs[-1]) + n) <= fs.spectrum.Q1_RUN_PAIRS:
            runs[-1].append(d)
        else:
            runs.append([d])
    return runs


class TestEnumeration:
    def test_scale4_depth3(self, scale4):
        enum = fs.enumerate_P(scale4, 3)
        assert {p[0] for p in enum.coords()} == {0, 1, 4, 5, 16, 17, 20, 21}
        assert enum.collision_count == 0

    def test_depth0(self, scale4):
        enum = fs.enumerate_P(scale4, 0)
        assert enum.coords() == ((F(0),),)

    def test_word_cap(self, scale4, scale2):
        # the walk's MAX_WORDS cap: 2^18 = 262144 words are refused, 2^17 pass
        with pytest.raises(ValueError, match=r"exact-arithmetic cap: depth 18 reaches 2\^18"):
            fs.enumerate_P(scale4, 18)
        enum = fs.enumerate_P(scale2, 17)
        assert len(enum.points) == 2 ** 17 and enum.collision_count == 0

    def test_scale2_depth3_consecutive(self, scale2):
        enum = fs.enumerate_P(scale2, 3)
        assert [p[0] for p in enum.coords()] == list(range(8))

    def test_counts_and_nesting(self, eiffel2, scale4):
        for sysm, depths in ((eiffel2, (0, 1, 2, 3)), (scale4, (0, 2, 4, 6))):
            prev = set()
            for d in depths:
                enum = fs.enumerate_P(sysm, d)
                assert enum.collision_count == 0
                cur = set(enum.coords())
                assert len(cur) == sysm.N ** d
                assert prev <= cur
                prev = cur

    def test_layers_match_exact(self, scale4):
        enum = fs.enumerate_P(scale4, 4)
        coords = sorted(float(p[0]) for p in enum.coords())
        acc = fs.spectrum.digit_sum(fs.spectrum.layer_digits(scale4, 4), 1)[:, 0].tolist()
        assert sorted(acc) == coords

    @pytest.mark.parametrize("name", ["scale4", "eiffel(2)", "planar-collapse", "shear"])
    def test_digit_sums_are_the_layers(self, name):
        # layer d holds the points whose last nonzero digit is the d-th: the
        # exact points with words of length d, one layer at a time and as the
        # block N^(d-1)..N^d of the digit sum of all levels; the shear has
        # R* != R
        sysm = (fs.make_system([[2, 1], [0, 3]], [(0, 0), (F(1, 2), 0)], [(0, 0), (1, 1)])
                if name == "shear" else fs.get_system(name))
        enum = fs.enumerate_P(sysm, 6)

        def rows(a):
            a = np.asarray(a, dtype=float).reshape(-1, sysm.dim)
            return a[np.lexsort(np.round(a, 9).T[::-1])]

        tree = fs.spectrum.digit_sum(fs.spectrum.layer_digits(sysm, 6), sysm.dim)
        starts = [0] + [sysm.N ** j for j in range(7)]
        for d, got in layer_points(sysm, 6):
            exact = rows([p for p, word in enum.points if len(word) == d])
            for pts in (got, tree[starts[d]:starts[d + 1]]):
                assert len(pts) == len(exact)
                assert np.abs(rows(pts) - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())

    @pytest.mark.parametrize("name", ["colliding", "scale4", "scale2", "triadic",
                                      "planar-collapse", "eiffel(2)", "eiffel(3)"])
    def test_first_word_kept(self, name):
        # the kept word of each point is the first word of itertools.product
        # order to reach it, trailing zero digits stripped; R = 2 with
        # L = {0, 1, 2} sends 27 words to the 15 points 0..14
        sysm = (fs.make_system(2, [0, F(1, 3), F(2, 3)], [0, 1, 2], "colliding")
                if name == "colliding" else fs.get_system(name))
        enum = fs.enumerate_P(sysm, 3)
        M, shift = sysm.maps["tau"]         # tau_l(x) = R* x + l
        first = {}
        for word in itertools.product(sysm.L, repeat=3):
            x = sysm.zero()
            for l in reversed(word):
                x = rat.vec_add(rat.mat_vec(M, x), shift[l])
            while word and word[-1] == sysm.zero():
                word = word[:-1]
            first.setdefault(x, word)
        assert dict(enum.points) == first
        assert enum.collision_count == sysm.N ** 3 - len(first)
        if name == "colliding":
            assert [p[0] for p in enum.coords()] == list(range(15))
            assert enum.collision_count == 12


class TestDigits:
    # the digit words of P(L) as `enumerate_P` keeps them
    def test_scale4_17(self, scale4):
        word = dict(fs.enumerate_P(scale4, 3).points)[(F(17),)]
        assert [d[0] for d in word] == [1, 0, 1]

    def test_zero_is_empty_word(self, scale4):
        assert dict(fs.enumerate_P(scale4, 3).points)[(F(0),)] == ()

    def test_non_member_fails(self, scale4):
        # a word of scale4 (R = 4, L = {0, 1}) whose last nonzero digit is
        # the 4th or later sums to at least 4^3, so depth 3 holds every point
        # of P below 64: the depth-6 points below 64 are the depth-3 ones
        points = set(fs.enumerate_P(scale4, 3).coords())
        assert {p for p in fs.enumerate_P(scale4, 6).coords() if p[0] < 64} == points
        assert (F(2),) not in points and (F(-1),) not in points

    def test_ambiguous_expansion_fails(self):
        # 2 = 0 + 2*1 = 2 + 2*0 when the digit set overflows the scale: the 16
        # depth-2 words reach 10 points, and 2 keeps the first of its words in
        # itertools.product order, the other one counted as a collision
        sysm = fs.make_system(2, [(0,), (F(1, 8),), (F(1, 4),), (F(3, 8),)],
                              [(0,), (1,), (2,), (3,)])
        enum = fs.enumerate_P(sysm, 2)
        assert [p[0] for p in enum.coords()] == list(range(10))
        assert enum.collision_count == 6
        assert dict(enum.points)[(F(2),)] == ((F(0),), (F(1),))

    def test_triadic_member(self, triadic):
        # 3 = 3/4 + 3 * (3/4)
        word = dict(fs.enumerate_P(triadic, 2).points)[(F(3),)]
        assert word == ((F(3, 4),), (F(3, 4),))


class TestUniformDiscreteness:
    def test_scale4(self, scale4):
        assert fs.uniform_discreteness(fs.enumerate_P(scale4, 3)) == 1.0

    def test_scale2(self, scale2):
        assert fs.uniform_discreteness(fs.enumerate_P(scale2, 3)) == 1.0

    def test_depth0_sentinel(self, scale4):
        assert fs.uniform_discreteness(fs.enumerate_P(scale4, 0)) == math.inf


class TestGram:
    def test_scale4_orthonormal(self, scale4):
        pts = [p for p in fs.enumerate_P(scale4, 3).coords()]
        rep = fs.gram_matrix(scale4, pts)
        assert rep.max_offdiag <= 1e-8
        assert max_diag_defect(rep) <= 1e-10

    def test_triadic_witness(self, triadic, mu3):
        rep = fs.gram_matrix(triadic, [F(0), F(3, 4), F(9, 4)])
        assert rep.max_offdiag > 0.4
        assert rep.worst_pair == ((0.75,), (2.25,))
        # independent cosine-product oracle for the witness value
        oracle = abs(np.prod([math.cos(2 * math.pi * 1.5 / 3 ** n)
                              for n in range(1, 60)]))
        assert abs(rep.max_offdiag - oracle) < 1e-10

    def test_triadic_tie_keeps_the_first_pair(self, triadic):
        # chi_B(4.5) = 1, so |mu_hat(4.5)| = |mu_hat(1.5)|, and so on up the
        # powers of 3: the pairs at those distances are tied, their float
        # moduli up to about 1e-12 apart, and the first of them in row-major
        # order, (0.75, 2.25), is the worst pair, as the references record
        pts = fs.enumerate_P(triadic, 4).coords()
        rep = fs.gram_matrix(triadic, pts)
        assert len(pts) == 16
        assert rep.worst_pair == ((F(3, 4),), (F(9, 4),))
        a, b, c = (pts.index((x,)) for x in (F(3, 4), F(9, 4), F(27, 4)))
        for tied in (rep.moduli[a, b], rep.moduli[b, c]):
            assert 0 <= rep.max_offdiag - tied <= rep.tail_bound

    @pytest.mark.parametrize("command", ["gram", "report"])
    @pytest.mark.parametrize("name", ["scale4", "scale2", "planar-collapse", "eiffel(2)",
                                      "eiffel(4)"])
    def test_orthogonal_system_names_the_first_diagonal_pair(self, name, command):
        # on the points of `gram` (16, at the least depth that has them) and
        # of `report` (the first 16 at depth 3) every off-diagonal modulus is
        # within the tail of the zeroed diagonal, so the first point is paired
        # with itself, as the benchmark references record it
        sysm = fs.get_system(name)
        depth = 3 if command == "report" else next(d for d in range(9) if sysm.N ** d >= 16)
        pts = fs.enumerate_P(sysm, depth).coords()[:16]
        rep = fs.gram_matrix(sysm, pts)
        assert rep.max_offdiag < 1e-12 < rep.tail_bound
        assert rep.worst_pair == (pts[0], pts[0])

    def test_eiffel3_candidate_pair(self):
        e3 = fs.get_system("eiffel(3)")
        m3 = fs.SelfSimilarMeasure(e3)
        rep = fs.gram_matrix(e3, [(0.0, 0.0, 0.0), (4.0, 4.0, 0.0)])
        assert rep.max_offdiag > 1e-3
        inner, _ = m3.mu_hat_batch((4 / 3, 4 / 3, 0.0))
        assert abs(abs(rep.matrix[0, 1]) - abs(inner)) < 1e-9

    def test_duplicate_points_rejected(self, scale4):
        with pytest.raises(ValueError):
            fs.gram_matrix(scale4, [F(0), F(0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["scale4", "eiffel(2)"])
    def test_non_finite_point_is_refused(self, name, bad):
        # a NaN row left no off-diagonal modulus at the maximum to index
        sysm = fs.get_system(name)
        pts = [0.0, bad] if sysm.dim == 1 else [np.zeros(3), np.full(3, bad)]
        with pytest.raises(ValueError, match="Gram point 1 is not finite"):
            fs.gram_matrix(sysm, pts)

    def test_points_closer_than_1e_12_are_distinct(self):
        # B = {0, 10^13}: the points 0, 5e-14, 2e-13 and 2.5e-13 of P(L) are
        # distinct, though all of them round to 0.0 at 12 decimals
        sysm = fs.two_digit_system(4, 10 ** 13)
        pts = fs.enumerate_P(sysm, 3).coords()
        assert len(pts) == 8 and pts[1] == (F(1, 2 * 10 ** 13),)
        rep = fs.gram_matrix(sysm, pts)
        assert rep.max_offdiag <= 1e-8

    def test_worst_pair_is_two_of_the_given_points(self):
        # the pair is read from the points, not guessed back from floats
        sysm = fs.two_digit_system(3, F(1000000007, 2))
        pts = fs.enumerate_P(sysm, 3).coords()
        rep = fs.gram_matrix(sysm, pts)
        assert rep.worst_pair == ((F(1, 1000000007),), (F(3, 1000000007),))
        assert set(rep.worst_pair) <= set(pts)

    @pytest.mark.parametrize("name", ["planar-collapse", "triadic"])
    def test_moduli_are_the_one_modulus(self, name):
        # max_offdiag reads the moduli the CLI prints, abs() of each entry
        sysm = fs.get_system(name)
        rep = fs.gram_matrix(sysm, fs.enumerate_P(sysm, 4).coords()[:64])
        assert np.array_equal(rep.moduli, [[abs(g) for g in row] for row in rep.matrix])
        off = rep.moduli.copy()
        np.fill_diagonal(off, 0.0)
        assert rep.max_offdiag == off.max()

    def test_point_count_capped(self, scale4):
        # 1025^2 entries exceed the 2^20 cap, refused before the differences
        with pytest.raises(ValueError, match="a Gram matrix of 1025 points"):
            fs.gram_matrix(scale4, range(1025))

    def test_memory_of_the_largest_matrix(self, scale4):
        # 1024 points, the most under the cap: the pairs kernel keeps a few
        # 1024 x 1024 arrays, and no 1024 x 1024 x dim difference tensor
        pts = fs.enumerate_P(scale4, 10).coords()
        tracemalloc.start()
        try:
            rep = fs.gram_matrix(scale4, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.matrix.shape == (1024, 1024)
        assert peak < 64 * 2 ** 20

    def test_even_scale_family_orthogonal(self):
        # digits {0, b} at an even scale >= 4 pair with L = {0, 1/(2b)}
        for R, b in ((6, F(3, 2)), (4, F(2)), (-4, F(1, 2))):
            sysm = fs.two_digit_system(R, b)
            assert fs.validate_system(sysm).passed
            pts = fs.enumerate_P(sysm, 3).coords()
            rep = fs.gram_matrix(sysm, pts)
            assert rep.max_offdiag <= 1e-8, (R, b)


def _probe_calls(eiffel2, planar):
    """Each reader of the probe rule on probes of the wrong width: once
    silently reshaped into other rows (a (1, 1) Gram matrix, 2 values for 3
    probes, probe rows of shape (3, 2), a (2, 1) array of pairs, a (3, 1)
    column read as one 3-vector by the single-frequency transform)."""
    return {
        "gram_matrix": lambda: fs.gram_matrix(eiffel2, [0.0, 1.0, 2.0]),
        "q1_profile": lambda: fs.q1_profile(eiffel2, np.zeros((3, 2)), 3),
        "completeness_test":
            lambda: fs.completeness_test(planar, np.full((2, 3), 0.1), p_depth_cap=3),
        "mu_hat_pairs": lambda: fs.SelfSimilarMeasure(eiffel2).mu_hat_pairs(
            np.zeros((3, 2)), np.zeros((1, 3))),
        "mu_hat_batch": lambda: fs.SelfSimilarMeasure(eiffel2).mu_hat_batch(np.zeros((3, 2))),
        "mu_hat_batch_column": lambda: fs.SelfSimilarMeasure(eiffel2).mu_hat_batch(
            np.zeros((3, 1))),
    }


class TestProbeWidth:
    @pytest.mark.parametrize("call, width, dim", [
        ("gram_matrix", 1, 3), ("q1_profile", 2, 3), ("completeness_test", 3, 2),
        ("mu_hat_pairs", 2, 3), ("mu_hat_batch", 2, 3), ("mu_hat_batch_column", 1, 3)])
    def test_wrong_trailing_axis_refused(self, eiffel2, planar, call, width, dim):
        with pytest.raises(ValueError, match=f"trailing axis {width}, expected "
                                             f"trailing axis {dim}"):
            _probe_calls(eiffel2, planar)[call]()

    def test_scalar_refused_above_one_dimension(self, eiffel2):
        with pytest.raises(ValueError, match="no axis, expected trailing axis 3"):
            fs.q1_profile(eiffel2, 0.5, 2)

    def test_any_shape_is_elementwise_in_one_dimension(self, scale4):
        # the recorded verdict pools hand 1-D systems flat lists of probes
        flat = fs.completeness_test(scale4, [-0.1, -0.2, -0.3], p_depth_cap=6)
        assert flat.profile.values().shape == (3,)
        grid = np.linspace(-0.3, 0.0, 6)
        shaped = fs.q1_profile(scale4, grid.reshape(2, 3), 6)
        assert np.array_equal(shaped.values(), fs.q1_profile(scale4, grid, 6).values())

    def test_rows_of_any_leading_shape_above_one_dimension(self, planar):
        prof = fs.q1_profile(planar, np.full((2, 3, 2), 0.1), 3)
        assert prof.values().shape == (6,)


class TestQ1:
    def test_at_spectrum_point(self, scale4):
        prof = fs.q1_profile(scale4, [5.0], 4)
        assert prof.values()[0] >= 1 - 1e-9
        assert (prof.layers[:, 1:] >= -1e-15).all()

    def test_scale4_interior_point(self, scale4):
        prof = fs.q1_profile(scale4, [-1 / 6], 10)
        assert prof.values()[0] >= 0.98
        assert prof.last_increments()[0] >= 0

    def test_lebesgue_limit_half(self, scale2):
        value = fs.q1_profile(scale2, [-0.5], 18).values()[0]
        assert abs(value - 0.5) < 1e-3
        assert value <= 0.5

    @pytest.mark.parametrize("p_depth", [0, -1])
    def test_depth_below_one_is_refused(self, scale4, p_depth):
        # the profile had no increment to stack and numpy raised
        with pytest.raises(ValueError, match=f"p_depth >= 1, got {p_depth}"):
            fs.q1_profile(scale4, [0.1], p_depth)
        with pytest.raises(ValueError, match=f"p_depth >= 1, got {p_depth}"):
            fs.completeness_test(scale4, [0.1], p_depth_cap=p_depth)

    def test_rows_capped_by_the_scratch(self, scale4):
        # each chunk holds at least 1024 spectrum points, so Q1_SCRATCH caps
        # the rows of one pass at 5859
        assert len(fs.q1_profile(scale4, np.linspace(-1, 0, 5859), 1).values()) == 5859
        with pytest.raises(ValueError, match="5860 rows exceeds its cap of 5859"):
            fs.q1_profile(scale4, np.linspace(-1, 0, 5860), 1)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_default_depth_rule(self, N):
        # d grows from 1 while N^(d + 1) points fit the budget of 300 000,
        # up to Q1_DEPTH_CAP = 14: the rule the CLI's q1 and report applied
        d = 1
        while N ** (d + 1) <= 300_000 and d < 14:
            d += 1
        sysm = fs.make_system(N + 1, [(F(k, N),) for k in range(N)], [(k,) for k in range(N)])
        assert sysm.N == N
        assert fs.q1_depth(sysm) == d

    def test_default_depth_is_q1_depth(self, monkeypatch, eiffel2):
        # a four-digit tower stops at 4^9 points; a default of 14 ran every
        # layer up to depth 12 before the point cap refused it
        class Recorded(Exception):
            pass

        depths = []

        def recorded(system, T, p_depth, *rest):
            depths.append(p_depth)
            raise Recorded

        monkeypatch.setattr(fs.spectrum, "_q1_pass", recorded)
        probes = fs.dual_hull(eiffel2, 4).sample(3)
        with pytest.raises(Recorded):
            fs.completeness_test(eiffel2, probes)
        with pytest.raises(Recorded):
            fs.q1_profile(eiffel2, probes)
        assert depths == [fs.q1_depth(eiffel2)] * 2 == [9, 9]

    def test_depth_refused_before_the_kernel(self, monkeypatch, triadic):
        # the point cap is checked before the first layer, not when the
        # loop reaches the layer past it
        def refuse(*_):
            raise AssertionError("the kernel ran before the layer cap was checked")

        monkeypatch.setattr(fs.SelfSimilarMeasure, "mu_hat_sq_sums", refuse)
        with pytest.raises(ValueError, match=r"depth 30 reaches 2\^30 points"):
            fs.q1_profile(triadic, [0.1], 30)

    def test_layer_past_float_range_refused_before_the_kernel(self, monkeypatch):
        # L = {0, 10^305}, R = 4: R*^6 L passes the largest float, so layer 7
        # would be infinite; the pass once returned NaN sums
        sysm = fs.two_digit_system(4, F(1, 2 * 10 ** 305))

        def refuse(*_):
            raise AssertionError("the kernel ran before the float range was checked")

        monkeypatch.setattr(fs.SelfSimilarMeasure, "mu_hat_sq_sums", refuse)
        with pytest.raises(ValueError, match="spectrum layer 7 of depth 14 leaves the "
                                             "floating-point range"):
            fs.completeness_test(sysm, [0.0])
        # six layers stay in range: their levels R*^k L, k < 6
        assert len(fs.spectrum.layer_digits(sysm, 6)) == 6

    @pytest.mark.parametrize("name,p_depth", [("scale2", 12), ("scale4", 7), ("R=-2", 12),
                                              ("R=6", 5), ("eiffel(2)", 6)])
    def test_split_pass_is_the_per_point_sum(self, name, p_depth):
        # rows t - eta against the low digits give the same pairs as every
        # probe against every exact point of the layer, and a run of small
        # layers is one call over the exact points of its layers
        sysm = _named_system(name)
        meas = fs.SelfSimilarMeasure(sysm)
        T = np.random.RandomState(12).uniform(-1, 1, size=(5, sysm.dim))
        prof = fs.q1_profile(sysm, T, p_depth)
        partial_sums = np.cumsum(prof.layers, axis=1)
        layers = _exact_layers(sysm, p_depth)
        acc, tail = np.zeros(len(T)), 0.0
        for run in _joined_runs(len(T), [len(layer) for layer in layers]):
            vals, run_tail = mu_hat_sq_pairs(meas, T, np.concatenate([layers[d] for d in run]))
            start = 0
            for d in run:
                acc += vals[:, start:start + len(layers[d])].sum(axis=1)
                start += len(layers[d])
                tail += run_tail * len(layers[d])
                assert np.abs(partial_sums[:, d] - acc).max() <= 1e-12
        # one call per run or layer here, so the same truncation and the same tail
        assert prof.fourier_tail == pytest.approx(tail, rel=1e-9)

    @pytest.mark.parametrize("name,p_depth", [("scale2", 12), ("triadic", 12), ("eiffel(2)", 6)])
    def test_chunks_over_the_high_digits(self, monkeypatch, name, p_depth):
        # a scratch of 1024 entries per row splits the deep layers over
        # several calls, each within the scratch, that cover every pair once
        sysm = fs.get_system(name)
        T = fs.dual_hull(sysm, 4).sample({1: 8, 3: 2}[sysm.dim])[:8]
        pairs, tails = [], []
        kernel = fs.SelfSimilarMeasure.mu_hat_sq_sums

        def counted(self, rows, lam, starts, tables):
            # the pairs of a call are its sums' rows times its points: in one
            # dimension a later layer's rows are their two extremes
            sums, tail = kernel(self, rows, lam, starts, tables)
            pairs.append(len(sums) * len(lam))
            tails.append(tail)
            return sums, tail

        monkeypatch.setattr(fs.SelfSimilarMeasure, "mu_hat_sq_sums", counted)
        whole = fs.q1_profile(sysm, T, p_depth)
        whole_calls = len(pairs)
        pairs.clear()
        tails.clear()
        monkeypatch.setattr(fs.spectrum, "Q1_SCRATCH", 1024 * len(T))
        chunked = fs.q1_profile(sysm, T, p_depth)
        assert len(pairs) > whole_calls and max(pairs) <= 1024 * len(T)
        assert sum(pairs) == len(T) * sysm.N ** p_depth
        assert np.abs(np.cumsum(chunked.layers, axis=1)
                      - np.cumsum(whole.layers, axis=1)).max() <= 1e-12
        # each call truncates at the adaptive depth of its own pairs, so a
        # chunk nearer the probes may stop a level earlier with its own tail,
        # which scales as |t - lambda|^2: every call's tail meets the
        # tolerance, and a probe's tail is each call's tail times its pairs
        # with that probe
        assert max(tails) < fs.measure.DEFAULT_TAIL_TOL
        expected = np.dot(tails, pairs) / len(T)
        assert chunked.fourier_tail == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", ["scale2", "R=-3", "triadic", "eiffel(2)"])
    def test_joined_runs_only_lower_the_sums(self, monkeypatch, name):
        # a joined layer is cut at its run's adaptive depth, never shallower
        # than its own, and each call closes its products, which puts them
        # within its tail of the exact ones on either side: against one call
        # per layer the sums move by no more than the two passes' Fourier
        # tails, and each pass is within its own tail of the sums of a
        # 200-level product over the exact points
        sysm = _named_system(name)
        T = fs.dual_hull(sysm, 4).sample({1: 8, 3: 2}[sysm.dim])
        p_depth = {1: 12, 3: 6}[sysm.dim]
        joined = fs.q1_profile(sysm, T, p_depth)
        monkeypatch.setattr(fs.spectrum, "Q1_RUN_PAIRS", 0)
        alone = fs.q1_profile(sysm, T, p_depth)
        joined_sums, alone_sums = (np.cumsum(p.layers, axis=1) for p in (joined, alone))
        assert np.abs(joined_sums - alone_sums).max() <= joined.fourier_tail + alone.fourier_tail
        exact = np.cumsum([(np.abs(per_digit_levels(sysm, T[:, None, :] - layer[None], 200)) ** 2)
                           .sum(axis=1) for layer in _exact_layers(sysm, p_depth)], axis=0).T
        for prof, sums in ((joined, joined_sums), (alone, alone_sums)):
            assert np.abs(sums - exact).max() <= prof.fourier_tail + 1e-12

    @pytest.mark.parametrize("name,probes", [("scale4", [0.0]), ("scale2", [-0.1, 0.3])])
    def test_stop_inside_a_joined_run(self, monkeypatch, name, probes):
        # the eps_conv stop falls inside the first run, which one call
        # evaluated past it: the depth is that of one call per layer, no
        # increment past the stop is kept, and the tail counts only the
        # points of the kept layers
        sysm = fs.get_system(name)
        eps_conv = 1e-12 if name == "scale4" else 0.01
        layers = _exact_layers(sysm, 10)
        first = _joined_runs(len(probes), [len(layer) for layer in layers])[0]
        joined = fs.q1_profile(sysm, probes, 10, eps_conv=eps_conv)
        assert joined.depth < first[-1]
        assert joined.layers.shape == (len(probes), joined.depth + 1)
        # the kept layers end at the first one past 0 below eps_conv at every probe
        stops = [d for d in range(1, joined.depth + 1) if (joined.layers[:, d] < eps_conv).all()]
        assert stops == [joined.depth]
        _, run_tail = mu_hat_sq_pairs(fs.SelfSimilarMeasure(sysm), np.reshape(probes, (-1, 1)),
                                      np.concatenate([layers[d] for d in first]))
        kept = sum(len(layers[d]) for d in range(joined.depth + 1))
        assert joined.fourier_tail == pytest.approx(run_tail * kept, rel=1e-12)
        monkeypatch.setattr(fs.spectrum, "Q1_RUN_PAIRS", 0)
        alone = fs.q1_profile(sysm, probes, 10, eps_conv=eps_conv)
        assert alone.depth == joined.depth

    @pytest.mark.parametrize("m", [1, 5, 1025])
    def test_zero_need_not_be_first_in_L(self, scale4, m):
        # each level puts 0 first, so scale4 written with L = (1, 0) has
        # scale4's layers and sums: every layer in the leading call at m = 1,
        # leading and later layers at m = 5, and layer 0 alone leading at
        # m = 1025
        swapped = fs.make_system(4, scale4.B, scale4.L[::-1])
        assert swapped.L == ((F(1),), (F(0),))
        T = np.random.RandomState(m).uniform(-1, 1, size=m)
        for depth in range(1, 11):
            got, ref = (fs.q1_profile(s, T, depth) for s in (swapped, scale4))
            assert np.abs(got.layers - ref.layers).max() <= 1e-13
            assert got.fourier_tail == pytest.approx(ref.fourier_tail, rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 35, 51, 1024, 1025, 5859])
    def test_joined_runs_are_one_leading_run(self, m):
        # a layer holds at least as many points as all the layers before it,
        # so the runs of small layers are the k leading layers, whose m n
        # pairs add up to at most Q1_RUN_PAIRS (layer 0 leads alone past
        # it), and then each later layer alone; the k leading layers are the
        # N^(k-1) points of the digit sum of the levels below k - 1, layer
        # d >= 1 in the block from N^(d-1) to N^d
        for N in range(2, 9):
            sysm = fs.make_system(N + 1, [(F(k, N),) for k in range(N)], [(k,) for k in range(N)])
            depth = int(math.log(fs.spectrum.MAX_FLOAT_POINTS, N))
            levels = fs.spectrum.layer_digits(sysm, depth)
            assert [len(level) for level in levels] == [N] * depth
            assert all(level[0, 0] == 0 for level in levels)
            sizes = [1] + [N ** (d - 1) * (N - 1) for d in range(1, depth + 1)]
            runs = _joined_runs(m, sizes)
            k = len(runs[0])
            assert runs == [list(range(k))] + [[d] for d in range(k, depth + 1)]
            assert k == 1 or m * N ** (k - 1) <= fs.spectrum.Q1_RUN_PAIRS
            assert k == depth + 1 or m * N ** k > fs.spectrum.Q1_RUN_PAIRS
            lead = fs.spectrum.digit_sum(levels[:k - 1], 1)
            starts = [0] + [N ** j for j in range(k)]
            assert len(lead) == starts[-1] == N ** (k - 1)
            for d, exact in enumerate(_exact_layers(sysm, k - 1)):
                assert sorted(lead[starts[d]:starts[d + 1], 0]) == sorted(exact[:, 0])

    @pytest.mark.parametrize("name, rows, p_depth", [("scale2", 5, 14), ("eiffel(2)", 51, 6)])
    def test_one_call_per_joined_run(self, monkeypatch, name, rows, p_depth):
        # no layer here needs chunks, so each kernel call of the pass is one
        # run of the joining rule: its pairs and its column groups
        sysm = fs.get_system(name)
        T = np.random.RandomState(3).uniform(-1, 1, size=(rows, sysm.dim))
        calls = []
        kernel = fs.SelfSimilarMeasure.mu_hat_sq_sums

        def counted(self, rows, lam, starts, tables):
            sums, tail = kernel(self, rows, lam, starts, tables)
            calls.append((len(sums) * len(lam), len(starts)))
            return sums, tail

        monkeypatch.setattr(fs.SelfSimilarMeasure, "mu_hat_sq_sums", counted)
        fs.q1_profile(sysm, T, p_depth)
        sizes = [len(layer) for layer in _exact_layers(sysm, p_depth)]
        assert calls == [(rows * sum(sizes[d] for d in run), len(run))
                         for run in _joined_runs(rows, sizes)]

    @pytest.mark.parametrize("name", ["scale4", "planar-collapse"])
    def test_no_probe_rows_give_an_empty_profile(self, name):
        # no rows: every layer joins the leading call, with no tail
        sysm = fs.get_system(name)
        prof = fs.q1_profile(sysm, np.zeros((0, sysm.dim)), 6)
        assert prof.layers.shape == (0, 7) and prof.fourier_tail == 0.0

    def test_small_layers_share_a_call(self, monkeypatch, scale2):
        # 5 rows at depth 14: the 15 layers take fewer kernel calls
        calls = []
        kernel = fs.SelfSimilarMeasure.mu_hat_sq_sums

        def counted(self, rows, lam, starts, tables):
            sums, tail = kernel(self, rows, lam, starts, tables)
            calls.append(len(sums) * len(lam))
            return sums, tail

        monkeypatch.setattr(fs.SelfSimilarMeasure, "mu_hat_sq_sums", counted)
        fs.q1_profile(scale2, np.linspace(-1, 0, 5), 14)
        assert len(calls) < 15
        assert sum(calls) == 5 * 2 ** 14

    def test_pass_holds_no_pair_array(self, scale2):
        # the deepest layer of the default depth-14 pass has 35 rows (33
        # probes and the gradient stencil) against 8192 points; the kernel
        # keeps row sums per tile, so the pass stays below one 35 x 8192
        # float array of |mu_hat|^2 values
        probes = fs.dual_hull(scale2).sample(33)
        assert fs.q1_depth(scale2) == 14 and len(probes) == 33
        tracemalloc.start()
        try:
            fs.completeness_test(scale2, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 35 * 8192 * 8

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bessel_on_two_digit_hadamard_triples(self, data):
        # (R, {0, 1/2}, {0, p}) with R even and p odd is compatible, so P(L)
        # is orthogonal and every exact partial sum is at most 1: the
        # truncated ones exceed it by no more than the Fourier tail
        R = data.draw(st.integers(1, 5).flatmap(lambda k: st.sampled_from((2 * k, -2 * k))))
        p = data.draw(st.integers(0, 22)) * 2 + 1
        sysm = fs.make_system(R, (0, F(1, 2)), (0, p))
        depth = data.draw(st.integers(1, 10))
        T = data.draw(st.lists(st.floats(-2, 2), min_size=1, max_size=4))
        prof = fs.q1_profile(sysm, T, depth)
        assert (np.cumsum(prof.layers, axis=1) <= 1 + prof.fourier_tail + 1e-12).all()
        assert (prof.layers[:, 1:] >= -1e-15).all()

    @staticmethod
    def residue_oracle(sysm, depth=14, t=0.137):
        """(pass, exact) Q1 at t over the depth-14 points of a
        one-dimensional two-digit system (R, {0, b}, L), the exact sum of
        prod_k cos^2(pi b (t - lambda) / R^k).  With Lam = c lambda an
        integer and b / c = p / q, factor k depends on p Lam mod q |R|^k
        only, so the first `depth` factors are multiplied at 40 digits once
        per residue; past them the arguments are small and double
        precision holds."""
        R, b = int(sysm.R.entries[0][0]), sysm.B[1][0]
        lifted, c = rat.lift(fs.enumerate_P(sysm, depth).coords())
        lams = [lam for lam, in lifted]
        p, q = (b / c).numerator, (b / c).denominator
        got = fs.q1_profile(sysm, [t], depth).values()[0]
        with mpmath.workdps(40):
            bt = mpmath.mpf(b.numerator) * mpmath.mpf(t) / b.denominator
            prods, prev = {0: mpmath.mpf(1)}, 1
            for k in range(depth):
                # p Lam / (q R^k) = sign(R^k) residue / (q |R|^k) mod 1
                mod, sign = q * abs(R) ** k, (-1) ** k if R < 0 else 1
                prods = {r: prods[r % prev] * mpmath.cos(
                    mpmath.pi * (bt / mpmath.mpf(R) ** k - sign * mpmath.mpf(r) / mod)) ** 2
                    for r in {p * lam % mod for lam in lams}}
                prev = mod
            x = np.array([float(b * (F(t) - F(lam, c)) / F(R) ** depth) for lam in lams])
            tail = np.prod(np.cos(np.pi * x[:, None] / float(R) ** np.arange(40)) ** 2, axis=1)
            exact = mpmath.fsum(prods[p * lam % prev] * float(w) for lam, w in zip(lams, tail))
        return got, float(exact)

    def test_odd_scale_against_mpmath(self):
        # R = 7, B = {0, 1/4}, L = {0, 2}: lambda up to 2.3e11.  The pass was
        # 8.6e-8 off with one float angle per point, 6.0e-8 with the split
        # into low and high digits and 5.5e-8 with two levels per table
        # row; with its phases exact mod 1 it was 1.7e-12 off, mostly the
        # truncation of each product at its tail, on which the bound was
        # set at nine times that; with each product closed it is 2.7e-15
        # off
        got, exact = self.residue_oracle(fs.two_digit_system(7, F(1, 4)))
        assert abs(got - exact) <= 1.6e-11

    @pytest.mark.parametrize("system, bound", [
        (lambda: fs.two_digit_system(-7, F(1, 4)), 9.5e-12),
        (lambda: fs.two_digit_system(7, F(3, 2)), 1.6e-11),
        (lambda: fs.get_system("triadic"), 4.5e-10)], ids=["R=-7", "b=3/2", "triadic"])
    def test_large_lambda_against_mpmath(self, system, bound):
        # the oracle of the odd scale at R = -7, at b = 3/2 (L = {0, 1/3})
        # and on triadic (R = 3, B = {0, 2/3}, L = {0, 3/4}), where the pass
        # was 9.6e-13, 1.6e-12 and 4.6e-11 off with each product cut at its
        # quadratic tail, and each bound was set just under ten times that;
        # closed, it is 6.7e-16, 1.8e-15 and 4.4e-14 off
        got, exact = self.residue_oracle(system())
        assert abs(got - exact) <= bound

    def test_monotone_in_depth(self, scale4):
        rng = np.random.RandomState(9)
        prof = fs.q1_profile(scale4, rng.uniform(-2, 2, 5), 8)
        assert (prof.layers[:, 1:] >= -1e-15).all()

    def test_bessel_bound(self, scale4, mu4):
        rng = np.random.RandomState(10)
        T = rng.uniform(-3, 3, 5)
        prof = fs.q1_profile(scale4, T, 10)
        _, tail = mu4.mu_hat_batch(T)
        assert (prof.values() <= 1 + 3 * tail).all()

    @pytest.mark.parametrize("name,p_depth", [("scale4", 14), ("scale2", 14),
                                              ("eiffel(2)", 6), ("planar-collapse", 8)])
    def test_fourier_tail_keeps_bessel(self, name, p_depth):
        # P(L) is orthogonal here, so the exact partial sums are <= 1 and the
        # closed products can move them by at most the recorded Fourier tail
        sysm = fs.get_system(name)
        grid = fs.dual_hull(sysm, 4).sample({1: 17, 2: 5, 3: 3}[sysm.dim])
        prof = fs.q1_profile(sysm, grid, p_depth)
        tail = prof.fourier_tail
        assert isinstance(tail, float) and math.isfinite(tail) and tail >= 0
        assert (prof.values() <= 1 + tail + 1e-12).all()

    def test_no_fixed_transform_depth(self, planar):
        # a fixed depth of 3 gave Q1 ~ 1.77e5 here, far above the Bessel
        # bound; the depth is always the adaptive one that meets the tail
        probes = np.array([[0.25, 0.25], [0.05, 0.05], [1.25, 1.25], [0.2, -0.1]])
        with pytest.raises(TypeError):
            fs.q1_profile(planar, probes, 14, fourier_depth=3, eps_conv=1e-6)
        with pytest.raises(TypeError):
            fs.completeness_test(planar, probes, fourier_depth=3)
        with pytest.raises(TypeError):
            fs.max_orthogonal_family(fs.SelfSimilarMeasure(planar), probes, fourier_depth=3)
        with pytest.raises(TypeError):
            fs.gram_matrix(planar, probes, fourier_depth=45)


def low_points(profile, grid):
    """(probe, value) of each probe of a 1-D grid that stabilized at or
    below 1 - EPS_FAIL under the default eps_conv of `completeness_test`."""
    stab = profile.last_increments() < fs.spectrum.Q1_EPS_CONV
    return [((float(t),), float(v)) for t, v, st in zip(grid, profile.values(), stab)
            if st and v <= 1 - fs.spectrum.EPS_FAIL]


class TestCompleteness:
    def test_tower_at_the_default_depth(self, eiffel2):
        # the former default of 14 ran into the layer cap at depth 12
        rep = fs.completeness_test(eiffel2, fs.dual_hull(eiffel2, 4).sample(3))
        assert (rep.verdict, rep.profile.depth) == (fs.spectrum.VERDICT_INCOMPLETE, 9)

    def test_scale4_basis(self, scale4):
        grid = np.linspace(-1 / 3, 0, 16)
        rep = fs.completeness_test(scale4, grid, p_depth_cap=12)
        assert rep.verdict == fs.spectrum.VERDICT_BASIS
        assert np.abs(rep.grad_at_zero).max() <= 1e-4

    def test_mu34_incomplete(self, scale4, mu34):
        # the convolution's dense sums over P(L) of scale4, by the same rule
        grid = np.linspace(-1 / 3, 0, 16)
        verdict, prof = mu34.completeness_verdict(scale4, grid)
        assert verdict == fs.spectrum.VERDICT_INCOMPLETE
        assert low_points(prof, grid)

    def test_indeterminate_when_capped(self, scale4):
        grid = np.linspace(-1 / 3, 0, 4)
        rep = fs.completeness_test(scale4, grid, eps_conv=1e-30, p_depth_cap=4)
        assert rep.verdict == fs.spectrum.VERDICT_INDETERMINATE

    def test_a_vanished_layer_then_growth_is_not_stabilized(self):
        # layer 1 is 0, but the sum still grows after it: only the last
        # increment says whether a row stabilized
        prof = fs.Q1Profile(np.array([[1.0, 0.0, 0.5]]), 0.0)
        assert fs.spectrum._verdict(prof, fs.spectrum.Q1_EPS_CONV) == \
            fs.spectrum.VERDICT_INDETERMINATE

    @pytest.mark.parametrize("value,last,verdict", [
        (1 - fs.spectrum.EPS_FAIL, 0.0, fs.spectrum.VERDICT_INCOMPLETE),
        (1 - fs.spectrum.EPS_PASS, 0.0, fs.spectrum.VERDICT_BASIS),
        (1 - fs.spectrum.EPS_FAIL, 1e-3, fs.spectrum.VERDICT_INDETERMINATE),
        (1 - fs.spectrum.EPS_PASS, 1e-3, fs.spectrum.VERDICT_INDETERMINATE)])
    def test_verdict_thresholds(self, value, last, verdict):
        # a stabilized row at 1 - EPS_FAIL is INCOMPLETE, and one at
        # 1 - EPS_PASS BASIS-CONSISTENT, beside a row at 1
        prof = fs.Q1Profile(np.array([[value - last, last], [1.0, 0.0]]), 0.0)
        assert prof.values()[0] == value
        assert fs.spectrum._verdict(prof, fs.spectrum.Q1_EPS_CONV) == verdict

    def test_triadic_origin_is_not_stabilized(self, triadic):
        # layer 1 at 0 is sum_{l != 0} |mu_hat(l)|^2, each term with the
        # factor chi_B(l) = 0, yet Q1(0) keeps growing to the depth cap
        grid = fs.dual_hull(triadic).sample(17)
        rep = fs.completeness_test(triadic, grid)
        origin = int(np.flatnonzero(np.ravel(grid) == 0)[0])
        assert rep.profile.layers[origin, 1] < 1e-30
        assert rep.profile.last_increments()[origin] >= fs.spectrum.Q1_EPS_CONV
        assert rep.profile.values()[origin] > 1 + fs.spectrum.EPS_PASS
        assert rep.verdict == fs.spectrum.VERDICT_INDETERMINATE

    def test_planar_segment_consistent(self, planar):
        us = np.linspace(-2 / 15, 2 / 15, 7)
        seg = np.stack([us, -us], axis=1)
        rep = fs.completeness_test(planar, seg)
        assert rep.verdict == fs.spectrum.VERDICT_BASIS

    @pytest.mark.parametrize("name,cap", [("scale2", 14), ("triadic", 14), ("eiffel(2)", 5)])
    def test_stencil_rides_along(self, name, cap):
        # one pass carries the probes and the gradient stencil: the depth is
        # the probes' own, and the gradient is that of separate stencil sums
        sysm = fs.get_system(name)
        grid = fs.dual_hull(sysm, 4).sample({1: 33, 3: 3}[sysm.dim])
        rep = fs.completeness_test(sysm, grid, p_depth_cap=cap)
        alone = fs.q1_profile(sysm, grid, cap, eps_conv=fs.spectrum.Q1_EPS_CONV)
        assert rep.profile.depth == alone.depth
        assert np.abs(rep.profile.values() - alone.values()).max() <= 1e-12
        h = fs.spectrum.FD_STEP
        for j, e in enumerate(np.eye(sysm.dim)):
            v = fs.q1_profile(sysm, [h * e, -h * e], rep.profile.depth).values()
            assert rep.grad_at_zero[j] == pytest.approx((v[0] - v[1]) / (2 * h),
                                                        rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("name", ["scale4", "eiffel(2)"])
    def test_empty_grid_is_refused(self, name):
        # all() over no probe rows is True: an empty grid would come back
        # BASIS-CONSISTENT with nothing examined
        sysm = fs.get_system(name)
        with pytest.raises(ValueError, match="grid is empty"):
            fs.completeness_test(sysm, np.zeros((0, sysm.dim)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["scale4", "eiffel(2)"])
    def test_non_finite_probe_is_refused(self, name, bad):
        # a NaN distance cut every pair of its kernel call at depth 1, so a
        # finite probe beside it summed to the 2^13 points of the pass
        sysm = fs.get_system(name)
        probes = np.full((3, sysm.dim), 0.1)
        probes[1, -1] = bad
        with pytest.raises(ValueError, match="Q1 probe row 1 is not finite"):
            fs.completeness_test(sysm, probes)
        with pytest.raises(ValueError, match="Q1 probe row 1 is not finite"):
            fs.q1_profile(sysm, probes)

    def test_probes_alone_decide_the_stop(self, scale4):
        # Q1 at the spectrum point 0 gains nothing after depth 0, while the
        # stencil rows +-FD_STEP still gain about 1e-11 at depth 10
        rep = fs.completeness_test(scale4, [0.0], eps_conv=1e-12, p_depth_cap=10)
        assert rep.profile.depth == 1
        assert fs.q1_profile(scale4, [0.0], 10, eps_conv=1e-12).depth == 1

    def test_tower_scale2_exactly_incomplete(self, eiffel2):
        # at scale 2, the reflected digit -(1,1,0) is orthogonal to the whole
        # family: lam + (1,1,0) always reduces to an integer vector with
        # exactly two odd coordinates, where the mask vanishes
        m = fs.SelfSimilarMeasure(eiffel2)
        for lam, _ in fs.enumerate_P(eiffel2, 4).points:
            u = np.array(lam, dtype=float) + np.array([1.0, 1.0, 0.0])
            assert abs(m.mu_hat_batch(u)[0]) <= 1e-12
        assert fs.q1_profile(eiffel2, [(-1.0, -1.0, 0.0)], 6).values()[0] <= 1e-20

    def test_tower_scale4_fills_in(self):
        # at scale 4 the same vertex frequencies carry near-unit mass
        e4 = fs.eiffel_system(4)
        grid = np.array([[-1 / 3, -1 / 3, 0.0], [0.0, -1 / 3, -1 / 3]])
        prof = fs.q1_profile(e4, grid, 8)
        assert (prof.values() >= 0.999).all()


VERDICT_REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "verdict.json"


def _pool_system(spec):
    """A fresh system of a verdict pool entry (`perfbench/refs/verdict.json`):
    a new instance at every call, so it shares no fact with an earlier one."""
    if spec["kind"] == "two-digit":
        return fs.two_digit_system(spec["R"], F(spec["b"]))
    base = fs.get_system(spec["name"])
    return fs.AffineSystem(base.R, base.B, base.L, base.name)


class TestPassCaches:
    """A Q1 pass reads what its system keeps (`AffineSystem.once`, the cached
    lifts and mask rows) and what its phase table builds, so a verdict must
    not depend on what ran on the system before: on every recorded verdict
    probe set, a fresh system, a second call on it and a system of the same
    triple that the other probe sets of its class have used give the same
    bits."""

    @staticmethod
    def record(report):
        prof = report.profile
        return (report.verdict, prof.layers.shape, prof.layers.tobytes(),
                prof.fourier_tail, report.grad_at_zero.tobytes())

    @pytest.mark.parametrize("cls", sorted(json.loads(VERDICT_REFS.read_text())["pool"]))
    def test_verdict_pool_is_bit_identical_on_reused_systems(self, cls):
        pool = json.loads(VERDICT_REFS.read_text())["pool"][cls]
        runs = [(np.array(inst["probes"], dtype=float), inst["cap"]) for inst in pool]
        for k, inst in enumerate(pool):
            probes, cap = runs[k]
            sysm = _pool_system(inst["system"])
            fresh = self.record(fs.completeness_test(sysm, probes, p_depth_cap=cap))
            assert fresh[0] == inst["verdict"]
            assert self.record(fs.completeness_test(sysm, probes, p_depth_cap=cap)) == fresh
            used = _pool_system(inst["system"])
            for other, other_cap in runs[k + 1:] + runs[:k]:
                fs.completeness_test(used, other, p_depth_cap=other_cap)
            assert self.record(fs.completeness_test(used, probes, p_depth_cap=cap)) == fresh


class TestMaxOrthogonalFamily:
    def test_odd_scale_pairs_only(self):
        for R in (3, 5):
            pred = ZeroSetPredicate(R, F(1, 2))
            fam = fs.max_orthogonal_family(pred.orthogonal, [F(k) for k in range(20)])
            assert len(fam) == 2

    def test_mu4_maximal(self):
        pred = ZeroSetPredicate(4, F(1, 2))
        p4 = [F(n) for n in (0, 1, 4, 5, 16, 17, 20, 21)]
        fam = fs.max_orthogonal_family(pred.orthogonal, p4 + [F(n) for n in (2, 3, 6, 7)])
        assert sorted(fam) == p4
        for n in (2, 3, 6, 7):
            assert any(not pred.member(F(n) - m) for m in p4)

    def test_no_candidates(self):
        pred = ZeroSetPredicate(4, F(1, 2))
        assert fs.max_orthogonal_family(pred.orthogonal, []) == ()

    def test_single_candidate(self):
        pred = ZeroSetPredicate(4, F(1, 2))
        assert fs.max_orthogonal_family(pred.orthogonal, [F(7)]) == (F(7),)

    def test_numeric_fallback(self, mu4):
        fam = fs.max_orthogonal_family(lambda a, b: abs(mu4.mu_hat_batch(a - b)[0]) <= 1e-6,
                                       [0.0, 1.0, 2.0, 4.0])
        assert set(fam) == {0.0, 1.0, 4.0}

    def test_too_many_candidates(self):
        pred = ZeroSetPredicate(4, F(1, 2))
        with pytest.raises(ValueError):
            fs.max_orthogonal_family(pred.orthogonal, list(range(65)))


class TestHardyEmbedding:
    def test_scale4_split(self, scale4):
        comps = hardy_embedding(scale4, {F(0): 1.0, F(1): 1.0, F(4): 1.0, F(5): 1.0}, 1)
        zero, one = (F(0),), (F(1),)
        assert set(comps[(zero,)]) == {zero, one}       # from 0 and 4
        assert set(comps[(one,)]) == {zero, one}        # from 1 and 5

    def test_all_zero(self, scale4):
        comps = hardy_embedding(scale4, {F(0): 0.0, F(4): 0.0}, 1)
        assert sum(abs(c) ** 2 for part in comps.values() for c in part.values()) == 0.0

    def test_mass_preserved(self, scale4):
        rng = np.random.RandomState(11)
        lams = [p[0] for p in fs.enumerate_P(scale4, 4).coords()]
        coeffs = {lam: complex(rng.randn(), rng.randn()) for lam in lams[:16]}
        comps = hardy_embedding(scale4, coeffs, 2)
        before = float(sum(abs(c) ** 2 for c in coeffs.values()))
        after = float(sum(abs(c) ** 2 for part in comps.values() for c in part.values()))
        assert abs(before - after) <= 1e-15 * max(before, 1.0)

    def test_classes_disjoint(self, scale4):
        # 4P and 1 + 4P are disjoint: residues of the split never collide
        lams = [p[0] for p in fs.enumerate_P(scale4, 3).coords()]
        comps = hardy_embedding(scale4, {lam: 1.0 for lam in lams}, 1)
        assert len(comps) == 2
        assert sum(len(v) for v in comps.values()) == len(lams)

    def test_non_member_raises(self, scale4):
        with pytest.raises(ValueError):
            hardy_embedding(scale4, {F(2): 1.0}, 1)

    def test_second_expansion_raises(self):
        # 4 has the words (2, 1), (0, 2) and (0, 0, 1): its coefficient
        # belongs to no single prefix class
        sysm = fs.make_system(2, [(0,), (F(1, 8),), (F(1, 4),), (F(3, 8),)],
                              [(0,), (1,), (2,), (3,)])
        with pytest.raises(ValueError):
            hardy_embedding(sysm, {F(4): 1.0}, 1)


class TestProjectionChecks:
    def test_first_derivative_vanishes(self, scale4):
        chk = projection_norm_checks(scale4, n_order=1, p_depth=8)
        assert chk.abs_error <= 1e-4

    def test_second_derivative_basis_case(self, scale4):
        chk = projection_norm_checks(scale4, n_order=2, p_depth=8)
        assert abs(chk.fd_value) <= 1e-3
        assert abs(chk.reference) <= 1e-3

    def test_bad_order(self, scale4):
        with pytest.raises(ValueError):
            projection_norm_checks(scale4, n_order=3)

    def test_convolution_coefficients_match_the_dense_sum(self, scale4, mu34):
        # the product rule over the parts' atoms against the coefficient sum
        # over all a + b atoms at once
        chk = projection_norm_checks(scale4, n_order=2, p_depth=6, measure=mu34,
                                        quad_depth=5)
        dense_atoms = atoms(mu34, 5)
        x = dense_atoms[:, 0]
        proj = 0.0
        for _, layer in layer_points(scale4, 6):
            coefs = np.exp(-2j * np.pi * (layer @ dense_atoms.T)) @ x / len(x)
            proj += float((np.abs(coefs) ** 2).sum())
        dense = 8 * math.pi ** 2 * (proj - float(np.mean(x ** 2)))
        assert abs(chk.reference - dense) <= 1e-12
