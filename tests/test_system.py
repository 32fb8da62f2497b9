import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fracspec as fs
from fracspec import rational as rat
from oracles import (ConvolvedMeasure, chi_B_sq, hardy_embedding, lebesgue_Q,
                     projection_norm_checks, support_diameter)


class TestHadamard:
    def test_scale4_matrix(self, scale4):
        H = fs.hadamard_matrix(scale4.B, scale4.L)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.abs(H - expected).max() < 1e-15

    def test_triadic_pair_is_real_hadamard(self, triadic):
        # b*l = (2/3)(3/4) = 1/2, so the phase lands on -1 exactly
        H = fs.hadamard_matrix(triadic.B, triadic.L)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.abs(H - expected).max() < 1e-15

    def test_mismatched_pair_not_unitary(self):
        H = fs.hadamard_matrix(((Fraction(0),), (Fraction(2, 3),)),
                               ((Fraction(0),), (Fraction(1),)))
        d = fs.unitarity_defect(H)
        assert d > 0.2
        assert abs(d - 0.5) < 1e-12      # |1 + e^{i4pi/3}|/2

    def test_defect_zero_for_unitary(self):
        assert fs.unitarity_defect(np.eye(3)) == 0.0
        H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert fs.unitarity_defect(H) < 1e-12

    def test_cardinality_mismatch_raises(self):
        with pytest.raises(ValueError):
            fs.hadamard_matrix(((Fraction(0),),), ((Fraction(0),), (Fraction(1),)))

    def test_defect_needs_square(self):
        with pytest.raises(ValueError):
            fs.unitarity_defect(np.ones((2, 3)))


@st.composite
def digit_sets(draw):
    """1 to 7 distinct rational digits in one or two dimensions: as drawn,
    mostly a complex table; odd symmetric about a centre c, {c, c +- p},
    a real table with a zero row; or c and points c + p_i closed by
    c - sum p_i, whose mean is c, a zero row mostly in a complex table."""
    dim = draw(st.integers(1, 2))
    coord = st.fractions(-3, 3, max_denominator=12)
    points = st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=3)
    c = draw(st.tuples(*[coord] * dim))
    ps = draw(points)
    shape = draw(st.sampled_from(["drawn", "symmetric", "centred"]))
    if shape == "drawn":
        B = [c] + ps
    elif shape == "symmetric":
        B = [c] + [tuple(a + s * b for a, b in zip(c, p)) for p in ps for s in (1, -1)]
    else:
        closing = tuple(a - sum(q) for a, q in zip(c, zip(*ps)))
        B = [c] + [tuple(a + b for a, b in zip(c, p)) for p in ps] + [closing]
    return list(dict.fromkeys(B))       # distinct, in order


class TestMask:
    @settings(max_examples=200, deadline=None)
    @given(digit_sets())
    @example([(Fraction(1, 3),)])                              # N = 1: the zero row alone
    @example([(0,), (Fraction(1, 6),), (Fraction(1, 3),)])     # R = 6 three-digit, real
    @example([(0, 0), (1, 0), (0, 1), (-1, -1)])               # centred, complex
    def test_table_is_the_mask(self, B):
        # e^{i 2 pi c.x} times the bracket sum_k w_k e^{i 2 pi e_k.x} (its
        # real part for a real table) is N^-1 sum_b e^{i 2 pi b.x}, with one
        # zero row exactly where a digit sits at the centre c
        dim = len(B[0])
        sysm = fs.make_system([[3 if i == j else 0 for j in range(dim)] for i in range(dim)],
                              B, [(k,) + (0,) * (dim - 1) for k in range(len(B))])
        E, w, real, c = sysm.mask_table
        assert len(E) == len(w) and w.sum() == pytest.approx(1.0, abs=1e-15)
        assert int((E == 0).all(axis=1).sum()) == (c in sysm.B)
        X = np.random.RandomState(len(B)).uniform(-5, 5, size=(40, dim))
        P = 2 * np.pi * (X @ E.T)
        bracket = np.cos(P) @ w if real else np.exp(1j * P) @ w
        ref = np.exp(2j * np.pi * (X @ sysm.b_array().T)).mean(axis=1)
        got = bracket * np.exp(2j * np.pi * (X @ np.array(c, dtype=float)))
        assert np.abs(got - ref).max() <= 1e-13
        assert np.abs(fs.chi_B_batch(sysm, X) - ref).max() <= 1e-13

    def test_at_zero(self, scale4):
        assert fs.chi_B(scale4, (Fraction(0),)) == 1

    def test_scale4_zero_at_one(self, scale4):
        assert abs(fs.chi_B(scale4, (1.0,))) < 1e-15

    def test_eiffel_at_440(self, eiffel2):
        v = fs.chi_B(eiffel2, (Fraction(4), Fraction(4), Fraction(0)))
        assert abs(v - 1) < 1e-15

    def test_scalar_frequency_in_one_dimension(self, scale4):
        # a bare rational is the point (t,): exact, and the float path agrees
        assert fs.chi_B(scale4, Fraction(1, 2)) == fs.chi_B(scale4, (Fraction(1, 2),))
        assert fs.chi_B(scale4, Fraction(1, 2)) == pytest.approx(0.5 + 0.5j, abs=1e-15)
        assert fs.chi_B(scale4, 0.5) == pytest.approx(fs.chi_B(scale4, Fraction(1, 2)),
                                                      abs=1e-15)
        assert fs.chi_B(scale4, 1.0) == fs.chi_B(scale4, (1.0,))

    def test_wrong_dimension_refused(self, eiffel2, scale4):
        # the dot product once zipped to the shorter vector: (1/2,) on eiffel2
        # read as (1/2, 0, 0)
        with pytest.raises(ValueError, match="dimension 1, expected 3"):
            fs.chi_B(eiffel2, (Fraction(1, 2),))
        with pytest.raises(ValueError, match="dimension 2, expected 1"):
            fs.chi_B(scale4, (Fraction(1, 2), Fraction(0)))
        # the float branch once stopped at numpy's matmul error, naming
        # neither dimension
        with pytest.raises(ValueError, match="dimension 1, expected 3"):
            fs.chi_B(eiffel2, (0.5,))
        with pytest.raises(ValueError, match="dimension 2, expected 1"):
            fs.chi_B(scale4, (0.5, 0.0))

    def test_batch_matches_scalar(self, eiffel2):
        rng = np.random.RandomState(0)
        T = rng.uniform(-3, 3, size=(20, 3))
        batch = fs.chi_B_batch(eiffel2, T)
        for i in range(20):
            assert abs(batch[i] - fs.chi_B(eiffel2, T[i])) < 1e-13

    def test_partition_of_unity(self, scale4, eiffel2, planar):
        # sum_l |chi_B(t - l)|^2 = 1 everywhere
        rng = np.random.RandomState(1)
        for sys_obj in (scale4, eiffel2, planar):
            T = rng.uniform(-5, 5, size=(100, sys_obj.dim))
            total = np.zeros(100)
            for l in sys_obj.l_array():
                total += np.abs(fs.chi_B_batch(sys_obj, T - l)) ** 2
            assert np.abs(total - 1).max() <= 1e-12

    def test_gradient_partition(self, scale4, eiffel2):
        # sum_l d_j |chi_B(t - l)|^2 = 0, via the analytic derivative
        rng = np.random.RandomState(2)
        for sys_obj in (scale4, eiffel2):
            for _ in range(10):
                t = rng.uniform(-4, 4, size=sys_obj.dim)
                g = sum(fs.chi_B_sq_grad(sys_obj, t - l) for l in sys_obj.l_array())
                assert np.abs(g).max() <= 1e-12

    def test_squared_mask_matches_complex(self, scale4, triadic, planar, eiffel2):
        # against chi_B's exact branch: the phases b.t of the float points,
        # read as rationals, are reduced mod 1 exactly
        rng = np.random.RandomState(4)
        three = fs.make_system(6, [0, Fraction(1, 3), Fraction(2, 3)], [0, 1, 2])
        for sys_obj in (scale4, triadic, planar, eiffel2, three):
            T = rng.uniform(-20, 20, size=(50, sys_obj.dim))
            ref = np.array([abs(fs.chi_B(sys_obj, tuple(map(Fraction, t)))) ** 2 for t in T])
            assert np.abs(chi_B_sq(sys_obj, T) - ref).max() <= 1e-14

    def test_mask_table_is_real_for_symmetric_digits(self, scale4, planar, eiffel2):
        three = fs.make_system(6, [0, Fraction(1, 3), Fraction(2, 3)], [0, 1, 2])
        assert [s.mask_table[2] for s in (scale4, three, planar, eiffel2)] == \
            [True, True, False, False]
        E, w, _, c = three.mask_table      # centred digits {0, +-1/3}
        assert E.tolist() == [[0.0], [1 / 3]] and w.tolist() == [1 / 3, 2 / 3]
        assert c == (Fraction(1, 3),)
        # a zero row only where a digit sits at the centre: none on two digits
        assert [len(s.mask_table[0]) for s in (scale4, planar, eiffel2)] == [1, 3, 4]
        assert all(s.mask_table[0].any(axis=1).all() for s in (scale4, planar, eiffel2))

    def test_squared_mask_resolves_its_zeros(self, scale4, eiffel2):
        # |chi_B|^2 is a square of the bracket, so it stays at rounding
        # squared where the mask vanishes (a cosine series over B - B would
        # leave rounding itself there, and could go negative)
        assert chi_B_sq(scale4, np.array([[1.0], [3.0], [-5.0]])).max() <= 1e-30
        zeros = np.array([[1.0, 1.0, 0.0], [-1.0, 0.0, 3.0], [0.0, 5.0, -1.0]])
        assert chi_B_sq(eiffel2, zeros).max() <= 1e-30

    def test_gradient_matches_finite_difference(self, eiffel2):
        rng = np.random.RandomState(3)
        t = rng.uniform(-1, 1, size=3)
        g = fs.chi_B_sq_grad(eiffel2, t)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (abs(fs.chi_B(eiffel2, t + e)) ** 2 - abs(fs.chi_B(eiffel2, t - e)) ** 2) / (2 * h)
            assert abs(g[j] - fd) < 1e-8

    @pytest.mark.parametrize("name", ["scale4", "triadic", "planar", "eiffel2"])
    def test_gradient_of_a_batch(self, request, name):
        # an (m, dim) array of t gives its m gradients as one (m, dim)
        # array: the digit axis of the bracket must not broadcast against
        # the rows.  A single t keeps the value of its formula bit for bit.
        sys_obj = request.getfixturevalue(name)
        T = np.random.RandomState(7).uniform(-4, 4, size=(6, sys_obj.dim))
        batch = fs.chi_B_sq_grad(sys_obj, T)
        rows = np.array([fs.chi_B_sq_grad(sys_obj, t) for t in T])
        assert batch.shape == rows.shape == (6, sys_obj.dim)
        assert np.abs(batch - rows).max() <= 1e-13
        E, w, real, _ = sys_obj.mask_table
        for t, g in zip(T, rows):
            P = 2 * np.pi * (t @ E.T)
            re, im = np.cos(P) @ w, 0.0 if real else np.sin(P) @ w
            assert (g == 4 * np.pi * (w * (im * np.cos(P) - re * np.sin(P))) @ E).all()


def apply_map(sysm, side, digit, x):
    """g_d(x) = M x + t_d from the table `AffineSystem.maps` of the side."""
    M, shift = sysm.maps[side]
    return rat.vec_add(rat.mat_vec(M, x), shift[digit])


class TestMaps:
    def test_sigma_example(self, scale4):
        # sigma_b(x) = R^{-1} x + b
        assert apply_map(scale4, "sigma", (Fraction(1, 2),), (Fraction(0),)) == (Fraction(1, 2),)

    def test_rho_example(self, scale4):
        # rho_l(t) = R*^{-1}(t - l)
        assert apply_map(scale4, "rho", (Fraction(1),), (Fraction(0),)) == (Fraction(-1, 4),)

    def test_inverse_pairs_exact(self, eiffel2):
        # rho_l inverts tau_l(x) = R* x + l, omega_b(x) = R(x - b) inverts sigma_b
        rng = np.random.RandomState(4)
        for _ in range(5):
            x = tuple(Fraction(int(rng.randint(-20, 20)), int(rng.randint(1, 9)))
                      for _ in range(3))
            for l in eiffel2.L:
                assert apply_map(eiffel2, "rho", l, apply_map(eiffel2, "tau", l, x)) == x
            for b in eiffel2.B:
                assert apply_map(eiffel2, "omega", b, apply_map(eiffel2, "sigma", b, x)) == x

    def test_unknown_digit_rejected(self, scale4):
        # each side's table holds the digits of its own set and no others
        assert (Fraction(1, 3),) not in scale4.maps["sigma"][1]
        assert (Fraction(2),) not in scale4.maps["rho"][1]
        for side in fs.system.SIDES:
            digits = scale4.B if side in ("sigma", "omega") else scale4.L
            assert tuple(scale4.maps[side][1]) == digits


class TestWordWalk:
    @pytest.mark.parametrize("name", ["scale4", "triadic", "planar", "eiffel2", "planar3d"])
    def test_matches_product_oracle(self, request, name):
        # every word w of itertools.product, in its order, with the point
        # g_{w_0}(g_{w_1}(... g_{w_last}(0))) composed map by map
        sysm = request.getfixturevalue(name)
        for side in fs.system.SIDES:
            digits = sysm.B if side in ("sigma", "omega") else sysm.L
            for depth in (1, 2, 3):
                oracle = []
                for w in itertools.product(digits, repeat=depth):
                    x = sysm.zero()
                    for d in reversed(w):
                        x = apply_map(sysm, side, d, x)
                    oracle.append((x, w))
                walk = zip(rat.unlift(*sysm.lifted_walk(side, depth)),
                           itertools.product(digits, repeat=depth))
                assert list(walk) == oracle

    @pytest.mark.parametrize("name", ["scale4", "planar", "eiffel2"])
    @pytest.mark.parametrize("side", fs.system.SIDES)
    def test_cap_before_any_step(self, request, monkeypatch, name, side):
        # the smallest depth whose N^depth words pass MAX_WORDS is refused
        # before a step is lifted
        sysm = request.getfixturevalue(name)
        depth = next(d for d in itertools.count() if sysm.N ** d > fs.system.MAX_WORDS)

        def refuse(*_):
            raise AssertionError("a step was built past the cap")

        monkeypatch.setattr(rat, "mat_vec", refuse)
        monkeypatch.setattr(rat, "lift", refuse)
        message = (f"{side} words exceed the exact-arithmetic cap: depth {depth} "
                   f"reaches {sysm.N}\\^{depth} words, over {fs.system.MAX_WORDS}")
        with pytest.raises(ValueError, match=message):
            sysm.lifted_walk(side, depth)


class TestEigenvalues:
    def test_rotation_scaling(self):
        # [[2, -2], [2, 2]] has eigenvalues 2 +- 2i
        mods = fs.ScalingMatrix([[2, -2], [2, 2]]).eigenvalue_moduli()
        assert mods == pytest.approx([2 * math.sqrt(2)] * 2, rel=1e-12)

    def test_companion_of_x3_minus_4(self):
        mods = fs.ScalingMatrix([[0, 0, 4], [1, 0, 0], [0, 1, 0]]).eigenvalue_moduli()
        assert mods == pytest.approx([4 ** (1 / 3)] * 3, rel=1e-12)

    def test_triangular_read_exactly(self):
        assert fs.ScalingMatrix([[3, 5], [0, -2]]).eigenvalue_moduli() == [2.0, 3.0]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least 1 x 1"):
            fs.ScalingMatrix([])

    @pytest.mark.parametrize("R", [[[4]], [[2, 100], [0, 2]], [[0, 0, 4], [1, 0, 0], [0, 1, 0]],
                                   [[Fraction(101, 100), 100], [0, Fraction(101, 100)]],
                                   [[2, Fraction(1, 3), 0], [-1, 3, 1], [Fraction(5, 7), 0, 2]]])
    def test_inverse_transpose_is_exact(self, R):
        Rm = fs.ScalingMatrix(R)
        assert Rm.inverse_transpose == rat.inverse(rat.transpose(Rm.entries))
        assert rat.mat_mul(Rm.transpose, Rm.inverse_transpose) == rat.identity(Rm.dim)


class TestValidation:
    def test_scale4_all_pass(self, scale4):
        rep = fs.validate_system(scale4)
        assert rep.passed
        assert rep.checks["n_less_than_det"].passed     # 2 < 4

    def test_triadic_fails_compatibility_only(self, triadic):
        rep = fs.validate_system(triadic)
        assert not rep.passed
        assert rep.checks["hadamard"].passed
        assert not rep.checks["compatibility"].passed
        assert not rep.checks["l_integral"].passed
        # witness: n=1, R b l = 3 * 2/3 * 3/4 = 3/2
        n, b, l, v = rep.checks["compatibility"].witness[0]
        assert (n, v) == (1, "3/2")

    @pytest.mark.parametrize("R", [1, 4, -2, [[2, 100], [0, 2]], [[2, -2], [2, 2]],
                                   [[Fraction(101, 100), 100], [0, Fraction(101, 100)]]])
    def test_expansive_axiom_is_the_matrix_rule(self, R):
        dim = 1 if isinstance(R, int) else len(R)
        sysm = fs.make_system(R, [(0,) * dim], [(0,) * dim])
        check = fs.validate_system(sysm).checks["expansive"]
        assert check.passed == sysm.R.is_expansive()
        assert check.witness == [round(m, 12) for m in sysm.R.eigenvalue_moduli()]

    def test_identity_scale_fails_expansivity(self):
        sysm = fs.make_system(1, [(0,)], [(0,)])
        rep = fs.validate_system(sysm)
        assert not rep.checks["expansive"].passed

    def test_planar_collapse_span_flagged(self, planar):
        rep = fs.validate_system(planar)
        assert rep.passed
        assert not rep.checks["l_spans"].passed
        assert rep.checks["l_spans"].witness == 1

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(ValueError):
            fs.make_system([[2, 0], [0, 2]], [(0, 0)], [(0, 0, 0)])

    @pytest.mark.parametrize("B, L", [([], []), ([], [0]), ([0], [])], ids=["both", "B", "L"])
    def test_empty_digit_set_is_structural(self, B, L):
        with pytest.raises(ValueError, match="at least one point"):
            fs.make_system(4, B, L)

    @pytest.mark.parametrize("nb, nl", [(1, 30), (2, 3)])
    def test_digit_counts_must_agree(self, nb, nl):
        # N = #B = #L: B and L are paired by the square N^{-1/2} (e^{i 2 pi b.l})
        B = [Fraction(k, nb) for k in range(nb)]
        L = list(range(nl))
        message = f"#B = {nb} and #L = {nl} differ"
        with pytest.raises(ValueError, match=message):
            fs.make_system(31, B, L)
        with pytest.raises(ValueError, match=message):
            fs.system_from_json({"dim": 1, "R": [["31"]], "B": [[str(b)] for b in B],
                                 "L": [[str(l)] for l in L]})

    def test_cardinality_entry_is_n_by_n(self, planar, eiffel2):
        for sysm in (planar, eiffel2):
            check = fs.validate_system(sysm).checks["cardinality"]
            assert (check.passed, check.witness) == (True, (sysm.N, sysm.N))

    def test_catalog_hadamard_defects(self):
        for name in ("scale4", "scale2", "triadic", "planar-collapse", "eiffel"):
            sysm = fs.get_system(name)
            assert fs.unitarity_defect(fs.hadamard_matrix(sysm.B, sysm.L)) <= 1e-12


class TestCatalog:
    def test_scale4_data(self, scale4):
        assert scale4.dim == 1 and scale4.N == 2
        assert scale4.R.entries == ((Fraction(4),),)
        assert scale4.B == ((Fraction(0),), (Fraction(1, 2),))
        assert scale4.L == ((Fraction(0),), (Fraction(1),))

    def test_eiffel_parsing(self):
        e3 = fs.get_system("eiffel(3)")
        assert e3.R.entries[0][0] == 3
        assert fs.get_system("eiffel(4)").R.entries[2][2] == 4

    def test_scaled_catalog_name(self):
        s = fs.get_system("scale4(3)")
        assert s.name == "scale4*r3" and s.R.entries == ((Fraction(12),),)
        assert (s.B, s.L) == (fs.get_system("scale4").B, fs.get_system("scale4").L)

    def test_planar_data(self, planar):
        assert planar.dim == 2 and planar.N == 3
        assert (Fraction(2, 3), Fraction(-2, 3)) in planar.L

    def test_unknown_name(self):
        with pytest.raises(KeyError) as exc:
            fs.get_system("nope")
        assert "scale4" in str(exc.value)

    def test_two_digit_system(self):
        s = fs.two_digit_system(6, Fraction(1, 2))
        assert s.L == ((Fraction(0),), (Fraction(1),))


class TestSystemFiles:
    def test_round_trip(self, tmp_path, eiffel2):
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(fs.system_to_json(eiffel2)))
        back = fs.load_system_file(str(p))
        assert back.R.entries == eiffel2.R.entries
        assert back.B == eiffel2.B and back.L == eiffel2.L

    def test_pq_strings(self, tmp_path):
        data = {"dim": 1, "R": [["4"]], "B": [["0"], ["1/2"]], "L": [["0"], ["1"]]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(data))
        sysm = fs.load_system_file(str(p))
        assert sysm.B[1] == (Fraction(1, 2),)

    def test_twelve_dimensional_file_validates_quickly(self, tmp_path):
        # R = 2 I plus a superdiagonal of ones, B = {0, e1/2}, L = {0, e1}: a
        # determinant by full cofactor expansion (12! products) would not finish
        n = 12
        unit = [["1" if i == 0 else "0" for i in range(n)]]
        data = {"dim": n,
                "R": [["2" if j == i else "1" if j == i + 1 else "0" for j in range(n)]
                      for i in range(n)],
                "B": [["0"] * n, ["1/2" if i == 0 else "0" for i in range(n)]],
                "L": [["0"] * n] + unit}
        p = tmp_path / "twelve.json"
        p.write_text(json.dumps(data))
        start = time.perf_counter()
        rep = fs.validate_system(fs.load_system_file(str(p)))
        assert time.perf_counter() - start < 2.0
        assert rep.passed
        assert rep.checks["l_spans"].witness == 1

    def test_floats_rejected(self):
        data = {"dim": 1, "R": [[4]], "B": [[0], [0.5]], "L": [[0], [1]]}
        with pytest.raises((ValueError, TypeError)):
            fs.system_from_json(data)

    @pytest.mark.parametrize("data", [
        {"dim": 2, "R": [[2]], "B": [], "L": []},
        {"dim": 1, "R": [["4"]], "B": [["0"], ["1/2"]], "L": [["0"], ["1/0"]]},
    ], ids=["short-R", "zero-denominator"])
    def test_malformed_rejected(self, data):
        with pytest.raises(ValueError):
            fs.system_from_json(data)

    @pytest.mark.parametrize("data, message", [
        ({"dim": 0, "R": [], "B": [], "L": []}, "at least 1 x 1"),
        ({"dim": 1, "R": [["4"]], "B": [], "L": []}, "at least one point"),
        ({"dim": 1, "R": [["4"]], "B": [], "L": [["0"]]}, "at least one point"),
        # a string was read one character at a time: "0", "1" as [[0], [1]]
        ({"dim": 1, "R": [["4"]], "B": ["0", "1"], "L": [["0"], ["1/2"]]}, "point of B '0'"),
        ({"dim": 1, "R": [["4"]], "B": ["0", "12"], "L": [["0"], ["1/2"]]}, "point of B '0'"),
        ({"dim": 1, "R": [["4"]], "B": [["0"], ["1/2"]], "L": [["0"], "1"]}, "point of L '1'"),
        ({"dim": 1, "R": ["4"], "B": [["0"], ["1/2"]], "L": [["0"], ["1"]]}, "row of R '4'"),
    ], ids=["dim-0", "empty-B-and-L", "empty-B", "string-points", "string-point-12",
            "string-point-of-L", "string-row-of-R"])
    def test_malformed_rejected_with_reason(self, data, message):
        with pytest.raises(ValueError, match=message):
            fs.system_from_json(data)


class TestRational:
    def test_det_inverse(self):
        m = rat.mat([[1, 2], [3, 5]])
        assert rat.det(m) == -1
        assert rat.mat_mul(m, rat.inverse(m)) == rat.identity(2)

    def test_rank(self):
        assert rat.rank(rat.mat([[1, 2, 3], [2, 4, 6]])) == 1

    def test_solve(self):
        m = rat.mat([[2, 1], [1, 3]])
        x = rat.solve(m, rat.vec([5, 10]))
        assert rat.mat_vec(m, x) == (Fraction(5), Fraction(10))

    def test_format(self):
        assert rat.format_fraction(Fraction(3, 4)) == "3/4"
        assert rat.format_fraction(Fraction(8, 4)) == "2"
        # ints are read as they are; other exact input goes through Fraction
        assert [rat.format_fraction(x) for x in (-7, 0, True, "6/8", "-10/5")] == \
            ["-7", "0", "1", "3/4", "-2"]


def _removed_keyword_calls():
    """One call per keyword the package no longer takes: a default no caller
    set is now a constant (gamma_1d never read its b), and the sums and the
    contractivity report read the system's own measure and hull."""
    s4, e2 = fs.get_system("scale4"), fs.eiffel_system(2)
    mu = fs.SelfSimilarMeasure(s4)
    F = Fraction
    return {
        "SelfSimilarMeasure-tail_tol": lambda: fs.SelfSimilarMeasure(s4, tail_tol=1e-10),
        "depth_for-tol": lambda: mu.depth_for(1.0, tol=1e-10),
        "support_diameter-depth": lambda: support_diameter(mu, depth=4),
        "ConvolvedMeasure.support_diameter-depth":
            lambda: support_diameter(ConvolvedMeasure(mu, mu), depth=4),
        "hardy_embedding-max_depth":
            lambda: hardy_embedding(s4, {F(1): 1.0}, 1, max_depth=24),
        "projection_norm_checks-j": lambda: projection_norm_checks(s4, j=0),
        "projection_norm_checks-fd_step":
            lambda: projection_norm_checks(s4, fd_step=1e-3),
        "get_system-r": lambda: fs.get_system("eiffel", r=4),
        "completeness_test-eps_pass": lambda: fs.completeness_test(s4, [0.0], eps_pass=0.02),
        "completeness_test-eps_fail": lambda: fs.completeness_test(s4, [0.0], eps_fail=0.05),
        "completeness_test-measure": lambda: fs.completeness_test(s4, [0.0], measure=mu),
        "q1_profile-measure": lambda: fs.q1_profile(s4, [0.0], 4, measure=mu),
        "gamma_supnorm-Y": lambda: fs.gamma_supnorm(e2, Y=fs.dual_hull(e2)),
        "lebesgue_Q-n_terms": lambda: lebesgue_Q(0.5, n_terms=4000),
        "quadratic_bump-amplitude":
            lambda: fs.grid_frame(s4, 16).quadratic_bump(amplitude=0.5),
        "grid_frame-hull": lambda: fs.grid_frame(s4, 16, hull=fs.dual_hull(s4, 4)),
        "simplex_Y-r": lambda: fs.simplex_Y(e2, r=1),
        "gamma_1d-b": lambda: fs.gamma_1d(6, b=F(1, 2)),
        "validate_system-n_check": lambda: fs.validate_system(s4, n_check=12),
    }


@pytest.mark.parametrize("call", sorted(_removed_keyword_calls()))
def test_removed_keyword_raises(call):
    with pytest.raises(TypeError):
        _removed_keyword_calls()[call]()
