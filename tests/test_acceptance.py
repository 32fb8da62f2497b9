"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single `criterion NN ...: PASS/FAIL` line (run pytest with
-s to see them inline).  Criterion 13 is split into its three clauses.  The
off-line probe clause (13c) asserts that the partial sums stabilize at 1 off
the segment too, because the planar system is a 1-D spectral system in disguise:
  - L spans the line Rv and x -> v.x is injective on the attractor, so
    L^2(mu) = L^2(pi_* mu) with pi_* mu the measure of (6, {0, +-1/3}, {0, +-1});
  - that system meets Laba-Wang (J. Funct. Anal. 2002, Thm 1.2), so P(L) is a
    spectrum of mu, and by Parseval Q1(t) = ||e_t||^2 = 1 at every t in R^2.
`_line_reduction` checks the reduction in exact arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import fracspec as fs
from fracspec.rational import dot, mat_vec, vec_scale
from oracles import (ZeroSetPredicate, lebesgue_Q, mu2_closed_form, projection_norm_checks,
                     residual_ratios)

F = Fraction


def verdictline(num, name, ok):
    print(f"criterion {num:>3} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name})"


def test_criterion_01_hadamard_unitarity():
    ok = True
    for name in ("scale4", "eiffel(2)", "planar-collapse", "triadic"):
        sysm = fs.get_system(name)
        ok &= fs.unitarity_defect(fs.hadamard_matrix(sysm.B, sysm.L)) <= 1e-12
    verdictline(1, "Hadamard axiom", ok)


def test_criterion_02_spectrum_regression():
    enum = fs.enumerate_P(fs.get_system("scale4"), 3)
    ok = {p[0] for p in enum.coords()} == {0, 1, 4, 5, 16, 17, 20, 21}
    verdictline(2, "spectrum regression", ok)


def test_criterion_03_orthogonality(scale4):
    pts = [p for p in fs.enumerate_P(scale4, 4).coords()][:16]
    rep = fs.gram_matrix(scale4, pts)
    ok = rep.max_offdiag <= 1e-7 and rep.tail_bound <= 1e-9
    verdictline(3, "scale-4 orthogonality", ok)


def test_criterion_04_triadic_witness(triadic):
    rep = fs.gram_matrix(triadic, [F(0), F(3, 4), F(9, 4)])
    entry = abs(rep.matrix[1, 2])       # pair (3/4, 9/4)
    # independent oracle: cosine-product form of the transform at 3/2
    oracle = abs(np.prod([math.cos(2 * math.pi * 1.5 / 3 ** n) for n in range(1, 60)]))
    ok = entry >= 0.4 and abs(entry - oracle) < 1e-9
    verdictline(4, "triadic counterexample witness", ok)


def test_criterion_05_completeness(scale4):
    grid = np.linspace(-1 / 3, 0, 64)
    prof = fs.q1_profile(scale4, grid, 12)
    ok = bool((prof.values() >= 0.98).all()) and bool((prof.layers[:, 1:] >= -1e-15).all())

    q = fs.q1_profile(scale4, grid, 10).values()
    qa = fs.q1_profile(scale4, grid / 4, 10).values()
    qb = fs.q1_profile(scale4, (grid - 1) / 4, 10).values()
    rhs = np.cos(np.pi * grid / 2) ** 2 * qa + np.sin(np.pi * grid / 2) ** 2 * qb
    ok &= bool(np.abs(q - rhs).max() <= 5e-3)
    verdictline(5, "scale-4 completeness + functional identity", ok)


def test_criterion_06_incompleteness(scale4, mu34):
    grid = np.linspace(-1 / 3, 0, 64)
    verdict, prof = mu34.completeness_verdict(scale4, grid, eps_conv=1e-6)
    stab = prof.last_increments() < 1e-6
    ok = verdict == "INCOMPLETE" and bool((stab & (prof.values() <= 0.95)).any())
    verdictline(6, "convolution incompleteness", ok)


def test_criterion_07_closed_form_oracle(mu2):
    rng = np.random.RandomState(7)
    ts = rng.uniform(-10, 10, 100)
    vals, _ = mu2.mu_hat_batch(ts)
    ok = bool(np.abs(vals - mu2_closed_form(ts)).max() <= 1e-8)
    verdictline(7, "Lebesgue closed-form oracle", ok)


def test_criterion_08_contractivity_constants():
    ok = abs(fs.gamma_1d(4) - (0.25 + math.pi * math.sqrt(3) / 16)) <= 1e-12
    ok &= fs.gamma_1d(2) > 1
    ok &= abs(fs.gamma_eiffel(3) - (1 + 3 * math.pi / 16) / 3) <= 1e-12
    beta = fs.gamma_supnorm(fs.eiffel_system(2)).beta
    ok &= abs(beta - math.pi * math.sqrt(2)) <= 1e-9
    verdictline(8, "contractivity constants", ok)


def test_criterion_09_geometry():
    ok = True
    for r in range(2, 7):
        e = fs.eiffel_system(r)
        Y = fs.simplex_Y(e)
        ok &= fs.hull_volume(Y) == F(1, 3 * (r - 1) ** 3)
        ok &= fs.invariance_check(e, Y).passed
    for r in (2, 3, 4):
        e = fs.eiffel_system(r)
        ok &= set(fs.dual_hull(e, 4).vertices) == set(fs.simplex_Y(e).vertices)
    verdictline(9, "invariant simplex geometry", ok)


def test_criterion_10_odd_scale_families():
    ok = True
    for R in (3, 5):
        pred = ZeroSetPredicate(R, F(1, 2))
        fam = fs.max_orthogonal_family(pred.orthogonal, [F(k) for k in range(20)])
        ok &= len(fam) == 2
    verdictline(10, "odd-scale maximal families", ok)


def test_criterion_11_empirical_contraction(scale4):
    frame = fs.grid_frame(scale4, 64)
    res = fs.iterate_fixed_point(scale4, frame.quadratic_bump(), max_iters=60)
    ratios = residual_ratios(res)
    ok = res.converged and len(res.residuals) <= 60
    ok &= bool(ratios[1:].max() <= 0.65)
    ok &= bool(np.abs(res.final.values - 1).max() <= 1e-8)
    verdictline(11, "empirical contraction", ok)


def test_criterion_12_second_fixed_point():
    ok = abs(lebesgue_Q(-0.5) - 0.5) <= 1e-9
    ts = np.linspace(-1, 0, 128)
    lhs = (np.cos(np.pi * ts / 2) ** 2 * lebesgue_Q(ts / 2)
           + np.sin(np.pi * ts / 2) ** 2 * lebesgue_Q((ts - 1) / 2))
    ok &= bool(np.abs(lhs - lebesgue_Q(ts)).max() <= 1e-4)
    verdictline(12, "second fixed point", ok)


def test_criterion_13a_planar_gram(planar):
    pts = [p for p in fs.enumerate_P(planar, 2).coords()][:9]
    rep = fs.gram_matrix(planar, pts)
    verdictline("13a", "planar collapse orthogonality", rep.max_offdiag <= 1e-7)


def test_criterion_13b_planar_segment(planar):
    us = np.linspace(-2 / 15, 2 / 15, 9)
    seg = np.stack([us, -us], axis=1)
    prof = fs.q1_profile(planar, seg, 14, eps_conv=1e-6)
    verdictline("13b", "planar collapse on-segment sums", bool((prof.values() >= 0.98).all()))


def _line_reduction(sysm):
    """Exact certificate that `sysm` is a 1-D spectral system drawn on a line.

    With v the first nonzero point of L, the reduced system is
    (r, B' = {b.v}, L' = {c : cv in L}).  The clauses:
      1. L minus 0 spans a line Rv with R* v = r v, so P(L) lies on that line
         and e_{cv}(x) = e_c(v.x);
      2. the projected digits b.v are distinct with least gap above the tail
         spread/(r - 1): expansions that first differ at place k stay
         r^-k (gap - spread/(r - 1)) apart, so x -> v.x is injective on the
         attractor and pi_* mu is the reduced system's measure;
      3. the reduced system is valid, its Hadamard matrix is a permuted DFT
         of Z/N (so exactly unitary), and with D = r B' over g = gcd(D - D)
         the rescaled C = g L' is an integer set in [2 - r, r - 2]: Laba-Wang
         then make Lambda(r, C)/g = P(L') a spectrum of pi_* mu, and
         P(L) = v P(L');
      4. the program agrees: mu_hat(c v) = mu_hat_red(c) in floats.
    Everything but clause 4 is decided in Fractions.
    """
    zero = sysm.zero()
    v = next(l for l in sysm.L if l != zero)
    coef = [dot(l, v) / dot(v, v) for l in sysm.L]
    assert all(l == vec_scale(c, v) for c, l in zip(coef, sysm.L)), "L spans a line"
    Rv = mat_vec(sysm.R.transpose, v)
    r = dot(Rv, v) / dot(v, v)
    assert Rv == vec_scale(r, v), "R* keeps the line"
    assert r.denominator == 1 and r >= 2, "integer scale on the line"

    digits = [dot(b, v) for b in sysm.B]
    assert len(set(digits)) == len(digits), "projected digits are distinct"
    gap = min(abs(a - b) for a in digits for b in digits if a != b)
    spread = max(digits) - min(digits)
    assert gap > spread / (r - 1), "projection is injective on the attractor"

    red = fs.make_system(r, digits, coef, name="line reduction")
    assert fs.validate_system(red).passed, "reduced system is valid"
    N = red.N
    assert all(c.denominator == 1 for c in coef), "L' is integral"
    assert sorted(c % N for c in coef) == list(range(N)), "L' is a residue system mod N"
    assert all((N * (a - b)).denominator == 1 and N * (a - b) % N
               for a in digits for b in digits if a != b), "Hadamard = permuted DFT"
    D = [r * d for d in digits]
    assert all(d.denominator == 1 for d in D), "r B' is integral"
    g = math.gcd(*(int(a - b) for a in D for b in D))
    C = [g * c for c in coef]
    assert 0 in C and all(2 - r <= c <= r - 2 for c in C), "Laba-Wang: C in [2-r, r-2]"
    lifted = {vec_scale(c, v) for (c,) in fs.enumerate_P(red, 5).coords()}
    assert lifted == set(fs.enumerate_P(sysm, 5).coords()), "P(L) = v P(L')"

    cs = np.linspace(-20, 20, 41)
    vf = np.array(v, dtype=float)
    lhs, _ = fs.SelfSimilarMeasure(sysm).mu_hat_batch(cs[:, None] * vf, 40)
    rhs, _ = fs.SelfSimilarMeasure(red).mu_hat_batch(cs, 40)
    assert np.abs(lhs - rhs).max() <= 1e-12, "2-D transform on the line = reduced transform"


def test_criterion_13c_planar_offline_probe(planar):
    # P(L) is a spectrum of mu (module docstring; `_line_reduction` certifies
    # it), so Q1(t) = ||e_t||^2 = 1 off the segment too and every probe must
    # stabilize there: a probe stabilizing at or below 0.99 would contradict
    # Parseval.
    _line_reduction(planar)
    probes = np.array([[0.25, 0.25], [0.05, 0.05], [1.25, 1.25], [0.2, -0.1]])
    prof = fs.q1_profile(planar, probes, 14, eps_conv=1e-6)
    vals = prof.values()
    ok = bool((prof.last_increments() < 1e-6).all())
    ok &= bool((prof.layers[:, 1:] >= -1e-15).all())
    ok &= bool((np.abs(1 - vals) <= 1e-6).all())
    verdictline("13c", "planar collapse off-line probe", ok)


def test_criterion_14_derivative_identities(scale4, mu34):
    chk1 = projection_norm_checks(scale4, n_order=1, p_depth=10)
    ok = abs(chk1.fd_value) <= 1e-4
    chk2 = projection_norm_checks(scale4, n_order=2, p_depth=10, measure=mu34,
                                     quad_depth=9)
    ok &= chk2.fd_value < 0 and chk2.reference < 0
    ok &= chk2.rel_error <= 0.05
    verdictline(14, "derivative identities", ok)
