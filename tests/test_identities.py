"""Exact symmetries of the question, checked on the catalog and on the
product scale4 x scale2, whose conjugates have a dense, non-normal R.

Conjugation by A (`oracles.conjugate`) carries the measure to its image
under x -> A x and P(L) to A^-T P(L), so Q1'(A^-T t) = Q1(t) layer by layer,
validation passes or fails alike axiom by axiom, and the spectrum and
attractor points are exact images.  Iteration (`oracles.iterate`) keeps the
measure and P(L), so the depth-d layers of (R^p, B_p, L_p) sum to the
system's depth-pd layers.  Neither identity is a closed form, and both hold
in every dimension.  The product depths of a conjugate, which a norm-based
tail inflated to the 200-level cap, stay near the product's own."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracspec as fs
from fracspec import rational as rat
from oracles import conjugate, conjugators, iterate

ROUNDING = 1e-12
# the product of scale4 and scale2: R = diag(4, 2), B = {0, 1/2}^2, L = {0, 1}^2
PRODUCT = fs.make_system([[4, 0], [0, 2]],
                         [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
                          (Fraction(1, 2), Fraction(1, 2))],
                         [(0, 0), (1, 0), (0, 1), (1, 1)])
SYSTEMS = {name: fs.get_system(name)
           for name in ("scale4", "scale2", "triadic", "planar-collapse", "eiffel(2)")}
SYSTEMS["scale4 x scale2"] = PRODUCT
# Q1 layers per system: about 64 to 256 points in the deepest
LAYERS = {"scale4": 6, "scale2": 6, "triadic": 6, "planar-collapse": 4, "eiffel(2)": 3,
          "scale4 x scale2": 3}
SIDES = {"sigma": False, "omega": False, "rho": True, "tau": True}   # True: A^-T side


def _probes(dim, A):
    """Three probes s, dyadic so that t = A' s is exact in floats: rows S of
    the conjugate and T = S A of the system."""
    S = np.random.RandomState(dim).randint(-16, 17, size=(3, dim)) / 8.0
    return S, S @ np.array(A, dtype=float)


def _image(M, points):
    return {rat.mat_vec(M, p) for p in points}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_conjugation(name, data):
    sysm = SYSTEMS[name]
    A = data.draw(conjugators(sysm.dim))
    conj = conjugate(sysm, A)
    At = rat.transpose(rat.inverse(rat.mat(A)))
    # Q1 layer by layer, within both Fourier tails
    S, T = _probes(sysm.dim, A)
    ours, theirs = (fs.q1_profile(s, X, LAYERS[name]) for s, X in ((sysm, T), (conj, S)))
    assert np.abs(ours.layers - theirs.layers).max() <= \
        ours.fourier_tail + theirs.fourier_tail + ROUNDING
    # every axiom passes or fails alike; L's integrality is kept by a
    # unimodular A only
    checks, conj_checks = fs.validate_system(sysm).checks, fs.validate_system(conj).checks
    assert checks.keys() == conj_checks.keys()
    for key, check in checks.items():
        if key != "l_integral" or abs(rat.det(rat.mat(A))) == 1:
            assert conj_checks[key].passed == check.passed, key
    # the spectrum and the attractor points are the exact images
    depth = 3 if sysm.N > 2 else 5
    assert set(fs.enumerate_P(conj, depth).coords()) == \
        _image(At, fs.enumerate_P(sysm, depth).coords())
    for side, dual in SIDES.items():
        assert set(fs.attractor_points(conj, side, depth).points) == \
            _image(At if dual else rat.mat(A), fs.attractor_points(sysm, side, depth).points)


@pytest.mark.parametrize("name, p", [(name, p) for name in sorted(SYSTEMS) for p in (2, 3)
                                     if SYSTEMS[name].N ** p <= 64])
def test_iteration(name, p):
    sysm = SYSTEMS[name]
    it = iterate(sysm, p)
    # the iterate's cumulative layer d is the system's layer p d
    T = np.random.RandomState(p).uniform(-2, 2, size=(3, sysm.dim))
    h = max(1, LAYERS[name] // p)
    ours, theirs = fs.q1_profile(sysm, T, p * h), fs.q1_profile(it, T, h)
    assert np.abs(np.cumsum(ours.layers, axis=1)[:, ::p] - np.cumsum(theirs.layers, axis=1)) \
        .max() <= ours.fourier_tail + theirs.fourier_tail + ROUNDING
    # so are its spectrum and its attractor points
    depth = 1 if sysm.N ** p > 16 else 2
    assert set(fs.enumerate_P(it, depth).coords()) == \
        set(fs.enumerate_P(sysm, p * depth).coords())
    assert set(fs.attractor_points(it, "sigma", depth).points) == \
        set(fs.attractor_points(sysm, "sigma", p * depth).points)


@pytest.mark.parametrize("A", [[[1, 0], [1, 1]], [[2, 1], [1, 1]], [[5, 2], [2, 1]]])
def test_conjugate_depths_stay_near_the_products(A):
    # R' = [[4, 0], [2, 2]], [[6, -4], [2, 0]] and [[12, -20], [4, -6]]: the
    # product itself takes 28 levels for mu_hat and 20 closed at |x| = 1e3;
    # a tail from the first contracting power's operator norm took its
    # conjugates to 36, 200 and 200 (25, 193 and 196 closed)
    meas = fs.SelfSimilarMeasure(conjugate(PRODUCT, A))
    assert meas.depth_for(1e3) <= 35
    assert meas.sq_depth_for(1e3) <= 28
