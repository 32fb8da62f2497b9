"""The benchmark's contract with the package.

`perfbench/` runs outside the package and reaches into it by name: its
tracer wraps the functions listed in `perfbench/tracer.py` (SPAN_TARGETS),
and its recorder, workloads and tests call a few functions with fixed
arguments and read a few result fields.  The syntax-tree checks of
`test_surface.py` see none of those callers, so this test installs the
tracer, whose install looks up every traced name, and makes those calls
under it.
"""

import importlib.util
import pathlib
from fractions import Fraction

import numpy as np

import fracspec as fs
from fracspec import geometry, spectrum

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_the_benchmark_calls_run_under_its_tracer():
    original = geometry.dual_hull
    tracer = _tracer().install()
    try:
        tower = fs.get_system("eiffel(2)")
        assert geometry.dual_hull(tower, 4).vertices == geometry.simplex_Y(tower).vertices
        two = fs.two_digit_system(4, Fraction("1/2"))
        enum = spectrum.enumerate_P(two, 3)
        assert (len(enum.points), enum.collision_count) == (8, 0)
        assert len(geometry.attractor_points(tower, "rho", 2).points) == 16
        measure = fs.SelfSimilarMeasure(two)
        assert measure.dim == 1
        measure.mu_hat_batch(np.array([0.25, 0.5]))
        rep = spectrum.completeness_test(two, np.array([-0.1, -0.2]),
                                         p_depth_cap=spectrum.Q1_DEPTH_CAP)
        assert rep.verdict == spectrum.VERDICT_BASIS
        assert len(rep.profile.values()) == 2
    finally:
        tracer.uninstall()
    assert geometry.dual_hull is original and fs.dual_hull is original
    traced = {span[0] for span in tracer.spans}
    assert {"geometry.dual_hull", "spectrum.enumerate_P", "geometry.attractor_points",
            "measure.mu_hat_batch", "spectrum.completeness_test"} <= traced
    # the span attributes read the calls' arguments and results
    attrs = {span[0]: span[6] for span in tracer.spans if span[6]}
    assert attrs["spectrum.enumerate_P"] == {"words": 8}
    assert attrs["geometry.attractor_points"] == {"words": 16}
    assert attrs["measure.mu_hat_batch"] == {"freqs": 2}
