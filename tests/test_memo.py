"""The facts of a system are computed once per system: one catalog instance
per name, one validation report per system, one hull Y per (system, depth),
one contractivity report on the default hull, one float mean of the
measure, each kept in the system itself and released with it."""

import contextlib
import dataclasses
import functools
import gc
import io
import json
import weakref
from fractions import Fraction

import pytest

import fracspec as fs
from fracspec import cli


def _counting(monkeypatch, module, name, counts, key=None):
    """Replace module.name by a wrapper that counts its calls in `counts`:
    under `name`, or, given `key`, a function of the call's arguments, under
    the key it returns unless that is None."""
    orig = getattr(module, name)

    @functools.wraps(orig)
    def counted(*args, **kwargs):
        k = key(*args, **kwargs) if key else name
        if k is not None:
            counts[k] = counts.get(k, 0) + 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture
def fresh_catalog(monkeypatch):
    """An empty catalog table for this test, so the systems it looks up have
    computed nothing yet; the shared one is put back afterwards."""
    monkeypatch.setattr(fs.system, "_catalog_system",
                        functools.cache(fs.system._catalog_system.__wrapped__))


class TestCatalogInstances:
    def test_one_instance_per_name(self):
        for name in ("scale4", "scale4(3)", "eiffel(2)"):
            assert fs.get_system(name) is fs.get_system(name) is fs.get_system(f" {name} ")
        assert fs.get_system("scale4") is not fs.get_system("scale4(3)")


class TestOncePerSystem:
    def test_dual_hull_is_built_once_per_depth(self, monkeypatch):
        sysm = fs.two_digit_system(4, Fraction(1, 2))
        counts = {}
        _counting(monkeypatch, fs.geometry, "convex_hull", counts)
        Y4 = fs.dual_hull(sysm)
        assert fs.dual_hull(sysm, 4) is Y4 and counts["convex_hull"] == 1
        Y3 = fs.dual_hull(sysm, 3)
        assert fs.dual_hull(sysm, 3) is Y3 and Y3 is not Y4
        assert counts["convex_hull"] == 2

    def test_validation_is_evaluated_once(self, monkeypatch):
        sysm = fs.two_digit_system(4, Fraction(1, 2))
        counts = {}
        _counting(monkeypatch, fs.system, "_check_axioms", counts)
        rep = fs.validate_system(sysm)
        assert fs.validate_system(sysm) is rep and counts["_check_axioms"] == 1
        assert rep.passed

    def test_contractivity_is_computed_once_on_the_default_hull(self, monkeypatch):
        sysm = fs.two_digit_system(4, Fraction(1, 2))
        counts = {}
        _counting(monkeypatch, fs.transfer, "beta_constant", counts)
        rep = fs.gamma_supnorm(sysm)
        assert fs.gamma_supnorm(sysm) is rep and counts["beta_constant"] == 1
        # the report on that hull, computed afresh, has the same values
        again = fs.transfer._contractivity(sysm, fs.dual_hull(sysm))
        assert again is not rep and again == rep and counts["beta_constant"] == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.beta = 0.0

    def test_mean_is_solved_once_and_only_for_the_transform(self, monkeypatch):
        # a Q1 pass squares the brackets and never reads the mean phase;
        # the transform solves the mean once, however many measures read it
        sysm = fs.two_digit_system(4, Fraction(1, 2))
        counts = {}
        _counting(monkeypatch, fs.measure, "_mean", counts)
        fs.completeness_test(sysm, [0.1, 0.3])
        assert counts == {}
        rep = fs.gram_matrix(sysm, [Fraction(0), Fraction(1), Fraction(4)])
        fs.SelfSimilarMeasure(sysm).mu_hat_batch([0.5, 1.5])
        fs.gram_matrix(sysm, [Fraction(0), Fraction(1)])
        assert counts == {"_mean": 1} and rep.max_offdiag <= 1e-8

    def test_memo_is_released_with_the_system(self):
        # hypothesis tests build thousands of systems: nothing outside a
        # system may keep it alive once it has computed its facts
        sysm = fs.make_system(4, (0, Fraction(1, 2)), (0, 1))
        assert fs.dual_hull(sysm) is fs.dual_hull(sysm)
        assert fs.validate_system(sysm) is fs.validate_system(sysm)
        assert fs.gamma_supnorm(sysm) is fs.gamma_supnorm(sysm)
        ref = weakref.ref(sysm)
        del sysm
        gc.collect()
        assert ref() is None


class TestCliSession:
    def test_tower_commands_share_one_hull_and_validation(self, monkeypatch, fresh_catalog):
        counts = {}
        _counting(monkeypatch, fs.geometry, "attractor_points", counts,
                  key=lambda sys, side, depth: "rho" if side == "rho" else None)
        _counting(monkeypatch, fs.system, "_check_axioms", counts)
        for argv in (["q1", "--p-depth", "4"], ["gamma"], ["transfer"]):
            code, out = _run(argv + ["--system", "eiffel(2)", "--format", "json"])
            assert code == 0 and json.loads(out)
        assert counts == {"rho": 1, "_check_axioms": 1}
        tower = fs.get_system("eiffel(2)")
        assert fs.dual_hull(tower).vertices == fs.simplex_Y(tower).vertices

    def test_gamma_and_report_share_one_contractivity_report(self, monkeypatch,
                                                            fresh_catalog):
        counts = {}
        _counting(monkeypatch, fs.transfer, "beta_constant", counts)
        for command in ("gamma", "report"):
            code, out = _run([command, "--system", "scale4", "--format", "json"])
            assert code == 0 and json.loads(out)
        assert counts == {"beta_constant": 1}

    def test_file_commands_answer_for_the_file_as_it_is(self, tmp_path):
        # a file is read afresh by every command: its system is its own,
        # never a catalog instance, and a changed file gives the new answer
        path = tmp_path / "system.json"

        def answers(how, name):
            if how == "--file":
                path.write_text(json.dumps(fs.system_to_json(fs.get_system(name))))
            docs = []
            for command in ("validate", "gamma", "transfer"):
                code, out = _run([command, how, str(path) if how == "--file" else name,
                                  "--format", "json"])
                doc = json.loads(out)
                doc["config"].pop("system")
                docs.append((code, doc))
            return docs

        for name in ("scale4", "scale2", "scale4"):
            assert answers("--file", name) == answers("--system", name)
        a, b = fs.load_system_file(str(path)), fs.load_system_file(str(path))
        assert a is not b and fs.dual_hull(a) is fs.dual_hull(a)
        assert fs.dual_hull(a).vertices == fs.dual_hull(b).vertices
