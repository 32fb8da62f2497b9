import gc
import inspect
import json
import pathlib
import resource
import subprocess
import sys
import tomllib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fracspec as fs
from fracspec import cli, rational as rat

RUN = [sys.executable, "-m", "fracspec.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


class TestValidateCommand:
    def test_scale4_passes(self):
        r = run_cli("validate", "--system", "scale4")
        assert r.returncode == 0
        assert "overall: pass" in r.stdout

    def test_triadic_fails_with_witness(self):
        r = run_cli("validate", "--system", "triadic")
        assert r.returncode == 1
        assert "compatibility" in r.stdout and "3/2" in r.stdout

    def test_missing_file(self):
        r = run_cli("validate", "--file", "/no/such/file.json")
        assert r.returncode == 2

    @pytest.mark.parametrize("doc", [
        "{\"dim\": 2, \"R\": [[2]]}",
        "{\"dim\": 1, \"R\": [[\"4\"]], \"B\": [[\"0\"], [\"1/2\"]], \"L\": [[\"0\"], [\"1/0\"]]}",
    ], ids=["short-R", "zero-denominator"])
    def test_malformed_file(self, tmp_path, doc):
        p = tmp_path / "bad.json"
        p.write_text(doc)
        r = run_cli("validate", "--file", str(p))
        assert r.returncode == 2
        assert "cannot parse system file" in r.stderr

    def test_json_format(self):
        r = run_cli("validate", "--system", "scale4", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["validation"]["passed"] is True

    def test_file_round_trip(self, tmp_path):
        doc = {"dim": 1, "R": [["4"]], "B": [["0"], ["1/2"]], "L": [["0"], ["1"]]}
        p = tmp_path / "scale4.json"
        p.write_text(json.dumps(doc))
        r = run_cli("validate", "--file", str(p))
        assert r.returncode == 0


class TestSpectrumCommand:
    def test_scale4_listing(self):
        r = run_cli("spectrum", "--system", "scale4", "--depth", "3")
        values = [line.split(",")[0] for line in r.stdout.splitlines()[2:]]
        assert values == ["0", "1", "4", "5", "16", "17", "20", "21"]

    def test_depth_out_of_range(self):
        r = run_cli("spectrum", "--system", "scale4", "--depth", "-1")
        assert r.returncode == 2
        assert r.stderr == "error: depth must be >= 0\n"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("spectrum", "--system", "eiffel(2)", "--depth", "2", "--out", str(a))
        run_cli("spectrum", "--system", "eiffel(2)", "--depth", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestGramCommand:
    def test_scale4_json(self):
        r = run_cli("gram", "--system", "scale4", "--count", "8", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["max_offdiag"] <= 1e-7

    def test_count_below_two(self, capsys):
        assert cli.main(["gram", "--system", "scale4", "--count", "1"]) == 2
        assert capsys.readouterr().err == "error: gram needs at least two points\n"

    def test_triadic_runs_without_force(self):
        # counterexample systems stay analysable
        r = run_cli("gram", "--system", "triadic", "--count", "4", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["max_offdiag"] > 0.4

    def test_csv_rows_match_fmt(self, capsys):
        # the vectorised rows print what fmt prints, entry by entry
        assert cli.main(["gram", "--system", "eiffel(2)", "--count", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        sysm = fs.get_system("eiffel(2)")
        G = fs.gram_matrix(sysm, fs.enumerate_P(sysm, 2).coords()).matrix
        assert lines[1] == "i,j,re,im,abs"
        assert lines[2:] == [f"{i},{j},{cli.fmt(G[i, j].real)},{cli.fmt(G[i, j].imag)},"
                             f"{cli.fmt(abs(G[i, j]))}" for i in range(16) for j in range(16)]


class TestGramExactPoints:
    """The Gram record keeps the enumerated points as its one copy: they are
    compared exactly, the worst pair is two of them, and one modulus array
    gives max_offdiag and the printed |G|."""

    # B = {0, 10^13}: four of its depth-3 points round to 0.0 at 12 decimals
    TINY = {"dim": 1, "R": [["4"]], "B": [["0"], ["10000000000000"]],
            "L": [["0"], ["1/20000000000000"]]}
    # B = {0, 1000000007/2}: points with a denominator above 10^9
    PRIME = {"dim": 1, "R": [["3"]], "B": [["0"], ["1000000007/2"]],
             "L": [["0"], ["1/1000000007"]]}

    @staticmethod
    def _file(tmp_path, doc):
        p = tmp_path / "system.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("command", ["gram", "report"])
    def test_points_closer_than_1e_12_are_distinct(self, tmp_path, capsys, command):
        path = self._file(tmp_path, self.TINY)
        assert cli.main([command, "--file", path, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["config"]["command"] == command

    def test_report_worst_pair_is_two_spectrum_points(self, tmp_path, capsys):
        path = self._file(tmp_path, self.PRIME)
        assert cli.main(["report", "--file", path, "--format", "json"]) == 1
        pair = json.loads(capsys.readouterr().out)["gram"]["worst_pair"]
        assert pair == [["1/1000000007"], ["3/1000000007"]]
        points = fs.enumerate_P(fs.load_system_file(path), 3).coords()
        assert {tuple(p) for p in pair} <= {tuple(map(fs.rational.format_fraction, q))
                                            for q in points}

    @pytest.mark.parametrize("name, count", [
        ("scale4", 16), ("scale4", 256), ("planar-collapse", 16), ("planar-collapse", 64)])
    def test_max_offdiag_is_the_largest_printed_modulus(self, capsys, name, count):
        argv = ["gram", "--system", name, "--count", str(count)]
        assert cli.main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        moduli = np.array(doc["matrix_abs"])
        np.fill_diagonal(moduli, 0.0)
        assert doc["max_offdiag"] == moduli.max()
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines[2:]]
        top = max(float(r[4]) for r in rows if r[0] != r[1])
        assert f" max_offdiag={cli.fmt(top)} " in lines[0]


class TestFmtRows:
    def test_same_bytes_as_fmt(self):
        vals = np.array([0.0, -0.0, 1 / 3, -2.5e17, 1e-300, -5e-324, np.inf, -np.inf,
                         np.nan, 0.1, 1e16, 123456789.123456789])
        table = np.column_stack([np.arange(len(vals)), vals, vals[::-1]])
        want = "\n".join(f"{i},{cli.fmt(a)},{cli.fmt(b)}"
                         for i, (a, b) in enumerate(zip(vals, vals[::-1])))
        assert cli.fmt_rows("%d,%.17g,%.17g", table) == want
        assert "-0," in want and ",-0\n" in want

    def test_empty_table(self):
        assert cli.fmt_rows("%.17g", np.zeros((0, 1))) == ""


class TestGammaCommand:
    def test_eiffel3_constants(self):
        r = run_cli("gamma", "--system", "eiffel(3)", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["gamma_closed_form"] == pytest.approx(0.5296828741826953, abs=1e-12)
        assert doc["beta"] == pytest.approx(4.442882938158366, abs=1e-9)

    def test_csv_has_constants(self):
        r = run_cli("gamma", "--system", "scale4")
        assert "gamma_sup" in r.stdout

    @staticmethod
    def _gamma_of_file(tmp_path, monkeypatch, capsys, filename, sysm):
        # the system's name is the path as given: a bare file name here
        monkeypatch.chdir(tmp_path)
        (tmp_path / filename).write_text(json.dumps(fs.system_to_json(sysm)))
        assert cli.main(["gamma", "--file", filename, "--format", "json", "--force"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_closed_form_is_decided_by_the_system_not_its_name(self, tmp_path, monkeypatch,
                                                              capsys):
        # a planar system named like a tower gets no tower closed form
        doc = self._gamma_of_file(tmp_path, monkeypatch, capsys, "eiffel(9).json",
                                  fs.get_system("planar-collapse"))
        assert "gamma_closed_form" not in doc

    def test_tower_under_another_name_gets_its_closed_form(self, tmp_path, monkeypatch, capsys):
        # eiffel(3) with its digits in another order, saved as tower3.json
        e3 = fs.get_system("eiffel(3)")
        tower = fs.make_system(e3.R.entries, e3.B[::-1], e3.L[1:] + e3.L[:1])
        doc = self._gamma_of_file(tmp_path, monkeypatch, capsys, "tower3.json", tower)
        assert doc["gamma_closed_form"] == fs.transfer.gamma_eiffel(3)

    def test_two_digit_closed_form_needs_the_family(self, tmp_path, monkeypatch, capsys):
        # R = 4, B = {0, 1/2} with L = {0, 3} is no two_digit_system: its
        # gamma_sup (about 1.43) is not the family's closed form (about 0.59)
        sysm = fs.make_system(4, (0, Fraction(1, 2)), (0, 3))
        doc = self._gamma_of_file(tmp_path, monkeypatch, capsys, "l03.json", sysm)
        assert "gamma_closed_form" not in doc

    def test_two_digit_family_under_another_order(self, tmp_path, monkeypatch, capsys):
        # scale4(3), R = 12, with its digits reversed
        s12 = fs.get_system("scale4(3)")
        sysm = fs.make_system(s12.R.entries, s12.B[::-1], s12.L[::-1])
        doc = self._gamma_of_file(tmp_path, monkeypatch, capsys, "twelve.json", sysm)
        assert doc["gamma_closed_form"] == fs.transfer.gamma_1d(12)


class TestAttractorCommand:
    def test_eiffel_cloud_size(self):
        r = run_cli("attractor", "--system", "eiffel(2)", "--depth", "4",
                    "--side", "sigma")
        rows = r.stdout.strip().splitlines()[2:]
        assert len(rows) == 256
        assert rows[0] == "0,0,0"

    def test_rho_side_interval(self):
        r = run_cli("attractor", "--system", "scale4", "--depth", "1", "--side", "rho")
        rows = r.stdout.strip().splitlines()[2:]
        assert [float(x) for x in rows[0].split(",")] == [pytest.approx(-1 / 3)]


RENDERED = ("scale4", "triadic", "planar-collapse", "eiffel(2)")


class TestExactRendering:
    """`attractor` prints the floats of its integer lift and `spectrum` its
    digits from one label per point of L: both must print what a rendering
    from the Fractions prints."""

    @staticmethod
    def _rows(capsys, fmt, argv):
        assert cli.main(argv + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            doc = json.loads(out)
            return doc["config"], doc["rows"]
        lines = out.splitlines()
        return lines[0], [line.split(",") for line in lines[2:]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", RENDERED)
    def test_attractor(self, capsys, name, fmt):
        sysm = fs.get_system(name)
        for side in fs.system.SIDES:
            pts = fs.attractor_points(sysm, side, 4).points
            want = [[f"{float(q):.17g}" for q in p] for p in pts]
            head, rows = self._rows(capsys, fmt, ["attractor", "--system", name,
                                                  "--side", side, "--force"])
            assert rows == want
            count = head["count"] if fmt == "json" else int(head.rsplit("=", 1)[1])
            assert count == len(pts)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", RENDERED)
    def test_spectrum(self, capsys, name, fmt):
        sysm = fs.get_system(name)
        want = [[rat.format_fraction(c) for c in p]
                + ["|".join(",".join(rat.format_fraction(c) for c in d) for d in word) or "0"]
                for p, word in fs.enumerate_P(sysm, 3).points]
        _, rows = self._rows(capsys, fmt, ["spectrum", "--system", name, "--force"])
        if fmt == "csv":
            # the digits column holds commas of its own: rejoin it
            rows = [r[:sysm.dim] + [",".join(r[sysm.dim:])] for r in rows]
        assert rows == want


class TestTransferCommand:
    def test_residual_history(self, tmp_path):
        dump = tmp_path / "grid.csv"
        r = run_cli("transfer", "--system", "scale4", "--resolution", "32",
                    "--format", "json", "--dump-grid", str(dump))
        doc = json.loads(r.stdout)
        assert doc["converged"] is True
        assert doc["final_deviation_from_one"] <= 1e-7
        assert dump.read_text().startswith("x1,value")
        assert dump.read_text().splitlines() == self._grid_lines("scale4", 32)
        run_cli("transfer", "--system", "eiffel(2)", "--resolution", "10", "--dump-grid", str(dump))
        assert dump.read_text().splitlines() == self._grid_lines("eiffel(2)", 10)

    @staticmethod
    def _grid_lines(name, res):
        # the header, then fmt of each node point and value of the final grid
        sysm = fs.get_system(name)
        final = fs.iterate_fixed_point(sysm, fs.grid_frame(sysm, res).quadratic_bump()).final
        return ([",".join([f"x{i + 1}" for i in range(sysm.dim)] + ["value"])]
                + [",".join(cli.fmt(c) for c in [*p, v])
                   for p, v in zip(final.node_points(), final.values.ravel())])

    def test_eiffel2_default_resolution(self):
        # the 3-D grid at the CLI's default resolution, 24 nodes per axis
        r = run_cli("transfer", "--system", "eiffel(2)", "--format", "json")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["config"]["resolution"] == 24
        assert doc["converged"] is True and doc["diverged"] is False
        assert len(doc["residuals"]) == 36
        assert doc["residuals"][-1] < 1e-8

    def test_resolution_floor(self):
        r = run_cli("transfer", "--system", "scale4", "--resolution", "4")
        assert r.returncode == 2

    def test_defaults_are_the_iteration_defaults(self):
        params = inspect.signature(fs.iterate_fixed_point).parameters
        args = cli.build_parser().parse_args(["transfer", "--system", "scale4"])
        assert (args.max_iters, args.tol) == (params["max_iters"].default, params["tol"].default)


class TestQ1Command:
    def test_scale4_profile(self):
        r = run_cli("q1", "--system", "scale4", "--resolution", "9",
                    "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "BASIS-CONSISTENT"
        assert min(doc["values"]) >= 0.98

    def test_shallow_cap_is_indeterminate(self):
        r = run_cli("q1", "--system", "scale4", "--resolution", "9",
                    "--p-depth", "4", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "INDETERMINATE"


class TestPlanarHullInSpace:
    # the dual hull is a square in a plane of 3-space, so the Q1 grid, the
    # transfer grid and the beta sample all run in a 2-D chart
    @pytest.mark.parametrize("command, key, value", [
        (("q1", "--p-depth", "4"), "p_depth", 4),
        (("transfer",), "converged", True),
        (("gamma",), "beta_sample_agrees", True)])
    def test_runs(self, tmp_path, planar3d, command, key, value):
        p = tmp_path / "planar3d.json"
        p.write_text(json.dumps(fs.system_to_json(planar3d)))
        r = run_cli(*command, "--file", str(p), "--format", "json")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)[key] == value


class TestReportCommand:
    def test_scale4_consistent(self):
        r = run_cli("report", "--system", "scale4", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["claims_pass"] is True
        assert doc["completeness"]["verdict"] == "BASIS-CONSISTENT"

    def test_triadic_inconsistent_with_witness(self):
        r = run_cli("report", "--system", "triadic", "--format", "json")
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["claims"]["orthogonality"] is False
        assert doc["gram"]["max_offdiag"] > 0.4

    def test_planar_collapse_orthogonal(self):
        r = run_cli("report", "--system", "planar-collapse", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["claims"]["orthogonality"] is True
        assert doc["validation"]["axioms"]["l_spans"]["passed"] is False


class TestGate:
    """Analysis commands refuse a system that fails a structural axiom unless
    --force is given; validate and report never gate.  q1 and report exit 2
    on a system without 0 in L, even under --force."""

    @pytest.fixture
    def no_zero_in_L(self, tmp_path):
        doc = {"dim": 1, "R": [["4"]], "B": [["0"], ["1/2"]], "L": [["1"], ["2"]]}
        p = tmp_path / "nozero.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_layers_are_not_the_spectrum_without_zero_in_L(self, no_zero_in_L):
        # every word over L = {1, 2} ends in a nonzero digit, so layers to
        # depth 3 would hold the 15 points of the words of length <= 3, where
        # P(L) at depth 3 has 8: the layers refuse the system
        sysm = fs.load_system_file(no_zero_in_L)
        points = {p for d in range(4) for p in rat.unlift(*sysm.lifted_walk("tau", d))}
        assert (len(points), len(fs.enumerate_P(sysm, 3).points)) == (15, 8)
        with pytest.raises(ValueError, match="zero_in_L"):
            fs.spectrum.layer_digits(sysm, 3)

    @pytest.mark.parametrize("run", [lambda s: fs.completeness_test(s, [0.1, 0.2]),
                                     lambda s: fs.q1_profile(s, [0.1, 0.2], 3)],
                             ids=["completeness_test", "q1_profile"])
    def test_q1_layers_refuse_before_any_kernel_call(self, monkeypatch, no_zero_in_L, run):
        calls = []
        monkeypatch.setattr(fs.SelfSimilarMeasure, "mu_hat_sq_sums",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="zero_in_L"):
            run(fs.load_system_file(no_zero_in_L))
        assert calls == []

    @pytest.mark.parametrize("argv", [["q1"], ["q1", "--force"], ["report"],
                                      ["report", "--force"]])
    def test_completeness_needs_zero_in_L(self, capsys, no_zero_in_L, argv):
        assert cli.main(argv[:1] + ["--file", no_zero_in_L] + argv[1:]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "zero_in_L" in err

    def test_transfer_without_the_origin_in_its_box(self, capsys, no_zero_in_L):
        # Y = [-2/3, -1/3]: the grid over it has no node at the origin to read Q0(0)
        assert cli.main(["transfer", "--file", no_zero_in_L, "--force"]) == 2
        assert capsys.readouterr() == (
            "", "error: the origin is not a node of the grid, so Q0(0) cannot be read\n")

    @pytest.fixture
    def non_hadamard(self, tmp_path):
        # e(b l) = e(1/3) for b = 1/3, l = 1: the 2 x 2 matrix is not Hadamard
        doc = {"dim": 1, "R": [["4"]], "B": [["0"], ["1/3"]], "L": [["0"], ["1"]]}
        p = tmp_path / "nonhadamard.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("command", ["spectrum", "gamma"])
    def test_analysis_commands_gate(self, capsys, non_hadamard, command):
        assert cli.main([command, "--file", non_hadamard]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"system {non_hadamard} fails hadamard ")
        assert cli.main([command, "--file", non_hadamard, "--force"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_validate_and_report_do_not_gate(self, capsys, non_hadamard, command):
        assert cli.main([command, "--file", non_hadamard]) == 1
        out, err = capsys.readouterr()
        assert out and err == ""


class TestSingleDigitSystem:
    """N = 1 (B = L = {0}) passes validation; mu is the point mass delta_0,
    whose one exponential e_0 is an orthonormal basis, so Q1 = 1."""

    @pytest.fixture
    def single(self, tmp_path):
        p = tmp_path / "single.json"
        p.write_text(json.dumps({"dim": 1, "R": [[2]], "B": [[0]], "L": [[0]]}))
        return str(p)

    def test_q1_is_one(self, capsys, single):
        assert cli.main(["q1", "--file", single, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "BASIS-CONSISTENT"
        assert doc["values"] == [1.0]

    def test_report(self, capsys, single):
        assert cli.main(["report", "--file", single, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert doc["claims_pass"] is True
        assert doc["completeness"]["min_value"] == doc["completeness"]["max_value"] == 1.0
        assert doc["spectrum"]["min_gap"] is None
        assert doc["geometry"]["hull_affine_dim"] == 0

    def test_transfer_names_the_point_hull(self, capsys, single):
        assert cli.main(["transfer", "--file", single]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the hull Y is the single point (0)")

    def test_gram_names_the_single_point(self, capsys, single):
        assert cli.main(["gram", "--file", single]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a one-digit system has a single spectrum point "
                              "and no Gram pair")


class TestSharedParser:
    """`main` parses with one parser per process."""

    RUNS = (["q1", "--system", "scale4", "--resolution", "9", "--p-depth", "6",
             "--format", "json"],
            ["transfer", "--system", "scale4", "--resolution", "many"],
            ["transfer", "--system", "scale4", "--resolution", "16", "--format", "json"])

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_match_a_fresh_parser(self, capsys):
        # q1, a usage error, then transfer through the shared parser: each
        # prints what it prints from a parser built for it alone
        shared = [(cli.main(list(argv)), capsys.readouterr()) for argv in self.RUNS]
        fresh = []
        for argv in self.RUNS:
            cli.build_parser.cache_clear()
            fresh.append((cli.main(list(argv)), capsys.readouterr()))
        assert [code for code, _ in shared] == [0, 2, 0]
        assert "invalid int value: 'many'" in shared[1][1].err
        assert shared == fresh


class TestMalformedSystemFile:
    """A malformed system file exits 2 with a message, never a traceback,
    a hang or a silent reading."""

    @pytest.mark.parametrize("doc, message", [
        ({"dim": 0, "R": [], "B": [], "L": []}, "at least 1 x 1"),
        ({"dim": 1, "R": [["4"]], "B": [], "L": []}, "at least one point"),
        ({"dim": 1, "R": [["4"]], "B": ["0", "1"], "L": [["0"], ["1/2"]]}, "not a JSON list"),
        ({"dim": 1, "R": [["4"]], "B": ["0", "12"], "L": [["0"], ["1/2"]]}, "not a JSON list"),
        # a JSON boolean is no rational, though Python's bool is an int
        ({"dim": 1, "R": [["4"]], "B": [[False], [True]], "L": [["0"], ["1"]]}, "got bool"),
        ({"dim": 1, "R": [[True]], "B": [["0"], ["1/2"]], "L": [["0"], ["1"]]}, "got bool"),
        ({"dim": 1.9, "R": [["4"]], "B": [["0"], ["1/2"]], "L": [["0"], ["1"]]},
         "dim 1.9 is not an integer"),
        ({"dim": True, "R": [["4"]], "B": [["0"], ["1/2"]], "L": [["0"], ["1"]]},
         "dim True is not an integer"),
    ], ids=["dim-0", "empty-B-and-L", "string-points", "string-point-12", "boolean-B",
            "boolean-R", "float-dim", "boolean-dim"])
    @pytest.mark.parametrize("command", ["validate", "q1", "gram"])
    def test_exits_2(self, tmp_path, capsys, doc, message, command):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert cli.main([command, "--file", str(p), "--force"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot parse system file: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["gram", "q1"])
    def test_empty_B_exits_at_once(self, tmp_path, command):
        # gram's depth loop never ended at N = 0; q1 failed on an empty max()
        p = tmp_path / "empty-B.json"
        p.write_text(json.dumps({"dim": 1, "R": [["4"]], "B": [], "L": [["0"]]}))
        r = subprocess.run(RUN + [command, "--force", "--file", str(p)],
                           capture_output=True, text=True, timeout=20)
        assert r.returncode == 2
        assert r.stderr == "error: cannot parse system file: B and L must each hold at least one point\n"


class TestRefusedInput:
    """Inputs refused with exit 2 and one error line, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (("validate", "--file", "REPEATED"),
         "cannot parse system file: B and L must consist of distinct points"),
        (("validate", "--system", "scale4(0)"), "scaling matrix is singular"),
        (("validate", "--system", "eiffel(1)"), "eiffel scale r must be an integer >= 2"),
        (("transfer", "--system", "scale4", "--resolution", "5"), "resolution must be >= 8"),
    ], ids=["repeated-digit", "scale4(0)", "eiffel(1)", "transfer-resolution-5"])
    def test_exits_2_with_the_message(self, tmp_path, capsys, argv, message):
        p = tmp_path / "repeated.json"
        p.write_text(json.dumps({"dim": 1, "R": [["4"]], "B": [["0"], ["0"]],
                                 "L": [["0"], ["1"]]}))
        assert cli.main([str(p) if a == "REPEATED" else a for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [("attractor", "--side", "sigma"),
                                      ("attractor", "--side", "rho"), ("q1",)],
                             ids=["attractor-sigma", "attractor-rho", "q1"])
    def test_word_maps_that_are_no_contractions(self, tmp_path, capsys, argv):
        # R = 1: every word map has M^n = I, so I - M^n has no inverse and
        # the word maps have no fixed points; the failed expansive axiom is
        # named before any attractor or hull is built
        p = tmp_path / "unit-R.json"
        p.write_text(json.dumps({"dim": 1, "R": [["1"]], "B": [["0"], ["1/2"]],
                                 "L": [["0"], ["1"]]}))
        assert cli.main([*argv, "--file", str(p), "--force"]) == 2
        assert capsys.readouterr() == (
            "", f"error: the expansive axiom fails (eigenvalue moduli [1.0]): {argv[0]} needs "
                "word maps that contract\n")

    # R = 10^400, and L = {0, 10^400}: exact entries past the largest float;
    # L = {0, 10^305} with B = {0, 1/(2 10^305)}: every entry is a float, but
    # the Q1 layer points R*^k L pass the largest float at k = 6, and the
    # transfer start squares node parameters near 3e304
    HUGE = {"R": {"dim": 1, "R": [["1e400"]], "B": [["0"], ["1/2"]], "L": [["0"], ["1"]]},
            "L": {"dim": 1, "R": [["4"]], "B": [["0"], ["1/2"]], "L": [["0"], ["1e400"]]},
            "near": {"dim": 1, "R": [["4"]], "B": [["0"], ["5e-306"]],
                     "L": [["0"], ["1e305"]]}}

    @pytest.mark.parametrize("huge, command, code", [
        *[("R", c, 2) for c in ("validate", "spectrum", "gram", "q1", "transfer",
                                "gamma", "attractor", "report")],
        *[("L", c, 2) for c in ("q1", "gram", "transfer", "gamma", "report")],
        # Hadamard fails, and the commands that need no float of L still run
        ("L", "validate", 1), ("L", "spectrum", 0), ("L", "attractor", 0),
        # q1 and transfer printed NaN sums and residuals with exit 0
        *[("near", c, 2) for c in ("q1", "transfer", "report")],
        ("near", "validate", 0),
    ])
    def test_entry_out_of_float_range(self, tmp_path, capsys, huge, command, code):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(self.HUGE[huge]))
        assert cli.main([command, "--file", str(p), "--force"]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error: ") and "floating-point range" in err
            assert err.count("\n") == 1


class TestRescaledSystem:
    """(B, L) -> (s B, L / s) leaves the basis question as it is: mu is
    pushed forward by x -> s x, and e_{lambda/s}(s x) = e_lambda(x).  So three
    copies of scale4, R = 4, B = s {0, 1/2} and L = {0, 1} / s, get scale4's
    answers while their layer points stay in float range.  The third,
    s = 10^-305, is the near-float-max file of TestRefusedInput."""

    SCALES = {"2e-200": Fraction(2, 10 ** 200), "2e200": Fraction(2 * 10 ** 200),
              "1e-305": Fraction(1, 10 ** 305)}

    @staticmethod
    def _run(capsys, tmp_path, s, *argv):
        p = tmp_path / "rescaled.json"
        p.write_text(json.dumps(fs.system_to_json(fs.make_system(4, (0, s / 2), (0, 1 / s)))))
        code = cli.main([*argv, "--file", str(p), "--format", "json"])
        out, err = capsys.readouterr()
        return code, json.loads(out) if code == 0 else None, err

    @pytest.mark.parametrize("scale", SCALES)
    def test_gamma_and_gram(self, capsys, tmp_path, scale):
        code, doc, _ = self._run(capsys, tmp_path, self.SCALES[scale], "gamma")
        assert code == 0 and doc["gamma_sup"] == 0.5900873807939158
        assert doc["gamma_sup"] == fs.gamma_supnorm(fs.get_system("scale4")).gamma_sup
        code, doc, _ = self._run(capsys, tmp_path, self.SCALES[scale], "gram")
        assert code == 0 and doc["max_offdiag"] < 1e-13 and doc["tail_bound"] > 0

    @pytest.mark.parametrize("scale", ["2e-200", "2e200"])
    def test_q1(self, capsys, tmp_path, scale):
        assert cli.main(["q1", "--system", "scale4", "--format", "json"]) == 0
        want = min(json.loads(capsys.readouterr().out)["values"])
        code, doc, _ = self._run(capsys, tmp_path, self.SCALES[scale], "q1")
        assert code == 0 and doc["verdict"] == "BASIS-CONSISTENT"
        assert min(doc["values"]) == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("command, message", [
        ("q1", "spectrum layer 7 of depth 14 leaves the floating-point range"),
        ("transfer", "the transfer start Q0 leaves the floating-point range on its grid"),
        ("report", "spectrum layer 7 of depth 14 leaves the floating-point range")],
        ids=["q1", "transfer", "report"])
    def test_layer_points_past_the_float_range(self, capsys, tmp_path, command, message):
        code, _, err = self._run(capsys, tmp_path, self.SCALES["1e-305"], command)
        assert (code, err) == (2, f"error: {message}\n")

    def test_gamma_near_float_max(self, capsys, tmp_path):
        # diam_B and max|l| are rooted from their exact squares, so no float
        # of 10^610 is formed
        code, doc, _ = self._run(capsys, tmp_path, self.SCALES["1e-305"], "gamma")
        assert code == 0
        assert doc["norms"]["diam_B"] == 5e-306
        assert doc["beta"] == 2.7206990463513265e-305


class TestMismatchedCounts:
    """#B != #L is a malformed file: R = 31, B = {0}, L = {0, ..., 29} once
    ran report past 40 s and spectrum --force through 810,000 words."""

    @staticmethod
    def _limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["gated", "forced"])
    @pytest.mark.parametrize("command", ["validate", "spectrum", "gram", "q1", "transfer",
                                         "gamma", "attractor", "report"])
    def test_exits_2(self, tmp_path, command, force):
        p = tmp_path / "one-by-thirty.json"
        p.write_text(json.dumps({"dim": 1, "R": [["31"]], "B": [["0"]],
                                 "L": [[str(k)] for k in range(30)]}))
        r = subprocess.run(RUN + [command, "--file", str(p), *force], capture_output=True,
                           text=True, timeout=20, preexec_fn=self._limit)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: cannot parse system file: #B = 1 and #L = 30 differ\n"


class TestStrictJson:
    @pytest.mark.parametrize("name", ["scale4", "eiffel(2)"])
    @pytest.mark.parametrize("command", ["validate", "spectrum", "gram", "q1", "transfer",
                                         "gamma", "attractor", "report"])
    def test_no_nan_or_infinity(self, capsys, name, command):
        # a strict JSON parser rejects NaN and Infinity
        def refuse(constant):
            raise ValueError(f"{command} on {name} writes {constant}")

        assert cli.main([command, "--system", name, "--format", "json"]) == 0
        json.loads(capsys.readouterr().out, parse_constant=refuse)


class TestSlowShear:
    """R = [[101/100, 100], [0, 101/100]] is expansive (both moduli 1.01), but
    its first power of R*^-1 below 1 in operator norm is the 1172nd, past the
    transform's MAX_PRODUCT_DEPTH = 200."""

    @pytest.fixture
    def shear(self, tmp_path):
        doc = {"dim": 2, "R": [["101/100", "100"], ["0", "101/100"]],
               "B": [["0", "0"], ["1/2", "0"]], "L": [["0", "0"], ["1", "0"]]}
        p = tmp_path / "shear.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_validate_passes_expansive(self, capsys, shear):
        assert cli.main(["validate", "--file", shear, "--format", "json"]) == 1
        axioms = json.loads(capsys.readouterr().out)["validation"]["axioms"]
        assert axioms["expansive"] == {"passed": True, "mandatory": True,
                                       "witness": [1.01, 1.01]}
        assert not axioms["compatibility"]["passed"]

    def test_q1_names_the_missing_tail_bound(self, capsys, shear):
        assert cli.main(["q1", "--file", shear]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "tail bound is unavailable" in err
        assert "k <= 200" in err and "not expansive" not in err

    def test_transfer_starts_from_its_own_grid(self, capsys, shear):
        # the origin is a node of the 10^6-wide grid, which the normalization
        # check reads as the node: 1 + |0|^2 / 2, not a rounding off it
        assert cli.main(["transfer", "--file", shear, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["residuals"]) == 200
        assert doc["converged"] is False


class TestNonExpansive:
    """R = 1 with B = {0, 1/2}, L = {0, 1} fails only the expansive axiom:
    under --force every command that needs contracting word maps refuses it
    with one message, before any hull, transform or attractor is built."""

    @pytest.fixture
    def unit_scale(self, tmp_path):
        doc = {"dim": 1, "R": [["1"]], "B": [["0"], ["1/2"]], "L": [["0"], ["1"]]}
        p = tmp_path / "unit-scale.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("command", ["q1", "gamma", "transfer", "attractor", "gram",
                                         "report"])
    def test_refused_with_one_message(self, monkeypatch, capsys, unit_scale, command):
        def refuse(*_):
            raise AssertionError("a hull was built for a non-expansive R")

        monkeypatch.setattr(fs.geometry, "dual_hull", refuse)
        assert cli.main([command, "--file", unit_scale, "--force"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: the expansive axiom fails (eigenvalue moduli [1.0]): "
                       f"{command} needs word maps that contract\n")

    def test_spectrum_and_validate_keep_their_exits(self, capsys, unit_scale):
        assert cli.main(["spectrum", "--file", unit_scale, "--force"]) == 0
        assert cli.main(["validate", "--file", unit_scale]) == 1
        assert "expansive" in capsys.readouterr().out


class TestUsage:
    def test_no_system(self):
        r = run_cli("spectrum")
        assert r.returncode == 2
        assert "one of the arguments --system --file is required" in r.stderr

    def test_both_sources_exit_2(self, tmp_path):
        # --system and --file are exclusive: neither one is dropped in silence
        path = tmp_path / "scale2.json"
        path.write_text(json.dumps(fs.system_to_json(fs.get_system("scale2"))))
        r = run_cli("validate", "--system", "scale4", "--file", str(path))
        assert (r.returncode, r.stdout) == (2, "")
        assert "not allowed with argument" in r.stderr

    @pytest.mark.parametrize("option", ["--file", "--system"])
    def test_empty_source_is_an_error(self, option):
        r = run_cli("validate", option, "")
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    def test_unknown_catalog_name(self):
        r = run_cli("validate", "--system", "foo")
        assert r.returncode == 2
        assert "scale4" in r.stderr

    def test_n_check_option_is_gone(self):
        # validate always checks R^n for n <= 12 (system.DEFAULT_N_CHECK)
        assert cli.main(["validate", "--system", "scale4", "--n-check", "3"]) == 2

    def test_system_file_is_a_directory(self, tmp_path):
        r = run_cli("validate", "--file", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    @pytest.mark.parametrize("option", ["--out", "--dump-grid"])
    def test_missing_output_directory(self, tmp_path, option):
        target = str(tmp_path / "no-such-dir" / "x.csv")
        r = run_cli("transfer", "--system", "scale4", "--resolution", "16", option, target)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    @pytest.mark.parametrize("command, option, value", [
        ("q1", "--p-depth", "0"),           # 0 is a value, not "use the default"
        ("q1", "--p-depth", "-3"),
        ("q1", "--resolution", "0"),
        ("q1", "--tol", "-1"),
        ("q1", "--tol", "0"),
        ("transfer", "--resolution", "0"),
        ("transfer", "--max-iters", "0"),
        ("transfer", "--tol", "-1"),
        ("q1", "--tol", "inf"),
        ("transfer", "--tol", "inf"),
    ])
    def test_numeric_option_out_of_range(self, capsys, command, option, value):
        # rejected before any work, so the parser is run in process
        assert cli.main([command, "--system", "scale4", option, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {option} must be ")

    @pytest.mark.parametrize("command", ["gamma", "q1", "transfer"])
    def test_r_option_is_gone(self, capsys, command):
        # the scale is spelled in the name, eiffel(3) or scale4(3); nor is
        # --r taken as an abbreviation of --resolution
        assert cli.main([command, "--system", "eiffel", "--r", "3"]) == 2
        assert "unrecognized arguments: --r 3" in capsys.readouterr().err

    def test_gram_depth_option_is_gone(self, capsys):
        # gram always truncates the transform at its adaptive depth
        assert cli.main(["gram", "--system", "scale4", "--depth", "3"]) == 2
        assert "unrecognized arguments: --depth 3" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (("q1", "--system", "eiffel(2)", "--resolution", "1000000"), "a mesh of 1000000^3 points"),
        (("q1", "--system", "scale4", "--resolution", "100000000000"), "a mesh of "),
        (("transfer", "--system", "eiffel(2)", "--resolution", "100000"), "a grid of 100000^3"),
        (("q1", "--system", "scale4", "--resolution", "10000"), "a Q1 pass over 10002 rows"),
        # the smallest count over the cap
        (("gram", "--system", "scale4", "--count", "1025"), "a Gram matrix of 1025 points"),
        (("attractor", "--system", "scale4", "--depth", "0"), "depth must be >= 1"),
        (("attractor", "--system", "eiffel(2)", "--depth", "20"), "exact-arithmetic cap"),
    ])
    def test_size_out_of_range(self, capsys, args, message):
        # refused before the arrays are taken: the run stays far below the
        # exabytes, petabytes or gigabytes the sizes ask for
        tracemalloc.start()
        try:
            assert cli.main(list(args)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("args", [
        ("spectrum", "--system", "planar-collapse", "--depth", "100000000"),
        ("q1", "--system", "planar-collapse", "--p-depth", "100000000"),
        ("attractor", "--system", "planar-collapse", "--depth", "100000000"),
        ("attractor", "--system", "scale4", "--depth", "100000000"),
        ("spectrum", "--file", "ONE_DIGIT", "--depth", "10000000"),
        ("attractor", "--file", "ONE_DIGIT", "--depth", "10000000"),
    ])
    def test_depth_capped_without_the_power(self, tmp_path, args):
        # N^depth was formed before the cap compared it: 3^(10^8) ran past
        # 60 s, a 4^(10^8) message failed to format, and a one-digit system
        # (1^depth = 1) passed every cap
        one = tmp_path / "one-digit.json"
        one.write_text(json.dumps({"dim": 1, "R": [["3"]], "B": [["0"]], "L": [["0"]]}))
        args = [str(one) if a == "ONE_DIGIT" else a for a in args]
        r = subprocess.run(RUN + args, capture_output=True, text=True, timeout=20)
        assert r.returncode == 2
        depth = args[-1]
        assert r.stderr.startswith("error: ") and f"^{depth} " in r.stderr
        assert "Traceback" not in r.stderr and "string conversion" not in r.stderr

    @pytest.mark.parametrize("args, message", [
        # about 50 s of layers before the cap was reached inside the loop
        (("q1", "--system", "triadic", "--p-depth", "30"), "depth 30 reaches 2^30 points"),
        # converged at depth 17 and exited 0 before the depth was checked
        (("q1", "--system", "scale2", "--p-depth", "30"), "depth 30 reaches 2^30 points"),
        # enumerated 32768 exact points (about 2 s) before the Gram cap
        (("gram", "--system", "scale4", "--count", "20000"), "a Gram matrix of 20000 points"),
    ])
    def test_capped_before_enumeration(self, monkeypatch, capsys, args, message):
        # layer_digits decides the layer cap before it forms a level, so no
        # layer's points are summed
        def refuse(*_):
            raise AssertionError("enumeration started past the cap")

        monkeypatch.setattr(fs.spectrum, "digit_sum", refuse)
        monkeypatch.setattr(fs.spectrum, "enumerate_P", refuse)
        assert cli.main(list(args)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestProcessEntry:
    """`run` is the process entry: it freezes the import heap, then runs
    `main`.  `main` is the in-process call and never freezes."""

    COMMANDS = [
        (["gamma", "--system", "scale4"], 0),
        (["validate", "--system", "triadic"], 1),
        (["q1", "--system", "scale4", "--tol", "0"], 2),
    ]

    @pytest.mark.parametrize("argv, code", COMMANDS, ids=["pass", "claim", "usage"])
    def test_main_leaves_the_heap_alone(self, capsys, argv, code):
        before = gc.get_freeze_count()
        assert cli.main(argv) == code
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", COMMANDS, ids=["pass", "claim", "usage"])
    def test_run_freezes_then_returns_mains_code(self, monkeypatch, capsys, argv, code):
        # gc.freeze is recorded, not called, so this test process stays unfrozen
        assert cli.main(argv) == code
        expected = capsys.readouterr()
        calls = []
        main = cli.main
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or main(argv))
        monkeypatch.setattr(sys, "argv", ["fracspec", *argv])
        assert cli.run() == code
        assert calls == ["freeze", "main"]
        assert capsys.readouterr() == expected

    def test_run_freezes_the_process_heap(self, capsys):
        argv = ["validate", "--system", "triadic", "--format", "json"]
        script = ("import gc, sys, fracspec.cli\n"
                  f"sys.argv = {['fracspec', *argv]!r}\n"
                  "code = fracspec.cli.run()\n"
                  "print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=60)
        assert r.stderr == "1 True\n"
        assert cli.main(argv) == 1
        assert r.stdout == capsys.readouterr().out
        assert json.loads(r.stdout)["validation"]["passed"] is False

    def test_console_script_is_run(self):
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"fracspec": "fracspec.cli:run"}
