"""Tests of the benchmark's own machinery: tracer bindings, per-layer
coverage, traced/untraced equality, exact-count stability, the hull oracle,
the verdict pool cycle, the host-speed correction and the reference
comparison.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys

import pytest

import tracer as T
import workloads as W

import fracspec as fs
from fracspec import cli, geometry, measure, spectrum, system, transfer

SEED = 7
CHEAP_VERDICT = {"R=4", "R=-4", "R=6", "R=-6", "R=8", "R=-8",
                 "planar-collapse", "eiffel(2)", "eiffel(3)"}


def cheap_requests():
    """Requests of the real workloads that take milliseconds each: verdict on
    the early-stabilising systems and the planar-collapse tower session."""
    verdict = [r for r in W.build_requests("verdict", SEED, 0, W.load_refs("verdict"))
               if r.label.split("#")[0] in CHEAP_VERDICT]
    return verdict + planar_session()


def planar_session():
    return [r for r in W.build_requests("tower-exact", SEED, 0, W.load_refs("tower-exact"))
            if r.label.endswith(":planar-collapse")]


def run_all(requests, tracer=None):
    outs = []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        out = req.run()
        assert req.check(out) == [], req.label
        outs.append(out)
    return outs


def traced_run(requests):
    tr = T.Tracer().install()
    try:
        outs = run_all(requests, tr)
    finally:
        tr.uninstall()
    return outs, tr


def test_every_binding_is_patched_and_restored():
    originals = {
        "chi_B_batch": system.chi_B_batch,
        "validate_system": system.validate_system,
        "mu_hat_batch": measure.SelfSimilarMeasure.__dict__["mu_hat_batch"],
    }
    tr = T.Tracer().install()
    try:
        for mod in (system, measure, transfer, fs):
            assert mod.chi_B_batch is not originals["chi_B_batch"]
        for mod in (system, cli, fs):
            assert mod.validate_system is not originals["validate_system"]
        assert measure.SelfSimilarMeasure.__dict__["mu_hat_batch"] is not originals["mu_hat_batch"]
        for mod_name, attr, _, _ in T.SPAN_TARGETS:
            if "." in attr:
                continue
            wrapped = getattr(sys.modules[f"fracspec.{mod_name}"], attr)
            for mod in (m for n, m in sys.modules.items() if n.startswith("fracspec")):
                for name, value in vars(mod).items():
                    assert value is not wrapped.__wrapped__, f"{mod.__name__}.{name} unpatched"
    finally:
        tr.uninstall()
    assert measure.chi_B_batch is originals["chi_B_batch"]
    assert cli.validate_system is originals["validate_system"]
    assert measure.SelfSimilarMeasure.__dict__["mu_hat_batch"] is originals["mu_hat_batch"]


def test_every_layer_metric_is_nonzero_on_a_tiny_input(tmp_path):
    tr = T.Tracer().install()
    try:
        s4, planar = fs.get_system("scale4"), fs.get_system("planar-collapse")
        spectrum.completeness_test(s4, [-0.1, -0.2])
        geometry.dual_hull(planar, 2)
        geometry.dual_hull(planar, 2)
        geometry.convex_hull(geometry.attractor_points(fs.eiffel_system(2), "rho", 2).points)
        transfer.gamma_supnorm(planar)
        frame = transfer.grid_frame(planar, 48)
        transfer.iterate_fixed_point(planar, frame.quadratic_bump())
        geometry.invariance_check(planar, geometry.simplex_Y(planar))
        out = tmp_path / "gram.json"
        assert cli.main(W.cli_argv("gram", "scale4", out)) == 0
    finally:
        tr.uninstall()
    values = T.layer_metrics(T.merge_raw([tr.raw_counts()]), import_s=1.0, overhead_s=1.0)
    zero = [name for name, v in values.items() if not v > 0]
    assert zero == []
    raw = tr.raw_counts()["sums"]
    for _, _, name, _ in T.SPAN_TARGETS:
        assert raw[f"{name}.calls"] > 0, name
    assert raw["rational.det.calls"] > 0


def test_traced_cli_child_reports_import_and_main(tmp_path):
    spans = tmp_path / "req.jsonl"
    out = tmp_path / "validate.json"
    probe = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, str(W.HERE / "cli_child.py"), str(probe),
                           "--spans", str(spans), "3", "--"]
                          + W.cli_argv("validate", "scale4", out),
                          env=W.bench_env(), cwd=W.ROOT, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(W.read_probe(probe)) > 0
    lines = spans.read_text().splitlines()
    last = json.loads(lines[-1])
    assert last["import_s"] > 0
    assert last["raw"]["sums"]["cli.main.calls"] == 1
    assert last["raw"]["sums"]["system.validate_system.calls"] == 1
    first = json.loads(lines[0])
    assert first["name"] == "cli.main" and first["request"] == 3 and first["parent"] is None
    ref = W.load_refs("cli-catalog")["validate:scale4"]
    assert W.compare(ref["output"], json.loads(out.read_text())) == []


def test_untraced_cli_child_keeps_the_exit_code_and_samples_the_host(tmp_path):
    # triadic fails validation: `python -m fracspec.cli` exits 1, and so must the child
    out = tmp_path / "validate.json"
    probe = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, str(W.HERE / "cli_child.py"), str(probe), "--"]
                          + W.cli_argv("validate", "triadic", out),
                          env=W.bench_env(), cwd=W.ROOT, capture_output=True, timeout=120)
    ref = W.load_refs("cli-catalog")["validate:triadic"]
    assert ref["exit"] == 1
    assert proc.returncode == ref["exit"], proc.stderr
    assert W.compare(ref["output"], json.loads(out.read_text())) == []
    samples = W.read_probe(probe)
    assert len(samples) > 0 and all(d > 0 for _, d in samples)
    assert not probe.exists()


def test_traced_and_untraced_outputs_are_identical():
    requests = cheap_requests()
    plain = run_all(requests)
    traced, _ = traced_run(requests)
    assert traced == plain


def test_exact_counts_repeat_between_traced_runs():
    requests = cheap_requests()
    counts = []
    for _ in range(2):
        _, tr = traced_run(requests)
        values = T.layer_metrics(T.merge_raw([tr.raw_counts()]), 0.0, 0.0)
        counts.append({k: values[k] for k in T.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values()), counts[0]


def test_self_time_excludes_children():
    tr = T.Tracer().install()
    try:
        spectrum.completeness_test(fs.get_system("scale4"), [-0.1])
    finally:
        tr.uninstall()
    by_id = {}
    for i, (name, start, end, parent, _, child_s, _) in enumerate(tr.spans):
        assert end >= start and 0 <= child_s <= end - start + 1e-9
        by_id[i] = (name, parent)
    top = [name for name, parent in by_id.values() if parent is None]
    assert top == ["spectrum.completeness_test"]


@pytest.mark.parametrize("out, ok", [
    ({"a": 1.0, "b": ["x", "0.30000000000000004"], "extra": 5}, True),
    ({"a": 1.0 + 1e-12, "b": ["x", "0.3"]}, True),
    ({"a": 1.1, "b": ["x", "0.3"]}, False),
    ({"a": 1.0, "b": ["y", "0.3"]}, False),
    ({"a": 1.0}, False),
    ({"a": True, "b": ["x", "0.3"]}, False),
])
def test_compare_ignores_extra_keys_and_uses_tolerance(out, ok):
    ref = {"a": 1.0, "b": ["x", "0.3"]}
    assert (W.compare(ref, out) == []) is ok


def test_tower_commands_build_the_oracle_hull():
    for req in planar_session():
        out = req.run()
        assert len(out["hulls"]) == (req.kind in W.HULL_COMMANDS), req.label
        assert req.check(out) == [], req.label


def test_verdict_cycle_uses_each_pool_member_once():
    refs = W.load_refs("verdict")
    ids = [r.label for k in range(W.VERDICT_CYCLE) for r in W.verdict_requests(SEED, k, refs)]
    assert sorted(ids) == sorted(inst["id"] for pool in refs["pool"].values() for inst in pool)


def test_request_counts_do_not_depend_on_the_seed():
    commands = []
    for seed in (1, 2):
        commands.append(sorted(cmd for _, cmd in W.tower_plan(seed, 0)))
        assert len(W.cli_plan(seed, 0)) == len(W.CLI_SYSTEMS) * len(W.CLI_COMMANDS)
    assert commands[0] == commands[1]
    assert {W.tower_systems(k)[0] for k in range(3)} == {"eiffel(2)", "eiffel(3)", "eiffel(4)"}
    assert {name for name, _ in W.tower_plan(1, 0)} == {name for name, _ in W.tower_plan(2, 0)}
    assert W.tower_plan(1, 0) == W.tower_plan(1, 0)
    assert W.tower_plan(1, 0) != W.tower_plan(4, 0)


def test_times_are_corrected_by_the_probe_samples_taken_while_they_ran():
    import run as R
    # the host runs slow (2 ms probe samples) until t = 1 s, then fast (1 ms)
    samples = [[0.1 * i, 0.002 if i <= 10 else 0.001] for i in range(1, 21)]
    assert R.nearest(samples, 0.15, 0.95) == [0.002] * 8
    assert R.nearest(samples, 1.52, 1.53) == [0.001] * 5
    res = {"probe": samples, "ready_pc": 0.5, "latencies": [1.0, 1.0],
           "windows": [[0.5, 0.95], [1.5, 1.95]]}
    out = R.corrected(res, 0.6)
    slow, fast = out["latencies"]
    assert slow / fast == pytest.approx(0.5 ** R.PROBE_EXPONENT)
    assert out["raw_setup_s"] == pytest.approx(0.6 - 5 * 0.002)
