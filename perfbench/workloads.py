"""The three benchmark workloads: request lists made from a seed, how each
request runs, and the check of its output against the recorded reference.

Every workload runs a closed loop with one client: the next request starts
when the previous one has returned.  A pass is the workload's fixed request
list; the seed chooses inputs and order, never how many requests of each
kind a pass holds.  On tower-exact the pass index, not the seed, chooses
the tower's scale, because the towers' costs differ by up to 15 %.

* verdict      `spectrum.completeness_test` on probe sets drawn in advance
               inside the invariant simplex (the dual hull for negative R);
               no request builds a hull.
* tower-exact  an in-process session of every CLI command on one tower
               system eiffel(r) and one on planar-collapse; each command that
               needs the depth-4 hull rebuilds it, as the CLI does today.
* cli-catalog  every command of the CLI on four catalog systems, each a fresh
               `python -m fracspec.cli` process.

The expected outputs live in `refs/`, written by `record.py`.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("verdict", "tower-exact", "cli-catalog")

# Absolute tolerance on completeness partial sums, and the float tolerance of
# every other recorded number (exact rationals and strings compare exactly).
Q1_ATOL = 1e-5
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

# verdict: one probe set per pass from each system class.
VERDICT_CLASSES = tuple(f"R={r}" for r in (2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8)) \
    + ("planar-collapse", "eiffel(2)", "eiffel(3)")
# The recorded pool of each class holds VERDICT_CYCLE probe sets, and every
# VERDICT_CYCLE consecutive passes use each of them once, so a run of that
# many passes measures the same population whatever the seed.
VERDICT_CYCLE = 4

# tower-exact: one in-process session per system that runs every CLI
# command once.  The tower's scale r is (2, 3, 4)[pass % 3].  q1, report,
# gamma and transfer each build dual_hull(sys, 4) for themselves, as the CLI
# does, so a session rebuilds the same hull once per such command.  `report`
# runs on planar-collapse only: on a tower its completeness test takes about
# 50 s and has no option to cap it.  q1 takes `--p-depth 4` for the same
# reason (166 s on eiffel(2) at the automatic depth).
TOWER_SCALES = (2, 3, 4)
HULL_COMMANDS = ("q1", "report", "gamma", "transfer")
_SESSION = (("validate",), ("spectrum",), ("gram",), ("q1", "--p-depth", "4"),
            ("transfer",), ("gamma",), ("attractor",))
TOWER_COMMANDS = {"tower": _SESSION, "planar-collapse": _SESSION + (("report",),)}

CLI_SYSTEMS = ("scale4", "scale2", "triadic", "planar-collapse")
CLI_COMMANDS = ("validate", "spectrum", "gram", "q1", "transfer", "gamma",
                "attractor", "report")


def bench_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    package first on the path and single-threaded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json") as fh:
        return json.load(fh)


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


# ---------------------------------------------------------------------------
# output comparison

def _as_float(x):
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def compare(ref, out, path="$", rtol=FLOAT_RTOL, atol=FLOAT_ATOL) -> list:
    """Mismatches of `out` against `ref`.  Keys missing from the reference are
    ignored, so added output fields do not count as failures.  Numbers, and
    strings that both read as numbers, compare within the tolerance."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        errs = []
        for k, v in ref.items():
            if k not in out:
                errs.append(f"{path}.{k}: missing")
            else:
                errs.extend(compare(v, out[k], f"{path}.{k}", rtol, atol))
        return errs
    if isinstance(ref, list):
        if not isinstance(out, (list, tuple)) or len(out) != len(ref):
            return [f"{path}: expected {len(ref)} items"]
        errs = []
        for i, (a, b) in enumerate(zip(ref, out)):
            errs.extend(compare(a, b, f"{path}[{i}]", rtol, atol))
        return errs
    if ref == out and type(ref) is type(out):
        return []
    fa, fb = _as_float(ref), _as_float(out)
    if fa is not None and fb is not None:
        if math.isclose(fa, fb, rel_tol=rtol, abs_tol=atol) or (math.isnan(fa) and math.isnan(fb)):
            return []
    return [f"{path}: expected {ref!r}, got {out!r}"]


# ---------------------------------------------------------------------------
# requests

class Request:
    """One unit of client work: `run()` is timed, `check(output)` is not."""

    def __init__(self, kind: str, label: str, run, check, probe_path=None):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check
        self.probe_path = probe_path    # where a child process leaves its probe samples


def read_probe(path: Path) -> list:
    """The samples a `cli_child.py` process wrote, and remove the file; none
    if the process died before writing them."""
    try:
        with open(path) as fh:
            samples = json.load(fh)
    except (OSError, ValueError):
        return []
    finally:
        path.unlink(missing_ok=True)
    return samples


def verdict_system(spec: dict):
    import fracspec as fs
    from fractions import Fraction
    if spec["kind"] == "two-digit":
        return fs.two_digit_system(spec["R"], Fraction(spec["b"]))
    return fs.get_system(spec["name"])


def verdict_output(report) -> dict:
    return {"verdict": report.verdict,
            "values": [float(v) for v in report.profile.values()]}


def verdict_requests(seed: int, pass_index: int, refs: dict) -> list:
    """One probe set per class from its recorded pool: the seed permutes each
    pool once per cycle of passes and deals it out in order."""
    import numpy as np
    from fracspec import spectrum
    cycle, k = divmod(pass_index, VERDICT_CYCLE)
    chosen = []
    for cls in VERDICT_CLASSES:
        pool = list(refs["pool"][cls])
        rng_for(f"verdict:{cls}", seed, cycle).shuffle(pool)
        chosen.append(pool[k])
    rng_for("verdict", seed, pass_index).shuffle(chosen)
    systems: dict = {}
    reqs = []
    for inst in chosen:
        key = json.dumps(inst["system"], sort_keys=True)
        if key not in systems:
            systems[key] = verdict_system(inst["system"])
        sys_obj = systems[key]
        probes = np.array(inst["probes"], dtype=float)
        cap = inst["cap"]

        def run(sys_obj=sys_obj, probes=probes, cap=cap):
            return verdict_output(spectrum.completeness_test(sys_obj, probes, p_depth_cap=cap))

        def check(out, inst=inst):
            errs = [] if out["verdict"] == inst["verdict"] else [
                f"verdict {out['verdict']} != {inst['verdict']}"]
            return errs + compare(inst["values"], out["values"], "values", rtol=0.0, atol=Q1_ATOL)

        reqs.append(Request("completeness_test", inst["id"], run, check))
    return reqs


# ---------------------------------------------------------------------------
# CLI commands, in a fresh process (cli-catalog) or in-process (tower-exact)

def cli_argv(cmd: str, system: str, out_path, *options) -> list:
    return [cmd, "--system", system, "--format", "json", "--out", str(out_path), *options]


def check_cli(out: dict, ref: dict, out_path: Path) -> list:
    """The exit code against the recorded one, then the JSON the command
    wrote against the recorded JSON.  Removes the output file."""
    errs = []
    if out["exit"] != ref["exit"]:
        errs.append(f"exit {out['exit']} != {ref['exit']}: {out.get('stderr', '')[-300:]}")
    try:
        with open(out_path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return errs + [f"no JSON output: {exc}"]
    finally:
        if out_path.exists():
            out_path.unlink()
    return errs + compare(ref["output"], doc)


def vertex_strings(P) -> list:
    from fracspec import rational as rat
    return [[rat.format_fraction(c) for c in v] for v in P.vertices]


def capture_dual_hulls(fn):
    """Call fn() while `geometry.dual_hull`, through which the CLI and
    `transfer` build the hull, also records each hull it returns.  Returns
    fn's result and the vertex lists of those hulls."""
    from fracspec import geometry
    orig = geometry.dual_hull
    hulls = []

    def recording(*args, **kwargs):
        P = orig(*args, **kwargs)
        hulls.append(P)
        return P

    geometry.dual_hull = recording
    try:
        out = fn()
    finally:
        geometry.dual_hull = orig
    return out, [vertex_strings(P) for P in hulls]


def tower_systems(pass_index: int) -> tuple:
    return (f"eiffel({TOWER_SCALES[pass_index % len(TOWER_SCALES)]})", "planar-collapse")


def tower_plan(seed: int, pass_index: int) -> list:
    """(system, command) pairs of one pass: the two sessions in seeded order,
    each with its commands in seeded order."""
    rng = rng_for("tower-exact", seed, pass_index)
    sessions = list(tower_systems(pass_index))
    rng.shuffle(sessions)
    plan = []
    for name in sessions:
        cmds = list(TOWER_COMMANDS["planar-collapse" if name == "planar-collapse" else "tower"])
        rng.shuffle(cmds)
        plan.extend((name, cmd) for cmd in cmds)
    return plan


def tower_requests(seed: int, pass_index: int, refs: dict) -> list:
    import fracspec as fs
    from fracspec import cli, geometry
    out_dir = WORK / "tower"
    out_dir.mkdir(parents=True, exist_ok=True)
    # simplex_Y is the independent exact oracle for every depth-4 dual hull
    oracle = {name: vertex_strings(geometry.simplex_Y(fs.get_system(name)))
              for name in tower_systems(pass_index)}
    reqs = []
    for i, (name, cmd) in enumerate(tower_plan(seed, pass_index)):
        out_path = out_dir / f"{i:02d}-{cmd[0]}-{name}.json"
        argv = cli_argv(cmd[0], name, out_path, *cmd[1:])
        key = f"{cmd[0]}:{name}"

        def run(argv=argv, out_path=out_path):
            if out_path.exists():
                out_path.unlink()
            code, hulls = capture_dual_hulls(lambda: cli.main(argv))
            return {"exit": code, "hulls": hulls}

        def check(out, ref=refs[key], out_path=out_path, name=name):
            errs = check_cli(out, ref, out_path)
            if any(h != oracle[name] for h in out["hulls"]):
                errs.append("dual hull differs from simplex_Y")
            return errs

        reqs.append(Request(cmd[0], key, run, check))
    return reqs


def cli_plan(seed: int, pass_index: int) -> list:
    rng = rng_for("cli-catalog", seed, pass_index)
    plan = [(cmd, s) for s in CLI_SYSTEMS for cmd in CLI_COMMANDS]
    rng.shuffle(plan)
    return plan


def cli_requests(seed: int, pass_index: int, refs: dict, trace_dir=None) -> list:
    """Each request is a fresh interpreter running `cli_child.py`, which is
    `python -m fracspec.cli` with the speed probe on.  Traced requests also
    time the import and record spans."""
    out_dir = WORK / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = bench_env()
    reqs = []
    for i, (cmd, system) in enumerate(cli_plan(seed, pass_index)):
        out_path = out_dir / f"{i:02d}-{cmd}-{system}.json"
        probe_path = out_dir / f"{i:02d}-probe.json"
        spans = [] if trace_dir is None else [
            "--spans", str(trace_dir / f"req{i:02d}.jsonl"), str(i)]
        full = [sys.executable, str(HERE / "cli_child.py"), str(probe_path), *spans,
                "--", *cli_argv(cmd, system, out_path)]

        def run(full=full, out_path=out_path):
            if out_path.exists():
                out_path.unlink()
            proc = subprocess.run(full, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120)
            return {"exit": proc.returncode, "stderr": proc.stderr.decode(errors="replace")}

        def check(out, ref=refs[f"{cmd}:{system}"], out_path=out_path):
            return check_cli(out, ref, out_path)

        reqs.append(Request(cmd, f"{cmd}:{system}", run, check, probe_path))
    return reqs


def build_requests(workload: str, seed: int, pass_index: int, refs: dict, trace_dir=None):
    if workload == "verdict":
        return verdict_requests(seed, pass_index, refs)
    if workload == "tower-exact":
        return tower_requests(seed, pass_index, refs)
    if workload == "cli-catalog":
        return cli_requests(seed, pass_index, refs, trace_dir)
    raise ValueError(f"unknown workload {workload!r}")
