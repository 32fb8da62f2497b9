"""Write the reference outputs in `refs/` from the current program.

    python3 perfbench/record.py [--only verdict|tower-exact|cli-catalog]

Run it only on a commit whose outputs are trusted: the benchmark counts
every later difference from these files as a failed request.  It also draws
the verdict workload's pool of probe sets (from a fixed master seed; the
benchmark's own seed chooses among them) and checks the exact oracles the
workloads rely on: simplex_Y equals the depth-4 dual hull of the tower
systems, of planar-collapse and of every two-digit system with positive R.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

POOL_SEED = 20260917
PROBES_PER_SET = 3
B_CHOICES = ("1/2", "1/4", "3/2")
# Depth caps of the multi-dimensional verdict systems; the two-digit systems
# use the library's default cap.
VERDICT_CAPS = {"planar-collapse": 8, "eiffel(2)": 5, "eiffel(3)": 5}


def _write(name: str, doc: dict):
    W.REFS.mkdir(exist_ok=True)
    with open(W.REFS / f"{name}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _probe_region(sys_obj):
    """Vertices of the probe region: simplex_Y where it exists (positive
    scale), else the depth-4 dual hull."""
    from fracspec import geometry
    try:
        Y = geometry.simplex_Y(sys_obj)
    except ValueError:
        return geometry.dual_hull(sys_obj, 4)
    if sys_obj.dim == 1 or sys_obj.name == "planar-collapse":
        if geometry.dual_hull(sys_obj, 4).vertices != Y.vertices:
            raise SystemExit(f"simplex_Y != dual_hull(4) for {sys_obj!r}")
    return Y


def _draw_probes(rng: random.Random, P) -> list:
    verts = [[float(c) for c in v] for v in P.vertices]
    probes = []
    for _ in range(PROBES_PER_SET):
        w = [rng.expovariate(1.0) for _ in verts]
        s = sum(w)
        p = [sum(wi * v[d] for wi, v in zip(w, verts)) / s for d in range(len(verts[0]))]
        probes.append(p[0] if len(p) == 1 else p)
    return probes


def record_verdict():
    import numpy as np
    from fracspec import spectrum
    rng = random.Random(POOL_SEED)
    pool = {}
    for cls in W.VERDICT_CLASSES:
        insts = []
        for k in range(W.VERDICT_CYCLE):
            if cls.startswith("R="):
                spec = {"kind": "two-digit", "R": int(cls[2:]), "b": rng.choice(B_CHOICES)}
                cap = spectrum.Q1_DEPTH_CAP
            else:
                spec = {"kind": "catalog", "name": cls}
                cap = VERDICT_CAPS[cls]
            sys_obj = W.verdict_system(spec)
            probes = _draw_probes(rng, _probe_region(sys_obj))
            rep = spectrum.completeness_test(sys_obj, np.array(probes), p_depth_cap=cap)
            insts.append({"id": f"{cls}#{k}", "system": spec, "probes": probes, "cap": cap,
                          **W.verdict_output(rep)})
            print(f"verdict {cls}#{k}: {rep.verdict}", flush=True)
        pool[cls] = insts
    _write("verdict", {"q1_atol": W.Q1_ATOL, "pool": pool})


def record_tower():
    import fracspec as fs
    from fracspec import cli, geometry
    out = W.WORK / "record-tower.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    refs = {}
    for name in [f"eiffel({r})" for r in W.TOWER_SCALES] + ["planar-collapse"]:
        s = fs.get_system(name)
        if geometry.dual_hull(s, 4).vertices != geometry.simplex_Y(s).vertices:
            raise SystemExit(f"simplex_Y != dual_hull(4) for {name}")
        for cmd in W.TOWER_COMMANDS["planar-collapse" if name == "planar-collapse" else "tower"]:
            code = cli.main(W.cli_argv(cmd[0], name, out, *cmd[1:]))
            with open(out) as fh:
                refs[f"{cmd[0]}:{name}"] = {"exit": code, "output": json.load(fh)}
            out.unlink()
            print(f"tower {cmd[0]} {name}: exit {code}", flush=True)
    _write("tower-exact", refs)


def record_cli():
    out = W.WORK / "record-cli.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    refs = {}
    for system in W.CLI_SYSTEMS:
        for cmd in W.CLI_COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "fracspec.cli"]
                                  + W.cli_argv(cmd, system, out),
                                  env=W.bench_env(), cwd=W.ROOT, capture_output=True)
            with open(out) as fh:
                refs[f"{cmd}:{system}"] = {"exit": proc.returncode, "output": json.load(fh)}
            out.unlink()
            print(f"cli {cmd} {system}: exit {proc.returncode}", flush=True)
    _write("cli-catalog", refs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", choices=W.WORKLOADS)
    args = ap.parse_args()
    steps = {"verdict": record_verdict, "tower-exact": record_tower, "cli-catalog": record_cli}
    for name, step in steps.items():
        if args.only in (None, name):
            step()


if __name__ == "__main__":
    main()
