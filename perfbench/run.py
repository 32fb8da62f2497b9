"""fracspec benchmark.

    python3 perfbench/run.py --workload verdict|tower-exact|cli-catalog \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is taken
from the checkout's `src/`.  Each pass of the workload's fixed request list
runs in a fresh worker process, one after the other, so set-up time and peak
memory belong to that workload alone.  A run makes as many passes as fit
in S seconds at the nominal pass time (at least one, and no more than fit
in PLAN_S), and then sets up more fresh processes until there are
MIN_SETUPS set-up samples.

Times are reported at a reference host speed.  The host's speed changes by
up to a half within seconds on a shared machine, so a `SpeedProbe` samples
it: in the worker on verdict and tower-exact, in each CLI child on
cli-catalog.  Each time is scaled by (PROBE_REF_S / median of the samples
taken while it ran) ** PROBE_EXPONENT.  The uncorrected figures are printed
too.

With --trace 0 the last stdout line is the JSON result with the end-to-end
metrics; with --trace 1 the workload runs one untraced and one traced pass
of the same inputs and reports the per-layer metrics plus the tracing
overhead (traced minus untraced pass time).  Human-readable lines, each
metric with its unit and sample count, come first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads as W  # the script's directory is on the path
from tracer import LAYER_METRICS, layer_metrics, merge_raw

# The probe kernel's median seconds on the 2-vCPU machine where the
# benchmark was defined: the unit of the corrected times.
PROBE_REF_S = 0.00137
# The kernel's time swings more than the program's when the host changes
# speed.  On 8 tower-exact and 8 verdict passes measured while the host's
# speed swung, scaling by the speed ratio to the power 0.65 gave the least
# spread across passes: 6 % (tower-exact) and 5 % (verdict) in pass time,
# where the uncorrected times spread by 26 % and 7 %, and the full ratio
# (power 1) by 19 % and 11 %.  On three passes of the cli-catalog commands it
# cut each command's spread across passes from 8.8 % to 5.0 % (power 1: 9.1 %).
PROBE_EXPONENT = 0.65
# Fewest probe samples behind one correction factor.
PROBE_WINDOW = 5

MIN_SETUPS = 9
# Seconds one pass takes, set-up included, at the commit that defined the
# benchmark.  A run makes floor(--seconds / this) passes (at least one), so a
# faster program measures the same request population in less time.
NOMINAL_PASS_S = {"verdict": 4.0, "tower-exact": 23.0, "cli-catalog": 45.0}
# A run ends within DEADLINE_S whatever --seconds is.  The passes it plans
# take at most PLAN_S at the nominal pass times, which leaves room for the
# set-ups and for a host that runs slower than when the times were taken.
DEADLINE_S = 170.0
PLAN_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "request_p50_s": "s",
    "request_p90_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def run_worker(workload, seed, pass_index, trace_dir, deadline, setup_only=False):
    """Start one worker, wait for it, and return (its result, set-up time)."""
    cmd = [sys.executable, str(W.HERE / "worker.py"), workload, str(seed),
           str(pass_index), str(trace_dir) if trace_dir else "-"]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline reached")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=W.ROOT, env=W.bench_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker for pass {pass_index} exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.decode(errors='replace')[-2000:]}")
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc
    return result, result["ready"] - spawned


def speed_factor(durations) -> float:
    """Scale from times measured beside these probe samples to the reference
    host speed; 1 without samples."""
    if not durations:
        return 1.0
    return (PROBE_REF_S / statistics.median(durations)) ** PROBE_EXPONENT


def nearest(samples, t0: float, t1: float) -> list:
    """Durations of the probe samples taken between t0 and t1, or, if there
    are fewer than PROBE_WINDOW, of the PROBE_WINDOW taken nearest to them."""
    inside = [d for end, d in samples if t0 <= end <= t1]
    if len(inside) >= PROBE_WINDOW:
        return inside
    mid = (t0 + t1) / 2
    return [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:PROBE_WINDOW]]


def corrected(res: dict, setup: float) -> dict:
    """A worker's times at the reference host speed, each request by the
    host's speed while it ran, and its set-up (without the probe's own time)
    by the speed during set-up."""
    samples = res["probe"]
    lat = [x * speed_factor(nearest(samples, t0, t1))
           for x, (t0, t1) in zip(res.get("latencies", []), res.get("windows", []))]
    before = [d for end, d in samples if end <= res["ready_pc"]]
    raw_setup = setup - sum(before)
    setup_factor = speed_factor(nearest(samples, res["ready_pc"] - raw_setup, res["ready_pc"]))
    return {**res, "latencies": lat, "run_s": sum(lat),
            "raw_run_s": sum(res.get("latencies", [])),
            "setup_s": raw_setup * setup_factor, "raw_setup_s": raw_setup,
            "factor": speed_factor([d for _, d in samples])}


def planned_passes(workload: str, seconds: float) -> int:
    nominal = NOMINAL_PASS_S[workload]
    return max(1, min(int(seconds // nominal), int(PLAN_S // nominal)))


def measure(workload, seed, seconds, deadline):
    """Untraced passes, then extra set-ups up to MIN_SETUPS.  Returns the
    corrected passes and (corrected, raw) set-up times."""
    passes, setups = [], []
    for pass_index in range(planned_passes(workload, seconds)):
        passes.append(corrected(*run_worker(workload, seed, pass_index, None, deadline)))
        setups.append((passes[-1]["setup_s"], passes[-1]["raw_setup_s"]))
    while len(setups) < MIN_SETUPS:
        res = corrected(*run_worker(workload, seed, 0, None, deadline, setup_only=True))
        setups.append((res["setup_s"], res["raw_setup_s"]))
    return passes, setups


def quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile, 0 <= q <= 1."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(passes, setups) -> tuple:
    lat = [x for p in passes for x in p["latencies"]]
    values = {
        "setup_s": statistics.median(c for c, _ in setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "request_p50_s": quantile(lat, 0.5),
        "request_p90_s": quantile(lat, 0.9),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024.0,
    }
    samples = {"setup_s": len(setups), "run_s": len(passes), "request_p50_s": len(lat),
               "request_p90_s": len(lat), "peak_rss_mb": len(passes)}
    return values, samples


def traced(workload, seed, deadline):
    """One untraced and one traced pass of pass 0's inputs."""
    plain = corrected(*run_worker(workload, seed, 0, None, deadline))
    trace_dir = W.WORK / "trace" / f"{workload}-seed{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.jsonl"):
        old.unlink()
    res = corrected(*run_worker(workload, seed, 0, trace_dir, deadline))
    overhead = res["run_s"] - plain["run_s"]
    import_s = statistics.median(res["import_samples"]) if res["import_samples"] else 0.0
    values = layer_metrics(merge_raw([res["raw"]]), import_s, overhead)
    return [plain, res], values, trace_dir


def environment(seed) -> str:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"
    env = W.bench_env()
    return (f"# env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={version('numpy')} "
            f"scipy={version('scipy')} OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
            f"seed={seed} machine={platform.machine()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fracspec benchmark")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (W.SRC / "fracspec" / "__init__.py").is_file():
        print(f"error: no fracspec package under {W.SRC}", file=sys.stderr)
        return 2
    if not (W.REFS / f"{args.workload}.json").is_file():
        print(f"error: missing reference file for {args.workload}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    print(f"# fracspec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(environment(args.seed))
    try:
        if args.trace:
            passes, values, trace_dir = traced(args.workload, args.seed, deadline)
            units = {k: u for k, (u, _) in LAYER_METRICS.items()}
            print(f"# traced pass of pass 0; spans in {trace_dir.relative_to(W.ROOT)}")
            samples = {}
        else:
            passes, setups = measure(args.workload, args.seed, args.seconds, deadline)
            values, samples = end_to_end(passes, setups)
            units = END_TO_END
            print(f"# uncorrected: setup_s={statistics.median(r for _, r in setups):.6g} "
                  f"run_s={statistics.median(p['raw_run_s'] for p in passes):.6g}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for f in p["failures"]:
            print(f"FAILED {f}", file=sys.stderr)
    print(f"# passes={len(passes)} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.4g} run_s="
          + ",".join(f"{p['run_s']:.3f}" for p in passes)
          + " host_slowdown=" + ",".join(f"{1 / p['factor']:.3f}" for p in passes))
    for name, v in values.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:<42} {v:>14.6g} {units[name]}{n}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
