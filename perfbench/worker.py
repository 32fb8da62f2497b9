"""One fresh process of a benchmark run: set up, run one pass, report.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACE_DIR|-  [--setup-only]

Prints one JSON object on its last stdout line.  `ready` is the monotonic
clock reading when the first request starts, so the parent can compute the
set-up time from its own reading taken just before it started this process.
A `SpeedProbe` samples the host's speed (`probe`, with `windows` giving
each request's start and end on the same clock); the parent corrects each
time with it.  Latencies exclude the probe's own time.  On verdict and
tower-exact the probe runs all through the worker.  On cli-catalog each
request's child process runs its own probe, which follows the speed that
child gets, and the worker collects the samples.  With a trace directory the
pass runs traced and the spans are written there.

The cli-catalog worker imports no fracspec itself: each request is a fresh
process that pays interpreter start and package import.  So its set-up ends
with one such process, `cli_child.py` importing `fracspec.cli`, which makes
its set-up time move with the import as every request's does.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as W  # the script's directory is on the path
from probe import SpeedProbe

def main(argv) -> int:
    workload, seed, pass_index, trace_arg = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    seed, pass_index = int(seed), int(pass_index)
    trace_dir = None if trace_arg == "-" else Path(trace_arg)
    in_process = workload != "cli-catalog"
    probe = SpeedProbe()
    if in_process:
        probe.start()

    import_s = 0.0
    if in_process:
        t0 = time.perf_counter()
        import fracspec  # noqa: F401
        import_s = time.perf_counter() - t0
    refs = W.load_refs(workload)
    requests = W.build_requests(workload, seed, pass_index, refs,
                                trace_dir if not in_process else None)
    if not in_process:
        probe_path = W.WORK / "cli" / "setup-probe.json"
        subprocess.run([sys.executable, str(W.HERE / "cli_child.py"), str(probe_path)],
                       env=W.bench_env(), cwd=W.ROOT, check=True, timeout=120)
        probe.samples.extend(W.read_probe(probe_path))
    tracer = None
    if trace_dir is not None and in_process:
        from tracer import Tracer
        tracer = Tracer().install()
    ready, ready_pc = time.monotonic(), time.perf_counter()
    if setup_only:
        probe.stop()
        print(json.dumps({"ready": ready, "ready_pc": ready_pc, "probe": probe.samples}))
        return 0

    latencies, windows, failures = [], [], []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        t0 = time.perf_counter()
        errs = None
        try:
            out = req.run()
        except Exception:  # a request that raises counts as failed; the pass goes on
            errs = [traceback.format_exc(limit=3)]
        t1 = time.perf_counter()
        if req.probe_path is not None:
            probe.samples.extend(W.read_probe(req.probe_path))
        latencies.append(t1 - t0 - probe.busy(t0, t1))
        windows.append([t0, t1])
        if errs is None:
            try:
                errs = req.check(out)
            except Exception:
                errs = [traceback.format_exc(limit=3)]
        if errs:
            failures.append(f"{req.label}: " + "; ".join(errs[:3]))
    probe.stop()

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result = {"ready": ready, "ready_pc": ready_pc, "latencies": latencies,
              "windows": windows, "probe": probe.samples,
              "attempted": len(requests), "failed": len(failures),
              "failures": failures[:5],
              "maxrss_kb": resource.getrusage(who).ru_maxrss}
    if trace_dir is not None:
        result.update(collect_trace(tracer, trace_dir, import_s))
    print(json.dumps(result))
    return 0


def collect_trace(tracer, trace_dir: Path, import_s: float) -> dict:
    """Per-layer raw counts of this pass: from the in-process tracer, or from
    the span files the traced CLI children wrote."""
    from tracer import merge_raw
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(trace_dir / "worker.jsonl", {"import_s": import_s})
        return {"raw": merge_raw([tracer.raw_counts()]), "import_samples": [import_s]}
    parts, imports = [], []
    for path in sorted(trace_dir.glob("req*.jsonl")):
        with open(path, "rb") as fh:
            last = json.loads(fh.readlines()[-1])
        parts.append(last["raw"])
        imports.append(last["import_s"])
    return {"raw": merge_raw(parts), "import_samples": imports}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
