"""One cli-catalog request: `python -m fracspec.cli` with the speed probe on.

    python3 perfbench/cli_child.py PROBE_PATH [--spans SPANS_PATH REQUEST_ID] [-- CLI_ARGS...]

Starts a `SpeedProbe` first, then runs `fracspec.cli` as `__main__`, as
`python -m fracspec.cli CLI_ARGS...` does, and exits with the command's exit
code.  Without CLI_ARGS it only imports `fracspec.cli` (the set-up's import
process).  With `--spans` the command runs traced instead: the import of
`fracspec.cli` is timed, `cli.main` is called under the tracer, and the spans
(the outermost is `cli.main`) are written to SPANS_PATH.  The probe samples
are written to PROBE_PATH as JSON on every way out.
"""

from __future__ import annotations

import sys

from probe import SpeedProbe  # the script's directory is on the path

def run(opts, cli_args, probe) -> int:
    if not opts:
        if not cli_args:
            import fracspec.cli  # noqa: F401
            return 0
        import runpy
        sys.argv = ["fracspec.cli"] + cli_args
        runpy.run_module("fracspec.cli", run_name="__main__", alter_sys=True)
        return 0

    import time
    t0 = time.perf_counter()
    import fracspec.cli as cli
    t1 = time.perf_counter()
    import_s = t1 - t0 - probe.busy(t0, t1)
    from tracer import Tracer
    tracer = Tracer().install()
    tracer.request_id = int(opts[2])
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write_spans(opts[1], {"raw": tracer.raw_counts(), "import_s": import_s})


def main(argv) -> int:
    rest = argv[1:]
    split = rest.index("--") if "--" in rest else len(rest)
    probe = SpeedProbe()
    probe.start()
    try:
        return run(rest[:split], rest[split + 1:], probe)
    finally:
        probe.stop()
        import json  # here, so that the import-only process imports no more than fracspec.cli
        with open(argv[0], "w") as fh:
            json.dump(probe.samples, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
