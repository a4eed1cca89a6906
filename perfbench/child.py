"""One fresh interpreter of the benchmark; `run.py` starts it with
PYTHONPATH pointing at the checkout's `src`.

    child.py setup SPEC...             import the CLI, parse the field specs
    child.py pass WORKLOAD SEED [--tiny]
    child.py trace WORKLOAD SEED SECONDS [--tiny]

`pass` runs every command of the workload through `semicount.cli.main` and
`trace` runs the traced replay (see replay.py); both print one JSON report
on stdout. Imports stay inside the modes so that `setup` pays for nothing
but the package.
"""

import sys


def setup(specs: list[str]) -> None:
    import semicount.cli
    from semicount.gf import parse_field_spec

    for spec in specs:
        parse_field_spec(spec)


def run_pass(workload: str, seed: int, tiny: bool) -> dict:
    import contextlib
    import io
    import resource
    import time

    import workloads
    from semicount import cli

    results = []
    for cmd in workloads.build(workload, seed, tiny):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(cmd.argv())
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        secs = time.perf_counter() - start
        results.append({"code": code, "out": buf.getvalue(), "secs": secs})
    return {
        "results": results,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
    }


def run_trace(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    import time

    start = time.perf_counter_ns()
    import semicount.cli
    import_ns = time.perf_counter_ns() - start

    import replay

    return replay.run(workload, seed, seconds, tiny, import_ns, semicount.cli.__file__)


def main(argv: list[str]) -> None:
    import json

    mode, args = argv[0], argv[1:]
    tiny = "--tiny" in args
    args = [a for a in args if a != "--tiny"]
    if mode == "setup":
        setup(args)
        return
    if mode == "pass":
        report = run_pass(args[0], int(args[1]), tiny)
    elif mode == "trace":
        report = run_trace(args[0], int(args[1]), float(args[2]), tiny)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
