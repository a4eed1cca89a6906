#!/usr/bin/env python3
"""Fixed cost of one semicount command, split by stage, in ms.

    python3 scripts/cli_cost.py count --field 2^1 --g 3

Prints the median of several runs of each stage of `semicount.cli.main`:
the import of `semicount.cli` in a fresh interpreter (which builds the
parser), one `_build_parser()`, `parse_args` of the argv, and the
handler with `_emit` writing to a buffer. Give it a small command.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from semicount import cli

IMPORT_RUNS = 5
RUNS = 50
IMPORT_PROBE = ("import time; start = time.perf_counter(); import semicount.cli; "
                "print(time.perf_counter() - start)")


def import_ms() -> float:
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(IMPORT_RUNS)]
    return statistics.median(runs) * 1e3


def median_ms(fn) -> float:
    runs = []
    for _ in range(RUNS):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs) * 1e3


def run_handler(args) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        payload, _, renderer = args.handler(args)
        cli._emit(payload, args, renderer)


def main(argv: list[str]) -> int:
    args = cli.PARSER.parse_args(argv)
    print(f"import semicount.cli  {import_ms():8.3f} ms  (fresh interpreter)")
    print(f"_build_parser()       {median_ms(cli._build_parser):8.3f} ms")
    print(f"parse_args            {median_ms(lambda: cli.PARSER.parse_args(argv)):8.3f} ms")
    print(f"handler and _emit     {median_ms(lambda: run_handler(args)):8.3f} ms")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early, as `| head -1` does: point stdout at
        # devnull so the flush at exit cannot fail again, and exit quietly
        with open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        status = 0
    sys.exit(status)
