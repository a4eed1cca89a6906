#!/usr/bin/env python3
"""Fixed cost of one semicount command, split by stage, in ms.

    python3 scripts/cli_cost.py count --field 2^1 --g 3

Prints the median of several runs of each stage of `semicount.cli.main`:
the import of `semicount.cli` in a fresh interpreter (which builds the
parser), one `_build_parser()`, `parse_args` of the argv, and the
handler with `_emit` writing to a buffer. Give it a small command.
After the import line it prints how many modules that import adds to a
fresh interpreter's `sys.modules`, and which of them are `semicount.*`.
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
# a difference, not an absolute count: site hooks may preload modules
MODULES_PROBE = ("import sys; before = set(sys.modules); import semicount.cli; "
                 "print(*sorted(set(sys.modules) - before))")


def fresh(probe: str) -> str:
    """stdout of `probe` run in a fresh interpreter that imports this checkout's semicount."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout


def import_ms() -> float:
    return statistics.median(float(fresh(IMPORT_PROBE)) for _ in range(IMPORT_RUNS)) * 1e3


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
    added = fresh(MODULES_PROBE).split()
    ours = [name for name in added if name.partition(".")[0] == "semicount"]
    print(f"modules added         {len(added):4d}         ({', '.join(ours)})")
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
