#!/usr/bin/env python3
"""Where `RowKernel.tally` spends its time, by type of run.

A run is the Q = q^g matrix codes that share rows 1..g-1.  The kernel
treats a run by the rank of those rows:

    g-1   hyperplane  row 0 in W: one Jordan chain; outside W: counted
    g-2   corank 1    row 0 outside W: one Jordan chain; in W: echelon chain
    <g-2  echelon     every map with 0 < r < g takes the echelon chain

A seeded sample of runs is tallied one run per call, and the table gives
each type's share of the runs, its mean µs per run and its share of the
time.  Each call builds the layer of rows 2..g-1 that a whole-cell tally
builds once per Q runs, so the figures overstate that layer's share.

    python3 scripts/kernel_runs.py --field 2^1 --g 5 --runs 4000
"""

import argparse
import random
import sys
import time

from semicount.gf import parse_field_spec
from semicount.semilinear import DEFAULT_BUDGET, RowKernel

BRANCHES = {1: "hyperplane", 2: "corank 1"}


def sample_runs(kernel: RowKernel, runs: int, seed: int) -> dict[int, list[float]]:
    """{rank of rows 1..g-1: seconds per sampled run}."""
    g, Q = kernel.g, kernel.Q
    rng = random.Random(seed)
    times: dict[int, list[float]] = {}
    for _ in range(runs):
        prefix = rng.randrange(Q ** (g - 1))
        rank = len(kernel._echelon([prefix // Q**i % Q for i in range(g - 1)]))
        begin = time.perf_counter()
        kernel.tally(prefix * Q, (prefix + 1) * Q)
        times.setdefault(rank, []).append(time.perf_counter() - begin)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--field", default="2^1", help="field spec p^d (default 2^1)")
    parser.add_argument("--g", type=int, default=4, help="dimension, at least 2 (default 4)")
    parser.add_argument("--tau", type=int, default=0, help="Frobenius exponent (default 0)")
    parser.add_argument("--runs", type=int, default=4000, help="runs sampled (default 4000)")
    parser.add_argument("--seed", type=int, default=1, help="sampling seed (default 1)")
    args = parser.parse_args(argv)
    if args.g < 2 or args.runs < 1:
        parser.error("need --g >= 2 and --runs >= 1")
    ctx = parse_field_spec(args.field)
    if ctx.q ** (args.g + 1) > DEFAULT_BUDGET:  # the size of the kernel's largest table
        parser.error(f"q^(g+1) = {ctx.q}^{args.g + 1} exceeds {DEFAULT_BUDGET}")
    times = sample_runs(RowKernel(ctx, args.g, args.tau), args.runs, args.seed)
    total = sum(sum(ts) for ts in times.values())
    print(f"field {ctx.spec}  g={args.g}  tau={args.tau}  runs={args.runs}  seed={args.seed}")
    print("| rank of rows 1..g-1 | branch | share of runs | µs/run | share of time |")
    print("|---|---|---|---|---|")
    for rank in sorted(times, reverse=True):
        ts = times[rank]
        branch = BRANCHES.get(args.g - rank, "echelon")
        print(f"| {rank} | {branch} | {len(ts) / args.runs:.0%} | "
              f"{1e6 * sum(ts) / len(ts):.1f} | {sum(ts) / total:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
