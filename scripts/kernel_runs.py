#!/usr/bin/env python3
"""Where `RowKernel.tally` spends its time, by type of run.

A run is the Q = q^g matrix codes that share rows 1..g-1.  The kernel
treats a run by the rank of those rows:

    g-1   hyperplane  row 0 in W: one Jordan chain each for the few whose
                      k_1 is in W, the rest counted at m = 1; outside W:
                      counted
    g-2   corank 1    row 0 outside W: the chain's steps inside W once per
                      run, then one chain each for the row 0s x·k + w of
                      F*·k + W, whose first step past k needs no search,
                      the rest counted; row 0 in W: its own chain beside
                      the stored shared one while both stay in W, then
                      one chain of combinations
    <g-2  echelon     every map with 0 < r < g takes the echelon chain

A seeded sample of runs is tallied one run per call, and the table gives
each type's share of the runs, its mean µs per run and its share of the
time.  Each sampled call is one whole run, [prefix·Q, (prefix+1)·Q), and
the kernel takes whole runs only, so every run of every call takes the
path timed here.  Each call also pays a fixed cost: its set-up, its
result and the layer of rows 2..g-1 that a whole-cell tally builds once
per Q runs.  Beside each sampled run the script times the empty call
tally(prefix·Q, prefix·Q), prints the median of those as the fixed cost
per call, and takes it off every µs/run and share of time.
echelons/run is the mean number of `RowKernel._echelon` calls per run,
counted in a second, untimed tally: none in a hyperplane or corank-1
run, and in a run of lower rank one for its basis of rows 1..g-1 and one
per step of the echelon chain, which every map it serves takes at least
once.  What is left of that chain (ROADMAP item 2) reads off the last
two columns:

    python3 scripts/kernel_runs.py --field 2^1 --g 5 --runs 4000

On a 2-core VM with Python 3.11 that gave a fixed cost of 12.4 µs per
call and, net of it, corank-1 runs 50% of the time at 23 µs, hyperplane
runs 32% at 9 µs, both at 0 echelons per run, and runs of rank 2 18% at
58 echelons per run; `--field 3^1 --g 4` gave 13.1 µs per call,
hyperplane runs 57% at 13 µs and corank-1 runs 40% at 49 µs, and rank 1
runs 3% at 115 echelons per run.  Three runs of each read shares within
5 points of these and µs up to 70% higher on a busy machine.
"""

import argparse
import random
import statistics
import sys
import time

from semicount.gf import parse_field_spec
from semicount.counting import DEFAULT_BUDGET, RowKernel

BRANCHES = {1: "hyperplane", 2: "corank 1"}


def sample_runs(kernel: RowKernel, runs: int, seed: int
                ) -> tuple[dict[int, list[tuple[float, int]]], list[float]]:
    """{rank of rows 1..g-1: (seconds, chain echelons) per sampled run}, and
    the seconds of the empty call at each sampled run's first code."""
    g, Q = kernel.g, kernel.Q
    rng = random.Random(seed)
    echelon, calls = kernel._echelon, []

    def counted(vectors):
        calls.append(None)
        return echelon(vectors)

    out: dict[int, list[tuple[float, int]]] = {}
    empty = []
    for _ in range(runs):
        prefix = rng.randrange(Q ** (g - 1))
        rank = len(echelon([prefix // Q**i % Q for i in range(g - 1)]))
        begin = time.perf_counter()
        kernel.tally(prefix * Q, prefix * Q)
        middle = time.perf_counter()
        kernel.tally(prefix * Q, (prefix + 1) * Q)
        seconds = time.perf_counter() - middle
        empty.append(middle - begin)
        kernel._echelon = counted  # a second, untimed tally counts the echelons
        calls.clear()
        kernel.tally(prefix * Q, (prefix + 1) * Q)
        del kernel._echelon
        out.setdefault(rank, []).append((seconds, len(calls)))
    return out, empty


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
    times, empty = sample_runs(RowKernel(ctx, args.g, args.tau), args.runs, args.seed)
    fixed = statistics.median(empty)
    net = {rank: [(seconds - fixed, n) for seconds, n in rows] for rank, rows in times.items()}
    total = sum(seconds for rows in net.values() for seconds, _ in rows)
    print(f"field {ctx.spec}  g={args.g}  tau={args.tau}  runs={args.runs}  seed={args.seed}")
    print(f"fixed cost per call: {1e6 * fixed:.1f} µs (median empty call), "
          "taken off every figure below")
    print("| rank of rows 1..g-1 | branch | share of runs | µs/run | share of time "
          "| echelons/run |")
    print("|---|---|---|---|---|---|")
    for rank in sorted(net, reverse=True):
        seconds = [t for t, _ in net[rank]]
        chain = sum(n for _, n in net[rank]) / len(seconds)
        branch = BRANCHES.get(args.g - rank, "echelon")
        print(f"| {rank} | {branch} | {len(seconds) / args.runs:.0%} | "
              f"{1e6 * sum(seconds) / len(seconds):.1f} | {sum(seconds) / total:.0%} | "
              f"{chain:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
