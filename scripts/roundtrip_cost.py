#!/usr/bin/env python3
"""µs per code of the two round-trip jobs.

Draws seeded codes of one cell, splits them into bijective maps (r = g,
no proper member in the image flag) and the others, and times both jobs
on each group in one process: `bijection._sweep_codes`, the job of a
sweep of the whole space (one encode and one decode per code), and
`bijection._roundtrip_codes`, the job of a sample (two of each). Each
figure is the best of --repeats passes over its group.

    python3 scripts/roundtrip_cost.py --field 2^1 --g 4 --codes 20000
"""

import argparse
import random
import sys
import time

from semicount.bijection import _encode, _roundtrip_codes, _sweep_codes
from semicount.gf import _digits, parse_field_spec


def best_us_per_code(job, ctx, g: int, tau: int, codes: list[int], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        job(ctx, g, tau, codes)
        best = min(best, time.perf_counter() - begin)
    return 1e6 * best / len(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--field", default="2^1", help="field spec p^d (default 2^1)")
    parser.add_argument("--g", type=int, default=4, help="dimension, at least 1 (default 4)")
    parser.add_argument("--tau", type=int, default=0, help="Frobenius exponent (default 0)")
    parser.add_argument("--codes", type=int, default=5000, help="codes sampled (default 5000)")
    parser.add_argument("--seed", type=int, default=1, help="sampling seed (default 1)")
    parser.add_argument("--repeats", type=int, default=3, help="passes per group (default 3)")
    args = parser.parse_args(argv)
    if args.g < 1 or args.codes < 1 or args.repeats < 1:
        parser.error("need --g, --codes and --repeats >= 1")
    ctx = parse_field_spec(args.field)
    g, tau = args.g, args.tau % ctx.d
    rng = random.Random(args.seed)
    codes = [rng.randrange(ctx.q ** (g * g)) for _ in range(args.codes)]
    groups: dict[str, list[int]] = {"bijective": [], "other": []}
    for code in codes:
        r = _encode(ctx, g, tau, _digits(code, ctx.q, g * g))[1]
        groups["bijective" if r == g else "other"].append(code)
    groups["all"] = codes
    print(f"field {ctx.spec}  g={g}  tau={tau}  codes={args.codes}  seed={args.seed}")
    print(f"{'sweep':>35}{'sample':>18}")
    for name, group in groups.items():
        costs = "  ".join(f"{best_us_per_code(job, ctx, g, tau, group, args.repeats):8.1f} µs/code"
                          for job in (_sweep_codes, _roundtrip_codes)) if group else ""
        print(f"{name:<10} {len(group):>8} codes  {costs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
