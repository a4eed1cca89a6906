"""The semicount benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py and declared, with every metric, in
BENCHMARK.json. Each pass of a workload runs all its commands through
`semicount.cli.main` in a fresh interpreter (child.py), so no state
survives between passes and set-up is paid as a user pays it.

--trace 0 measures end to end: `setup_s` is the median of SETUP_RUNS fresh
interpreters that import the CLI and parse the workload's field specs;
then whole passes run until the next one would end after --seconds (at
least MIN_PASSES). `wall_s` is the mean pass wall time over the run,
`units_per_s` the work done by one-worker commands (maps, codes or
cells) over their busy time in the run, `peak_rss_mib` the median over
passes of the pass process's peak RSS.
--trace 1 runs the traced replay of replay.py instead and reports the
per-layer metrics; its spans go to .perfbench_out/.

Every command's output is checked (workloads.check), and commands that
must agree byte for byte are compared. The last stdout line is the result
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the environment, exact counts, and per-metric sample counts, medians and
quartiles. --tiny and --corrupt exist for smoke.py.
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
from pathlib import Path

import workloads
from workloads import Ledger

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 5
MIN_PASSES = 2  # enum-grid's pass alone takes ~20 s; two average more machine drift
TIME_BUDGET_S = 170  # every child must finish within this much of the start
OUT_DIR = ".perfbench_out"

# per-layer metric -> (span name, divisor from ns per operation to the unit)
SPAN_METRICS = {
    "gf.make_field_ms": ("gf.make_field", 1e6),
    "gf.mul_ns": ("gf.mul", 1),
    "gf.add_ns": ("gf.add", 1),
    "gf.inv_ns": ("gf.inv", 1),
    "gf.frobenius_table_us": ("gf.frobenius_table", 1e3),
    "linalg.rank_us": ("linalg.rank", 1e3),
    "linalg.mat_mul_us": ("linalg.mat_mul", 1e3),
    "linalg.map_entries_us": ("linalg.map_entries", 1e3),
    "linalg.mat_inverse_us": ("linalg.mat_inverse", 1e3),
    "linalg.in_span_us": ("linalg.in_span", 1e3),
    "linalg.span_dim_us": ("linalg.span_dim", 1e3),
    "linalg.rref_us": ("linalg.rref", 1e3),
    "linalg.matrix_from_rows_us": ("linalg.matrix_from_rows", 1e3),
    "semilinear.matrix_from_code_us": ("semilinear.matrix_from_code", 1e3),
    "semilinear.profile_us": ("semilinear.profile", 1e3),
    "flags.image_flag_us": ("flags.image_flag", 1e3),
    "flags.adapt_to_flag_us": ("flags.adapt_to_flag", 1e3),
    "bijection.map_to_tuple_us": ("bijection.map_to_tuple", 1e3),
    "bijection.tuple_to_map_us": ("bijection.tuple_to_map", 1e3),
    "bijection.induced_flag_us": ("bijection.induced_flag", 1e3),
    "bijection.tuple_from_code_us": ("bijection.tuple_from_code", 1e3),
    "counting.closed_form_count_us": ("counting.closed_form_count", 1e3),
    "counting.staged_count_us": ("counting.staged_count", 1e3),
    "counting.formula_table_ms": ("counting.formula_table", 1e6),
    "counting.bruteforce_us_per_map": ("counting.bruteforce_table", 1e3),
    "cli.import_ms": ("cli.import", 1e6),
}


class Children:
    """Starts child.py interpreters on the checkout's sources and reaps them."""

    def __init__(self, root: Path, tiny: bool):
        self.root = root
        self.tiny = ["--tiny"] if tiny else []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + TIME_BUDGET_S

    def run(self, *args: str) -> tuple[float, str]:
        """(wall seconds, stdout) of one child; raises if it fails."""
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), *args, *self.tiny]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
            proc.communicate()
            raise RuntimeError(f"child {args} ran out of time")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"child {args} exited {proc.returncode}: {err.strip()[-2000:]}")
        return wall, out

    def report(self, *args: str) -> tuple[float, dict]:
        wall, out = self.run(*args)
        report = json.loads(out)
        module = Path(report["module"]).resolve()
        if not module.is_relative_to(self.root / "src"):
            raise RuntimeError(f"semicount was imported from {module}, not this checkout")
        return wall, report


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "values": values}


# ---------------------------------------------------------------------------
# end to end


def run_end_to_end(kids: Children, name: str, seed: int, seconds: float,
                   corrupt: bool, units: dict) -> tuple[dict, dict, Ledger]:
    cmds = workloads.build(name, seed, bool(kids.tiny))
    specs = workloads.field_specs(cmds)
    setup = [kids.run("setup", *specs)[0] for _ in range(SETUP_RUNS)]

    ledger = Ledger()
    samples: dict[str, list[float]] = {"wall_s": [], "peak_rss_mib": [], "units_per_s": [],
                                       "units_per_s_2w": []}
    done = {1: [0, 0.0], 2: [0, 0.0]}  # worker count -> [units, busy seconds] over the run
    start = time.perf_counter()
    while True:
        wall, rep = kids.report("pass", name, str(seed))
        results = rep["results"]
        for i, (cmd, res) in enumerate(zip(cmds, results, strict=True)):
            problem = workloads.check(cmd, res["code"], res["out"], corrupt and i == 0)
            ledger.record(problem and f"{cmd.argv()}: {problem}")
        first: dict[tuple, tuple] = {}
        for cmd, res in zip(cmds, results):
            if cmd.output_key in first:
                other, out = first[cmd.output_key]
                ledger.record(None if res["out"] == out else
                              f"{cmd.argv()} and {other.argv()} printed different output")
            else:
                first[cmd.output_key] = (cmd, res["out"])
        samples["wall_s"].append(wall)
        samples["peak_rss_mib"].append(rep["peak_rss_kib"] / 1024)
        for threads, key in ((1, "units_per_s"), (2, "units_per_s_2w")):
            units_done = sum(c.units for c in cmds if c.threads == threads)
            busy = sum(r["secs"] for c, r in zip(cmds, results) if c.threads == threads)
            if units_done:
                samples[key].append(units_done / busy)
                done[threads][0] += units_done
                done[threads][1] += busy
        next_end = time.perf_counter() - start + wall
        if len(samples["wall_s"]) >= MIN_PASSES and next_end > seconds:
            break
    samples["setup_s"] = setup

    counts = {"passes": len(samples["wall_s"])}
    unit_name = workloads.UNIT_NAMES[cmds[0].kind]
    for threads, (units_done, _) in done.items():
        if units_done:
            counts[f"{unit_name}_{threads}w"] = units_done
    counts["gf.table_entries (computed)"] = workloads.table_entries(specs)
    if not ledger.problems:
        num, den = workloads.terminal_share(cmds, [r["out"] for r in results])
        counts["semilinear.terminal_share"] = {"terminal": str(num), "of": str(den),
                                               "share": num / den}
    stats = {k: summary(v, units.get(k, "1/s")) for k, v in samples.items() if v}
    # On a shared host, machine speed can swing in steps lasting several passes;
    # a median of passes jumps between the steps, totals over the run average them.
    metrics = {
        "wall_s": sum(samples["wall_s"]) / len(samples["wall_s"]),
        "setup_s": stats["setup_s"]["median"],
        "units_per_s": done[1][0] / done[1][1],
        "peak_rss_mib": stats["peak_rss_mib"]["median"],
    }
    stats["wall_s"]["run"] = metrics["wall_s"]
    for threads, key in ((1, "units_per_s"), (2, "units_per_s_2w")):
        if done[threads][0]:
            stats[key]["run"] = done[threads][0] / done[threads][1]
    return metrics, {"counts": counts, "stats": stats}, ledger


# ---------------------------------------------------------------------------
# traced replay


def layer_metrics(rep: dict) -> dict:
    per_name: dict[str, list[int]] = {}
    for name, start, end, _, n, _ in rep["spans"]:
        acc = per_name.setdefault(name, [0, 0, 0])
        acc[0] += end - start
        acc[1] += n
        acc[2] += 1
    out = {m: per_name[s][0] / per_name[s][1] / scale
           for m, (s, scale) in SPAN_METRICS.items() if s in per_name}
    one, two = per_name["counting.bruteforce_table"], per_name["counting.bruteforce_table_2w"]
    out["counting.pool_efficiency"] = one[0] / (2 * two[0])
    main, lib = per_name["cli.main"], per_name["cli.library"]
    out["cli.overhead_ms"] = (main[0] - lib[0]) / main[2] / 1e6
    out["gf.table_entries"] = rep["table_entries"]
    out["semilinear.terminal_share"] = rep["terminal_maps"] / rep["profiled_maps"]
    out["trace.overhead_ms"] = (rep["traced_round_s"] - rep["untraced_round_s"]) * 1e3
    out["trace.spans"] = len(rep["spans"])
    return out


def run_traced(kids: Children, name: str, seed: int, seconds: float) -> tuple[dict, dict, Ledger]:
    wall, rep = kids.report("trace", name, str(seed), str(seconds))
    ledger = Ledger()
    ledger.attempted = rep["attempted"]
    ledger.problems = rep["problems"]
    out_dir = kids.root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"trace-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent",
                                                 "n", "trace_id"], "spans": rep["spans"]}))
    detail = {
        "wall_s": wall,
        "rounds": rep["rounds"],
        "untraced_round_s": rep["untraced_round_s"],
        "traced_round_s": rep["traced_round_s"],
        "counts": {"spans": len(rep["spans"]), "cli_commands_probed": rep["cli_commands"],
                   "maps_profiled": rep["profiled_maps"],
                   "maps_terminal": rep["terminal_maps"],
                   "gf.table_entries (computed)": rep["table_entries"]},
        "spans_file": str(spans_file.relative_to(kids.root)),
    }
    return layer_metrics(rep), detail, ledger


# ---------------------------------------------------------------------------


def environment(root: Path) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (smoke check)")
    parser.add_argument("--corrupt", action="store_true",
                        help="expect a wrong result from the first command (smoke check)")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "semicount" / "__init__.py").is_file():
        print("error: run from the root of a semicount checkout (no src/semicount here)",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    kids = Children(root, args.tiny)
    if args.trace:
        metrics, detail, ledger = run_traced(kids, args.workload, args.seed, args.seconds)
    else:
        metrics, detail, ledger = run_end_to_end(kids, args.workload, args.seed, args.seconds,
                                                 args.corrupt, units)
    missing = sorted(set(units) - set(metrics))
    for name in missing:
        ledger.record(f"metric {name} was not measured")
    failed = len(ledger.problems)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(root), **detail,
              "fail_ratio": failed / ledger.attempted, "problems": ledger.problems[:20]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
