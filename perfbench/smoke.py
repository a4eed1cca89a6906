"""Smoke check of the benchmark itself, at a tiny size. From the checkout root:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it asserts that a tiny run emits
exactly the declared metrics, end to end and per layer, with all outputs
correct; that a run told to expect a wrong result (--corrupt) counts that
miss as failed; and that the benchmark refuses to run, printing no
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", "--tiny"]


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(["--workload", workload, "--trace", str(trace)])
            assert code == 0, (workload, trace, code)
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                (workload, trace, json.loads(lines[-2])["problems"])
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(want) ^ set(got))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

        code, lines = run(["--workload", workload, "--trace", "0", "--corrupt"])
        result = json.loads(lines[-1])
        assert code == 0 and not result["correct"] and result["failed"] >= 1, result
        assert json.loads(lines[-2])["fail_ratio"] == result["failed"] / result["attempted"]
        print(f"{workload}: metrics complete, corrupted expectation counted as failed")

    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run(["--workload", declared["workloads"][0]["name"], "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert code != 0 and not lines, (code, lines)
    print("without the package: exit", code, "and no result")


if __name__ == "__main__":
    main()
