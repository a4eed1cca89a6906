"""The benchmark's workloads: CLI invocations and the checks on their output.

A workload is a list of `Command`s, each one argv for `semicount.cli.main`.
The benchmark seed only shuffles the order of the commands (and is the
`--seed` of the sampled round trips), so every seed does the same amount of
work and the same seed always gives the same inputs.

Checks use only the JSON the CLI prints plus integer identities computed
here, independently of the package: the whole census sums to q^(g^2), the
(g, g) cell is |GL_g(q)|, and the s = 0 column sums to q^(g^2 - g).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# The CLI's spot-check sample size for a space too large to sweep.
SAMPLED_CODES = 1000


@dataclass(frozen=True)
class Cell:
    spec: str  # field spec "p^d"
    g: int
    tau: int = 0

    @property
    def q(self) -> int:
        p, _, d = self.spec.partition("^")
        return int(p) ** int(d)

    @property
    def d(self) -> int:
        return int(self.spec.partition("^")[2])

    @property
    def maps(self) -> int:
        return self.q ** (self.g * self.g)


@dataclass(frozen=True)
class Command:
    kind: str  # "verify", "roundtrip" or "count"
    cell: Cell
    threads: int = 1
    sampled: bool = False  # roundtrip over a seeded sample instead of the whole space
    seed: int = 0  # roundtrip sample seed
    budget: int | None = None  # explicit --budget; only the tiny workload needs one

    def argv(self) -> list[str]:
        c = self.cell
        argv = [self.kind, "--field", c.spec, "--g", str(c.g)]
        if self.kind == "count":
            return argv
        argv += ["--tau", str(c.tau), "--threads", str(self.threads)]
        if self.kind == "roundtrip":
            argv += ["--seed", str(self.seed)]
        if self.budget is not None:
            argv += ["--budget", str(self.budget)]
        return argv

    @property
    def output_key(self) -> tuple:
        """Commands with equal keys must print byte-identical output:
        the thread count never changes a report, and a sampled round trip
        repeats exactly for the same seed."""
        return (self.kind, self.cell, self.sampled, self.seed, self.budget)

    @property
    def units(self) -> int:
        """Maps enumerated, codes round-tripped, or (r, s) cells counted."""
        if self.kind == "count":
            return (self.cell.g + 1) * (self.cell.g + 2) // 2
        if self.sampled:
            return SAMPLED_CODES
        return self.cell.maps


# ---------------------------------------------------------------------------
# workloads

UNIT_NAMES = {"verify": "maps_enumerated", "roundtrip": "codes_roundtripped",
              "count": "formula_cells"}

FORMULA_SPECS = ["2^1", "3^1", "2^2", "5^1", "7^1", "2^3", "3^2", "11^1", "13^1"]


def _shuffled(items: list, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def enum_grid(seed: int, tiny: bool) -> list[Command]:
    if tiny:
        cells = [Cell("2^1", 2), Cell("2^2", 2, 1)]
    else:
        cells = [Cell("2^1", 4), Cell("3^1", 3), Cell("2^2", 3, 1), Cell("3^2", 2, 1)]
    cells = _shuffled(cells, seed)
    return [Command("verify", c, threads=t) for t in (1, 2) for c in cells]


def roundtrip_mixed(seed: int, tiny: bool) -> list[Command]:
    if tiny:
        cmds = [Command("roundtrip", Cell("2^1", 2)),
                Command("roundtrip", Cell("2^2", 2, 1), sampled=True, seed=seed, budget=100)]
    else:
        cmds = [Command("roundtrip", Cell("2^1", 3)),
                Command("roundtrip", Cell("3^2", 2, 1)),
                Command("roundtrip", Cell("2^6", 3), sampled=True, seed=seed),
                Command("roundtrip", Cell("2^4", 3, 1), sampled=True, seed=seed)]
    # each sampled run twice, so the same seed must reproduce it byte for byte
    return _shuffled(cmds + [c for c in cmds if c.sampled], seed)


def formula_sweep(seed: int, tiny: bool) -> list[Command]:
    if tiny:
        cells = [Cell(s, g) for s in ("2^1", "3^1") for g in range(3)] + [Cell("2^2", 2)]
    else:
        cells = [Cell(s, g) for s in FORMULA_SPECS for g in range(13)] + [Cell("2^8", 12)]
    return _shuffled([Command("count", c) for c in cells], seed)


WORKLOADS = {
    "enum-grid": enum_grid,
    "roundtrip-mixed": roundtrip_mixed,
    "formula-sweep": formula_sweep,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Command]:
    return WORKLOADS[name](seed, tiny)


def field_specs(cmds: list[Command]) -> list[str]:
    return list(dict.fromkeys(c.cell.spec for c in cmds))


def distinct_cells(cmds: list[Command]) -> list[Cell]:
    return list(dict.fromkeys(c.cell for c in cmds))


def table_entries(specs: list[str]) -> int:
    """Computed, not measured: add, sub and mul tables of q^2 entries and
    an inverse table of q entries per field."""
    return sum(3 * q * q + q for q in (Cell(s, 0).q for s in specs))


# ---------------------------------------------------------------------------
# output checks


class Ledger:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)

    def expect(self, ok: bool, problem: str) -> None:
        self.record(None if ok else problem)


def gl_order(g: int, q: int) -> int:
    out = 1
    for i in range(g):
        out *= q**g - q**i
    return out


def _census_problem(cell: Cell, counts: dict[tuple[int, int], int], total: int) -> str | None:
    g, q = cell.g, cell.q
    expected_cells = [(r, s) for r in range(g + 1) for s in range(r + 1)]
    if sorted(counts) != expected_cells:
        return f"cells {sorted(counts)} are not every 0 <= s <= r <= {g}"
    if sum(counts.values()) != total:
        return f"census sums to {sum(counts.values())}, expected {total}"
    if total == q ** (g * g):
        if counts[(g, g)] != gl_order(g, q):
            return f"(g, g) cell {counts[(g, g)]} != |GL_{g}({q})|"
        if sum(counts[(r, 0)] for r in range(g + 1)) != q ** (g * g - g):
            return "s = 0 column does not sum to q^(g^2 - g)"
    return None


def profile_counts(cmd: Command, payload: dict) -> dict[tuple[int, int], int]:
    """Per-(r, s) counts a command reports: maps enumerated, codes checked
    or formula counts."""
    if cmd.kind == "roundtrip":
        return {(c["r"], c["s"]): c["checked"] for c in payload["per_profile"]}
    field = "enumerated" if cmd.kind == "verify" else "theorem"
    return {(c["r"], c["s"]): int(c[field]) for c in payload["cells"]}


def check(cmd: Command, code: int, out: str, corrupt: bool = False) -> str | None:
    """Return what is wrong with one command's result, or None.

    `corrupt` shifts the expected unit count by one, so a correct result
    must be reported as a failure; the smoke check relies on it.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    units = cmd.units + (1 if corrupt else 0)
    cell = cmd.cell
    try:
        if payload["g"] != cell.g or not payload["field"].startswith(cell.spec + "/"):
            return "report is for another field or dimension"
        if cmd.kind == "count":
            cells = payload["cells"]
            if len(cells) != units:
                return f"{len(cells)} cells, expected {units}"
            if not all(c["match"] and c["theorem"] == c["staged"] for c in cells):
                return "closed form and staged product disagree"
            if payload["total"] != str(cell.maps):
                return "total is not q^(g^2)"
            return _census_problem(cell, profile_counts(cmd, payload), cell.maps)
        if payload["tau"] != cell.tau % cell.d:
            return "report is for another twist"
        if cmd.kind == "verify":
            cells = payload["cells"]
            if not all(c["match"] and c["enumerated"] == c["theorem"] for c in cells):
                return "enumeration disagrees with the formulas"
            if not all(payload["corollaries"].values()):
                return "a corollary identity failed"
            if payload["totals"]["enumerated"] != str(units):
                return "enumerated total is not q^(g^2)"
            return _census_problem(cell, profile_counts(cmd, payload), units)
        mode = "sampled" if cmd.sampled else "exhaustive"
        if payload["mode"] != mode or payload["seed"] != (cmd.seed if cmd.sampled else None):
            return f"expected a {mode} run"
        if payload["failures"] != 0:
            return f"{payload['failures']} round-trip failures"
        if payload["maps_checked"] != units or payload["tuples_checked"] != units:
            return f"{payload['maps_checked']} codes checked, expected {units}"
        counts = profile_counts(cmd, payload)
        return _census_problem(cell, counts, units)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def terminal_share(cmds: list[Command], outputs: list[str]) -> tuple[int, int]:
    """Exact (numerator, denominator): of the maps each distinct command
    reports on, those with 0 < r < g, whose stable rank needs F^g."""
    num = den = 0
    seen = set()
    for cmd, out in zip(cmds, outputs):
        if cmd.output_key in seen:
            continue
        seen.add(cmd.output_key)
        for (r, _), n in profile_counts(cmd, json.loads(out)).items():
            den += n
            if 0 < r < cmd.cell.g:
                num += n
    return num, den
