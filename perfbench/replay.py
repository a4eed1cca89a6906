"""Traced replay: a workload's inputs fed to each layer's public functions.

Spans are recorded by this file around its own calls into the package;
nothing inside `semicount` is patched. A span is [name, start_ns, end_ns,
parent index, n, trace id]: `n` is the number of operations the span
covers (one call, or a loop of field operations), and the trace id
numbers the workload cell the span belongs to. Spans stay in memory and
go out with the report at the end.

Per replay round, for every distinct field: build it, then time add, mul,
inv and the Frobenius tables. For every distinct (field, g, tau) cell:
both count routes on every profile and `formula_table`; and, for g up to
MATRIX_G_MAX, a seeded sample of map codes through the linalg, semilinear,
flags and bijection functions. Rounds alternate untraced and traced, so
the tracing overhead is the difference of their median wall times. Once
per run, two process-level probes: the largest small cell enumerated at 1
and 2 workers, and the workload's short commands through `cli.main` and
through the library calls that `cli.main` wraps.

Every result is checked, against the other layers or the formula route.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from time import perf_counter_ns

from semicount import cli
from semicount.bijection import (
    induced_flag,
    map_to_tuple,
    roundtrip_check,
    tuple_from_code,
    tuple_to_map,
)
from semicount.counting import (
    bruteforce_table,
    closed_form_count,
    formula_table,
    profiles,
    staged_count,
    verify_counts,
)
from semicount.flags import adapt_to_flag, image_flag
from semicount.gf import parse_field_spec
from semicount.linalg import (
    identity_matrix,
    in_span,
    map_entries,
    mat_inverse,
    mat_mul,
    matrix_from_cols,
    matrix_from_rows,
    rank,
    rref,
    span_dim,
    standard_basis,
)
from semicount.semilinear import SemilinearMap, matrix_from_code, profile

import workloads
from workloads import Ledger

SAMPLES_PER_CELL = 32  # map codes per cell fed to the matrix-level layers
MATRIX_G_MAX = 4  # larger g only occurs in formula-sweep, which never builds matrices
FIELD_OPS_SIDE = 64  # field operations are timed on all pairs of the first 64 codes
ENUM_PROBE_MAPS = 20_000  # largest cell enumerated for the worker-pool probe
CLI_PROBE_UNITS = 1_000  # commands at most this big are replayed through cli.main
MAX_ROUNDS = 10  # traced rounds per run; more only repeat the same spans


class _Span:
    __slots__ = ("tracer", "name", "n", "index", "start")

    def __init__(self, tracer: "Tracer", name: str, n: int):
        self.tracer, self.name, self.n = tracer, name, n

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t.open.append(self.index)
        self.start = perf_counter_ns()

    def __exit__(self, *exc):
        end = perf_counter_ns()
        t = self.tracer
        t.open.pop()
        parent = t.open[-1] if t.open else -1
        t.spans[self.index] = [self.name, self.start, end, parent, self.n, t.trace_id]


class Tracer:
    """Records spans when enabled; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.open: list[int] = []
        self.trace_id = -1

    def span(self, name: str, n: int = 1):
        return _Span(self, name, n) if self.enabled else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# layer probes


def probe_field(tr: Tracer, ctx) -> None:
    side = range(min(ctx.q, FIELD_OPS_SIDE))
    pairs = [(a, b) for a in side for b in side]
    add, mul, inv = ctx.add, ctx.mul, ctx.inv
    with tr.span("gf.add", len(pairs)):
        for a, b in pairs:
            add(a, b)
    with tr.span("gf.mul", len(pairs)):
        for a, b in pairs:
            mul(a, b)
    with tr.span("gf.inv", len(side) - 1):
        for a in side[1:]:
            inv(a)
    for i in range(1, ctx.d):
        with tr.span("gf.frobenius_table"):
            ctx.frobenius_table(i)


def probe_counting(tr: Tracer, chk: Ledger, cell) -> None:
    g, q = cell.g, cell.q
    closed = {}
    for r, s in profiles(g):
        with tr.span("counting.closed_form_count"):
            closed[(r, s)] = closed_form_count(g, r, s, q)
        with tr.span("counting.staged_count"):
            staged = staged_count(g, r, s, q)
        chk.expect(staged == closed[(r, s)], f"routes disagree at {cell} r={r} s={s}")
    with tr.span("counting.formula_table"):
        table = formula_table(g, q)
    chk.expect(table.entries == closed and table.total == q ** (g * g),
               f"formula_table wrong at {cell}")


def probe_maps(tr: Tracer, chk: Ledger, ctx, cell, seed: int, tally: list[int]) -> None:
    g, tau = cell.g, cell.tau
    rng = random.Random(f"{seed}/{cell.spec}/{g}/{tau}")
    eye = identity_matrix(ctx, g)
    for _ in range(SAMPLES_PER_CELL):
        code = rng.randrange(cell.maps)
        with tr.span("semilinear.matrix_from_code"):
            A = matrix_from_code(ctx, g, code)
        F = SemilinearMap(A, tau)
        with tr.span("semilinear.profile"):
            r, s = profile(F)
        tally[0] += 0 < r < g
        tally[1] += 1
        with tr.span("linalg.rank"):
            rk = rank(A)
        with tr.span("linalg.map_entries"):
            B = map_entries(A, tau)
        with tr.span("linalg.mat_mul"):
            mat_mul(A, B)
        with tr.span("linalg.rref"):
            _, pivots = rref(A)
        rows = A.row_list()
        with tr.span("linalg.matrix_from_rows"):
            A2 = matrix_from_rows(ctx, rows)
        with tr.span("linalg.span_dim"):
            dim = span_dim(ctx, rows)
        with tr.span("linalg.in_span"):
            inside = in_span(ctx, rows, A.row(0))
        chk.expect(rk == r == dim == len(pivots) and A2 == A and inside,
                   f"rank layers disagree on {cell} code {code}")
        with tr.span("flags.image_flag"):
            flag = image_flag(F)
        with tr.span("flags.adapt_to_flag"):
            adapted = adapt_to_flag(ctx, standard_basis(g), flag)
        P = matrix_from_cols(ctx, list(adapted.vectors), g)
        with tr.span("linalg.mat_inverse"):
            P_inv = mat_inverse(P)
        with tr.span("bijection.map_to_tuple"):
            xs = map_to_tuple(F)
        with tr.span("bijection.induced_flag"):
            flag2 = induced_flag(ctx, xs)
        with tr.span("bijection.tuple_to_map"):
            F2 = tuple_to_map(ctx, xs, tau)
        with tr.span("bijection.tuple_from_code"):
            ys = tuple_from_code(ctx, g, code)
        chk.expect(mat_mul(P, P_inv) == eye and flag2 == flag and F2 == F and len(ys) == g,
                   f"adapted basis or round trip wrong on {cell} code {code}")


def layer_round(tr: Tracer, chk: Ledger, cells, seed: int, tally: list[int]) -> None:
    fields = {}
    for spec in dict.fromkeys(c.spec for c in cells):
        with tr.span("gf.make_field"):
            fields[spec] = parse_field_spec(spec)
        probe_field(tr, fields[spec])
    for tid, cell in enumerate(cells):
        tr.trace_id = tid
        with tr.span("cell"):
            probe_counting(tr, chk, cell)
            if 1 <= cell.g <= MATRIX_G_MAX:
                probe_maps(tr, chk, fields[cell.spec], cell, seed, tally)
    tr.trace_id = -1


# ---------------------------------------------------------------------------
# process-level probes


def probe_pool(tr: Tracer, chk: Ledger, cells) -> None:
    small = [c for c in cells if c.g >= 1 and c.maps <= ENUM_PROBE_MAPS]
    cell = max(small, key=lambda c: c.maps)
    ctx = parse_field_spec(cell.spec)
    with tr.span("counting.bruteforce_table", cell.maps):
        one = bruteforce_table(ctx, cell.g, cell.tau, threads=1)
    with tr.span("counting.bruteforce_table_2w", cell.maps):
        two = bruteforce_table(ctx, cell.g, cell.tau, threads=2)
    chk.expect(one.entries == two.entries == formula_table(cell.g, cell.q).entries,
               f"enumeration of {cell} disagrees across worker counts or with the formula")


def _library_call(cmd):
    """What `cli.main` wraps for one command, minus argument parsing and
    JSON output."""
    c = cmd.cell
    ctx = parse_field_spec(c.spec)
    if cmd.kind == "count":
        table = formula_table(c.g, ctx.q)
        return table, [staged_count(c.g, r, s, ctx.q) for r, s in profiles(c.g)]
    if cmd.kind == "verify":
        return verify_counts(ctx, c.g, c.tau, threads=cmd.threads)[0]
    kwargs = {} if cmd.budget is None else {"budget": cmd.budget}
    return roundtrip_check(ctx, c.g, c.tau, threads=cmd.threads, seed=cmd.seed, **kwargs)[0]


def probe_cli(tr: Tracer, chk: Ledger, cmds) -> int:
    """Short commands only: on a long one, run-to-run noise swamps the
    overhead. A workload without short commands probes its smallest."""
    distinct = {tuple(c.argv()): c for c in cmds}.values()
    probed = [c for c in distinct if c.units <= CLI_PROBE_UNITS] \
        or [min(distinct, key=lambda c: c.units)]
    for cmd in probed:
        buf = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(buf):
            code = cli.main(cmd.argv())
        with tr.span("cli.library"):
            result = _library_call(cmd)
        if cmd.kind == "count":
            same = json.loads(buf.getvalue())["total"] == str(result[0].total)
        else:
            same = buf.getvalue() == json.dumps(result) + "\n"
        chk.expect(code == 0 and same, f"cli.main and the library differ on {cmd.argv()}")
    return len(probed)


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, tiny: bool, import_ns: int,
        module: str) -> dict:
    cmds = workloads.build(workload, seed, tiny)
    cells = workloads.distinct_cells(cmds)
    chk = Ledger()
    tracer = Tracer(True)
    tracer.spans.append(["cli.import", 0, import_ns, -1, 1, -1])

    tally = [0, 0]  # maps with 0 < r < g, maps profiled (traced rounds only)
    walls: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            t0 = time.perf_counter()
            layer_round(tracer if traced else Tracer(False), chk, cells, seed,
                        tally if traced else [0, 0])
            walls[traced].append(time.perf_counter() - t0)
        if len(walls[True]) == 1:
            probe_pool(tracer, chk, cells)
            cli_commands = probe_cli(tracer, chk, cmds)
        next_end = time.perf_counter() - start + walls[False][-1] + walls[True][-1]
        if len(walls[True]) == MAX_ROUNDS or next_end > seconds:
            break
    return {
        "spans": tracer.spans,
        "attempted": chk.attempted,
        "problems": chk.problems,
        "rounds": len(walls[True]),
        "untraced_round_s": statistics.median(walls[False]),
        "traced_round_s": statistics.median(walls[True]),
        "terminal_maps": tally[0],
        "profiled_maps": tally[1],
        "table_entries": workloads.table_entries(workloads.field_specs(cmds)),
        "cli_commands": cli_commands,
        "module": module,
    }
