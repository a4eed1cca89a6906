"""Command-line surface: JSON in, JSON out, exit codes for harnesses.

Exit codes: 0 success, 1 verification or round-trip mismatch, 2 bad
arguments or malformed input, 3 enumeration budget exceeded, 141 stdout
closed by its reader.  Reports go to stdout (or --out), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .gf import FiniteField, parse_buildable_spec, parse_field_spec, parse_spec, poly_str, spec_str
from .counting import (BudgetExceeded, DEFAULT_BUDGET, closed_form_count, report_cells,
                       staged_count, verify_counts)
# linalg, semilinear, flags and bijection are imported only where they run, so count,
# verify and field-info load none of them; annotations name their types unevaluated

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_ARGS = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process that SIGPIPE ends


# Largest g of count, verify and roundtrip, and of a block's rows and cols;
# a sampled round trip on GF(2) takes about 100 s at g = 64.
G_LIMIT = 64

# Largest --budget of verify and roundtrip.  run_chunks makes a sweep's
# chunks up front as range slices and deals them out to its processes.
# verify's chunks are whole runs of q^g codes, as many as fit in 4,096
# codes or one, so no cell under 2^30 codes makes more than GF(9) g=3's
# 106,289 (15.5 MiB); roundtrip's are 4,096 codes, at most 262,144 under
# 2^30 (38.2 MiB, tracemalloc, Python 3.11).
BUDGET_LIMIT = 1 << 30


# ---------------------------------------------------------------------------
# text block format: header "rows cols fieldspec", one row of codes per line;
# a map block puts a "tau <i>" line above the matrix block


def format_matrix_block(A: Matrix) -> str:
    lines = [f"{A.rows} {A.cols} {A.ctx.spec}"]
    lines += [" ".join(str(x) for x in A.row(i)) for i in range(A.rows)]
    return "\n".join(lines)


def format_map_block(F: SemilinearMap) -> str:
    return f"tau {F.tau}\n" + format_matrix_block(F.mat)


def split_blocks(text: str) -> list[list[str]]:
    blocks: list[list[str]] = [[]]
    for line in map(str.strip, text.splitlines()):
        if line:
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    return [block for block in blocks if block]


def parse_matrix_block(lines: list[str],
                       read_field=parse_field_spec) -> tuple[FiniteField, Matrix]:
    """The block's field and matrix; `read_field` turns the header's spec
    text into the field."""
    from .linalg import matrix_from_rows
    _require(bool(lines), "missing matrix block: expected a 'rows cols fieldspec' header")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"matrix header must be 'rows cols fieldspec', got {lines[0]!r}")
    try:
        nrows, ncols = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"non-integer dimensions in header {lines[0]!r}")
    _require(max(nrows, ncols) <= G_LIMIT,
             f"block rows and cols must be at most G_LIMIT = {G_LIMIT}, got {lines[0]!r}")
    _require(min(nrows, ncols) >= 0, f"block rows and cols must be >= 0, got {lines[0]!r}")
    field = read_field(header[2])
    if len(lines) - 1 != nrows:
        raise ValueError(f"expected {nrows} rows after header, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = tuple(int(x) for x in line.split())
        except ValueError:
            raise ValueError(f"non-integer entry in row {line!r}")
        if len(row) != ncols:
            raise ValueError(f"row {line!r} has {len(row)} entries, expected {ncols}")
        rows.append(row)
    return field, matrix_from_rows(field, rows, ncols)


def parse_map_block(lines: list[str]) -> SemilinearMap:
    from .semilinear import SemilinearMap
    _require(bool(lines), "missing map block: expected a 'tau <i>' line")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "tau":
        raise ValueError(f"map block must start with 'tau <i>', got {lines[0]!r}")
    try:
        tau = int(head[1])
    except ValueError:
        raise ValueError(f"non-integer tau in {lines[0]!r}")
    _, A = parse_matrix_block(lines[1:])
    return SemilinearMap(A, tau)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit_code, pretty_renderer)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_g(g: int, q: int) -> None:
    """Refuse g outside [0, G_LIMIT], and a census whose total q^(g^2)
    has more decimal digits than Python will print, before any q^(g^2)
    arithmetic."""
    _require(0 <= g <= G_LIMIT, f"--g must lie in [0, {G_LIMIT}], the bound "
                                f"G_LIMIT = {G_LIMIT}; got {g}")
    # Python before 3.10.7 has no such limit (0 means none)
    n, limit = g * g, getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # the estimate decides unless it lies within one digit of the limit
    digits = n * math.log10(q)
    if limit and (digits >= limit + 1 or digits > limit - 1 and q**n >= 10**limit):
        raise ValueError(f"q^(g^2) = {q}^{n} has more than {limit} decimal digits, the bound "
                         f"sys.get_int_max_str_digits() = {limit} on printed integers")


def _run_field(args: argparse.Namespace) -> FiniteField:
    """The field of verify or roundtrip: --threads and --budget are checked
    before it is built, --g after."""
    _require(args.threads >= 1, "--threads must be >= 1")
    _require(0 <= args.budget <= BUDGET_LIMIT, f"--budget must lie in [0, {BUDGET_LIMIT}], "
                                                f"the bound BUDGET_LIMIT = 2^30; got {args.budget}")
    ctx = parse_field_spec(args.field)
    _check_g(args.g, ctx.q)
    return ctx


def cmd_field_info(args: argparse.Namespace):
    p, d, modulus = parse_spec(args.field)
    payload = {
        "spec": spec_str(p, d, modulus),
        "p": p,
        "d": d,
        "q": p**d,
        "modulus": list(modulus),
        "modulus_str": poly_str(modulus),
        "frobenius_exponents": list(range(d)),
    }
    return payload, EXIT_OK, None


def cmd_count(args: argparse.Namespace):
    p, d, modulus = parse_spec(args.field)  # the formulas need q only: no tables
    g, q = args.g, p**d
    _check_g(g, q)
    if (args.r is None) != (args.s is None):
        raise ValueError("--r and --s must be given together")
    payload = {"field": spec_str(p, d, modulus), "q": q, "g": g}
    if args.r is not None:
        via_formula = closed_form_count(g, args.r, args.s, q)
        via_stages = staged_count(g, args.r, args.s, q)
        payload.update(r=args.r, s=args.s, theorem=str(via_formula), staged=str(via_stages),
                       match=via_formula == via_stages)
        return payload, EXIT_OK if payload["match"] else EXIT_MISMATCH, None
    theorem, payload["cells"] = report_cells(g, q)
    total = sum(theorem.values())
    payload["total"] = str(total)
    ok = total == q ** (g * g) and all(cell["match"] for cell in payload["cells"])
    return payload, EXIT_OK if ok else EXIT_MISMATCH, _render_count_table


def cmd_verify(args: argparse.Namespace):
    ctx = _run_field(args)
    report, ok = verify_counts(
        ctx, args.g, args.tau, budget=args.budget, threads=args.threads)
    return report, EXIT_OK if ok else EXIT_MISMATCH, _render_verify_table


def cmd_adapt(args: argparse.Namespace):
    from .flags import adapt_to_flag, make_flag
    blocks = split_blocks(_read_text(args.input))
    _require(len(blocks) >= 2,
             "adapt needs a basis block followed by at least one flag-member block")
    # one parse per spec text (a default modulus is a search), one build per field
    read_spec, build = functools.cache(parse_buildable_spec), functools.cache(FiniteField)
    read_field = lambda text: build(*read_spec(text))
    ctx, basis_mat = parse_matrix_block(blocks[0], read_field)
    g = basis_mat.cols
    _require(basis_mat.rows == g, "basis block must be square: one row per basis vector")
    members = []
    for block in blocks[1:]:
        mctx, member = parse_matrix_block(block, read_field)
        _require(mctx == ctx, "all blocks must use the same field")
        _require(member.cols == g, "flag member vectors must have length g")
        members.append(member.row_list())
    flag = make_flag(ctx, g, members)
    adapted = adapt_to_flag(ctx, basis_mat.row_list(), flag)
    payload = {
        "field": ctx.spec,
        "g": g,
        "dims": list(flag.dims),
        "basis": [list(v) for v in adapted.vectors],
        "pivot_sets": [list(js) for js in adapted.pivot_sets],
    }
    return payload, EXIT_OK, None


def cmd_mu(args: argparse.Namespace):
    from .bijection import _encode
    from .linalg import Matrix
    blocks = split_blocks(_read_text(args.input))
    _require(len(blocks) == 1, "mu expects exactly one map block")
    F = parse_map_block(blocks[0])
    g = F.g
    x, r, s = _encode(F.ctx, g, F.tau, F.mat.entries)
    payload = {
        "field": F.ctx.spec,
        "g": g,
        "tau": F.tau,
        "profile": {"r": r, "s": s},
        "tuple": [x[j * g: (j + 1) * g] for j in range(g)],
        "block": format_matrix_block(Matrix(F.ctx, g, g, tuple(x))),
    }
    return payload, EXIT_OK, None


def cmd_nu(args: argparse.Namespace):
    from .bijection import _decode
    from .linalg import Matrix
    from .semilinear import SemilinearMap
    blocks = split_blocks(_read_text(args.input))
    _require(len(blocks) == 1, "nu expects exactly one tuple block (vectors as rows)")
    ctx, X = parse_matrix_block(blocks[0])
    _require(X.rows == X.cols, "tuple block must be square: g vectors of length g")
    a, r, s = _decode(ctx, X.rows, args.tau, list(X.entries))
    F = SemilinearMap(Matrix(ctx, X.rows, X.rows, tuple(a)), args.tau)
    payload = {
        "field": ctx.spec,
        "g": X.rows,
        "tau": F.tau,
        "profile": {"r": r, "s": s},
        "matrix": [list(F.mat.row(i)) for i in range(F.g)],
        "block": format_map_block(F),
    }
    return payload, EXIT_OK, None


def cmd_roundtrip(args: argparse.Namespace):
    from .bijection import roundtrip_check
    ctx = _run_field(args)
    report, ok = roundtrip_check(
        ctx, args.g, args.tau,
        budget=args.budget, threads=args.threads, seed=args.seed)
    return report, EXIT_OK if ok else EXIT_MISMATCH, None


# ---------------------------------------------------------------------------
# rendering


def _render_cells(cells, columns) -> list[str]:
    widths = {c: max(len(c), max((len(str(row[c])) for row in cells), default=0))
              for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for row in cells:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in columns))
    return lines


def _render_count_table(payload: dict) -> str:
    lines = [f"field {payload['field']}  q={payload['q']}  g={payload['g']}"]
    lines += _render_cells(payload["cells"], ["r", "s", "theorem", "staged", "match"])
    lines.append(f"total {payload['total']}")
    return "\n".join(lines)


def _render_verify_table(payload: dict) -> str:
    lines = [f"field {payload['field']}  g={payload['g']}  tau={payload['tau']}"]
    lines += _render_cells(payload["cells"],
                           ["r", "s", "theorem", "staged", "enumerated", "match"])
    totals = payload["totals"]
    lines.append(f"totals: theorem={totals['theorem']} enumerated={totals['enumerated']} "
                 f"expected={totals['expected']}")
    flags = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in payload["corollaries"].items())
    lines.append(f"corollaries: {flags}")
    return "\n".join(lines)


def _emit(payload: dict, args: argparse.Namespace, renderer) -> None:
    if args.pretty:
        text = renderer(payload) if renderer is not None else json.dumps(payload, indent=2)
    else:
        text = json.dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicount",
        description="Exact counts and normal forms for twisted-linear endomorphisms "
                    "over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, *, field=False, g=False, tau=False, enum=False, io=False):
        if field:
            p.add_argument("--field", required=True,
                           help="field spec, 'p^d' or 'p^d/c0,c1,...,cd' (little-endian modulus)")
        if g:
            p.add_argument("--g", type=int, required=True, help="dimension of the space")
        if tau:
            p.add_argument("--tau", type=int, default=0,
                           help="Frobenius exponent of the twist (default 0)")
        if enum:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="largest enumeration size allowed")
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes for enumeration")
        if io:
            p.add_argument("input", nargs="?", default="-",
                           help="input file of text blocks, '-' for stdin")
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.set_defaults(handler=handler)

    p = sub.add_parser("count", help="profile counts from the two formula routes")
    common(p, cmd_count, field=True, g=True)
    p.add_argument("--r", type=int, help="rank, for a single cell (with --s)")
    p.add_argument("--s", type=int, help="stable rank, for a single cell (with --r)")

    p = sub.add_parser("verify", help="formulas vs. exhaustive enumeration")
    common(p, cmd_verify, field=True, g=True, tau=True, enum=True)

    p = sub.add_parser("adapt", help="adapt an ordered basis to a flag")
    common(p, cmd_adapt, io=True)

    p = sub.add_parser("mu", help="encode a map block as its vector tuple")
    common(p, cmd_mu, io=True)

    p = sub.add_parser("nu", help="decode a tuple block into a map")
    common(p, cmd_nu, tau=True, io=True)

    p = sub.add_parser("roundtrip", help="exhaustive or sampled decode-encode check")
    common(p, cmd_roundtrip, field=True, g=True, tau=True, enum=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled check (default 0)")

    p = sub.add_parser("field-info", help="describe a field spec")
    common(p, cmd_field_info, field=True)

    return parser


# built once per process: parse_args only reads it, and puts the defaults
# into a fresh Namespace on each call
PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        payload, code, renderer = args.handler(args)
        _emit(payload, args, renderer)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ArithmeticError as exc:  # a count route refused to round, or the routes disagree
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BrokenPipeError:  # the reader closed stdout: what is left flushes to os.devnull at exit
        with open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    return code


if __name__ == "__main__":
    sys.exit(main())
