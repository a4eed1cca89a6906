"""Counting formulas, the enumeration oracle, and the verification report."""

import gc
import itertools
import multiprocessing
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import semicount.cli as cli
import semicount.counting as counting
from semicount.counting import (
    BudgetExceeded,
    CountTable,
    bruteforce_table,
    closed_form_count,
    formula_table,
    gl_order,
    profiles,
    route_cells,
    staged_count,
    verify_counts,
)
from semicount.bijection import roundtrip_check
from semicount.gf import FiniteField, make_field
from semicount.semilinear import enumerate_maps, profile

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF9 = make_field(3, 2)


# --- combinatorial primitives ---------------------------------------------------

def subspaces(n, d, q):
    """d-dimensional subspaces of an n-dimensional space, as the staged route counts them."""
    return counting._subspaces({k: counting._falling_row(q, k) for k in (n, d)}, n, d)


def surjections(m, d, q):
    """Surjective linear maps from an m-dimensional space onto a fixed
    d-dimensional one, as the staged route counts them; zero when d > m."""
    return counting._surjections({m: counting._falling_row(q, m)}, m, d)


def test_profiles_ordering():
    assert profiles(2) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    assert profiles(0) == [(0, 0)]


def test_gl_order_examples():
    assert gl_order(0, 5) == 1
    assert gl_order(1, 7) == 6
    assert gl_order(2, 2) == 6
    # brute force: invertible 2x2 over GF(3)
    assert gl_order(2, 3) == 48


def test_gaussian_binomial_examples():
    assert subspaces(4, 0, 3) == 1
    assert subspaces(4, 4, 3) == 1
    assert subspaces(2, 1, 2) == 3
    # symmetry and the line count in GF(3)^3
    assert subspaces(3, 1, 3) == subspaces(3, 2, 3) == 13


def test_gaussian_binomial_matches_subspace_walk():
    for p, g in [(2, 3), (3, 2)]:
        by_dim = {}
        for _, gens in helpers.all_subspaces(p, [0, 1], g):
            by_dim[len(gens)] = by_dim.get(len(gens), 0) + 1
        for d, n in by_dim.items():
            assert subspaces(g, d, p) == n


def test_surjection_count_examples():
    assert surjections(5, 0, 2) == 1
    assert surjections(0, 0, 2) == 1
    assert surjections(1, 1, 2) == 1
    assert surjections(2, 1, 2) == 3
    assert surjections(1, 2, 2) == 0   # no surjections onto a bigger space
    assert surjections(0, 1, 3) == 0


def test_spanning_tuple_count_examples():
    # (n-1)-tuples spanning dimension d: a d-subspace, then a surjection onto it
    assert subspaces(3, 0, 2) * surjections(2, 0, 2) == 1
    assert subspaces(2, 1, 2) * surjections(1, 1, 2) == 3
    assert subspaces(3, 2, 2) * surjections(2, 2, 2) == 42
    # zero-length tuples span nothing
    assert subspaces(1, 1, 2) * surjections(0, 1, 2) == 0


def test_spanning_tuple_count_by_direct_enumeration():
    # pairs in GF(2)^3 grouped by the dimension they span
    vectors = [tuple((c >> j) & 1 for j in range(3)) for c in range(8)]
    seen = {d: 0 for d in range(3)}
    for w1, w2 in itertools.product(vectors, repeat=2):
        S = helpers.span_set(2, [0, 1], [w1, w2], 3)
        seen[helpers.set_dim(S, 2)] += 1
    for d, n in seen.items():
        assert subspaces(3, d, 2) * surjections(2, d, 2) == n


# --- the two formula routes ------------------------------------------------------

def test_staged_count_examples():
    assert staged_count(3, 0, 0, 5) == 1
    assert staged_count(2, 1, 0, 2) == 3
    assert staged_count(2, 2, 2, 2) == 6
    assert staged_count(2, 1, 1, 2) == 6
    with pytest.raises(ValueError):
        staged_count(2, 1, 2, 2)


def test_single_cells_take_q_beyond_float_range():
    # s = g and n = 0 read no row n - 1 = -1: building one must not compute q^-1
    q = 2**1100
    assert staged_count(1, 1, 1, q) == closed_form_count(1, 1, 1, q) == q - 1
    assert subspaces(0, 0, q) == surjections(-1, 0, q) == 1


def test_closed_form_examples():
    for q in (2, 3, 4, 9):
        assert closed_form_count(1, 1, 1, q) == q - 1
    assert closed_form_count(2, 1, 1, 2) == 6
    assert closed_form_count(2, 1, 0, 2) == 3
    assert closed_form_count(0, 0, 0, 7) == 1


def test_routes_agree_on_spot_grid():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for g in range(7):
            for r, s in profiles(g):
                assert closed_form_count(g, r, s, q) == staged_count(g, r, s, q)


def test_formula_table_refuses_counts_that_miss_the_total(monkeypatch):
    # both routes agree cell by cell, each at twice the true count
    real = counting.route_cells
    monkeypatch.setattr(counting, "route_cells",
                        lambda g, q: [(r, s, 2 * a, 2 * b) for r, s, a, b in real(g, q)])
    with pytest.raises(ArithmeticError) as exc:
        formula_table(3, 2)
    assert str(exc.value) == "counts at g=3, q=2 sum to 1024, not q^(g^2)"


def _shift(cells):
    """{cell: the next cell in the cyclic order of `cells`}."""
    return dict(zip(cells, cells[1:] + cells[:1]))


MOVES = {  # pairing -> g -> {(r, s): the cell whose two values (r, s) takes}
    "sorted order": lambda g: _shift(profiles(g)),
    # rank sums still hold
    "within a rank": lambda g: {
        k: v for r in range(g + 1) for k, v in _shift([(r, s) for s in range(r + 1)]).items()},
    # stable-rank sums still hold
    "within a stable rank": lambda g: {
        k: v for s in range(g + 1) for k, v in _shift([(r, s) for r in range(s, g + 1)]).items()},
}


@pytest.mark.parametrize("pairing, law", [
    ("sorted order", "rank"), ("within a rank", "stable rank"), ("within a stable rank", "rank"),
])
def test_formula_table_refuses_counts_moved_between_cells(monkeypatch, pairing, law):
    # route_cells pairs each cell's values with a neighbour's (r, s): the
    # routes still agree cell by cell and the total still holds, one of the
    # two marginal laws does not
    real = counting.route_cells

    def moved(g, q):
        values = {(r, s): (a, b) for r, s, a, b in real(g, q)}
        return [(r, s, *values[cell]) for (r, s), cell in MOVES[pairing](g).items()]

    monkeypatch.setattr(counting, "route_cells", moved)
    cells = moved(4, 3)
    assert sorted((r, s) for r, s, _, _ in cells) == profiles(4)
    assert all(a == b for _, _, a, b in cells) and sum(a for _, _, a, _ in cells) == 3 ** 16
    with pytest.raises(ArithmeticError) as exc:
        formula_table(4, 3)
    assert str(exc.value).startswith(f"{law} "), str(exc.value)
    with pytest.raises(ArithmeticError) as exc:  # verify holds its theorem cells to both laws
        verify_counts(GF3, 2, 0)
    assert str(exc.value).startswith(f"{law} "), str(exc.value)


def test_formula_table_totals_and_corollaries():
    for g, q in [(1, 2), (2, 2), (2, 3), (3, 2), (4, 3), (5, 2)]:
        table = formula_table(g, q)
        assert table.total == q ** (g * g)
        assert table.entries[(g, g)] == gl_order(g, q)
        nilpotent = sum(table.entries[(r, 0)] for r in range(g + 1))
        assert nilpotent == q ** (g * g - g)


# --- prefix products against factor-by-factor oracles ----------------------------

def naive_cells(g, q):
    return [(r, s, helpers.naive_closed_form(g, r, s, q), helpers.naive_staged(g, r, s, q))
            for r, s in profiles(g)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 256, 65521])
def test_routes_match_the_oracles_up_to_g_16(q):
    for g in range(17):
        assert route_cells(g, q) == naive_cells(g, q), g


def _prime_powers():
    primes = [p for p in range(2, 60) if helpers.trial_division_prime(p)]
    return st.builds(pow, st.sampled_from(primes), st.integers(1, 3))


@settings(max_examples=50, deadline=None)
@given(_prime_powers(), st.integers(0, 24))
def test_property_routes_match_the_oracles(q, g):
    assert route_cells(g, q) == naive_cells(g, q)


def test_cache_call_order_is_invisible():
    expected = {(g, q): naive_cells(g, q) for g in (3, 12) for q in (2, 9)}
    # a long table first, then a short one
    assert route_cells(12, 2) == expected[12, 2]
    assert route_cells(3, 2) == expected[3, 2]
    # q values interleaved cell by cell
    for (r, s), cell_2, cell_9 in zip(profiles(12), expected[12, 2], expected[12, 9]):
        assert (r, s, closed_form_count(12, r, s, 9), staged_count(12, r, s, 9)) == cell_9
        assert (r, s, closed_form_count(12, r, s, 2), staged_count(12, r, s, 2)) == cell_2
    first = [route_cells(g, q) for g in (12, 3) for q in (9, 2)]
    again = [route_cells(g, q) for g in (12, 3) for q in (9, 2)]
    assert first == again == [expected[g, q] for g in (12, 3) for q in (9, 2)]
    # the staged route's subspace counts satisfy [12, 5][5, 2] = [12, 2][10, 3]
    assert subspaces(12, 5, 9) * subspaces(5, 2, 9) == \
        subspaces(12, 2, 9) * subspaces(10, 3, 9)


def test_prefix_lists_are_built_once_per_table(monkeypatch):
    built = []
    for name in ("_pochhammer", "_falling_row"):
        def recorded(q, n, real=getattr(counting, name), name=name):
            built.append((name, q, n))
            return real(q, n)
        monkeypatch.setattr(counting, name, recorded)
    assert route_cells(12, 9) == naive_cells(12, 9)
    # N(0..12) once, and each falling row n <= 12 once
    assert sorted(built) == [("_falling_row", 9, n) for n in range(13)] + [("_pochhammer", 9, 12)]
    # a single cell builds only the rows it reads, none of them twice
    built.clear()
    assert staged_count(12, 7, 3, 9) == naive_cells(12, 9)[profiles(12).index((7, 3))][3]
    assert sorted(built) == [("_falling_row", 9, n) for n in (4, 8, 9, 12)]
    built.clear()
    closed_form_count(12, 7, 3, 9)
    assert built == [("_pochhammer", 9, 12)]


# --- enumeration oracle ---------------------------------------------------------

def test_bruteforce_examples():
    def nonzero(table: CountTable):
        return {prof: n for prof, n in table.entries.items() if n}

    assert nonzero(bruteforce_table(GF2, 1, 0)) == {(0, 0): 1, (1, 1): 1}
    assert nonzero(bruteforce_table(GF2, 2, 0)) == {
        (0, 0): 1, (1, 0): 3, (1, 1): 6, (2, 2): 6}
    assert nonzero(bruteforce_table(GF4, 1, 1)) == {(0, 0): 1, (1, 1): 3}


def test_bruteforce_matches_formula():
    cases = [(GF2, 2, 0), (GF2, 3, 0), (GF3, 2, 0), (GF4, 2, 0), (GF4, 2, 1)]
    for ctx, g, tau in cases:
        assert bruteforce_table(ctx, g, tau).entries == formula_table(g, ctx.q).entries


def test_bruteforce_twist_independent():
    tables = [bruteforce_table(GF9, 2, tau).entries for tau in (0, 1)]
    assert tables[0] == tables[1]


def test_bruteforce_budget():
    with pytest.raises(BudgetExceeded):
        bruteforce_table(GF9, 2, 0, budget=100)
    # a budget of exactly q^(g^2) is enough
    assert bruteforce_table(GF2, 2, 0, budget=16).total == 16


def test_bruteforce_chunking_is_invisible(monkeypatch):
    import semicount.counting as counting
    monkeypatch.setattr(counting, "CHUNK_CODES", 64)
    monkeypatch.setattr(counting, "KERNEL_CODES_PER_WORKER", 1)
    started = helpers.started_children(monkeypatch)
    serial = bruteforce_table(GF3, 2, 0, threads=1)
    assert started == []
    pooled = bruteforce_table(GF3, 2, 0, threads=3)
    assert serial == pooled
    assert len(started) == 1  # two CPUs, so one child


def _recorded_ranges(monkeypatch) -> list[tuple[int, int]]:
    """The (start, stop) of every `RowKernel.tally` call from here on, in order."""
    ranges = []

    class RecordedKernel(counting.RowKernel):
        def tally(self, start, stop):
            ranges.append((start, stop))
            return super().tally(start, stop)

    monkeypatch.setattr(counting, "RowKernel", RecordedKernel)
    return ranges


@pytest.mark.parametrize("chunk", [64, 1000])
@pytest.mark.parametrize("ctx, g, tau", [(GF9, 2, 1), (GF3, 3, 0)])
def test_bruteforce_unaligned_chunks_match_profile(monkeypatch, chunk, ctx, g, tau):
    # neither chunk size is a multiple of Q = q^g (81, 27), which counts a run
    # of codes that share rows 1..g-1: each chunk is the whole runs that fit
    # in CHUNK_CODES, or one run when none does, and the chunks cover the
    # codes once, in order
    monkeypatch.setattr(counting, "CHUNK_CODES", chunk)
    ranges = _recorded_ranges(monkeypatch)
    reference = {prof: 0 for prof in profiles(g)}
    for F in enumerate_maps(ctx, g, tau):
        reference[tuple(profile(F))] += 1
    assert bruteforce_table(ctx, g, tau).entries == reference
    Q = ctx.q ** g
    size = max(Q, chunk - chunk % Q)  # the most whole runs that fit, at least one
    assert all(start % Q == stop % Q == 0 for start, stop in ranges), ranges
    assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
    assert ranges[-1][1] == ctx.q ** (g * g)
    assert {stop - start for start, stop in ranges[:-1]} == {size}
    assert 0 < ranges[-1][1] - ranges[-1][0] <= size
    if chunk < Q:
        assert size == Q


def test_bruteforce_chunks_of_the_benchmark_grid(monkeypatch):
    # the four cells of perfbench's enum-grid keep their chunk counts; each
    # is below 2 * KERNEL_CODES_PER_WORKER codes, so all its chunks run in
    # the caller at any thread count
    ranges = _recorded_ranges(monkeypatch)
    for ctx, g, tau, chunks in [(GF2, 4, 0, 16), (GF3, 3, 0, 5), (GF4, 3, 1, 64), (GF9, 2, 1, 2)]:
        ranges.clear()
        bruteforce_table(ctx, g, tau)
        assert len(ranges) == chunks, (ctx, g, tau)


def test_run_chunks_caps_workers(monkeypatch):
    children, jobs = [], []

    class InlineProcess:
        """Stands in for a child process: runs its target when started."""

        pid = None

        def __init__(self, target, args, daemon):
            assert daemon
            self.target, self.args = target, args

        def start(self):
            children.append(self)
            self.pid = -1
            self.target(*self.args)  # its one message fits in the pipe's buffer

        def terminate(self):
            pass

        def join(self):
            pass

    class InlineContext:
        Pipe = staticmethod(multiprocessing.Pipe)
        Process = InlineProcess

    def make_job(ctx, g, tau):
        jobs.append((ctx, g, tau))
        n = len(jobs)  # children make jobs 1..w-1 as they start, the caller job w
        return lambda chunk: (n, chunk)

    def run(codes, threads):
        children.clear()
        jobs.clear()
        out = counting.run_chunks(make_job, GF3, 2, 0, codes, 2, threads)
        assert jobs == [(GF3, 2, 0)] * (len(children) + 1)  # one job per process
        return [n for n, _ in out], [chunk for _, chunk in out]

    monkeypatch.setattr(multiprocessing, "get_context", lambda: InlineContext)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # read only without sched_getaffinity
    # chunks of 2 codes are bare slices of the codes, back in chunk order; the caller
    # runs chunks 0, w, 2w, ... and child i chunks i, i + w, ...
    assert run(range(6), 64) == ([2, 1, 2], [range(0, 2), range(2, 4), range(4, 6)])
    assert len(children) == 1  # one process per usable CPU, the caller included
    assert run([9, 8, 7, 6, 5, 4, 3], 2) == ([2, 1, 2, 1], [[9, 8], [7, 6], [5, 4], [3]])
    assert run([5, 4, 3, 2, 1], 1) == ([1, 1, 1], [[5, 4], [3, 2], [1]])
    assert run(range(2), 64) == ([1], [range(2)])  # serial with one thread or one chunk
    assert run([], 64) == ([], [])
    assert children == []
    for threads in (0, -1):  # below one thread, the caller runs every chunk
        assert run(range(6), threads) == ([1, 1, 1], [range(0, 2), range(2, 4), range(4, 6)])
        assert children == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert run(range(5), 64)[0] == [3, 1, 2]  # never more processes than chunks
    assert run(range(14), 4)[0] == [4, 1, 2, 3, 4, 1, 2]  # nor than threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert run(range(14), 4)[0] == [1] * 7  # nor than usable CPUs
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run(range(14), 4)[0] == [3, 1, 2, 3, 1, 2, 3]  # else os.cpu_count() caps
    # bruteforce_table passes at most one thread per KERNEL_CODES_PER_WORKER
    # codes: 9^4 maps make two chunks of whole runs, which run in the caller
    # below twice the constant and in two processes from there, their tallies
    # pickled through the pipe; many codes run in as many processes as
    # threads, chunks and CPUs allow
    assert counting.KERNEL_CODES_PER_WORKER == 1 << 19
    for per_worker, ctx, g, tau, started in [(3281, GF9, 2, 1, 0), (3280, GF9, 2, 1, 1),
                                             (1, GF2, 4, 0, 2)]:  # 16 chunks, 3 CPUs
        monkeypatch.setattr(counting, "KERNEL_CODES_PER_WORKER", per_worker)
        children.clear()
        assert bruteforce_table(ctx, g, tau, threads=1000).entries == formula_table(g, ctx.q).entries
        assert len(children) == started


def _no_child():
    raise AssertionError("a child process was started")


def test_threads_are_capped_by_cpu_affinity(monkeypatch, capsys):
    argv = ["verify", "--field", "3^1", "--g", "3", "--threads"]  # five chunks
    assert cli.main(argv + ["1"]) == 0
    serial = capsys.readouterr()
    monkeypatch.setattr(counting, "KERNEL_CODES_PER_WORKER", 1)  # so only the CPUs cap
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_context", _no_child)
    assert cli.main(argv + ["2"]) == 0
    assert capsys.readouterr() == serial


@pytest.mark.parametrize("field, g, tau", [("2^1", 4, 0), ("3^1", 3, 0), ("2^2", 3, 1),
                                           ("3^2", 2, 1)])
def test_benchmark_grid_runs_in_the_caller(monkeypatch, capsys, field, g, tau):
    # perfbench's enum-grid cells, at most 2^18 codes: two CPUs, and still no child
    argv = ["verify", "--field", field, "--g", str(g), "--tau", str(tau), "--threads"]
    assert cli.main(argv + ["1"]) == 0
    serial = capsys.readouterr()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_context", _no_child)
    assert cli.main(argv + ["2"]) == 0
    assert capsys.readouterr() == serial


def test_verify_forks_past_the_kernel_cap(monkeypatch, capsys):
    # GF(5) g=3, 1,953,125 codes: a child's share of them pays for it
    argv = ["verify", "--field", "5^1", "--g", "3", "--threads"]
    started = helpers.started_children(monkeypatch)
    assert cli.main(argv + ["1"]) == 0
    serial = capsys.readouterr()
    assert started == []
    assert cli.main(argv + ["2"]) == 0
    assert capsys.readouterr() == serial
    assert len(started) == 1


@pytest.mark.parametrize("ctx, g", [(GF2, 5), (GF3, 4)], ids=["GF2-g5", "GF3-g4"])
def test_large_cells_keep_their_child(monkeypatch, ctx, g):
    # the split only, by a stand-in job that counts each chunk's codes as
    # (0, 0), which a forked child inherits
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method here")
    monkeypatch.setattr(counting, "_tally_job",
                        lambda ctx, g, tau: lambda chunk: {(0, 0): len(chunk)})
    started = helpers.started_children(monkeypatch, "fork")
    assert bruteforce_table(ctx, g, 0, threads=2).entries[0, 0] == ctx.q ** (g * g)
    assert len(started) == 1


def test_no_kernel_or_field_outlives_a_call(monkeypatch):
    class Field(FiniteField):
        __slots__ = ("__weakref__",)

    kernels = []

    class RecordedKernel(counting.RowKernel):
        def __init__(self, *args):
            kernels.append(weakref.ref(self))
            super().__init__(*args)

    monkeypatch.setattr(counting, "RowKernel", RecordedKernel)
    monkeypatch.setattr(counting, "CHUNK_CODES", 100)
    ctx = Field(5, 1, make_field(5, 1).modulus)
    field = weakref.ref(ctx)
    assert bruteforce_table(ctx, 2, 0).total == 625
    report, ok = roundtrip_check(ctx, 2, 0)
    assert ok and report["maps_checked"] == 625
    del ctx
    gc.collect()
    assert len(kernels) == 1 and kernels[0]() is None
    assert field() is None  # no module, cache or job holds the caller's field


def _run_python(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    src = str(Path(counting.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pools_match_serial_under_start_method(method):
    # the pickled path: make_job and the field go to each worker, which builds its job
    script = f"""
import multiprocessing, os
multiprocessing.set_start_method({method!r})
from semicount import counting
from semicount.bijection import roundtrip_check
from semicount.counting import bruteforce_table
from semicount.gf import make_field
os.sched_getaffinity = lambda pid: {{0, 1}}  # two CPUs, so one child per call
started = []
get_context = multiprocessing.get_context
multiprocessing.get_context = lambda: started.append(1) or get_context()
ctx = make_field(3, 1)
counting.KERNEL_CODES_PER_WORKER = 1
assert bruteforce_table(ctx, 3, 0, threads=2) == bruteforce_table(ctx, 3, 0)
counting.CHUNK_CODES = 64  # a sweep's 81 codes make two chunks
assert roundtrip_check(ctx, 2, 0, threads=2) == roundtrip_check(ctx, 2, 0)
counting.CHUNK_CODES = 512  # the 1000 sampled codes make two chunks
sampled = dict(budget=10, seed=3)
assert roundtrip_check(ctx, 3, 0, threads=2, **sampled) == roundtrip_check(ctx, 3, 0, **sampled)
print(multiprocessing.get_start_method(), len(started))
"""
    proc = _run_python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, method + " 3\n", "")


def test_no_pool_is_imported_without_a_pool():
    script = """
import contextlib, io, sys
import semicount.cli as cli
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()
def pooled():
    return sorted({"multiprocessing", "concurrent.futures.process"} & set(sys.modules))
print(run("count", "--field", "2^1", "--g", "3")[0], pooled())
verify = ("verify", "--field", "3^1", "--g", "3", "--threads")  # five chunks
one = run(*verify, "1")
print(one[0], pooled())
print(run(*verify, "2") == one, pooled())  # 19,683 codes pay for no child
import semicount.counting as counting
counting.KERNEL_CODES_PER_WORKER = 1
print(run(*verify, "2") == one, pooled())
import multiprocessing
print(multiprocessing.active_children())
"""
    proc = _run_python("-c", script)
    # a child starts only where the process may run on two CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool = "['multiprocessing']" if (cpus or 1) > 1 else "[]"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"0 []\n0 []\nTrue []\nTrue {pool}\n[]\n", "")


# faults in run_chunks' two processes: (the caller's job on chunk 0, the
# child's job on chunk 1, what run_chunks raises and the last line of its cause)
RUN_CHUNKS_FAULTS = {
    "child raises": ("pass", "raise ValueError(f'bad chunk {chunk.start}')",
                     "ValueError bad chunk 2\nValueError: bad chunk 2"),
    "child exits": ("pass", "os._exit(3)", "RuntimeError worker process exited with "
                    "code 3 before sending its results"),
    "caller raises": ("raise KeyError('caller')", "time.sleep(60)", "KeyError 'caller'"),
}


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
@pytest.mark.parametrize("fault", sorted(RUN_CHUNKS_FAULTS))
def test_run_chunks_faults_reach_the_caller(tmp_path, method, fault):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    caller, child, raised = RUN_CHUNKS_FAULTS[fault]
    # a file, not -c, so that spawn and forkserver children can import make_job
    script = tmp_path / "faults.py"
    script.write_text(f"""
import multiprocessing, os, time
from semicount import counting

def job(chunk):
    if chunk.start == 0:
        {caller}
    else:
        {child}
    return chunk

def make_job(ctx, g, tau):
    return job

if __name__ == "__main__":
    multiprocessing.set_start_method({method!r})
    os.sched_getaffinity = lambda pid: {{0, 1}}  # two CPUs, so one child starts
    try:
        counting.run_chunks(make_job, None, 0, 0, range(4), 2, 2)
    except Exception as exc:
        print(type(exc).__name__, exc)
        if exc.__cause__:  # the traceback in the child
            print(str(exc.__cause__).splitlines()[-1])
    print(multiprocessing.active_children())
""")
    # the child of "caller raises" sleeps for 60 s unless it is terminated
    proc = _run_python(str(script), timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{raised}\n[]\n", "")


# each exactness check in counting, faced with a fault that breaks it
EXACTNESS_FAULTS = {
    "subspaces": "counting._subspaces({3: [1, 2, 7], 2: [1, 1, 2]}, 3, 2)",
    "total_mass": "counting.route_cells = lambda g, q: [(r, s, 0, 0) for r, s in profiles(g)]\n"
                  "counting.formula_table(2, 2)",
    "coverage": "counting.RowKernel.tally = lambda self, start, stop: {(0, 0): 1}\n"
                "counting.bruteforce_table(make_field(2, 1), 2, 0)",
}


@pytest.mark.parametrize("check", sorted(EXACTNESS_FAULTS))
def test_exactness_checks_hold_under_python_O(check):
    proc = _run_python("-O", "-c", "import semicount.counting as counting\n"
                       "from semicount.counting import profiles\n"
                       "from semicount.gf import make_field\n" + EXACTNESS_FAULTS[check])
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ArithmeticError: ")


@pytest.mark.parametrize("g, r, s, n0, value", [
    (3, 0, 0, 2, "1/2"),  # N(3) / (2·N(3))
    (2, 2, 2, 4, "3/8"),  # 2·N(2) / 4², both even
])
def test_closed_form_prints_a_non_integer_in_lowest_terms(g, r, s, n0, value):
    N = counting._pochhammer(2, g)
    N[0] = n0
    with pytest.raises(ArithmeticError) as exc:
        counting._closed_form(N, g, r, s, 2)
    assert str(exc.value) == f"count is not an integer at g={g}, r={r}, s={s}, q=2: {value}"


def test_uncovered_codes_exit_as_a_mismatch_under_python_O():
    proc = _run_python("-O", "-c", "import sys\n"
                       "import semicount.counting as counting\n"
                       "from semicount.cli import main\n"
                       "counting.RowKernel.tally = lambda self, start, stop: {(0, 0): 1}\n"
                       "sys.exit(main(['verify', '--field', '2^1', '--g', '2']))")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "mismatch: chunks tallied 1 of the 16 maps\n"


# --- verification report ----------------------------------------------------------

def test_verify_counts_report_shape():
    report, ok = verify_counts(GF2, 2, 0)
    assert ok
    assert report["field"] == "2^1/0,1" and report["g"] == 2 and report["tau"] == 0
    cells = {(c["r"], c["s"]): c for c in report["cells"]}
    assert set(cells) == set(profiles(2))
    assert cells[(1, 1)]["theorem"] == "6"
    assert cells[(1, 1)]["staged"] == "6"
    assert cells[(1, 1)]["enumerated"] == "6"
    assert all(c["match"] for c in report["cells"])
    assert report["totals"] == {"theorem": "16", "enumerated": "16", "expected": "16"}
    assert report["corollaries"] == {"gl": True, "nilpotent": True, "total_mass": True}


def test_verify_counts_field_without_tables():
    # a large prime field: its own tables are O(q), and at g = 1 the
    # enumeration kernel builds none
    big = make_field(8191, 1)
    report, ok = verify_counts(big, 1, 0)
    assert ok
    assert report["totals"] == {"theorem": "8191", "enumerated": "8191", "expected": "8191"}


@pytest.mark.slow
@pytest.mark.parametrize("ctx, g", [(GF2, 5), (GF3, 4)])  # 2^25 and 3^16 maps
def test_verify_counts_largest_cells(ctx, g):
    report, ok = verify_counts(ctx, g, 0, threads=2)
    assert ok
    assert report["totals"]["enumerated"] == str(ctx.q ** (g * g))


def test_verify_counts_larger_field():
    report, ok = verify_counts(GF9, 2, 1)
    assert ok
    cells = {(c["r"], c["s"]): c["enumerated"] for c in report["cells"]}
    assert cells[(1, 0)] == "80"
    assert cells[(1, 1)] == "720"
    assert report["totals"]["expected"] == str(9 ** 4)


# --- randomized identities ---------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
       st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13]))
def test_property_route_equivalence(g, r, s, q):
    if not 0 <= s <= r <= g:
        r, s = sorted((r % (g + 1), s % (g + 1)))[::-1]
    assert closed_form_count(g, r, s, q) == staged_count(g, r, s, q)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.sampled_from([2, 3, 5, 9]))
def test_property_gaussian_symmetry(n, q):
    for d in range(n + 1):
        assert subspaces(n, d, q) == subspaces(n, n - d, q)
