"""End-to-end tests of the command-line interface, run in process but for
a closed stdout, which needs a real pipe."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semicount.cli as cli
from semicount.cli import main
from semicount.gf import FiniteField

MAP_BLOCK = "tau 0\n2 2 2^1\n0 1\n0 0\n"
TUPLE_BLOCK = "2 2 2^1\n1 0\n0 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- count -----------------------------------------------------------------------

def test_count_single_cell(capsys):
    payload = run_json(capsys, "count", "--field", "2^1", "--g", "2", "--r", "1", "--s", "1")
    assert payload["theorem"] == "6" and payload["staged"] == "6"
    assert payload["match"] is True


def test_count_full_table(capsys):
    payload = run_json(capsys, "count", "--field", "3^1", "--g", "2")
    assert payload["q"] == 3 and payload["total"] == str(3 ** 4)
    cells = {(c["r"], c["s"]): c["theorem"] for c in payload["cells"]}
    assert cells[(2, 2)] == "48"
    assert cells[(2, 0)] == "0"


def test_count_g_zero(capsys):
    payload = run_json(capsys, "count", "--field", "5^1", "--g", "0")
    assert payload["total"] == "1"


def test_count_requires_r_and_s_together(capsys):
    code, _, err = run(capsys, "count", "--field", "2^1", "--g", "2", "--r", "1")
    assert code == 2 and "together" in err


def test_count_pretty_renders_table(capsys):
    code, out, _ = run(capsys, "count", "--field", "2^1", "--g", "1", "--pretty")
    assert code == 0
    assert out.startswith("field 2^1")
    assert "theorem" in out and "total 2" in out


def test_count_mismatch_exit_code(capsys, monkeypatch):
    # force the two routes apart to prove the wiring reports failure
    monkeypatch.setattr(cli, "staged_count", lambda g, r, s, q: -1)
    code, out, _ = run(capsys, "count", "--field", "2^1", "--g", "2", "--r", "1", "--s", "1")
    assert code == 1
    assert json.loads(out)["match"] is False


# --- verify ----------------------------------------------------------------------

def test_verify_small_field(capsys):
    payload = run_json(capsys, "verify", "--field", "2^1", "--g", "2")
    assert payload["totals"] == {"theorem": "16", "enumerated": "16", "expected": "16"}
    assert all(c["match"] for c in payload["cells"])
    assert payload["corollaries"] == {"gl": True, "nilpotent": True, "total_mass": True}


def test_verify_budget_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--field", "3^2", "--g", "2", "--budget", "100")
    assert code == 3 and "budget" in err


def test_verify_pretty(capsys):
    code, out, _ = run(capsys, "verify", "--field", "2^1", "--g", "2", "--pretty")
    assert code == 0
    assert "corollaries: gl=ok nilpotent=ok total_mass=ok" in out


def test_verify_output_independent_of_threads(capsys, monkeypatch):
    import semicount.counting as counting
    monkeypatch.setattr(counting, "CHUNK_CODES", 64)
    _, serial, _ = run(capsys, "verify", "--field", "3^1", "--g", "2", "--threads", "1")
    _, pooled, _ = run(capsys, "verify", "--field", "3^1", "--g", "2", "--threads", "3")
    assert serial == pooled


# --- adapt -----------------------------------------------------------------------

def test_adapt_from_file(capsys, tmp_path):
    src = tmp_path / "flag.txt"
    src.write_text("2 2 2^1\n1 0\n0 1\n\n1 2 2^1\n1 1\n", encoding="utf-8")
    payload = run_json(capsys, "adapt", str(src))
    assert payload["dims"] == [2, 1]
    assert payload["basis"] == [[0, 1], [1, 1]]
    assert payload["pivot_sets"] == [[0]]


def test_adapt_from_stdin(capsys, monkeypatch):
    text = "2 2 2^1\n1 0\n0 1\n\n1 2 2^1\n1 0\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    payload = run_json(capsys, "adapt")
    assert payload["basis"] == [[0, 1], [1, 0]]


def test_adapt_at_g_zero(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0 2^1\n\n0 0 2^1\n"))
    assert run(capsys, "adapt") == (0, '{"field": "2^1/0,1", "g": 0, "dims": [0], '
                                       '"basis": [], "pivot_sets": []}\n', "")


def test_adapt_rejects_mixed_fields(capsys, tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("2 2 2^1\n1 0\n0 1\n\n1 2 3^1\n1 0\n", encoding="utf-8")
    code, _, err = run(capsys, "adapt", str(src))
    assert code == 2 and "same field" in err


# --- mu / nu ----------------------------------------------------------------------

def test_mu_encodes_nilpotent_map(capsys, tmp_path):
    src = tmp_path / "map.txt"
    src.write_text(MAP_BLOCK, encoding="utf-8")
    payload = run_json(capsys, "mu", str(src))
    assert payload["tuple"] == [[1, 0], [0, 0]]
    assert payload["profile"] == {"r": 1, "s": 0}
    assert payload["block"].splitlines()[0] == "2 2 2^1/0,1"


def test_nu_decodes_tuple(capsys, tmp_path):
    src = tmp_path / "tuple.txt"
    src.write_text(TUPLE_BLOCK, encoding="utf-8")
    payload = run_json(capsys, "nu", "--tau", "0", str(src))
    assert payload["matrix"] == [[0, 1], [0, 0]]
    assert payload["profile"] == {"r": 1, "s": 0}
    assert payload["block"].startswith("tau 0\n")


def test_mu_then_nu_recovers_map_via_blocks(capsys, tmp_path):
    first = tmp_path / "map.txt"
    first.write_text("tau 1\n2 2 2^2\n2 1\n3 0\n", encoding="utf-8")
    encoded = run_json(capsys, "mu", str(first))
    second = tmp_path / "tuple.txt"
    second.write_text(encoded["block"] + "\n", encoding="utf-8")
    decoded = run_json(capsys, "nu", "--tau", "1", str(second))
    assert decoded["matrix"] == [[2, 1], [3, 0]]
    assert decoded["block"] == "tau 1\n2 2 2^2/1,1,1\n2 1\n3 0"


def test_mu_rejects_malformed_block(capsys, tmp_path):
    src = tmp_path / "junk.txt"
    for text, message in [
        ("2 2 2^1\n1 0\n0 1\n",  # matrix, not a map
         "map block must start with 'tau <i>', got '2 2 2^1'"),
        ("tau x\n2 2 2^1\n1 0\n0 1\n", "non-integer tau in 'tau x'"),
    ]:
        src.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "mu", str(src))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_nu_rejects_wrong_row_count(capsys, tmp_path):
    src = tmp_path / "short.txt"
    src.write_text("2 2 2^1\n1 0\n", encoding="utf-8")
    code, _, err = run(capsys, "nu", str(src))
    assert code == 2 and "rows" in err


def test_missing_input_file_is_reported(capsys, tmp_path):
    code, _, err = run(capsys, "mu", str(tmp_path / "nope.txt"))
    assert code == 2 and "error" in err


def test_unwritable_out_path_is_reported(capsys, monkeypatch, tmp_path):
    out_path = str(tmp_path / "missing" / "r.json")
    monkeypatch.setattr(sys, "stdin", io.StringIO(MAP_BLOCK))
    for argv in [("count", "--field", "2^1", "--g", "2"), ("mu",)]:
        code, out, err = run(capsys, *argv, "--out", out_path)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_closed_stdout_exits_quietly():
    # the reader takes one byte and closes the pipe, as `| head -c 1` does,
    # while the report (about 700 KB) still fills the pipe's buffer
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "semicount", "count", "--field", "2^1", "--g", "40"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1]
    assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 141 and "141" in cli.__doc__


# --- roundtrip ----------------------------------------------------------------------

def test_roundtrip_exhaustive(capsys):
    payload = run_json(capsys, "roundtrip", "--field", "2^1", "--g", "2")
    assert payload["mode"] == "exhaustive"
    assert payload["maps_checked"] == 16 and payload["failures"] == 0


def test_roundtrip_sampled_over_budget(capsys):
    payload = run_json(
        capsys, "roundtrip", "--field", "3^1", "--g", "2",
        "--budget", "10", "--seed", "11")
    assert payload["mode"] == "sampled" and payload["seed"] == 11
    assert payload["failures"] == 0


def test_roundtrip_fails_when_tallies_disagree_with_the_formula(capsys, monkeypatch):
    # an exhaustive sweep is held to formula_table: shift one count by one
    import semicount.counting as counting
    real = counting.formula_table

    def off_by_one(g, q):
        table = real(g, q)
        entries = dict(table.entries)
        entries[(1, 0)] += 1
        return counting.CountTable(q, g, entries)

    monkeypatch.setattr(counting, "formula_table", off_by_one)
    code, out, _ = run(capsys, "roundtrip", "--field", "2^1", "--g", "2")
    payload = json.loads(out)
    assert code == 1 and payload["failures"] == 0
    assert payload["formula_mismatch"] == [{"r": 1, "s": 0, "checked": 3, "theorem": "4"}]
    # a sample is not a census, so it is not compared
    code, out, _ = run(capsys, "roundtrip", "--field", "2^1", "--g", "2", "--budget", "10")
    assert code == 0 and "formula_mismatch" not in json.loads(out)


def test_roundtrip_reports_the_codes_a_faulty_decoder_breaks(capsys, monkeypatch):
    # every rank-1 decode adds 1 to the last entry of its matrix; one worker
    # keeps the sweep in this process, where the patch holds
    import semicount.bijection as bijection
    real = bijection._decode

    def faulty(ctx, g, tau, x):
        a, r, s = real(ctx, g, tau, x)
        if r == 1:
            a[-1] = ctx.add(a[-1], 1)
        return a, r, s

    monkeypatch.setattr(bijection, "_decode", faulty)
    code, out, _ = run(capsys, "roundtrip", "--field", "2^1", "--g", "3", "--threads", "1")
    payload = json.loads(out)
    assert code == 1 and payload["maps_checked"] == 512 and payload["failures"] == 49
    assert payload["failing_codes"] == [str(c) for c in (
        1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 18, 24, 27, 32, 36, 40, 45, 48, 54, 56)]
    assert "formula_mismatch" not in payload


# --- misc plumbing ---------------------------------------------------------------

def test_field_info(capsys):
    payload = run_json(capsys, "field-info", "--field", "2^2")
    assert payload == {
        "spec": "2^2/1,1,1",
        "p": 2,
        "d": 2,
        "q": 4,
        "modulus": [1, 1, 1],
        "modulus_str": "1+x+x^2",
        "frobenius_exponents": [0, 1],
    }


def test_field_info_rejects_non_prime(capsys):
    code, _, err = run(capsys, "field-info", "--field", "9^1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("spec, message", [
    ("2^", "malformed field spec '2^'; expected 'p^d' or 'p^d/c0,c1,...'"),
    ("2^2/", "malformed modulus in field spec '2^2/'"),
])
def test_field_spec_with_a_dangling_separator_exits_2(capsys, spec, message):
    assert run(capsys, "field-info", "--field", spec) == (2, "", f"error: {message}\n")


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "count", "--field", "2^1", "--g", "2", "--out", str(dest))
    assert code == 0 and out == ""
    payload = json.loads(dest.read_text(encoding="utf-8"))
    assert payload["total"] == "16"


def test_the_shared_parser_keeps_no_state(capsys, tmp_path):
    argv = ("count", "--field", "3^1", "--g", "2")
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "3"])
    assert exc.value.code == 2
    assert run(capsys, "verify", "--field", "2^1", "--g", "2", "--pretty")[0] == 0
    assert run(capsys, *argv, "--out", str(tmp_path / "r.json")) == (0, "", "")
    assert run(capsys, *argv, "--r", "1", "--s", "1")[0] == 0
    assert run(capsys, *argv) == first
    assert vars(cli.PARSER.parse_args(argv)) == vars(cli._build_parser().parse_args(argv))


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for command in ("count", "verify", "adapt", "mu", "nu", "roundtrip", "field-info"):
        assert command in out
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--r R" in out and "--s S" in out


def test_json_output_is_stable(capsys):
    _, first, _ = run(capsys, "verify", "--field", "2^1", "--g", "2")
    _, second, _ = run(capsys, "verify", "--field", "2^1", "--g", "2")
    assert first == second


@pytest.mark.parametrize("command", ["verify", "roundtrip"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_worker_count_below_one_is_rejected(capsys, command, threads):
    code, out, err = run(capsys, command, "--field", "2^1", "--g", "2", "--threads", threads)
    assert code == 2 and out == "" and "--threads" in err


def test_count_builds_no_field_tables(capsys, monkeypatch):
    import semicount.gf as gf
    monkeypatch.setattr(gf.FiniteField, "_build_tables",
                        lambda self: pytest.fail("field tables built"))
    code, out, _ = run(capsys, "count", "--field", "2^8", "--g", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "611b6488148ca06044532bb41674cd5a0292ff270c27c134affee4d3dd028f52")
    for spec, message in [("9^1", "p = 9 is not prime"),
                          ("2^2/1,0,1", "modulus [1, 0, 1] is reducible over GF(2)"),
                          ("2^2/1,2,1", "modulus coefficients must lie in [0, p)")]:
        assert run(capsys, "count", "--field", spec, "--g", "2") == (2, "", f"error: {message}\n")


def test_field_size_bound_exits_2_without_building_a_field(capsys, monkeypatch):
    import semicount.gf as gf
    monkeypatch.setattr(gf.FiniteField, "_build_tables",
                        lambda self: pytest.fail("field tables built"))
    for argv in [("verify", "--field", "2^17", "--g", "1"),
                 ("roundtrip", "--field", "65537^1", "--g", "1")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "FIELD_LIMIT = 65536" in err, argv
    # the formulas need q only, so count and field-info take any size
    code, out, _ = run(capsys, "count", "--field", "2^17", "--g", "2")
    assert code == 0 and json.loads(out)["q"] == 1 << 17
    code, out, _ = run(capsys, "field-info", "--field", "2^17")
    assert code == 0 and json.loads(out)["q"] == 1 << 17


def test_spec_only_routes_take_large_primes_and_degrees(capsys):
    # trial division hung on both: primality of 2^61 - 1, irreducibility at d = 40
    payload = run_json(capsys, "count", "--field", "2305843009213693951^1", "--g", "1")
    assert payload["field"] == "2305843009213693951^1/0,1"
    assert payload["total"] == "2305843009213693951"
    payload = run_json(capsys, "count", "--field", "2^40", "--g", "1")
    assert payload["total"] == str(1 << 40)
    code, out, err = run(capsys, "count", "--field", f"{2 ** 89 - 1}^1", "--g", "1")
    assert code == 2 and out == "" and "PRIME_LIMIT" in err


def test_largest_prime_field_under_the_bound_is_built(capsys):
    payload = run_json(capsys, "verify", "--field", "65521^1", "--g", "1")
    assert payload["totals"]["enumerated"] == "65521"


ADAPT_BASIS = "3 3 3^1\n1 1 0\n0 1 2\n{}\n\n2 3 3^1\n1 2 0\n0 1 1\n\n1 3 3^1\n1 0 1\n"


def test_adapt_rejects_a_singular_basis(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(ADAPT_BASIS.format("1 2 2")))
    code, _, err = run(capsys, "adapt")
    assert code == 2 and "e_basis is not a basis" in err


def _g48_blocks() -> tuple[str, str]:
    """A map block and a tuple block at g = 48 over GF(2^8), tau = 1, both
    of profile (47, 32), from a seeded generator.  M is a strictly upper
    triangular 16x16 block beside a random 32x32 block, and P a random
    change of basis: the map is P^(-1)·M·tau(P), whose image flag has 17
    members, and the tuple is the rows of M·P, whose induced flag does."""
    import random
    from semicount.gf import make_field
    from semicount.linalg import Matrix, map_entries, mat_inverse, mat_mul
    ctx = make_field(2, 8)
    rng = random.Random("mu nu g=48")
    g, k = 48, 16

    def entry(i, j):
        if i < k and j < k:
            return rng.randrange(1 if j == i + 1 else 0, 256) if j > i else 0
        return rng.randrange(256) if i >= k and j >= k else 0

    M = Matrix(ctx, g, g, tuple(entry(i, j) for i in range(g) for j in range(g)))
    P = Matrix(ctx, g, g, tuple(rng.randrange(256) for _ in range(g * g)))
    A = mat_mul(mat_inverse(P), mat_mul(M, map_entries(P, 1)))
    block = cli.format_matrix_block
    return f"tau 1\n{block(A)}\n", f"{block(mat_mul(M, P))}\n"


def _flag_input(g: int, step: int) -> str:
    """An adapt input over GF(2^8) from a seeded generator: a random basis,
    then one member for each k in range(1, g, step), spanned by the suffix
    C[k:] of the rows of a random matrix C and given as a random
    combination of it.  With step 1 the flag is full: dimensions g-1..1."""
    import random
    from semicount.gf import make_field
    from semicount.linalg import Matrix, mat_mul
    ctx = make_field(2, 8)
    rng = random.Random(f"adapt g={g}")

    def random_matrix(rows, cols):
        return Matrix(ctx, rows, cols, tuple(rng.randrange(256) for _ in range(rows * cols)))

    blocks = [cli.format_matrix_block(random_matrix(g, g))]
    C = random_matrix(g, g)
    for k in range(1, g, step):
        suffix = Matrix(ctx, g - k, g, C.entries[k * g:])
        blocks.append(cli.format_matrix_block(mat_mul(random_matrix(g - k, g - k), suffix)))
    return "\n\n".join(blocks) + "\n"


def test_golden_outputs(capsys, monkeypatch):
    # stdout pinned byte for byte; a refactor of the bijection path must
    # leave every one of these unchanged
    pinned = {
        ("roundtrip", "--field", "2^1", "--g", "3"):
            "377e62d51e7a6cffc4c68c2e5ddeb70fe89c3ea15a47a37a4d8e523ba0ed5f22",
        ("roundtrip", "--field", "3^2", "--g", "2", "--tau", "1"):
            "cf774607865f4dff8b1ac9db188d1d645522ac00999b93c9d1408cc7b03f7c6d",
        ("roundtrip", "--field", "2^4", "--g", "3", "--tau", "1", "--seed", "3"):
            "02657d1d369ab83c94f65324cce169d0782745705e0016543b371a7b46b2d787",
    }
    for argv, digest in pinned.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv
    # mu and nu, pinned before they moved onto the coded core
    blocks = {
        ("mu", "tau 0\n0 0 2^1\n"):
            "cac6fa46295447fa3344019e1da44662675d03c5469442d52abc46b6d1a86924",
        ("mu", "tau 1\n2 2 2^2\n2 3\n1 0\n"):
            "c6b89112bfafbfc952aa9a0e4bbbae0f16deef52226cb7b07fe6e39574105655",
        ("mu", "tau 0\n3 3 3^1\n0 1 2\n0 0 1\n0 0 0\n"):
            "b266cf5ef6c7a3bf3b66fda9d74c06220f5ff4f70d0c33959c52f310038201be",
        ("mu", "tau 1\n3 3 3^2\n1 4 0\n2 8 0\n0 0 0\n"):
            "e5278f7aaacfa6c42cddcd876c0e770746e7d1cbc6b2ed33bf72a55cc836aa6e",
        ("mu", "tau 7\n3 3 2^3\n0 5 0\n3 0 0\n0 0 6\n"):
            "59fa5392caf3af1c3344451ba735637dec2f3d893b60ec58fc8876be774cbf14",
    }
    for text, digests in [
        ("0 0 2^1\n", ["3b8d206432c80cb85e8a1310d6863c43517db907dc6d5680aaa270c382e8ba99"] * 3),
        ("3 3 3^1\n1 2 0\n0 0 0\n2 1 0\n",
         ["2e53ba5bf5a36aec23ec0f20313730b12952aaa5eadd47d877fbce3032763f97"] * 3),
        ("3 3 2^2\n0 0 0\n1 0 3\n2 0 1\n",
         ["649315779869a443fb86e45256f6388adeab4bcc19d55554df5b437237f31117"]
         + ["7dab3303277eba62743c284416ec60fb558cc4941ea77ff486a974aba3d1ff3c"] * 2),
        ("2 2 5^1\n1 4\n2 3\n",
         ["164dabf21da25c57238b42f1a9e9b8ab78357cea1b88be2be0de6e6827102deb"] * 3),
    ]:
        for tau, digest in zip(("0", "1", "-1"), digests):
            blocks["nu", "--tau", tau, text] = digest
    map_48, tuple_48 = _g48_blocks()
    blocks["mu", map_48] = "fb059876754a2cb574303a5e972a991fff029722f08352518866903e47c67396"
    blocks["nu", "--tau", "1", tuple_48] = (
        "96b6fd7531a18020c1ff53149d9a23771d026fe6ce45ca5ec2d4bf093141a09a")
    blocks["adapt", _flag_input(48, 3)] = (
        "915f813c3cb31e9019b09219c9ce4139b8bb3ccd95fc7cecd79223b69c665708")
    blocks["adapt", _flag_input(32, 1)] = (
        "66e1639b34274fbe8b22fe16661d9287d80e2e274e258c0230fac161cc8bf66d")
    for (*argv, text), digest in blocks.items():
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, (argv, text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(ADAPT_BASIS.format("2 0 1")))
    code, out, _ = run(capsys, "adapt")
    assert code == 0 and out == (
        '{"field": "3^1/0,1", "g": 3, "dims": [3, 2, 1], '
        '"basis": [[2, 0, 1], [2, 1, 0], [1, 0, 1]], "pivot_sets": [[0, 2], [0]]}\n')


def test_verify_and_count_reports_pinned(capsys):
    # stdout of the parent of the single census pass, byte for byte
    pinned = {
        ("verify", "--field", "3^1", "--g", "2"):
            "fed5c517215834b256e67de5a532de755e3c06e607bfd42d82d715076724f89b",
        ("verify", "--field", "3^1", "--g", "2", "--pretty"):
            "c067173b89c45959ac7b033e4ccdccc9ba17f9f1f5d3cfc9d24ff4b6ebbd3dce",
        ("verify", "--field", "2^2", "--g", "2", "--tau", "1"):
            "38411e711e8bbfabb8aa84895b82a79b647b182cc95bf96a5fcddf4833f66f30",
        ("verify", "--field", "2^2", "--g", "2", "--tau", "1", "--pretty"):
            "7e00bc72a97dd7104b4691cd44a416374ac03cb06e1fa0e82027d5c11b283545",
        ("count", "--field", "3^1", "--g", "3", "--pretty"):
            "877a9d1b531899b3f25016c9142339b36d0c2471dfd333ce171f82f9aa050de0",
    }
    for argv, digest in pinned.items():
        for threads in ([], ["--threads", "2"]) if argv[0] == "verify" else ([],):
            code, out, _ = run(capsys, *argv, *threads)
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


def _staged_off_by_one_at_1_0(monkeypatch):
    import semicount.counting as counting
    real = counting._staged
    monkeypatch.setattr(counting, "_staged",
                        lambda rows, g, r, s, q: real(rows, g, r, s, q) + ((r, s) == (1, 0)))


def test_route_disagreement_is_reported_not_raised(capsys, monkeypatch):
    _staged_off_by_one_at_1_0(monkeypatch)
    for argv in [("count", "--field", "2^1", "--g", "2"),
                 ("verify", "--field", "2^1", "--g", "2")]:
        code, out, _ = run(capsys, *argv)
        matches = {(c["r"], c["s"]): c["match"] for c in json.loads(out)["cells"]}
        assert code == 1 and matches.pop((1, 0)) is False and all(matches.values()), argv
    # the round trip holds its tallies to formula_table, which refuses to pick a route
    code, out, err = run(capsys, "roundtrip", "--field", "2^1", "--g", "2")
    assert code == 1 and out == "" and "routes disagree at g=2, r=1, s=0" in err
    # a sample is not compared with the census, so it never asks for one
    code, out, _ = run(capsys, "roundtrip", "--field", "2^1", "--g", "2", "--budget", "10")
    assert code == 0 and json.loads(out)["failures"] == 0


def test_count_exits_1_when_the_census_misses_its_total(capsys, monkeypatch):
    # both routes agree on a wrong cell: every match holds, the total does not
    import semicount.counting as counting
    real = counting.route_cells
    monkeypatch.setattr(counting, "route_cells", lambda g, q: [
        (r, s, a + 1, b + 1) if (r, s) == (0, 0) else (r, s, a, b)
        for r, s, a, b in real(g, q)])
    code, out, _ = run(capsys, "count", "--field", "2^1", "--g", "2")
    payload = json.loads(out)
    assert code == 1 and payload["total"] == "17"
    assert all(c["match"] for c in payload["cells"])


def test_a_fractional_subspace_count_exits_1(capsys, monkeypatch):
    # entry 1 of every staged row n >= 2 off by one: [3 1]_3 reads 27/2
    import semicount.counting as counting
    real = counting._falling_row

    def faulty(q, n):
        row = real(q, n)
        if n >= 2:
            row[1] += 1
        return row

    monkeypatch.setattr(counting, "_falling_row", faulty)
    assert run(capsys, "count", "--field", "3^1", "--g", "3") == (
        1, "", "mismatch: subspace count is not an integer at n=3, d=1\n")


def test_closed_form_refusing_to_round_exits_1(capsys, monkeypatch):
    import semicount.counting as counting

    def refuses(N, g, r, s, q):
        raise ArithmeticError(f"count is not an integer at g={g}, r={r}, s={s}, q={q}")

    monkeypatch.setattr(counting, "_closed_form", refuses)
    code, out, err = run(capsys, "count", "--field", "2^1", "--g", "2")
    assert code == 1 and out == "" and "not an integer" in err


def test_verify_checks_the_budget_before_any_formula_work(capsys, monkeypatch):
    import semicount.counting as counting
    for name in ("_pochhammer", "_falling_row", "_closed_form", "_staged"):
        monkeypatch.setattr(counting, name, lambda *args: pytest.fail("formula evaluated"))
    code, out, err = run(capsys, "verify", "--field", "13^1", "--g", "40")
    assert code == 3 and out == "" and "13^1600 exceeds budget" in err


@pytest.mark.parametrize("argv", [
    ("count", "--field", "3^1", "--g", "3"),
    ("count", "--field", "3^1", "--g", "3", "--pretty"),
    ("verify", "--field", "3^1", "--g", "2"),
    ("verify", "--field", "2^2", "--g", "2", "--tau", "1", "--threads", "2"),
])
def test_each_route_runs_once_per_cell(capsys, monkeypatch, argv):
    import collections
    import semicount.counting as counting
    calls = collections.Counter()
    for name in ("_closed_form", "_staged"):
        def counted(table, g, r, s, q, real=getattr(counting, name), name=name):
            calls[name, r, s] += 1
            return real(table, g, r, s, q)
        monkeypatch.setattr(counting, name, counted)
    code, _, _ = run(capsys, *argv)
    g = int(argv[argv.index("--g") + 1])
    assert code == 0
    assert calls == {(name, r, s): 1 for name in ("_closed_form", "_staged")
                     for r, s in counting.profiles(g)}


# --- bounds on g, on printed size and on the field spec ----------------------------

@pytest.mark.parametrize("q", [2, 11])
def test_count_at_the_g_bound(capsys, q):
    # 11^(64^2) has 4,265 digits, just under Python's limit on printed integers
    g = cli.G_LIMIT
    payload = run_json(capsys, "count", "--field", f"{q}^1", "--g", str(g))
    cells = {(c["r"], c["s"]): c for c in payload["cells"]}
    assert len(cells) == (g + 1) * (g + 2) // 2
    assert all(c["match"] is True and c["staged"] == c["theorem"] for c in cells.values())
    assert payload["total"] == str(q ** (g * g))
    gl = 1
    for i in range(g):
        gl *= q ** g - q ** i
    assert cells[g, g]["theorem"] == str(gl)
    assert sum(int(cells[r, 0]["theorem"]) for r in range(g + 1)) == q ** (g * g - g)


@pytest.mark.parametrize("argv", [
    ("roundtrip", "--field", "2^1", "--g", "3000"),
    ("roundtrip", "--field", "2^1", "--g", "65"),
    ("count", "--field", "2^1", "--g", "65"),
    ("verify", "--field", "2^1", "--g", "65"),
    ("count", "--field", "2^1", "--g", "-1"),
    ("roundtrip", "--field", "2^1", "--g", "-1"),
])
def test_g_outside_its_bounds_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and f"G_LIMIT = {cli.G_LIMIT}" in err
    assert cli.G_LIMIT == 64


def test_roundtrip_at_g_zero(capsys):
    # like count, verify, mu, nu and adapt: the one map of the 0-space
    payload = run_json(capsys, "roundtrip", "--field", "2^1", "--g", "0")
    assert payload["maps_checked"] == 1 and payload["failures"] == 0
    assert payload["per_profile"] == [{"r": 0, "s": 0, "checked": 1}]


@pytest.mark.parametrize("argv, power", [
    (("count", "--field", "2305843009213693951^1", "--g", "16"), "2305843009213693951^256"),
    (("count", "--field", "2^64", "--g", "64"), "18446744073709551616^4096"),
    (("verify", "--field", "2^8", "--g", "50"), "256^2500"),
    (("roundtrip", "--field", "2^16", "--g", "64"), "65536^4096"),
])
def test_census_too_long_to_print_exits_2_up_front(capsys, argv, power):
    # each used to fail on Python's own digit limit, count 2^64 after 280 s
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"q^(g^2) = {power} has more than 4300 decimal digits" in err
    assert "Exceeds the limit" not in err


def test_digit_bound_is_exact(capsys, monkeypatch):
    # 7^100 has 85 decimal digits
    monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 85)
    payload = run_json(capsys, "count", "--field", "7^1", "--g", "10")
    assert payload["total"] == str(7 ** 100)
    monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 84)
    code, _, err = run(capsys, "count", "--field", "7^1", "--g", "10")
    assert code == 2 and "7^100 has more than 84 decimal digits" in err


@pytest.mark.parametrize("limit", [30, 85, 301])
@pytest.mark.parametrize("q", [2, 3, 11, 13])
def test_digit_bound_at_the_largest_g(capsys, monkeypatch, q, limit):
    monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: limit)
    g = max(g for g in range(cli.G_LIMIT) if q ** (g * g) < 10**limit)
    payload = run_json(capsys, "count", "--field", f"{q}^1", "--g", str(g))
    assert payload["total"] == str(q ** (g * g))
    n = (g + 1) ** 2
    assert run(capsys, "count", "--field", f"{q}^1", "--g", str(g + 1)) == (
        2, "", f"error: q^(g^2) = {q}^{n} has more than {limit} decimal digits, the bound "
               f"sys.get_int_max_str_digits() = {limit} on printed integers\n")


def test_digit_bound_near_and_far_from_the_limit(monkeypatch):
    def refused(g, q, limit):
        monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: limit)
        try:
            cli._check_g(g, q)
        except ValueError as exc:
            assert f"has more than {limit} decimal digits" in str(exc)
            return True
        return False

    # 10^(g^2) has g^2 + 1 digits and an estimate of exactly g^2 digits: the
    # limits g^2 - 1, g^2, g^2 + 1 refuse by the estimate, by the exact
    # comparison and pass by the estimate
    for g in range(2, 9):
        assert [refused(g, 10, g * g + k) for k in (-1, 0, 1)] == [True, True, False]
    # 9^9 = 387420489: an estimate of 8.59 digits, within one of both limits
    assert refused(3, 9, 8) and not refused(3, 9, 9)
    # the prime 10^18 - 11 has a log10 that rounds to exactly 18.0, so its
    # powers have estimates of whole digit counts they do not reach
    for g in (1, 2):
        assert not refused(g, 10**18 - 11, 18 * g * g) and refused(g, 10**18 - 11, 18 * g * g - 1)
    for q in range(2, 14):
        for g in range(7):
            for limit in range(1, 40):
                assert refused(g, q, limit) == (q ** (g * g) >= 10**limit)


@pytest.mark.parametrize("argv", [
    ("roundtrip", "--field", "2^1", "--g", "9", "--budget", "100000000000000000000000000000"),
    ("roundtrip", "--field", "2^1", "--g", "2", "--budget", "-1"),
    ("verify", "--field", "2^1", "--g", "2", "--budget", "-1"),
    ("verify", "--field", "2^1", "--g", "2", "--budget", str(2**30 + 1)),
])
def test_budget_outside_its_bounds_exits_2(capsys, monkeypatch, argv):
    # refused before the field is built
    monkeypatch.setattr(cli, "parse_field_spec", lambda spec: pytest.fail("field built"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"--budget must lie in [0, {2**30}], the bound BUDGET_LIMIT = 2^30" in err
    assert cli.BUDGET_LIMIT == 2**30


def test_budget_bounds_are_inclusive(capsys):
    payload = run_json(capsys, "verify", "--field", "2^1", "--g", "2", "--budget", str(2**30))
    assert payload["totals"]["enumerated"] == "16"
    payload = run_json(capsys, "roundtrip", "--field", "2^1", "--g", "1", "--budget", "0")
    assert payload["mode"] == "sampled" and payload["failures"] == 0
    code, _, err = run(capsys, "verify", "--field", "2^1", "--g", "1", "--budget", "0")
    assert code == 3 and "exceeds budget 0" in err


def test_verify_takes_no_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--field", "2^1", "--g", "1", "--seed", "3"])
    assert exc.value.code == 2 and "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_budget_message_names_the_power(capsys):
    code, out, err = run(capsys, "verify", "--field", "2^1", "--g", "48")
    assert code == 3 and out == ""
    assert err == "budget exceeded: q^(g^2) = 2^2304 exceeds budget 67108864\n"


@pytest.mark.parametrize("argv, bound", [
    (("count", "--field", "1000003^4", "--g", "1"), "SEARCH_LIMIT"),
    (("count", "--field", "2305843009213693951^4", "--g", "1"), "SEARCH_LIMIT"),
    (("count", "--field", "1000000000000000841^3", "--g", "1"), "SEARCH_LIMIT"),
    (("field-info", "--field", "65519^4"), "SEARCH_LIMIT"),
    (("count", "--field", "2^80", "--g", "1"), "DEGREE_LIMIT"),
    (("verify", "--field", "1000003^4", "--g", "1"), "FIELD_LIMIT"),
])
def test_spec_bounds_exit_2(capsys, argv, bound):
    # each hung: the default-modulus search walked every binomial first
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and bound in err
    if bound == "SEARCH_LIMIT":
        assert "pass the modulus explicitly" in err


def test_explicit_modulus_skips_the_search(capsys):
    payload = run_json(capsys, "count", "--field", "1000003^4/1,1,0,0,1", "--g", "1")
    assert payload["q"] == 1000003 ** 4
    payload = run_json(capsys, "count", "--field", "2^64", "--g", "2")
    assert payload["total"] == str(2 ** 256)


def test_adapt_builds_its_field_once(capsys, monkeypatch):
    builds = []
    build_tables = FiniteField._build_tables
    monkeypatch.setattr(FiniteField, "_build_tables",
                        lambda self: builds.append(self.q) or build_tables(self))
    # the same field written three ways: default, explicit and canonical modulus
    text = "3 3 2^2\n1 0 0\n0 1 0\n0 0 1\n\n2 3 2^2/1,1,1\n1 3 0\n0 0 1\n\n1 3 2^2/1,1,1\n0 0 2\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    payload = run_json(capsys, "adapt")
    assert builds == [4] and payload["field"] == "2^2/1,1,1" and payload["dims"] == [3, 2, 1]


@pytest.mark.parametrize("command", ["mu", "nu", "adapt"])
def test_block_dimensions_are_bounded(capsys, monkeypatch, command):
    tau = "tau 0\n" if command == "mu" else ""

    def rows(n, g):
        return "".join(" ".join("1" if i == j else "0" for j in range(g)) + "\n"
                       for i in range(n))

    def member(g):
        return f"\n1 {g} 2^1\n{rows(1, g)}" if command == "adapt" else ""

    # refused from the header, before its field spec or any row is read
    for text in (f"65 65 2^1\n{rows(65, 65)}", "65 1 x\n", "1 65 x\n"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(tau + text + member(65)))
        header = text.split("\n")[0]
        assert run(capsys, command) == (
            2, "", f"error: block rows and cols must be at most G_LIMIT = 64, got {header!r}\n")
    g = cli.G_LIMIT
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{tau}{g} {g} 2^1\n{rows(g, g)}{member(g)}"))
    code, out, err = run(capsys, command)
    assert code == 0 and json.loads(out)["g"] == g, err


@pytest.mark.parametrize("command", ["mu", "nu", "adapt"])
@pytest.mark.parametrize("header, rows", [("-1 2 2^1", ""), ("2 -2 2^1", "1 0\n0 1\n"),
                                          ("0 -1 2^1", "")])
def test_negative_block_dimensions_exit_2(capsys, monkeypatch, command, header, rows):
    tau = "tau 0\n" if command == "mu" else ""
    member = "\n1 2 2^1\n1 0\n" if command == "adapt" else ""
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{tau}{header}\n{rows}{member}"))
    assert run(capsys, command) == (
        2, "", f"error: block rows and cols must be >= 0, got {header!r}\n")


def test_adapt_parses_each_spec_text_once(capsys, monkeypatch):
    import semicount.gf as gf
    searches = []
    least_irreducible = gf._least_irreducible
    monkeypatch.setattr(gf, "_least_irreducible",
                        lambda p, d: searches.append((p, d)) or least_irreducible(p, d))
    text = "2 2 2^8\n1 0\n0 1\n\n1 2 2^8\n1 2\n\n0 2 2^8\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run_json(capsys, "adapt")["dims"] == [2, 1, 0]
    assert searches == [(2, 8)]


@pytest.mark.parametrize("member, message", [
    ("1 2 2^2/1,0,1\n1 0\n", "modulus [1, 0, 1] is reducible over GF(2)"),
    ("1 2 3^1\n1 0\n1 0\n", "expected 1 rows after header, got 2"),
    ("1 2 2^1\n3 0\n", "entry code out of field range"),
    ("1 2 2^1\n1 0\n", "all blocks must use the same field"),
    ("1 3 2^2\n1 0 0\n", "flag member vectors must have length g"),
])
def test_adapt_member_errors_keep_their_order(capsys, monkeypatch, member, message):
    # the member block is parsed whole before its field is compared
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 2 2^2\n1 0\n0 1\n\n" + member))
    code, out, err = run(capsys, "adapt")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_each_command_loads_only_what_it_runs():
    from test_counting import _run_python

    script = """
import contextlib, io, sys
before = set(sys.modules)
import semicount.cli as cli
def run(*argv, stdin=""):
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()
def loaded():
    names = {"semicount.flags", "semicount.bijection", "semicount.linalg",
             "semicount.semilinear", "fractions", "decimal"}
    return sorted(names & set(sys.modules))
if sys.argv[1] == "all":
    import semicount.bijection, semicount.flags
print(run("count", "--field", "2^1", "--g", "3")[0], loaded())
print(run("verify", "--field", "2^1", "--g", "3", "--threads", "1")[0], loaded())
print(run("field-info", "--field", "2^3")[0], loaded())
print(run("adapt", stdin="2 2 2^1\\n1 0\\n0 1\\n\\n1 2 2^1\\n1 1\\n"))
print(run("mu", stdin="tau 1\\n2 2 2^2\\n2 3\\n1 0\\n"))
print(run("nu", "--tau", "1", stdin="2 2 2^2\\n2 1\\n3 0\\n"))
print(run("roundtrip", "--field", "2^1", "--g", "2"))
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
print(loaded())
"""
    lean, eager = (_run_python("-c", script, first) for first in ("lean", "all"))
    assert lean.returncode == eager.returncode == 0 and lean.stderr == eager.stderr == ""
    lean, eager = lean.stdout.splitlines(), eager.stdout.splitlines()
    assert lean[:3] == ["0 []"] * 3
    assert lean[3:7] == eager[3:7] and all(line.startswith("(0, '{") for line in lean[3:7])
    # no command, the matrix commands included, loads dataclasses or inspect
    assert lean[7] == eager[7] == "[]"
    assert lean[-1] == ("['semicount.bijection', 'semicount.flags', "
                        "'semicount.linalg', 'semicount.semilinear']")
