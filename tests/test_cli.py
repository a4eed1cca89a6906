"""End-to-end tests of the command-line interface, run in process."""

import hashlib
import io
import json
import sys

import pytest

import semicount.cli as cli
from semicount.cli import main

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
    src.write_text("2 2 2^1\n1 0\n0 1\n", encoding="utf-8")  # matrix, not a map
    code, _, err = run(capsys, "mu", str(src))
    assert code == 2 and "tau" in err


def test_nu_rejects_wrong_row_count(capsys, tmp_path):
    src = tmp_path / "short.txt"
    src.write_text("2 2 2^1\n1 0\n", encoding="utf-8")
    code, _, err = run(capsys, "nu", str(src))
    assert code == 2 and "rows" in err


def test_missing_input_file_is_reported(capsys, tmp_path):
    code, _, err = run(capsys, "mu", str(tmp_path / "nope.txt"))
    assert code == 2 and "error" in err


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
        return counting.CountTable(q, g, table.route, None, entries)

    monkeypatch.setattr(counting, "formula_table", off_by_one)
    code, out, _ = run(capsys, "roundtrip", "--field", "2^1", "--g", "2")
    payload = json.loads(out)
    assert code == 1 and payload["failures"] == 0
    assert payload["formula_mismatch"] == [{"r": 1, "s": 0, "checked": 3, "theorem": "4"}]
    # a sample is not a census, so it is not compared
    code, out, _ = run(capsys, "roundtrip", "--field", "2^1", "--g", "2", "--budget", "10")
    assert code == 0 and "formula_mismatch" not in json.loads(out)


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


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "count", "--field", "2^1", "--g", "2", "--out", str(dest))
    assert code == 0 and out == ""
    payload = json.loads(dest.read_text(encoding="utf-8"))
    assert payload["total"] == "16"


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
    for spec in ["9^1", "2^2/1,0,1"]:                    # not prime; x^2+1 = (x+1)^2
        code, _, err = run(capsys, "count", "--field", spec, "--g", "2")
        assert code == 2 and "error" in err


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
    monkeypatch.setattr(sys, "stdin", io.StringIO(ADAPT_BASIS.format("2 0 1")))
    code, out, _ = run(capsys, "adapt")
    assert code == 0 and out == (
        '{"field": "3^1/0,1", "g": 3, "dims": [3, 2, 1], '
        '"basis": [[2, 0, 1], [2, 1, 0], [1, 0, 1]], "pivot_sets": [[0, 2], [0]]}\n')
