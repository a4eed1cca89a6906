"""Hypothesis fuzzing of the text-block parsers and of CLI argument vectors.

Every strategy stays on fields with q <= 16 and g <= 3, and every
enumerating command gets a small --budget, so no example can start an
expensive run.  The properties: the parsers raise ValueError and nothing
else on malformed text, and the CLI ends with an exit code in {0, 1, 2, 3}
and never with an uncaught exception.
"""

import contextlib
import io
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from semicount.cli import main, parse_map_block, parse_matrix_block, split_blocks

FIELDS = ["2^1", "3^1", "2^2", "5^1", "7^1", "2^3", "3^2", "11^1", "13^1", "2^4",
          "2^2/1,1,1", "3^2/2,2,1"]
BAD_FIELDS = ["4^1", "1^1", "0^2", "2^0", "2^-1", "x", "", "2", "^", "2^1/1,1,1",
              "2^2/1,0,1", "3^2/1,1", "17^1/", "2^1^1", "2^x"]
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# a good spec three times in four; draws lean towards small integers, so
# the bad choice sits at the top of each range
field_specs = st.integers(0, 3).flatmap(lambda k: st.sampled_from(BAD_FIELDS if k == 3 else FIELDS))
small_ints = st.integers(-3, 5).map(str)
junk = st.sampled_from(["--pretty", "--bogus", "-", "--g", "--field", "2^1", "1", "--",
                        "--r", "--s", "--tau", "--seed", "nan", "1e3", ""])


def run(argv, stdin: str = ""):
    """(exit code, stdout, stderr) of the CLI, in process."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the vector
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def assert_clean(argv, stdin: str = ""):
    code, _, err = run(argv, stdin)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


# --- argument vectors ------------------------------------------------------------

@st.composite
def argv_vectors(draw):
    command = draw(st.sampled_from(["count", "verify", "roundtrip", "field-info"]))
    argv = [command]
    options = [("--field", field_specs)]
    if command != "field-info":
        options.append(("--g", st.integers(-1, 3).map(str)))
    if command in ("verify", "roundtrip"):
        options += [("--tau", small_ints),
                    ("--threads", st.sampled_from(["1", "1", "1", "2", "0", "-1"]))]
    if command == "roundtrip":
        options.append(("--seed", small_ints))
    for name, values in options:
        if draw(st.integers(0, 9)) < 9:  # mostly present, sometimes missing
            argv += [name, draw(values)]
    if command == "count" and draw(st.booleans()):  # one cell, or the table
        argv += ["--r", draw(st.integers(-1, 3).map(str)), "--s", draw(st.integers(-1, 3).map(str))]
    if command in ("verify", "roundtrip"):
        # always bounded: no example may sweep a large space
        argv += ["--budget", str(draw(st.integers(-1, 3000)))]
    if draw(st.booleans()):
        argv.append("--pretty")
    if draw(st.integers(0, 3)) == 3:
        argv += draw(st.lists(junk, min_size=1, max_size=2))
    return argv


@SETTINGS
@given(argv_vectors())
def test_cli_argv_never_escapes_the_exit_codes(argv):
    assert_clean(argv)


@SETTINGS
@given(st.lists(st.one_of(junk, field_specs, small_ints), max_size=6))
def test_cli_argv_without_a_command(argv):
    assert_clean(argv)


# --- text blocks -------------------------------------------------------------------

BLOCK_ALPHABET = "0123457 -^/,\ntau\t"
text = st.text(alphabet=BLOCK_ALPHABET, max_size=60)


def bent(draw, good, bad):
    """good most of the time, bad one time in four."""
    return draw(bad) if draw(st.integers(0, 3)) == 3 else good


@st.composite
def matrix_blocks(draw, spec=field_specs, n=st.integers(0, 3)):
    """Near-valid square matrix blocks: a header, then rows of element
    codes, with each part sometimes bent out of shape."""
    n = draw(n)
    rows, cols = bent(draw, n, st.integers(-1, 4)), bent(draw, n, st.integers(-1, 4))
    header = [str(rows), str(cols), draw(spec)]
    header = bent(draw, header, st.lists(st.sampled_from(header + ["x", "1"]), max_size=4))
    lines = [" ".join(header)]
    for _ in range(bent(draw, max(rows, 0), st.integers(0, 4))):
        width = bent(draw, max(cols, 0), st.integers(0, 4))
        codes = bent(draw, st.integers(0, 1).map(str),
                     st.just(st.integers(-2, 20).map(str) | st.sampled_from(["x", "1.5", "_"])))
        lines.append(" ".join(draw(st.lists(codes, min_size=width, max_size=width))))
    return [line for line in lines if line.strip()]


@st.composite
def map_blocks(draw):
    head = bent(draw, "tau 0",
                st.sampled_from(["tau 1", "tau -1", "tau", "tau x", "tau 0 1", "0"]))
    return [head] + draw(matrix_blocks())


@SETTINGS
@given(text)
def test_split_blocks_keeps_every_nonblank_line(raw):
    blocks = split_blocks(raw)
    assert all(blocks) and all(line and line == line.strip() for b in blocks for line in b)
    assert [line for b in blocks for line in b] == \
        [line.strip() for line in raw.splitlines() if line.strip()]


def parses_or_raises_value_error(parse, lines):
    try:
        parse(lines)
    except ValueError:
        pass


@SETTINGS
@given(st.one_of(matrix_blocks(), text.map(lambda raw: (split_blocks(raw) or [[]])[0])))
def test_parse_matrix_block_raises_only_value_error(lines):
    parses_or_raises_value_error(parse_matrix_block, lines)


@SETTINGS
@given(st.one_of(map_blocks(), text.map(lambda raw: (split_blocks(raw) or [[]])[0])))
def test_parse_map_block_raises_only_value_error(lines):
    parses_or_raises_value_error(parse_map_block, lines)


@SETTINGS
@given(st.data(), st.sampled_from(["mu", "nu", "adapt"]),
       st.sampled_from([[], ["--tau", "1"], ["--pretty"]]))
def test_block_commands_never_escape_the_exit_codes(data, command, extra):
    # mu reads one map block, nu one matrix block, adapt a basis and its
    # flag's members on one field and one g
    block = map_blocks() if command == "mu" else \
        matrix_blocks(st.just(data.draw(field_specs)), st.just(data.draw(st.integers(0, 3))))
    n_blocks = {"mu": 1, "nu": 1, "adapt": 2}[command]
    blocks = data.draw(st.lists(block, min_size=n_blocks, max_size=n_blocks)
                       | st.lists(matrix_blocks() | map_blocks(), max_size=3))
    assert_clean([command, *extra], "\n\n".join("\n".join(b) for b in blocks))
