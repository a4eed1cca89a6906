"""The README's Library example runs and gives the values its comments state."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

CLAIMS = {
    "profile(F)": "RankProfile(r=2, s=2)",
    "tuple_to_map(GF9, xs, 1) == F": "True",
    "table.entries[(3, 3)]": "invertible maps: 339,655,680",
}


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {line.split("#")[0].strip(): line.split("#", 1)[1].strip()
                for line in block.splitlines() if "#" in line}
    assert {expression: comments.get(expression) for expression in CLAIMS} == CLAIMS
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    values = {expression: eval(expression, namespace) for expression in CLAIMS}
    assert repr(values["profile(F)"]) == "RankProfile(r=2, s=2)"
    assert values["tuple_to_map(GF9, xs, 1) == F"] is True
    assert values["table.entries[(3, 3)]"] == 339_655_680
