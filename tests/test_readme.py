"""The README's Library example runs and gives the values its comments
state, and its module map names only what exists."""

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import semicount

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


MODULES = {m.name for m in pkgutil.iter_modules(semicount.__path__)} - {"__main__"}


def _resolves(module, dotted: str) -> bool:
    """Whether `dotted` names a module of the package, or is a getattr chain
    from the bullet's module, from a class that module defines or from a
    module of the package."""
    names = dotted.split(".")
    classes = [v for v in vars(module).values()
               if isinstance(v, type) and v.__module__ == module.__name__]
    roots = [(root, names) for root in [module, *classes]]
    if names[0] in MODULES:
        roots.append((importlib.import_module(f"semicount.{names[0]}"), names[1:]))
    for root, chain in roots:
        try:
            functools.reduce(getattr, chain, root)
            return True
        except AttributeError:
            pass
    return False


def test_module_map_names_only_what_exists():
    text = README.read_text(encoding="utf-8")
    body = text.split("Module map, bottom up:\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", body, re.MULTILINE)
    heads = [re.match(r"`(\w+)`:", bullet).group(1) for bullet in bullets]
    assert heads == ["gf", "linalg", "semilinear", "flags", "bijection", "counting", "cli"]
    unresolved = [
        (head, span)
        for head, bullet in zip(heads, bullets)
        for span in re.findall(r"`([^`]*)`", bullet)
        if not (re.fullmatch(r"\w+(\.\w+)*", span)
                and _resolves(importlib.import_module(f"semicount.{head}"), span))
    ]
    assert unresolved == []
