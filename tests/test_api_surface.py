"""Every public name in the package is named somewhere outside the tests.

A public module-level name that only tests call is a wrapper the library
does not need: tests can call the code behind it.  A name counts as used
when src/, perfbench/ or scripts/ names it outside its own definition,
or README.md names it in code.  `REFERENCE` is exempt: these are the
reference implementations of what the paper's adapted-basis lemma and
the README's module map describe, and tests hold the fast paths to them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REFERENCE = {"adapt_to_subspace", "enumerate_maps", "terminal_image", "nil_part"}


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each public module-level binding."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def _markdown_code(text: str) -> str:
    """The fenced blocks and inline code spans of a Markdown text: prose
    words such as "apply" or "rank" do not name a function."""
    parts = text.split("```")
    spans = [s for part in parts[::2] for s in re.findall(r"`([^`\n]+)`", part)]
    return "\n".join(parts[1::2] + spans)


def test_every_public_name_is_named_outside_tests():
    sources = {path: path.read_text() for path in sorted(ROOT.glob("src/semicount/*.py"))}
    outside = [p.read_text() for p in [*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")]]
    outside.append(_markdown_code((ROOT / "README.md").read_text()))
    named_outside = _words("\n".join(outside)) | REFERENCE
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        named = named_outside | _words("\n".join(t for p, t in sources.items() if p != path))
        for name, first, last in _definitions(ast.parse(text)):
            rest = lines[:first - 1] + lines[last:]
            if name not in named | _words("\n".join(rest)):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names that nothing outside tests/ names: {', '.join(unused)}"
