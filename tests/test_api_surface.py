"""Every public name in the package is used somewhere outside the tests.

A public module-level name, or a public method of a public class, that
only tests call is a wrapper the library does not need: tests can call
the code behind it.  A name counts as used only where code names it: a
name, attribute or imported name in the code of src/ (outside the name's
own definition), perfbench/ or scripts/, or a word in README.md's code
blocks and spans.  Docstrings, comments and other strings do not count,
and a method counts only by attribute access.  `REFERENCE` is exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REFERENCE = {
    # reference implementations of what the paper's adapted-basis lemma
    # and the README's module map describe; tests hold the fast paths to them
    "adapt_to_subspace", "enumerate_maps", "terminal_image", "nil_part",
    # the paper's three span conditions on a tuple: the bijection tests hold
    # the decoder to them, and the sampler of tuples by profile that
    # ROADMAP.md plans calls them
    "tuple_has_profile",
}


def _definitions(tree: ast.Module):
    """(qualified name, name, node, is a method) of each public module-level
    binding and each public method of a public class."""
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
                yield name, name, node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _uses(tree: ast.AST) -> tuple[Counter, Counter]:
    """(names, attributes) that the code under `tree` reads: a name read or
    imported counts only in the first, an attribute read in both."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
            attributes[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names, attributes


def _markdown_code(text: str) -> str:
    """The fenced blocks and inline code spans of a Markdown text: prose
    words such as "apply" or "rank" do not name a function."""
    parts = text.split("```")
    spans = [s for part in parts[::2] for s in re.findall(r"`([^`\n]+)`", part)]
    return "\n".join(parts[1::2] + spans)


def test_every_public_name_is_named_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in sorted(ROOT.glob("src/semicount/*.py"))}
    names, attributes = Counter(), Counter()
    for path in [*trees, *ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")]:
        uses = _uses(trees.get(path) or ast.parse(path.read_text()))
        names, attributes = names + uses[0], attributes + uses[1]
    readme = set(re.findall(r"\w+", _markdown_code((ROOT / "README.md").read_text())))
    unused = []
    for path, tree in trees.items():
        for qualified, name, node, method in _definitions(tree):
            used, own = (attributes, _uses(node)[1]) if method else (names, _uses(node)[0])
            if used[name] == own[name] and name not in readme | REFERENCE:
                unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"public names that nothing outside tests/ uses: {', '.join(unused)}"
