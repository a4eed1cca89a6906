"""Every public name in the package is used somewhere outside the tests.

A public module-level name, or a public method of a public class, that
only tests call is a wrapper the library does not need: tests can call
the code behind it.  A name counts as used only where code in src/
(outside the name's own definition), perfbench/ or scripts/ names it:
an attribute read, an imported name, a name in an annotation, a read at
module level, or a read that Python resolves to a global from inside a
function, lambda, comprehension or class body (`symtable` records how
each scope resolves its names), whichever module that global is in; or
a word in README.md's fenced code blocks.  A read that resolves to a
parameter or local does not count, nor do docstrings, comments, other
strings or README prose; a module-level loop variable of the same name
does.  A method counts only by attribute access.  `REFERENCE` is exempt.
"""

import ast
import re
import symtable
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
    # the twisted product by repeated `compose`: the acceptance tests hold
    # `profile`'s ranks to the ranks of its powers
    "power",
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


def _global_reads(table: symtable.SymbolTable) -> Counter:
    """The names that `table`, or a table nested in it, reads where Python
    resolves them to a global, counted once per table."""
    reads = Counter(symbol.get_name() for symbol in table.get_symbols()
                    if symbol.is_referenced() and symbol.is_global())
    for child in table.get_children():
        reads += _global_reads(child)
    return reads


def _code_uses(node: ast.AST) -> Counter:
    """The attributes that code under `node` reads, the names it imports, and
    the names in its annotations: under `from __future__ import annotations`
    those are in no symbol table, and `typing.get_type_hints` resolves them
    in the module's globals."""
    names = []
    for n in ast.walk(node):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            names += [alias.name.rpartition(".")[2] for alias in n.names]
        for hint in filter(None, [getattr(n, "annotation", None), getattr(n, "returns", None)]):
            names += [m.id for m in ast.walk(hint) if isinstance(m, ast.Name)]
    return _attributes(node) + Counter(names)


def _attributes(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _module_uses(source: str, filename: str) -> tuple[ast.Module, Counter, dict]:
    """The parsed source, the names it uses, and the uses inside each of its
    top-level scopes by (name, line): a module-level function or class, and
    whatever else the compiler opens there."""
    tree, module = ast.parse(source), symtable.symtable(source, filename, "exec")
    inside: dict[tuple[str, int], Counter] = {}
    for child in module.get_children():
        inside.setdefault((child.get_name(), child.get_lineno()), Counter()).update(
            _global_reads(child))
    # every read at module level resolves to the module's globals or builtins
    uses = Counter(symbol.get_name() for symbol in module.get_symbols() if symbol.is_referenced())
    return tree, sum(inside.values(), uses + _code_uses(tree)), inside


def _markdown_code(text: str) -> str:
    """The fenced blocks of a Markdown text: prose, and the code spans in
    it, name a function without running it."""
    return "\n".join(text.split("```")[1::2])


def _unused(sources: dict[str, str], others: dict[str, str], readme: str) -> list[str]:
    """Qualified names of the public names defined in `sources` that nothing
    in them, in `others` or in the fenced code of `readme` uses; both dicts
    map a module or file name to its source."""
    parsed = {module: _module_uses(source, module) for module, source in sources.items()}
    names, attributes = Counter(), Counter()
    for tree, uses, _ in [*parsed.values(), *(_module_uses(s, name) for name, s in others.items())]:
        names += uses
        attributes += _attributes(tree)
    words = set(re.findall(r"\w+", _markdown_code(readme)))
    unused = []
    for module, (tree, _, inside) in parsed.items():
        for qualified, name, node, method in _definitions(tree):
            if method:
                used, own = attributes, _attributes(node)
            else:
                used, own = names, _code_uses(node) + inside.get((name, node.lineno), Counter())
            if used[name] == own[name] and name not in words | REFERENCE:
                unused.append(f"{module}.{qualified}")
    return unused


def test_every_public_name_is_named_outside_tests():
    sources = {path.stem: path.read_text() for path in sorted(ROOT.glob("src/semicount/*.py"))}
    others = {str(path.relative_to(ROOT)): path.read_text()
              for path in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])}
    unused = _unused(sources, others, (ROOT / "README.md").read_text())
    assert not unused, f"public names that nothing outside tests/ uses: {', '.join(unused)}"


def test_a_local_or_a_prose_span_is_not_a_use():
    # every name `lib` defines is read or named in `lib`, `user` or the
    # README, but only `compose` (in nested functions, where Python resolves
    # it to a global) and `profile` (in a fenced block) are used: `trace`
    # reads itself only inside its own definition
    lib = (
        "def twist(F, n): ...\n"
        "def apply(F, v): ...\n"
        "def rank(A): ...\n"
        "def profile(F): ...\n"
        "def compose(F, G):\n"
        "    return compose(G, None) if G else F\n"
        "def trace(F, n):\n"
        "    return trace(F, n - 1) if n else F\n"
    )
    user = (
        "def poly_str(coeffs, apply):\n"
        "    twist = 'x'\n"
        "    ranks = {rank: rank for rank in range(3)}\n"
        "    return [twist + apply(c) for c in coeffs], (lambda profile: profile), ranks\n"
        "class Table:\n"
        "    rank = 1\n"
        "    width = rank\n"
        "def outer():\n"
        "    def inner(F):\n"
        "        return compose(F, F)\n"
        "    return inner\n"
    )
    readme = "Call `rank` or `twist` in prose.\n\n```python\nprofile(F)\n```\n"
    assert _unused({"lib": lib}, {"user": user}, readme) == [
        "lib.twist", "lib.apply", "lib.rank", "lib.trace"]
