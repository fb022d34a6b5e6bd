"""Every name the library defines has a caller that is not a test.

`holozeta` ships the paper's objects and what the command line needs; a
function, class or method that only the tests call is scaffolding, and
belongs in `tests/helpers.py` or nowhere.  A name counts as called when it
appears as a whole word on another line of the library (not its own `def`
or `class` line, and not in `__init__.py`, which only re-exports), in the
benchmark (`perfbench/*.py`), or in `README.md`, which documents the public
names a user calls.  Dunder methods are called by Python itself.

`fixtures.py` is exempt: its functions are the shipped worked examples that
the README lists as a whole, each a data builder for users to start from,
not a code path of the library.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"__init__.py", "fixtures.py"}


def _defined_names(tree):
    """(name, line) of every module-level function and class, and of every
    method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield "%s.%s" % (node.name, sub.name), sub.lineno


def uncalled_names() -> list:
    library = {p.name: p.read_text().splitlines()
               for p in sorted((ROOT / "src" / "holozeta").glob("*.py")) if p.name != "__init__.py"}
    outside = "\n".join([p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
                        + [(ROOT / "README.md").read_text()])
    missing = []
    for module, lines in library.items():
        if module in EXEMPT:
            continue
        for qualname, lineno in _defined_names(ast.parse("\n".join(lines))):
            word = re.compile(r"\b%s\b" % re.escape(qualname.rsplit(".", 1)[-1]))
            called = word.search(outside) or any(
                word.search(line) for other, text in library.items()
                for k, line in enumerate(text, 1) if (other, k) != (module, lineno))
            if not called:
                missing.append("%s:%d %s" % (module, lineno, qualname))
    return missing


def test_every_library_name_has_a_caller_outside_the_tests():
    assert uncalled_names() == []
