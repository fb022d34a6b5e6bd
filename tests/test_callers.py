"""Every name the library defines has a caller that is not a test.

`holozeta` ships the paper's objects and what the command line needs; a
function, class or method that only the tests call is scaffolding, and
belongs in `tests/helpers.py` or nowhere.  A name counts as called when it
appears as a whole word in the code of another line of the library (not in
a comment or a string, not on its own `def` or `class` line, and not in
`__init__.py`, which only re-exports), in the benchmark (`perfbench/*.py`),
or in the code spans and blocks of `README.md`, which documents the public
names a user calls.  Dunder methods are called by Python itself.  A static
method `C.m` counts as called only as `C.m`, or as a call `x.m(` through a
receiver x that is not another library class: `LaurentPoly.one()` does not
call `TruncatedSeries.one`, while `ring.divide(...)` calls the `divide` of
either cell ring.

Every name a library module imports is used in it, `fixtures.py` included;
`__init__.py` is exempt, since its imports are the public names it exports.

`fixtures.py` is exempt from the caller census: its functions are the
shipped worked examples that the README lists as a whole, each a data
builder for users to start from, not a code path of the library.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"__init__.py", "fixtures.py"}


def _defined_names(tree):
    """(name, line, static) of every module-level function and class, and of
    every method that is not a dunder; static is True for a staticmethod."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    yield "%s.%s" % (node.name, sub.name), sub.lineno, static


def _caller(qualname: str, static: bool, classes: set):
    """A predicate on a line of text: does it call `qualname`?"""
    name = qualname.rsplit(".", 1)[-1]
    if not static:
        return re.compile(r"\b%s\b" % re.escape(name)).search
    owner = re.compile(r"\b%s\b" % re.escape(qualname))
    receiver = re.compile(r"(?:\b(\w+)|[)\]])\.%s\(" % re.escape(name))
    return lambda text: owner.search(text) or any(
        m.group(1) not in classes for m in receiver.finditer(text))


def _code_lines(text: str) -> list:
    """The lines of a module with its comments and strings blanked out."""
    lines = [list(line) for line in text.splitlines()]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.STRING):
            (first, start), (last, end) = tok.start, tok.end
            for row in range(first, last + 1):
                line = lines[row - 1]
                a, b = start if row == first else 0, end if row == last else len(line)
                line[a:b] = " " * (b - a)
    return ["".join(line) for line in lines]


def _markdown_code(text: str) -> str:
    """The fenced code blocks and inline code spans of a Markdown text."""
    return "\n".join(re.findall(r"```.*?```|`[^`]+`", text, re.S))


def uncalled_names() -> list:
    sources = {p.name: p.read_text()
               for p in sorted((ROOT / "src" / "holozeta").glob("*.py")) if p.name != "__init__.py"}
    library = {module: _code_lines(text) for module, text in sources.items()}
    outside = "\n".join([p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
                        + [_markdown_code((ROOT / "README.md").read_text())])
    trees = {module: ast.parse(text) for module, text in sources.items()}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    missing = []
    for module, tree in trees.items():
        if module in EXEMPT:
            continue
        for qualname, lineno, static in _defined_names(tree):
            calls = _caller(qualname, static, classes)
            called = calls(outside) or any(
                calls(line) for other, text in library.items()
                for k, line in enumerate(text, 1) if (other, k) != (module, lineno))
            if not called:
                missing.append("%s:%d %s" % (module, lineno, qualname))
    return missing


def test_every_library_name_has_a_caller_outside_the_tests():
    assert uncalled_names() == []


def unused_imports() -> list:
    """`module:line name` for each name a library module imports and never
    reads; `from __future__` imports are directives, not names."""
    unused = []
    for path in sorted((ROOT / "src" / "holozeta").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (path.name, node.lineno, name))
    return unused


def test_every_imported_name_is_used():
    assert unused_imports() == []
