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
receiver x that is not another library class: `LaurentCells.divide(...)`
does not call `PackedCells.divide`, while `ring.divide(...)` calls the
`divide` of either cell ring.

Every name a library module imports is used in it, `fixtures.py` included;
`__init__.py` is exempt, since its imports are the public names it exports.

`fixtures.py` is exempt from the caller census: its functions are the
shipped worked examples that the README lists as a whole, each a data
builder for users to start from, not a code path of the library.

The census also counts knobs.  Every parameter with a default, of a
module function, a method, a static method or an `__init__` (called as its
class), is set by some call and left by another: a default no caller
relies on belongs in the signature as a required parameter, and one no
caller overrides is a constant.  The calls read are those of the library
(`fixtures.py` included), of `perfbench/*.py` and of the README's code
blocks and spans, each parsed as Python and skipped when it does not parse;
a call passes a parameter by position or by keyword, and calls that
unpack `*args` or `**kwargs` are not counted.

No static method respells a constructor of one term: none has for its
whole body (docstring aside) `return Cls()`, `return Cls({})` or
`return Cls({k: v})`, its own class built from nothing or from a dict
display of at most one entry.  The constructor is the one spelling of
that value.

Every parameter of a library def, `self` included and nested defs too, is
read in its body.  A positional parameter that fills a protocol slot is
exempt when another member of the protocol reads its parameter in the same
position: the protocols are the methods of one name across the library's
classes (`LaurentCells.unpack` beside `PackedCells.unpack`), and the module
functions that one module-level assignment names as values (the rules of
`wgraph._STEPS`).  Lambdas are not defs and are not read.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"__init__.py", "fixtures.py"}


def _is_static(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


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
                    yield "%s.%s" % (node.name, sub.name), sub.lineno, _is_static(sub)


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


def _markdown_code(text: str) -> list:
    """The fenced code blocks, without their fences and language tag, and
    the inline code spans of a Markdown text."""
    return [block or span for block, span in re.findall(r"```\w*\n(.*?)```|`([^`]+)`", text, re.S)]


def _library_sources() -> dict:
    """The text of each library module but `__init__.py`, by file name."""
    return {p.name: p.read_text()
            for p in sorted((ROOT / "src" / "holozeta").glob("*.py")) if p.name != "__init__.py"}


def uncalled_names() -> list:
    sources = _library_sources()
    library = {module: _code_lines(text) for module, text in sources.items()}
    outside = "\n".join([p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
                        + _markdown_code((ROOT / "README.md").read_text()))
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
    for module, text in _library_sources().items():
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (module, node.lineno, name))
    return unused


def test_every_imported_name_is_used():
    assert unused_imports() == []


def _calls() -> list:
    """Every call of the library, the benchmark and the README's code that
    names its arguments plainly (no `*args` or `**kwargs`)."""
    texts = list(_library_sources().values())
    texts += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts += _markdown_code((ROOT / "README.md").read_text())
    calls = []
    for text in texts:
        try:
            tree = ast.parse(text)
        except SyntaxError:
            continue
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and not any(isinstance(a, ast.Starred) for a in node.args)
                  and all(k.arg for k in node.keywords)]
    return calls


def _is_call_of(node, name: str, owner, classes: set) -> bool:
    """Does the call `node` call the def `name` of class `owner` (None for a
    module function)?  An `__init__` is called as its class, a method as
    `x.name(...)` with x not another library class."""
    f = node.func
    called = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    if name == "__init__":
        return called == owner
    if owner is None:
        return called == name
    return isinstance(f, ast.Attribute) and called == name and not (
        isinstance(f.value, ast.Name) and f.value.id in classes - {owner})


def unset_parameters() -> list:
    """`module:line def(parameter) never set|never left` for each defaulted
    parameter of a library def that every call passes, or none does."""
    trees = {module: ast.parse(text) for module, text in _library_sources().items()}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    calls = _calls()
    found = []
    for module, tree in trees.items():
        defs = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(node.name, sub) for node in tree.body if isinstance(node, ast.ClassDef)
                 for sub in node.body if isinstance(sub, ast.FunctionDef)]
        for owner, fn in defs:
            a = fn.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if owner and not _is_static(fn):
                positional = positional[1:]  # self, bound by the call
            mine = [c for c in calls if _is_call_of(c, fn.name, owner, classes)]
            for param in defaulted:
                setting = [c for c in mine if param in positional[:len(c.args)]
                           or any(k.arg == param for k in c.keywords)]
                where = "%s:%d %s(%s)" % (module, fn.lineno, ".".join(filter(None, (owner, fn.name))),
                                          param)
                if not setting:
                    found.append(where + " never set")
                if len(setting) == len(mine):
                    found.append(where + " never left")
    return found


def test_every_default_is_both_set_and_left():
    assert unset_parameters() == []


def one_term_respellings() -> list:
    """`module:line Cls.name` for each static method whose body, docstring
    aside, is `return Cls()` or `return Cls(d)`, d a dict display of at
    most one entry."""
    found = []
    for module, text in _library_sources().items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and _is_static(fn)):
                    continue
                body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
                v = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
                if not (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                        and v.func.id == cls.name and not v.keywords and len(v.args) <= 1):
                    continue
                d = v.args[0] if v.args else None
                if d is None or isinstance(d, ast.Dict) and len(d.keys) <= 1 and None not in d.keys:
                    found.append("%s:%d %s.%s" % (module, fn.lineno, cls.name, fn.name))
    return found


def test_no_static_method_respells_a_one_term_constructor():
    assert one_term_respellings() == []


def _positional(fn, method: bool) -> list:
    """The parameters a call of `fn` fills by position; a method's `self`
    is bound by the call and is not one of them."""
    names = [x.arg for x in fn.args.posonlyargs + fn.args.args]
    return names[1:] if method and not _is_static(fn) else names


def unread_parameters() -> list:
    """`module:line def(parameter)` for each parameter of a library def that
    its body never reads and that fills no protocol slot another member of
    the protocol reads."""
    trees = {module: ast.parse(text) for module, text in _library_sources().items()}
    methods, protocols = set(), []
    by_name = {}
    for tree in trees.values():
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        methods.add(sub)
                        by_name.setdefault(sub.name, []).append(sub)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                called = {id(c.func) for c in ast.walk(node.value) if isinstance(c, ast.Call)}
                protocols.append([functions[n.id] for n in ast.walk(node.value) if isinstance(
                    n, ast.Name) and n.id in functions and id(n) not in called])
    protocols += by_name.values()

    def reads(fn) -> set:
        return {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    def slot_read(fn, i: int) -> bool:
        names = _positional(fn, fn in methods)
        return i < len(names) and names[i] in reads(fn)

    found = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a, read = fn.args, reads(fn)
            positional = _positional(fn, fn in methods)
            for x in a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]:
                if x.arg in read or x.arg in positional and any(
                        slot_read(other, positional.index(x.arg)) for group in protocols
                        if fn in group for other in group if other is not fn):
                    continue
                found.append("%s:%d %s(%s)" % (module, fn.lineno, fn.name, x.arg))
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == []
