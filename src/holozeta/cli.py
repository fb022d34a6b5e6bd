"""Command-line front end.

Exit codes: 0 success or verified, 1 verification failure (stdout then
ends with a one-line JSON witness), 2 input error.  Report lines are
`key: value`; all iteration orders are fixed, so identical inputs give
byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import random
import sys

from .laurent import COUNT_LIMIT, content_lines, parse_int
from .freegroup import parse_word
from .presentation import (
    TietzeMove,
    parse_presentation,
    presentations_equal,
    tietze_apply,
    InvalidMove,
)
from .wgraph import (
    TransformStep,
    euler_check,
    export_dot,
    parse_graph,
    parse_matrix_literal,
    verify_equivalence,
    zeta_reciprocal,
)
from .knot import (
    Representation,
    alexander_setup,
    parse_gauss,
    parse_pd,
    parse_rep,
    twisted_alexander,
    wirtinger_presentation,
)
from . import quandle as qmod

# tuples are built from lists: one grown from a generator is resized and kept on
# CPython's free list until a full collection, which peak memory then follows


class InputError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))


class VerificationFailed(Exception):
    """A failed check: `main` prints `fields` as the closing JSON witness
    line and exits 1."""

    def __init__(self, fields: dict):
        super().__init__(fields["witness"])
        self.fields = fields


def _seed() -> int:
    text = os.environ.get("HOLOZETA_SEED", "20240901")
    try:
        return parse_int(text)
    except ValueError:
        raise InputError("HOLOZETA_SEED must be an integer, got %r" % text) from None


def _load_diagram(args):
    if getattr(args, "pd", None):
        return parse_pd(_read(args.pd))
    if getattr(args, "gauss", None):
        return parse_gauss(_read(args.gauss))
    raise InputError("need --pd or --gauss")


def _load_rep(args, presentation):
    """The --rep file, else the trivial rep; `alexander_setup` checks it."""
    if not getattr(args, "rep", None):
        return Representation.trivial([g.index for g in presentation.generators])
    return parse_rep(_read(args.rep), presentation.name_to_index())


# -- move scripts ----------------------------------------------------------

_signature = functools.cache(inspect.signature)  # 20 us uncached, per script line


def _read_script(text: str, grammar: dict, maxsplit: int = -1):
    """(kind, fields) for each line `<kind> <arg> ...`, read through the
    kind's (usage, builder) entry in `grammar`.  The builder's parameters
    set the argument count; any bad line is an InputError naming it."""
    moves = []
    for line in content_lines(text):
        kind, *args = line.split(None, maxsplit)
        try:
            if kind not in grammar:
                raise ValueError("unknown move %r, expected one of %s"
                                 % (kind, ", ".join(grammar)))
            usage, build = grammar[kind]
            try:
                _signature(build).bind(*args)
            except TypeError:
                raise ValueError("expected %s" % usage) from None
            moves.append((kind, build(*args)))
        except ValueError as exc:
            raise InputError("bad script line %r: %s" % (line, exc)) from None
    return moves


def _split_pair(chunk: str, sep: str) -> tuple:
    a, found, b = chunk.partition(sep)
    if not found:
        raise ValueError("expected <a>%s<b>, got %r" % (sep, chunk))
    return a, b


def _insert_fields(vertex, dim, *rest):
    if len(rest) % 4:
        raise ValueError("insert edges come in id src tgt matrix groups")
    dim = parse_int(dim)
    if dim > COUNT_LIMIT:
        raise ValueError("dim %d is above the limit of %d" % (dim, COUNT_LIMIT))
    edges = tuple([(rest[k], rest[k + 1], rest[k + 2], parse_matrix_literal(rest[k + 3]))
                   for k in range(0, len(rest), 4)])
    return dict(vertex=vertex, dim=dim, edges=edges)


def _split_fields(edge, *chunks):
    pairs = [_split_pair(c, "=") for c in chunks]
    return dict(edge=edge, new_ids=tuple([name for name, _ in pairs]),
                summands=tuple([parse_matrix_literal(m) for _, m in pairs]))


# kind -> (usage, builder of (TietzeMove fields, word text or None)); words
# are resolved at replay time, since an add_generator may name a letter
_TIETZE_SCRIPT = {
    "invert": ("invert <i>", lambda i: ({"i": parse_int(i)}, None)),
    "conjugate": ("conjugate <i> <word>", lambda i, w: ({"i": parse_int(i)}, w)),
    "multiply": ("multiply <i> <k>", lambda i, k: ({"i": parse_int(i), "k": parse_int(k)}, None)),
    "multiply_inv": ("multiply_inv <i> <k>",
                     lambda i, k: ({"i": parse_int(i), "k": parse_int(k)}, None)),
    "add_generator": ("add_generator <name> <word>", lambda name, w: ({"name": name}, w)),
    "remove_generator": ("remove_generator <name>", lambda name: ({"name": name}, None)),
}

# kind -> (usage, builder of TransformStep fields), matrix-graph flavor
_GRAPH_SCRIPT = {
    "change_basis": ("change_basis <vertex> <matrix>", lambda vertex, *matrix: dict(
        vertex=vertex, matrix=parse_matrix_literal(" ".join(matrix)))),
    "null_add": ("null_add <id> <src> <tgt>",
                 lambda edge, src, tgt: dict(edge=edge, src=src, tgt=tgt)),
    "null_remove": ("null_remove <id>", lambda edge: dict(edge=edge)),
    "merge": ("merge <src> <tgt> [<id>]", lambda src, tgt, new_id=None: dict(
        src=src, tgt=tgt, new_ids=(new_id,) if new_id else None)),
    "split": ("split <id> <newid>=<matrix> ...", _split_fields),
    "eliminate": ("eliminate <vertex>", lambda vertex: dict(vertex=vertex)),
    "insert": ("insert <vertex> <dim> [<id> <src> <tgt> <matrix> ...]", _insert_fields),
    "hub_resolve": ("hub_resolve <id>", lambda edge: dict(edge=edge)),
    "hub_unresolve": ("hub_unresolve <id> <src> <tgt> <matrix> <removed>:<out> ...",
                      lambda edge, src, tgt, weight, *pairs: dict(
                          edge=edge, src=src, tgt=tgt, weight=parse_matrix_literal(weight),
                          pairs=tuple([_split_pair(c, ":") for c in pairs]))),
    "reverse_all": ("reverse_all", lambda: {}),
}


def parse_tietze_script(text: str):
    """[(kind, TietzeMove fields, word text or None)], one move per line."""
    return [(kind, fields, word)
            for kind, (fields, word) in _read_script(text, _TIETZE_SCRIPT, maxsplit=2)]


def parse_graph_script(text: str):
    """[TransformStep], one transform per line."""
    return [TransformStep(kind, **fields) for kind, fields in _read_script(text, _GRAPH_SCRIPT)]


# -- subcommands ---------------------------------------------------------

def _flag(key: str, ok: bool) -> bool:
    """Print the report line `key: true|false` and return ok."""
    print("%s: %s" % (key, "true" if ok else "false"))
    return ok


def _cmd_zeta(args):
    g = parse_graph(_read(args.graph))
    if not args.check_euler:
        print("zeta-reciprocal: %s" % zeta_reciprocal(g))
        return
    # the cycle search may reject the order, so the check runs before
    # anything is printed; it compares the Euler product with det(I - uA),
    # both 1/zeta truncated at u^order, as packed coefficients in one ring,
    # and returns det(I - A), read off the det side when order >= dim A
    order = args.order
    z, agrees = euler_check(g, order)
    print("zeta-reciprocal: %s" % z)
    if not _flag("euler-agrees", agrees):
        raise VerificationFailed({"witness": "euler-product mismatch at order %d" % order})


def _cmd_alexander(args):
    d = _load_diagram(args)
    pres = wirtinger_presentation(d)
    rep = _load_rep(args, pres)
    setup = alexander_setup(pres, rep)
    routes = ("graph", "direct") if args.route == "both" else (args.route,)
    results = [twisted_alexander(d, rep, r, setup=setup) for r in routes]
    r0 = results[0]
    print("numerator: %s" % r0.numerator)
    print("denominator: %s" % r0.denominator)
    if r0.denominator_vanishes:
        _flag("denominator-vanishes", True)
    if args.route == "both":
        # both denominators are the one setup's, so only the numerators can differ
        if not _flag("routes-agree", results[0].numerator == results[1].numerator):
            raise VerificationFailed({"witness": "route mismatch",
                                      "graph": str(results[0].numerator),
                                      "direct": str(results[1].numerator)})


def _cmd_tietze_verify(args):
    p = parse_presentation(_read(args.pres))
    expect = parse_presentation(_read(args.expect))
    moves = parse_tietze_script(_read(args.script))
    for idx, (kind, fields, word) in enumerate(moves):
        if word is not None:
            # resolved now, since an earlier add_generator may name a letter
            fields = dict(fields, w=parse_word(word, p.name_to_index()))
        try:
            p = tietze_apply(p, TietzeMove(kind, **fields))
        except InvalidMove as exc:
            _flag("verified", False)
            raise VerificationFailed({"witness": "invalid move", "detail": str(exc),
                                      "failing-step": idx})
    if not _flag("verified", presentations_equal(p, expect)):
        names = p.names()
        got = "; ".join(r.display(names) for r in p.relations)
        raise VerificationFailed({"witness": "final presentation differs", "got": got})


def _cmd_graph_verify(args):
    g = parse_graph(_read(args.graph))
    h = parse_graph(_read(args.expect))
    steps = parse_graph_script(_read(args.script))
    report = verify_equivalence(g, steps, h)
    _flag("verified", report.ok)
    if report.zeta_left is not None:
        print("zeta-left: %s" % report.zeta_left)
        print("zeta-right: %s" % report.zeta_right)
    if not report.ok:
        raise VerificationFailed({"witness": report.message, "failing-step": report.failing_step})


def _cmd_quandle_check(args):
    try:
        q = qmod.parse_quandle(_read(args.quandle))
    except qmod.QuandleError as exc:
        _flag("valid", False)
        raise VerificationFailed({"witness": str(exc), "at": str(exc.witness)})
    _flag("valid", True)
    print("size: %d" % q.n)


def _cmd_pair_check(args):
    q = qmod.parse_quandle(_read(args.quandle))
    try:
        qmod.parse_pair_file(_read(args.pair), q)
    except qmod.PairConditionError as exc:
        _flag("valid", False)
        names = ("a", "b", "c")
        at = ", ".join("%s=%d" % (n, v) for n, v in zip(names, exc.witness))
        raise VerificationFailed({"witness": "alexander pair condition fails",
                                  "at": "(cond=%s, %s)" % (exc.condition, at)})
    _flag("valid", True)


def _cmd_holonomy_check(args):
    if args.perturb > COUNT_LIMIT:
        raise InputError("--perturb %d is above the limit of %d" % (args.perturb, COUNT_LIMIT))
    q = qmod.parse_quandle(_read(args.quandle))
    g = qmod.parse_weights_file(_read(args.weights))
    if g.n != q.n:
        raise InputError("weights size %d does not match quandle size %d" % (g.n, q.n))
    if args.perturb and not q.n:
        raise InputError("--perturb %d has no entry to perturb on the empty quandle (0 elements)"
                         % args.perturb)
    # the seed is read, and the cells to perturb drawn, before any output
    rng = random.Random(_seed()) if args.perturb else None
    edits = [(rng.choice(qmod.WEIGHT_TABLES), rng.randrange(q.n), rng.randrange(q.n))
             for _ in range(args.perturb)]
    failures = qmod.holonomy_check(q, g)
    _flag("holonomy-preserved", not failures)
    if edits:
        print("perturbations-rejected: %d/%d" % (qmod.perturbations_rejected(q, g, edits), len(edits)))
    if failures:
        cond, witness, detail = failures[0]
        raise VerificationFailed({"witness": "condition %s fails" % cond, "at": str(witness),
                                  "detail": detail})


def _cmd_colorings(args):
    q = qmod.parse_quandle(_read(args.quandle))
    d = _load_diagram(args)
    cols = qmod.enumerate_colorings(q, d)
    print("count: %d" % len(cols))
    for c in cols:
        print("coloring: %s" % " ".join("%s=%d" % (a, x) for a, x in c.colors))


def _cmd_export_dot(args):
    g = parse_graph(_read(args.graph))
    sys.stdout.write(export_dot(g))


def _count(text: str) -> int:
    """An argparse type for counts and orders: a non-negative integer."""
    try:
        value = parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


@functools.cache  # built on the first main() call and reused: a build costs about 1 ms
def build_parser() -> tuple:
    """(the `holozeta` parser, its {command: subparser} map)."""
    ap = argparse.ArgumentParser(
        prog="holozeta",
        description="Weighted graph zeta functions and twisted Alexander polynomials, exactly.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", help="zeta reciprocal of a matrix-weighted graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", type=_count, default=8, help="truncation order for the Euler oracle")
    p.add_argument("--check-euler", action="store_true")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("alexander", help="twisted Alexander polynomial of a knot diagram")
    p.add_argument("--pd")
    p.add_argument("--gauss")
    p.add_argument("--rep")
    p.add_argument("--route", choices=("graph", "direct", "both"), default="graph")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("tietze-verify", help="replay a move script between presentations")
    p.add_argument("--pres", required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--expect", required=True)
    p.set_defaults(func=_cmd_tietze_verify)

    p = sub.add_parser("graph-verify", help="replay a transform script between graphs")
    p.add_argument("--graph", required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--expect", required=True)
    p.set_defaults(func=_cmd_graph_verify)

    p = sub.add_parser("quandle-check", help="validate a quandle table")
    p.add_argument("--quandle", required=True)
    p.set_defaults(func=_cmd_quandle_check)

    p = sub.add_parser("pair-check", help="validate an Alexander pair over a quandle")
    p.add_argument("--quandle", required=True)
    p.add_argument("--pair", required=True)
    p.set_defaults(func=_cmd_pair_check)

    p = sub.add_parser("holonomy-check", help="check crossing weights preserve holonomy")
    p.add_argument("--quandle", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--perturb", type=_count, default=0, help="also try N random perturbations")
    p.set_defaults(func=_cmd_holonomy_check)

    p = sub.add_parser("colorings", help="enumerate quandle colorings of a diagram")
    p.add_argument("--quandle", required=True)
    p.add_argument("--pd")
    p.add_argument("--gauss")
    p.set_defaults(func=_cmd_colorings)

    p = sub.add_parser("export-dot", help="GraphViz export of a matrix-weighted graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_export_dot)

    return ap, sub.choices


def main(argv=None) -> int:
    ap, commands = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser hands all that follows a command to the command's
    # subparser and names the command in `args.command`; called straight
    # away, the subparser parses in about 16 us, not 39
    sub = commands.get(argv[0]) if argv else None
    try:
        if sub:
            args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except VerificationFailed as exc:
        print(json.dumps(exc.fields, ensure_ascii=False))
        return 1
    except (InputError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
