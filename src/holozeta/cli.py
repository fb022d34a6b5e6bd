"""Command-line front end.

Exit codes: 0 success or verified, 1 verification failure (stdout then
ends with a one-line JSON witness), 2 input error.  Report lines are
`key: value`; all iteration orders are fixed, so identical inputs give
byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .laurent import LaurentPoly, PolyMatrix, content_lines, series_det_inverse
from .freegroup import GroupRingElt, apply_phi, parse_word
from .presentation import (
    TietzeMove,
    parse_presentation,
    presentations_equal,
    tietze_apply,
    InvalidMove,
)
from .wgraph import (
    TransformStep,
    adjacency_matrix,
    euler_product_oracle,
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


class InputError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))


def _print_witness(fields: dict):
    """The exit-1 witness: one line of JSON, ending stdout."""
    print(json.dumps(fields, ensure_ascii=False))


def _seed() -> int:
    return int(os.environ.get("HOLOZETA_SEED", "20240901"))


def _load_diagram(args):
    if getattr(args, "pd", None):
        return parse_pd(_read(args.pd))
    if getattr(args, "gauss", None):
        return parse_gauss(_read(args.gauss))
    raise InputError("need --pd or --gauss")


def _load_rep(args, presentation):
    """The --rep file, checked to satisfy every relation; else the trivial rep."""
    if not getattr(args, "rep", None):
        return Representation.trivial([g.index for g in presentation.generators])
    rep = parse_rep(_read(args.rep), presentation.name_to_index())
    one = PolyMatrix.identity(rep.dim)
    for i, r in enumerate(presentation.relations):
        if apply_phi(GroupRingElt.from_word(r), rep) != one:
            raise InputError("rep violates relation %d (%s): Phi(r) != I"
                             % (i, r.display(presentation.names())))
    return rep


# -- script file parsing -------------------------------------------------

def parse_tietze_script(text: str):
    """One move per line:
    invert <i> | conjugate <i> <word> | multiply <i> <k> |
    multiply_inv <i> <k> | add_generator <name> <word> |
    remove_generator <name>
    Each move is (kind, TietzeMove fields, word text or None); words are
    resolved against the presentation at replay time."""
    moves = []
    for line in content_lines(text):
        kind, *args = line.split(None, 2)
        if kind == "invert" and len(args) == 1:
            moves.append((kind, {"i": int(args[0])}, None))
        elif kind == "conjugate" and len(args) == 2:
            moves.append((kind, {"i": int(args[0])}, args[1]))
        elif kind in ("multiply", "multiply_inv") and len(args) == 2:
            moves.append((kind, {"i": int(args[0]), "k": int(args[1])}, None))
        elif kind == "add_generator" and len(args) == 2:
            moves.append((kind, {"name": args[0]}, args[1]))
        elif kind == "remove_generator" and len(args) == 1:
            moves.append((kind, {"name": args[0]}, None))
        else:
            raise InputError("bad script line %r" % line)
    return moves


def parse_graph_script(text: str):
    """One transform per line, matrix-graph flavor:
    change_basis <vertex> <matrix> | null_add <id> <src> <tgt> |
    null_remove <id> | merge <src> <tgt> [id] |
    split <id> <newid>=<matrix> ... | eliminate <vertex> |
    insert <vertex> <dim> [<id> <src> <tgt> <matrix> ...] |
    hub_resolve <id> |
    hub_unresolve <id> <src> <tgt> <matrix> <removed>:<out> ... |
    reverse_all"""
    steps = []
    for line in content_lines(text):
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "change_basis":
                steps.append(
                    TransformStep(
                        "change_basis",
                        vertex=parts[1],
                        matrix=parse_matrix_literal(" ".join(parts[2:])),
                    )
                )
            elif kind == "null_add":
                steps.append(
                    TransformStep("null_add", edge=parts[1], src=parts[2], tgt=parts[3])
                )
            elif kind == "null_remove":
                steps.append(TransformStep("null_remove", edge=parts[1]))
            elif kind == "merge":
                new_ids = (parts[3],) if len(parts) > 3 else None
                steps.append(
                    TransformStep("merge", src=parts[1], tgt=parts[2], new_ids=new_ids)
                )
            elif kind == "split":
                ids, mats = [], []
                for chunk in parts[2:]:
                    name, mat = chunk.split("=", 1)
                    ids.append(name)
                    mats.append(parse_matrix_literal(mat))
                steps.append(
                    TransformStep(
                        "split",
                        edge=parts[1],
                        summands=tuple(mats),
                        new_ids=tuple(ids),
                    )
                )
            elif kind == "eliminate":
                steps.append(TransformStep("eliminate", vertex=parts[1]))
            elif kind == "insert":
                rest = parts[3:]
                if len(rest) % 4:
                    raise InputError("insert edges come in id src tgt matrix groups")
                edges = []
                for k in range(0, len(rest), 4):
                    edges.append(
                        (
                            rest[k],
                            rest[k + 1],
                            rest[k + 2],
                            parse_matrix_literal(rest[k + 3]),
                        )
                    )
                steps.append(
                    TransformStep(
                        "insert",
                        vertex=parts[1],
                        dim=int(parts[2]),
                        edges=tuple(edges),
                    )
                )
            elif kind == "hub_resolve":
                steps.append(TransformStep("hub_resolve", edge=parts[1]))
            elif kind == "hub_unresolve":
                pairs = tuple(tuple(c.split(":", 1)) for c in parts[5:])
                steps.append(
                    TransformStep(
                        "hub_unresolve",
                        edge=parts[1],
                        src=parts[2],
                        tgt=parts[3],
                        weight=parse_matrix_literal(parts[4]),
                        pairs=pairs,
                    )
                )
            elif kind == "reverse_all":
                steps.append(TransformStep("reverse_all"))
            else:
                raise InputError("unknown transform %r" % kind)
        except (IndexError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError("bad script line %r: %s" % (line, exc))
    return steps


# -- subcommands ---------------------------------------------------------

def _cmd_zeta(args) -> int:
    g = parse_graph(_read(args.graph))
    z = zeta_reciprocal(g)
    print("zeta-reciprocal: %s" % z)
    if args.check_euler:
        order = args.order
        lhs = euler_product_oracle(g, max_len=order)
        rhs = series_det_inverse(adjacency_matrix(g), order)
        agree = lhs == rhs
        print("euler-agrees: %s" % ("true" if agree else "false"))
        if not agree:
            _print_witness({"witness": "euler-product mismatch at order %d" % order})
            return 1
    return 0


def _cmd_alexander(args) -> int:
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
        print("denominator-vanishes: true")
    if args.route == "both":
        agree = (
            results[0].numerator == results[1].numerator
            and results[0].denominator == results[1].denominator
        )
        print("routes-agree: %s" % ("true" if agree else "false"))
        if not agree:
            _print_witness({"witness": "route mismatch", "graph": str(results[0].numerator),
                            "direct": str(results[1].numerator)})
            return 1
    return 0


def _cmd_tietze_verify(args) -> int:
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
            print("verified: false")
            _print_witness({"witness": "invalid move", "detail": str(exc), "failing-step": idx})
            return 1
    ok = presentations_equal(p, expect)
    print("verified: %s" % ("true" if ok else "false"))
    if not ok:
        names = p.names()
        got = "; ".join(r.display(names) for r in p.relations)
        _print_witness({"witness": "final presentation differs", "got": got})
        return 1
    return 0


def _cmd_graph_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    h = parse_graph(_read(args.expect))
    steps = parse_graph_script(_read(args.script))
    report = verify_equivalence(g, steps, h, mode=args.mode)
    print("verified: %s" % ("true" if report.ok else "false"))
    if report.zeta_left is not None:
        print("zeta-left: %s" % report.zeta_left)
        print("zeta-right: %s" % report.zeta_right)
    if not report.ok:
        _print_witness({"witness": report.message, "failing-step": report.failing_step})
        return 1
    return 0


def _cmd_quandle_check(args) -> int:
    try:
        q = qmod.parse_quandle(_read(args.quandle))
    except qmod.QuandleError as exc:
        print("valid: false")
        _print_witness({"witness": str(exc), "at": str(exc.witness)})
        return 1
    print("valid: true")
    print("size: %d" % q.n)
    return 0


def _cmd_pair_check(args) -> int:
    q = qmod.parse_quandle(_read(args.quandle))
    try:
        qmod.parse_pair_file(_read(args.pair), q)
    except qmod.PairConditionError as exc:
        print("valid: false")
        names = ("a", "b", "c")
        at = ", ".join("%s=%d" % (n, v) for n, v in zip(names, exc.witness))
        _print_witness({"witness": "alexander pair condition fails",
                        "at": "(cond=%s, %s)" % (exc.condition, at)})
        return 1
    print("valid: true")
    return 0


def _cmd_holonomy_check(args) -> int:
    q = qmod.parse_quandle(_read(args.quandle))
    g = qmod.parse_weights_file(_read(args.weights))
    if g.n != q.n:
        raise InputError("weights size %d does not match quandle size %d" % (g.n, q.n))
    report = qmod.holonomy_check(q, g)
    print("holonomy-preserved: %s" % ("true" if report.ok else "false"))
    if args.perturb:
        rng = random.Random(_seed())
        names = ("g1_pos", "g2_pos", "g1_neg", "g2_neg")
        failed = 0
        for _ in range(args.perturb):
            which = rng.choice(names)
            a, b = rng.randrange(q.n), rng.randrange(q.n)
            bad = g.perturbed(which, a, b, LaurentPoly.one())
            if not qmod.holonomy_check(q, bad).ok:
                failed += 1
        print("perturbations-rejected: %d/%d" % (failed, args.perturb))
    if not report.ok:
        cond, witness, detail = report.failures[0]
        _print_witness({"witness": "condition %s fails" % cond, "at": str(witness), "detail": detail})
        return 1
    return 0


def _cmd_colorings(args) -> int:
    q = qmod.parse_quandle(_read(args.quandle))
    d = _load_diagram(args)
    cols = qmod.enumerate_colorings(q, d)
    print("count: %d" % len(cols))
    for c in cols:
        print("coloring: %s" % " ".join("%s=%d" % (a, x) for a, x in c.colors))
    return 0


def _cmd_export_dot(args) -> int:
    g = parse_graph(_read(args.graph))
    sys.stdout.write(export_dot(g))
    return 0


def _count(text: str) -> int:
    """An argparse type for counts and orders: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


@functools.cache  # built on the first main() call and reused: a build costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--mode", choices=("exact", "up_to_units"), default="exact")
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

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
