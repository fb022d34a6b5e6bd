"""Finite quandles, Alexander pairs, and holonomy-preserving crossing weights.

An Alexander pair (f1, f2) on a finite quandle induces scalar crossing
weights (g1_pos, g2_pos, g1_neg, g2_neg); these are exactly the weight
systems passing the holonomy conditions (A), (B-1), (B-2), (C), and the
two directions are implemented as f_twisted_weights and recover_pair.
Weights are 1x1 Laurent polynomials; unit entries keep inversion exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice, product

from .laurent import LaurentPoly, PolyMatrix, content_lines, parse_int, parse_laurent
from .wgraph import WeightedDigraph, Edge

# tuples are built from lists: one grown from a generator is resized and kept on
# CPython's free list until a full collection, which peak memory then follows


class QuandleError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PairConditionError(ValueError):
    def __init__(self, condition, witness):
        super().__init__("Alexander pair condition %s fails at %s" % (condition, witness))
        self.condition = condition
        self.witness = witness


@dataclass(frozen=True)
class FiniteQuandle:
    n: int
    table: tuple  # table[a][b] = a * b
    inv_table: tuple  # inv_table[a][b] = a *^{-1} b

    def star(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv_star(self, a: int, b: int) -> int:
        return self.inv_table[a][b]


def quandle_check(table) -> FiniteQuandle:
    """Validate the three quandle axioms exhaustively and build the
    inverse translation table."""
    table = tuple([tuple([int(x) for x in row]) for row in table])
    n = len(table)
    if any(len(row) != n for row in table):
        raise QuandleError("operation table must be square")
    for row in table:
        for x in row:
            if not (0 <= x < n):
                raise QuandleError("table entry %d out of range" % x)
    for a in range(n):
        if table[a][a] != a:
            raise QuandleError("idempotence fails", witness=(a,))
    inv = [[None] * n for _ in range(n)]
    for b in range(n):
        seen = set()
        for a in range(n):
            c = table[a][b]
            if c in seen:
                raise QuandleError("right translation by %d not injective" % b, witness=(a, b))
            seen.add(c)
            inv[c][b] = a
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[table[a][c]][table[b][c]]:
                    raise QuandleError("self-distributivity fails", witness=(a, b, c))
    return FiniteQuandle(n, table, tuple([tuple(row) for row in inv]))


def dihedral_quandle(n: int) -> FiniteQuandle:
    return quandle_check([[(2 * b - a) % n for b in range(n)] for a in range(n)])


def trivial_quandle(n: int) -> FiniteQuandle:
    return quandle_check([[a] * n for a in range(n)])


@dataclass(frozen=True)
class AlexanderPairTable:
    n: int
    f1: tuple  # n x n LaurentPoly, unit entries
    f2: tuple  # n x n LaurentPoly


def _as_poly_table(rows, n, what):
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("%s table must be %dx%d" % (what, n, n))
    return tuple([tuple(r) for r in rows])


def alexander_pair_check(q: FiniteQuandle, f1, f2) -> AlexanderPairTable:
    """Exhaustively verify the Alexander pair axioms and wrap the tables.

    (1) f1(a,a)+f2(a,a)=1; (2) every f1(a,b) is a unit; (3a)-(3c) the
    distributivity identities over all triples.
    """
    n = q.n
    f1 = _as_poly_table(f1, n, "f1")
    f2 = _as_poly_table(f2, n, "f2")
    one = LaurentPoly.one()
    for a in range(n):
        if f1[a][a] + f2[a][a] != one:
            raise PairConditionError("1", (a,))
    for a in range(n):
        for b in range(n):
            if not f1[a][b].is_unit():
                raise PairConditionError("2", (a, b))
    for a, b, c in product(range(n), repeat=3):
        ab, ac, bc = q.star(a, b), q.star(a, c), q.star(b, c)
        acbc = q.star(ac, bc)
        if f1[ab][c] * f1[a][b] != f1[ac][bc] * f1[a][c]:
            raise PairConditionError("3a", (a, b, c))
        if f1[ab][c] * f2[a][b] != f2[ac][bc] * f1[b][c]:
            raise PairConditionError("3b", (a, b, c))
        if f2[ab][c] != f1[ac][bc] * f2[a][c] + f2[ac][bc] * f2[b][c]:
            raise PairConditionError("3c", (a, b, c))
    return AlexanderPairTable(n, f1, f2)


def derived_star(p, r, f: AlexanderPairTable, q: FiniteQuandle):
    """The quandle operation on Q x R:
    (a,x) star (b,y) = (a*b, f1(a,b)x + f2(a,b)y)."""
    a, x = p
    b, y = r
    return (q.star(a, b), f.f1[a][b] * x + f.f2[a][b] * y)


@dataclass(frozen=True)
class CrossingWeights:
    n: int
    g1_pos: tuple
    g2_pos: tuple
    g1_neg: tuple
    g2_neg: tuple

    def perturbed(self, which: str, a: int, b: int, delta: LaurentPoly) -> "CrossingWeights":
        t = [list(row) for row in getattr(self, which)]
        t[a][b] = t[a][b] + delta
        return replace(self, **{which: tuple([tuple(row) for row in t])})


def f_twisted_weights(f: AlexanderPairTable, q: FiniteQuandle) -> CrossingWeights:
    """Crossing weights induced by an Alexander pair:
    g1+(a,b) = f1(a,b)^-1, g2+(a,b) = -f1(a,b)^-1 f2(a,b),
    g1-(a,b) = f1(a*'b, b), g2-(a,b) = f2(a*'b, b)  (*' the inverse op)."""
    n = q.n
    g1p, g2p, g1n, g2n = [], [], [], []
    for a in range(n):
        r1p, r2p, r1n, r2n = [], [], [], []
        for b in range(n):
            if not f.f1[a][b].is_unit():
                raise ValueError("f1(%d,%d) is not a unit" % (a, b))
            inv = f.f1[a][b].unit_inverse()
            r1p.append(inv)
            r2p.append(-(inv * f.f2[a][b]))
            c = q.inv_star(a, b)
            r1n.append(f.f1[c][b])
            r2n.append(f.f2[c][b])
        g1p.append(tuple(r1p))
        g2p.append(tuple(r2p))
        g1n.append(tuple(r1n))
        g2n.append(tuple(r2n))
    return CrossingWeights(n, tuple(g1p), tuple(g2p), tuple(g1n), tuple(g2n))


# the widest lcm of the weight tables' coefficient denominators, in bits, that
# `integral_weights` scales away: past it the check runs on the rational
# weights.  A scaled product is one of integers about den^2 wide, where the
# rational route reduces small fractions by a gcd each time, so a wide den
# costs most on weights whose coefficients each bring their own denominator.
# In a sweep of `holonomy-check` on D5 (CPython 3.11, a 2-CPU x86-64 Xeon),
# the exhaustive check of valid Alexander-pair weights took 2.0 ms scaled
# against 6.6 ms rational at a 4-bit den, 2.5 against 9.8 ms at 385 bits and
# 7.8 against 12.2 ms at 1538 bits; failing weights whose coefficients were
# drawn over a pool of 32-bit primes, with --perturb 1000, took 1.4 times the
# rational time up to a 249-bit den, 1.55 times at 497 bits and 2.2 times at
# 1334 bits
INTEGRAL_DEN_BITS = 512


def integral_weights(g: CrossingWeights) -> tuple:
    """(den, h): den the lcm of every coefficient denominator in the four
    tables of g, and h = den * g, whose coefficients are all `int`; (1, g)
    when that lcm is 1 or wider than INTEGRAL_DEN_BITS.  The weights g pass
    the holonomy check exactly when h passes it with that den."""
    tables = (g.g1_pos, g.g2_pos, g.g1_neg, g.g2_neg)
    den = 1
    for c in (c for t in tables for row in t for p in row for c in p.terms.values()):
        den = math.lcm(den, c.denominator)
        if den.bit_length() > INTEGRAL_DEN_BITS:
            return 1, g
    if den == 1:
        return 1, g
    return den, CrossingWeights(
        g.n, *[tuple([tuple([p.scale(den) for p in row]) for row in t]) for t in tables])


def holonomy_failures(q: FiniteQuandle, g: CrossingWeights, den: int = 1):
    """Yield each failing holonomy identity of the weights g/den as
    (condition, witness, "lhs != rhs"), lazily and in the order (A), (B-1),
    (B-2), (C).

    Each identity of g/den is checked multiplied by den^2, which makes it
    homogeneous of degree 2 in the cells of g: a product of two cells stays,
    a lone cell is scaled by den and the constant 1 becomes den^2.  On the
    tables from `integral_weights` every product and sum then runs on `int`;
    there den = 1 when the lcm of the denominators is wider than
    INTEGRAL_DEN_BITS, and den = 1 is the check on the rational weights g
    themselves.  `detail` gives each side scaled back by 1/den^2, the same
    text as the check of g/den as rational weights.

    A caller that only asks whether weights fail stops at the first
    failure; the n^3 loop of (C) runs only if everything before it holds."""
    n = q.n
    one, zero = LaurentPoly.const(den * den), LaurentPoly.zero()
    g1p, g2p, g1n, g2n = g.g1_pos, g.g2_pos, g.g1_neg, g.g2_neg

    def lone(p):
        return p if den == 1 else p.scale(den)

    def identities():
        # (A): the kink configuration, where the over arc equals the under arc
        for a in range(n):
            yield "A", (a,), lone(g1n[a][a] + g2n[a][a]), one
        # (B-1): cancelling crossing pair met under-first; X_{j+1} = b *' a,
        # X_{i+1} = a * b
        for a in range(n):
            for b in range(n):
                jb = q.inv_star(b, a)
                yield "B-1", (a, b), lone(g2n[b][a]) + g1n[b][a] * g2p[jb][a], zero
                yield "B-1", (a, b), g1n[b][a] * g1p[jb][a], one
                ia = q.star(a, b)
                yield "B-1", (a, b), lone(g2p[a][b]) + g1p[a][b] * g2n[ia][b], zero
                yield "B-1", (a, b), g1p[a][b] * g1n[ia][b], one
        # (B-2): the opposite clasp; X_{i+1} = a *' b
        for a in range(n):
            for b in range(n):
                ia = q.inv_star(a, b)
                yield "B-2", (a, b), lone(g2n[a][b]) + g1n[a][b] * g2p[ia][b], zero
                yield "B-2", (a, b), g1n[a][b] * g1p[ia][b], one
        # (C): triangle slide; intermediate arcs a*b before, a*c and b*c after
        dg2p = [[lone(p) for p in row] for row in g2p]
        for a, b, c in product(range(n), repeat=3):
            ab, ac, bc = q.star(a, b), q.star(a, c), q.star(b, c)
            yield "C", (a, b, c), g1p[a][b] * g1p[ab][c], g1p[a][c] * g1p[ac][bc]
            yield "C", (a, b, c), g2p[a][b] * g1p[b][c], g1p[a][c] * g2p[ac][bc]
            # accumulated weight of the two routes from v_i to v_k before the
            # slide equals the single direct edge after it
            yield (
                "C",
                (a, b, c),
                g1p[a][b] * g2p[ab][c] + g2p[a][b] * g2p[b][c],
                dg2p[a][c],
            )

    back = Fraction(1, den * den)
    for cond, witness, lhs, rhs in identities():
        if lhs != rhs:
            if den != 1:
                lhs, rhs = lhs.scale(back), rhs.scale(back)
            yield cond, witness, "%s != %s" % (lhs, rhs)


def holonomy_check(q: FiniteQuandle, g: CrossingWeights, den: int = 1) -> list:
    """Exhaustively check the holonomy conditions (A), (B-1), (B-2), (C) on
    the weights g/den: the list of every failing identity from
    `holonomy_failures`, empty when the weights preserve holonomy."""
    return list(holonomy_failures(q, g, den))


def recover_pair(q: FiniteQuandle, g: CrossingWeights) -> AlexanderPairTable:
    """Read the Alexander pair back off holonomy-preserving weights:
    f1(a,b) = g1-(a*b, b), f2(a,b) = g2-(a*b, b)."""
    den, h = integral_weights(g)
    failures = list(islice(holonomy_failures(q, h, den), 3))
    if failures:
        raise ValueError("weights do not preserve holonomy: %s" % failures)
    n = q.n
    f1 = [[g.g1_neg[q.star(a, b)][b] for b in range(n)] for a in range(n)]
    f2 = [[g.g2_neg[q.star(a, b)][b] for b in range(n)] for a in range(n)]
    return alexander_pair_check(q, f1, f2)


# -- colorings and the quandle-weighted graph ---------------------------

@dataclass(frozen=True)
class QuandleColoring:
    colors: tuple  # ((arc id, element), ...) in diagram arc order


def _check_coloring(q: FiniteQuandle, d, colors: dict):
    for c in d.crossings:
        xi, xj = colors[c.under_in], colors[c.over]
        out = q.star(xi, xj) if c.sign == 1 else q.inv_star(xi, xj)
        if colors[c.under_out] != out:
            return c
    return None


def _coloring_plan(q: FiniteQuandle, d) -> list:
    """Compile the coloring search of d into levels [(arc, steps), ...].

    Right translation is a bijection, so a crossing fixes its under_out
    color once under_in and over are known, and under_in once under_out
    and over are.  Level j tries every color of its branch arc, then runs
    its steps (k, t, a, b, check) in order: a force sets color[k] to
    t[color[a]][color[b]]; a check rejects the branch unless they are
    equal.  Every crossing is either forced through or checked exactly
    once.  The next branch arc is the over arc of a crossing whose under
    arc is known, so on T(2,n) only 2 arcs branch."""
    index = {a: k for k, a in enumerate(d.arcs)}
    crossings = []
    touching = [[] for _ in d.arcs]
    for c in d.crossings:
        ui, uo, ov = index[c.under_in], index[c.under_out], index[c.over]
        fwd, back = (q.table, q.inv_table) if c.sign == 1 else (q.inv_table, q.table)
        for k in {ui, uo, ov}:
            touching[k].append(len(crossings))
        crossings.append((ui, uo, ov, fwd, back))
    known = [False] * len(d.arcs)
    done = [False] * len(crossings)
    candidates, first_free = [], 0
    plan = []
    while True:
        while candidates and known[candidates[-1]]:
            candidates.pop()
        if candidates:
            arc = candidates.pop()
        else:
            while first_free < len(known) and known[first_free]:
                first_free += 1
            if first_free == len(known):
                return plan
            arc = first_free
        steps = []
        plan.append((arc, steps))
        known[arc] = True
        fresh = [arc]
        while fresh:
            for j in touching[fresh.pop()]:
                if done[j]:
                    continue
                ui, uo, ov, fwd, back = crossings[j]
                if not known[ov]:
                    if known[ui] or known[uo]:
                        candidates.append(ov)
                    continue
                if known[ui] and known[uo]:
                    steps.append((uo, fwd, ui, ov, True))
                elif known[ui]:
                    steps.append((uo, fwd, ui, ov, False))
                    known[uo] = True
                    fresh.append(uo)
                elif known[uo]:
                    steps.append((ui, back, uo, ov, False))
                    known[ui] = True
                    fresh.append(ui)
                else:
                    continue
                done[j] = True


def enumerate_colorings(q: FiniteQuandle, d) -> list:
    """All quandle colorings of the diagram, in lexicographic order over
    the arcs: a backtracking run of the compiled plan, without recursion."""
    plan = _coloring_plan(q, d)
    colors = [0] * len(d.arcs)
    tried = [0] * len(plan)
    found = []
    level = 0
    while level >= 0:
        if level == len(plan):
            found.append(tuple(colors))
            level -= 1
            continue
        x = tried[level]
        if x == q.n:
            tried[level] = 0
            level -= 1
            continue
        tried[level] = x + 1
        arc, steps = plan[level]
        colors[arc] = x
        for k, t, a, b, check in steps:
            y = t[colors[a]][colors[b]]
            if not check:
                colors[k] = y
            elif colors[k] != y:
                break
        else:
            level += 1
    found.sort()
    return [QuandleColoring(tuple(list(zip(d.arcs, assign)))) for assign in found]


def quandle_weighted_graph(d, c: QuandleColoring, g: CrossingWeights, q: FiniteQuandle = None) -> WeightedDigraph:
    """One vertex per arc; each crossing (except the last arc's, whose
    relation is the omitted one) contributes the forward edge
    v_i -> v_{i+1} weighted g1 and the over edge v_i -> v_j weighted g2.

    Pass the quandle to re-validate the coloring against the diagram."""
    colors = dict(c.colors)
    if set(colors) != set(d.arcs):
        raise ValueError("coloring does not match the diagram arcs")
    if q is not None:
        bad = _check_coloring(q, d, colors)
        if bad is not None:
            raise ValueError("coloring violates the crossing constraint at %r" % (bad,))
    vertices = tuple([(a, 1) for a in d.arcs])
    edges = []
    last = d.arcs[-1]
    for k, cr in enumerate(d.crossings):
        if cr.under_in == last:
            continue
        xi, xj = colors[cr.under_in], colors[cr.over]
        if cr.sign == 1:
            w1, w2 = g.g1_pos[xi][xj], g.g2_pos[xi][xj]
        else:
            w1, w2 = g.g1_neg[xi][xj], g.g2_neg[xi][xj]
        edges.append(
            Edge("c%d_f" % k, cr.under_in, cr.under_out, PolyMatrix(1, 1, [w1]))
        )
        edges.append(Edge("c%d_o" % k, cr.under_in, cr.over, PolyMatrix(1, 1, [w2])))
    return WeightedDigraph("matrix", vertices, tuple(edges))


# -- text formats -------------------------------------------------------

def _read_tables(text: str, what: str, blocks: int, read_row):
    """The size-prefixed table layout: first line n, then `blocks` tables
    of n rows each, every row read by `read_row(line, n)`.  Returns n and
    the tables, each a tuple of rows."""
    lines = list(content_lines(text))
    if not lines:
        raise ValueError("empty %s file" % what)
    n = parse_int(lines[0])
    if len(lines) != blocks * n + 1:
        raise ValueError("expected %d rows, got %d" % (blocks * n, len(lines) - 1))
    rows = [read_row(line, n) for line in lines[1:]]
    return n, [tuple(rows[k * n : (k + 1) * n]) for k in range(blocks)]


def _format_tables(n: int, tables, sep: str) -> str:
    lines = [str(n)]
    lines += [sep.join(str(x) for x in row) for table in tables for row in table]
    return "\n".join(lines) + "\n"


def _poly_row(line: str, n: int) -> tuple:
    row = tuple([parse_laurent(cell) for cell in line.split(",")])
    if len(row) != n:
        raise ValueError("expected %d comma-separated entries in %r" % (n, line))
    return row


def parse_quandle(text: str) -> FiniteQuandle:
    """First line n, then n rows of n integers (the 0-based table)."""
    _, (table,) = _read_tables(text, "quandle", 1,
                               lambda line, n: [parse_int(x) for x in line.split()])
    return quandle_check(table)


def format_quandle(q: FiniteQuandle) -> str:
    return _format_tables(q.n, [q.table], " ")


def parse_pair_file(text: str, q: FiniteQuandle) -> AlexanderPairTable:
    """First line n, then n comma-separated rows for f1, then n for f2."""
    n, (f1, f2) = _read_tables(text, "pair", 2, _poly_row)
    if n != q.n:
        raise ValueError("pair size %d does not match quandle size %d" % (n, q.n))
    return alexander_pair_check(q, f1, f2)


def format_pair_file(f: AlexanderPairTable) -> str:
    return _format_tables(f.n, [f.f1, f.f2], ", ")


def parse_weights_file(text: str) -> CrossingWeights:
    """First line n, then four n-row blocks: g1+, g2+, g1-, g2-."""
    n, blocks = _read_tables(text, "weights", 4, _poly_row)
    return CrossingWeights(n, *blocks)


def format_weights_file(g: CrossingWeights) -> str:
    return _format_tables(g.n, [g.g1_pos, g.g2_pos, g.g1_neg, g.g2_neg], ", ")
