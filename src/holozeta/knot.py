"""Knot diagrams, Wirtinger presentations, and twisted Alexander polynomials.

Diagrams are stored arc-first: arcs in traversal order (an arc ends by
passing under a crossing and continues as the next arc) plus one
crossing record (sign, under_in, under_out, over) per crossing.  The
twisted Alexander polynomial is computed both through the weighted
graph zeta function and through the Fox matrix minor directly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .laurent import (
    LaurentPoly, PolyMatrix, canonical_coeff, content_lines, parse_laurent, rational_matmul,
    scan_tokens, split_matrix_literal,
)
from .freegroup import Generator, GroupRingElt, Word, fox_derivative, apply_phi
from .presentation import BasedPresentation, check_assumption, build_group_weighted_graph
from .wgraph import phi_image, zeta_reciprocal

# tuples are built from lists: one grown from a generator is resized and kept on
# CPython's free list until a full collection, which peak memory then follows


class Representation:
    """Phi = rho tensor alpha: constant invertible rational matrices
    rho(x_i) twisted by integer abelianization exponents alpha(x_i).

    `rho[i]` is the pair (rho(x_i), rho(x_i)^-1), each a flat row-major
    tuple of canonical coefficients, shared by generators with equal rho;
    each distinct rho is inverted once.  `exps[i]` is alpha(x_i), and
    `rho_is_identity` says every rho(x_i) is the identity matrix.
    `apply_phi` evaluates Phi(w) = rho(w) * t^alpha(w).
    """

    def __init__(self, dim: int, mats: dict, exps: dict):
        self.dim = dim
        self.exps = {i: exps[i] for i in mats}
        self.rho = {}
        pairs = {}
        for i, m in mats.items():
            if len(m) != dim * dim:
                raise ValueError("matrix for generator %d is not %dx%d" % (i, dim, dim))
            m = tuple([canonical_coeff(x) for x in m])
            if m not in pairs:
                pairs[m] = (m, _rational_inverse(m, dim))
            self.rho[i] = pairs[m]
        identity = tuple([int(r == c) for r in range(dim) for c in range(dim)])
        self.rho_is_identity = all(m == identity for m in pairs)

    @staticmethod
    def trivial(gen_indices) -> "Representation":
        return Representation(1, {i: (1,) for i in gen_indices}, {i: 1 for i in gen_indices})

    @staticmethod
    def abelianization(p: BasedPresentation) -> "Representation":
        return Representation.trivial([g.index for g in p.generators])


def _rational_inverse(m, k: int) -> tuple:
    """The inverse of the constant k x k matrix m, by
    `PolyMatrix.inverse_unit_det`, whose unit-determinant check proves m
    invertible (det(Phi) = det(rho) t^(k alpha) is a unit iff det(rho) != 0)."""
    inv = PolyMatrix(k, k, [LaurentPoly.const(x) for x in m]).inverse_unit_det()
    return tuple([q.coeff(0) for q in inv.entries])


def rep_direct_sum(r1: Representation, r2: Representation) -> Representation:
    if set(r1.rho) != set(r2.rho):
        raise ValueError("representations have different generator sets")
    if r1.exps != r2.exps:
        raise ValueError("abelianization exponents disagree")
    k1, k2 = r1.dim, r2.dim
    mats = {}
    for i, (a, _) in r1.rho.items():
        b = r2.rho[i][0]
        rows = [list(a[x * k1:(x + 1) * k1]) + [0] * k2 for x in range(k1)]
        rows += [[0] * k1 + list(b[x * k2:(x + 1) * k2]) for x in range(k2)]
        mats[i] = [x for row in rows for x in row]
    return Representation(k1 + k2, mats, r1.exps)


def rep_conjugate(r: Representation, p) -> Representation:
    """Conjugate every rho(x_i) by a constant invertible matrix P."""
    k = r.dim
    if len(p) != k or any(len(row) != k for row in p):
        raise ValueError("conjugating matrix must be %dx%d" % (k, k))
    pm = [x for row in p for x in row]
    pinv = _rational_inverse(pm, k)
    mats = {i: rational_matmul(rational_matmul(pm, m, k), pinv, k) for i, (m, _) in r.rho.items()}
    return Representation(k, mats, r.exps)


def parse_rep(text: str, name_to_index: dict) -> Representation:
    """Parse lines `x1: [[0,1],[1,0]] exp=1`; `all:` applies to every
    generator not otherwise listed."""
    entries = {}
    default = None
    for line in content_lines(text):
        m = re.match(r"(\S+)\s*:\s*(\[\[.*\]\])\s*(?:exp=([+-]?\d+))?$", line)
        if not m:
            raise ValueError("bad representation line %r" % line)
        name, mattext, exptext = m.groups()
        rows = split_matrix_literal(mattext)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix for %s is not square: row lengths %s"
                             % (name, [len(row) for row in rows]))
        cells = [parse_laurent(cell) for row in rows for cell in row]
        if any(c.terms.keys() - {0} for c in cells):
            raise ValueError("matrix for %s has a non-constant cell" % name)
        flat = [c.coeff(0) for c in cells]
        exp = int(exptext) if exptext else 1
        if name == "all":
            default = (len(rows), flat, exp)
        else:
            if name not in name_to_index:
                raise ValueError("unknown generator %r in representation" % name)
            entries[name_to_index[name]] = (len(rows), flat, exp)
    if default is not None:
        for i in name_to_index.values():
            entries.setdefault(i, default)
    if not entries:
        raise ValueError("empty representation file")
    dims = {k for k, _, _ in entries.values()}
    if len(dims) != 1:
        raise ValueError("inconsistent matrix sizes")
    k = dims.pop()
    missing = set(name_to_index.values()) - set(entries)
    if missing:
        raise ValueError("representation missing generators %s" % sorted(missing))
    return Representation(
        k, {i: m for i, (_, m, _) in entries.items()}, {i: e for i, (_, _, e) in entries.items()}
    )


# -- diagrams -----------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    sign: int
    under_in: str
    under_out: str
    over: str

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("crossing sign must be +1 or -1")


@dataclass(frozen=True)
class KnotDiagram:
    arcs: tuple
    crossings: tuple

    def __post_init__(self):
        # arc -> position along the strand, built once so that next_arc and
        # the checks below are O(1) per crossing
        position = {a: k for k, a in enumerate(self.arcs)}
        if len(position) != len(self.arcs):
            raise ValueError("duplicate arc ids")
        object.__setattr__(self, "_position", position)
        if not self.crossings:
            if len(self.arcs) != 1:
                raise ValueError("a crossingless diagram is a single closed arc")
            return
        if len(self.arcs) != len(self.crossings):
            raise ValueError("closed knot diagrams have one arc per crossing")
        under_in = [c.under_in for c in self.crossings]
        under_out = [c.under_out for c in self.crossings]
        if sorted(under_in) != sorted(self.arcs) or sorted(under_out) != sorted(self.arcs):
            raise ValueError("each arc must pass under exactly once")
        for c in self.crossings:
            if c.over not in position:
                raise ValueError("over arc %r missing" % (c.over,))
            if c.under_out != self.next_arc(c.under_in):
                raise ValueError(
                    "arc %r must continue as %r after its undercrossing"
                    % (c.under_in, self.next_arc(c.under_in))
                )

    def next_arc(self, a: str) -> str:
        i = self._position[a]
        return self.arcs[(i + 1) % len(self.arcs)]


@dataclass(frozen=True)
class ReidemeisterMove:
    kind: str  # R1_1 | R1_2 | R2 | R3
    forward: bool = True
    arc: Optional[str] = None  # R1/R2 forward site
    over_arc: Optional[str] = None  # R2 forward over strand
    sign: int = 1
    crossing: Optional[int] = None  # R1 backward site (crossing index)
    crossings: Optional[tuple] = None  # R2 backward pair / R3 triple
    new_ids: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("R1_1", "R1_2", "R2", "R3"):
            raise ValueError("unknown Reidemeister move %r" % self.kind)


class MoveMismatch(ValueError):
    pass


def _build_from_crossing_edges(n: int, data):
    """Assemble a KnotDiagram from per-crossing (sign, under-in edge,
    over-in edge) with edges numbered 1..2n along the strand."""
    total = 2 * n
    under_edges = {u for _, u, _ in data}
    if len(under_edges) != n:
        raise ValueError("under-in edges must be distinct")
    for s, u, o in data:
        if not (1 <= u <= total and 1 <= o <= total):
            raise ValueError("edge number out of range")
        if o in under_edges:
            raise ValueError("edge %d cannot both end under and over a crossing" % o)
    # an arc runs from the edge after an under-in edge up to the next one;
    # walking once round the strand from the lowest such start names the
    # arcs a1..an in the order of their first edges
    names = ["a%d" % (k + 1) for k in range(n)]
    start = min(u % total + 1 for u in under_edges)
    arc_of = {}
    k = 0
    for step in range(total):
        e = (start - 1 + step) % total + 1
        arc_of[e] = names[k]
        if e in under_edges:
            k += 1
    crossings = []
    for s, u, o in data:
        crossings.append(
            Crossing(s, arc_of[u], arc_of[u % total + 1], arc_of[o])
        )
    return KnotDiagram(tuple(names), tuple(crossings))


# a crossing or pass after its separators; `$` reads the separators that end the text
_PD_TOKEN = re.compile(r"[ \t,;]*(?:[Xx]\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]|$)")
_GAUSS_TOKEN = re.compile(r"[ \t,;]*(?:([OUou])(\d+)([+-])|$)")


def parse_pd(text: str) -> KnotDiagram:
    """Parse PD code `X[a,b,c,d] ...` (or the `unknot` token), the tuples
    separated by spaces, tabs, commas or semicolons, or by nothing.

    a is the incoming under edge, c the outgoing under edge, and the
    over strand runs b -> d (positive crossing) or d -> b (negative),
    decided by which pair is consecutive in the edge numbering.
    """
    body = " ".join(content_lines(text))
    if body.lower() == "unknot":
        return KnotDiagram(("a1",), ())
    tuples = [tuple(map(int, m.groups())) for m in scan_tokens(_PD_TOKEN, body) if m.group(1)]
    if not tuples:
        raise ValueError("no crossings in PD input")
    n = len(tuples)
    total = 2 * n
    counts = {}
    data = []
    for a, b, c, d in tuples:
        for e in (a, b, c, d):
            counts[e] = counts.get(e, 0) + 1
        if c != a % total + 1:
            raise ValueError("under strand at X[%d,%d,%d,%d] is not oriented a -> c" % (a, b, c, d))
        if d == b % total + 1:
            sign, over_in = 1, b
        elif b == d % total + 1:
            sign, over_in = -1, d
        else:
            raise ValueError("ambiguous over-strand orientation at X[%d,%d,%d,%d]" % (a, b, c, d))
        data.append((sign, a, over_in))
    bad = [e for e in range(1, total + 1) if counts.get(e, 0) != 2]
    if bad:
        raise ValueError("open strands at edges %s" % bad)
    return _build_from_crossing_edges(n, data)


def parse_gauss(text: str) -> KnotDiagram:
    """Parse a signed Gauss code like `O1+ U2+ O3+ U1+ O2+ U3+`, the
    passes separated as in `parse_pd`; any other text is an error."""
    body = " ".join(content_lines(text))
    if body.lower() == "unknot":
        return KnotDiagram(("a1",), ())
    toks = [m.groups() for m in scan_tokens(_GAUSS_TOKEN, body) if m.group(1)]
    if not toks or len(toks) % 2:
        raise ValueError("a Gauss code needs a positive even number of passes, not %d" % len(toks))
    seen = {}
    for pos, (kind, label, sign) in enumerate(toks):
        label = int(label)
        sign = 1 if sign == "+" else -1
        seen.setdefault(label, {})[kind.upper()] = (pos, sign)
    data = []
    for label in sorted(seen):
        rec = seen[label]
        if set(rec) != {"O", "U"}:
            raise ValueError("crossing %d needs one O and one U pass" % label)
        (pu, su), (po, so) = rec["U"], rec["O"]
        if su != so:
            raise ValueError("crossing %d has inconsistent signs" % label)
        # pass k sits between edge k and edge k+1 (1-based edges)
        data.append((su, pu + 1, po + 1))
    return _build_from_crossing_edges(len(toks) // 2, data)


# -- Wirtinger presentation --------------------------------------------

def wirtinger_presentation(d: KnotDiagram) -> BasedPresentation:
    """One meridian generator per arc; per crossing the relation
    x_{i+1} u^{-s} x_i^{-1} u^{s} based at x_i (solved x_i = u^s x_{i+1} u^{-s});
    the relation at the last arc's crossing is omitted."""
    n = len(d.arcs)
    generators = tuple([Generator(i, "x%d" % (i + 1)) for i in range(n)])
    idx = {a: i for i, a in enumerate(d.arcs)}
    under = {c.under_in: c for c in d.crossings}
    relations = []
    base = {}
    for i in range(n - 1):
        c = under[d.arcs[i]]
        j = idx[c.over]
        nxt = (i + 1) % n
        s = c.sign
        r = Word(((nxt, 1), (j, -s), (i, -1), (j, s)))
        if r.is_identity():
            raise ValueError("degenerate crossing relation at arc %r" % d.arcs[i])
        relations.append(r)
        occ = next(
            k for k, pos in enumerate(r.occurrences(i)) if r.letters[pos] == (i, -1)
        )
        base[len(relations) - 1] = (i, occ)
    return BasedPresentation(generators, tuple(relations), base)


# -- twisted Alexander polynomial ---------------------------------------

@dataclass
class TwistedAlexander:
    numerator: LaurentPoly  # unit-normalized (zero stays zero)
    denominator: LaurentPoly  # unit-normalized (zero stays zero)
    raw_numerator: LaurentPoly = field(default=None)
    raw_denominator: LaurentPoly = field(default=None)

    @property
    def denominator_vanishes(self) -> bool:
        return self.denominator.is_zero()


def _norm(p: LaurentPoly) -> LaurentPoly:
    return p if p.is_zero() else p.unit_normalize()


def fox_matrix(p: BasedPresentation, rep: Representation) -> PolyMatrix:
    """The block matrix Phi(dr_i/dx_l) for l past the first generator, whose
    block column the denominator det(I - Phi(x1)) stands in for."""
    k = rep.dim
    gens = sorted(g.index for g in p.generators)[1:]
    zero = PolyMatrix.zeros(k, k)
    entries = []
    for r in p.relations:
        used = r.generators()
        blocks = [apply_phi(fox_derivative(r, g), rep) if g in used else zero for g in gens]
        for a in range(k):
            for b in blocks:
                entries.extend(b.row(a))
    return PolyMatrix(len(p.relations) * k, len(gens) * k, entries)


@dataclass(frozen=True)
class AlexanderSetup:
    """What both routes share for one diagram and rep: the certified
    presentation and the raw denominator det(I - Phi(x1))."""
    presentation: BasedPresentation
    raw_denominator: LaurentPoly


def alexander_setup(p: BasedPresentation, rep: Representation) -> AlexanderSetup:
    """Check that `rep` satisfies every relation of `p` (a Wirtinger
    presentation), certify `p` for it and compute the denominator.  When
    every rho(x_i) is the identity, Phi(r) = t^alpha(r) * I, so a relation
    holds iff its alpha-weighted exponent sum is 0: no matrix product."""
    one = PolyMatrix.identity(rep.dim)
    for i, r in enumerate(p.relations):
        if rep.rho_is_identity:
            holds = sum(s * rep.exps[g] for g, s in r.letters) == 0
        else:
            holds = apply_phi(GroupRingElt.from_word(r), rep) == one
        if not holds:
            raise ValueError("rep violates relation %d (%s): Phi(r) != I"
                             % (i, r.display(p.names())))
    report = check_assumption(p, rep)
    if not report.all_certified:
        raise ValueError("presentation not certified: %s" % report.entries)
    phi1 = PolyMatrix(rep.dim, rep.dim, [LaurentPoly.monomial(x, rep.exps[0]) for x in rep.rho[0][0]])
    denom = (PolyMatrix.identity(rep.dim) - phi1).det()
    return AlexanderSetup(p, denom)


def twisted_alexander(d: KnotDiagram, rep: Representation, route: str = "graph",
                      setup: Optional[AlexanderSetup] = None) -> TwistedAlexander:
    """The twisted Alexander polynomial by one route; pass the `setup` of
    `d` and `rep` to share it between routes."""
    if route not in ("graph", "direct"):
        raise ValueError("route must be graph or direct")
    if setup is None:
        setup = alexander_setup(wirtinger_presentation(d), rep)
    p = setup.presentation
    if route == "graph":
        num_raw = zeta_reciprocal(phi_image(build_group_weighted_graph(p), rep))
    else:
        num_raw = fox_matrix(p, rep).det()
    return TwistedAlexander(
        numerator=_norm(num_raw),
        denominator=_norm(setup.raw_denominator),
        raw_numerator=num_raw,
        raw_denominator=setup.raw_denominator,
    )


# -- Reidemeister rewrites ----------------------------------------------

def _fresh_arcs(existing, count: int):
    out = []
    k = 1
    taken = set(existing)
    while len(out) < count:
        name = "b%d" % k
        if name not in taken:
            out.append(name)
            taken.add(name)
        k += 1
    return tuple(out)


def _split(d: KnotDiagram, a: str, new, added) -> KnotDiagram:
    """d with the arcs `new` following arc a along the strand: the crossing
    that a ended at now ends the last new arc, and the `added` crossings join."""
    last = new[-1] if new else a
    crossings = [Crossing(c.sign, last, c.under_out, c.over) if c.under_in == a else c
                 for c in d.crossings]
    i = d.arcs.index(a)
    return KnotDiagram(d.arcs[:i + 1] + new + d.arcs[i + 1:], tuple(crossings + added))


def _fold(d: KnotDiagram, ks, a: str, folded) -> KnotDiagram:
    """d without the crossings at ks and with the arcs `folded` merged back
    into arc a, in one substitution pass; a folded into itself stays."""
    gone = set(folded) - {a}

    def sub(x):
        return a if x in gone else x

    rest = [Crossing(c.sign, sub(c.under_in), sub(c.under_out), sub(c.over))
            for k, c in enumerate(d.crossings) if k not in ks]
    return KnotDiagram(tuple([x for x in d.arcs if x not in gone]), tuple(rest))


def _crossings_at(d: KnotDiagram, ks, count: int, move: str):
    """The crossings at ks, which must be count distinct indices into d.crossings."""
    n = len(d.crossings)
    if ks is None or len(ks) != count or len(set(ks)) != count or not all(0 <= k < n for k in ks):
        raise MoveMismatch("%s needs %d distinct crossing indices in range(%d), got %r"
                           % (move, count, n, ks))
    return [d.crossings[k] for k in ks]


def reidemeister_apply(d: KnotDiagram, m: ReidemeisterMove) -> KnotDiagram:
    if m.kind in ("R1_1", "R1_2"):
        return _apply_r1(d, m) if m.forward else _undo_r1(d, m)
    if m.kind == "R2":
        return _apply_r2(d, m) if m.forward else _undo_r2(d, m)
    return _apply_r3(d, m)  # R3: ReidemeisterMove rejects any other kind


def _apply_r1(d: KnotDiagram, m: ReidemeisterMove) -> KnotDiagram:
    a = m.arc
    if a not in d.arcs:
        raise MoveMismatch("no arc %r" % a)
    if not d.crossings:
        # a kink on the bare unknot crosses the single arc with itself
        return _split(d, a, (), [Crossing(m.sign, a, a, a)])
    (b,) = m.new_ids or _fresh_arcs(d.arcs, 1)
    return _split(d, a, (b,), [Crossing(m.sign, a, b, b if m.kind == "R1_1" else a)])


def _undo_r1(d: KnotDiagram, m: ReidemeisterMove) -> KnotDiagram:
    (c,) = _crossings_at(d, None if m.crossing is None else (m.crossing,), 1, "R1 removal")
    expect_over = c.under_out if m.kind == "R1_1" else c.under_in
    if c.over != expect_over:
        raise MoveMismatch("crossing is not an %s kink" % m.kind)
    # an arc that passes under itself is the whole diagram, one kink: it stays
    return _fold(d, (m.crossing,), c.under_in, (c.under_out,))


def _apply_r2(d: KnotDiagram, m: ReidemeisterMove) -> KnotDiagram:
    a, c = m.arc, m.over_arc
    if a not in d.arcs or c not in d.arcs:
        raise MoveMismatch("R2 needs two existing arcs")
    if a == c:
        raise MoveMismatch("R2 strands must be distinct arcs")
    mid, b = m.new_ids or _fresh_arcs(d.arcs, 2)
    return _split(d, a, (mid, b), [Crossing(m.sign, a, mid, c), Crossing(-m.sign, mid, b, c)])


def _undo_r2(d: KnotDiagram, m: ReidemeisterMove) -> KnotDiagram:
    c1, c2 = _crossings_at(d, m.crossings, 2, "R2 removal")
    if c1.under_out != c2.under_in or c1.over != c2.over or c1.sign != -c2.sign:
        raise MoveMismatch("crossings do not form an R2 pair")
    a, mid, b = c1.under_in, c1.under_out, c2.under_out
    if c1.over in (a, mid, b):
        raise MoveMismatch("over strand entangled with the R2 site")
    for k, c in enumerate(d.crossings):
        if k not in m.crossings and mid in (c.under_in, c.under_out, c.over):
            raise MoveMismatch("middle arc is not free")
    return _fold(d, m.crossings, a, (mid, b))


def _apply_r3(d: KnotDiagram, m: ReidemeisterMove) -> KnotDiagram:
    """Slide the under strand across the crossing of the two over strands.

    Site pattern (all positive): c1 = (A -> A2 over J), c2 = (A2 -> A3
    over K), c3 = (J -> J2 over K); the move swaps c1's over strand to K
    and c2's to J2 (and back again when reversed)."""
    c1, c2, c3 = _crossings_at(d, m.crossings, 3, "R3")
    k1, k2, _ = m.crossings
    if not (c1.sign == c2.sign == c3.sign == 1):
        raise MoveMismatch("only the all-positive R3 pattern is implemented")
    if c1.under_out != c2.under_in:
        raise MoveMismatch("under strand must pass c1 then c2")
    jay, kay = c3.under_in, c3.over
    j2 = c3.under_out
    if m.forward:
        if c1.over != jay or c2.over != kay:
            raise MoveMismatch("site does not match the R3 before-pattern")
        new1 = Crossing(1, c1.under_in, c1.under_out, kay)
        new2 = Crossing(1, c2.under_in, c2.under_out, j2)
    else:
        if c1.over != kay or c2.over != j2:
            raise MoveMismatch("site does not match the R3 after-pattern")
        new1 = Crossing(1, c1.under_in, c1.under_out, jay)
        new2 = Crossing(1, c2.under_in, c2.under_out, kay)
    crossings = list(d.crossings)
    crossings[k1] = new1
    crossings[k2] = new2
    return KnotDiagram(d.arcs, tuple(crossings))
