"""Based group presentations and strong Tietze moves.

A based presentation (X, R, B) assigns to each relation a chosen
occurrence of a generator (its base point), injectively over relations.
Solving the relation at its base point as x_i = f_i drives both the
assumption check and the group-weighted graph construction.  Tietze
moves are looked up in one rule table, each kind beside its required
fields and its inverse.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .freegroup import (
    Generator,
    GroupRingElt,
    Word,
    fox_derivative,
    apply_phi,
    parse_word,
)
from .laurent import content_lines
from .wgraph import Edge, WeightedDigraph

# tuples are built from lists: one grown from a generator is resized and kept on
# CPython's free list until a full collection, which peak memory then follows


class InvalidMove(ValueError):
    pass


@dataclass(frozen=True)
class BasedPresentation:
    generators: tuple
    relations: tuple
    base: dict  # relation index -> (generator index, occurrence ordinal)

    def __post_init__(self):
        names = [g.display_name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        idxs = [g.index for g in self.generators]
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate generator indices")
        used = set()
        for i, r in enumerate(self.relations):
            if r.is_identity():
                raise ValueError("relation %d is empty" % i)
        for i, (g, occ) in self.base.items():
            if not (0 <= i < len(self.relations)):
                raise ValueError("base map refers to missing relation %d" % i)
            if g in used:
                raise ValueError("base map not injective at generator %d" % g)
            used.add(g)
            positions = self.relations[i].occurrences(g)
            if not (0 <= occ < len(positions)):
                raise ValueError(
                    "relation %d has no occurrence %d of generator %d" % (i, occ, g)
                )

    def names(self) -> dict:
        return {g.index: g.display_name for g in self.generators}

    def name_to_index(self) -> dict:
        return {g.display_name: g.index for g in self.generators}

    def solved_form(self, i: int) -> Word:
        """The word f with the relation i read as x = f at its base point."""
        if i not in self.base:
            raise ValueError("relation %d has no base point" % i)
        return solve_for_base(self.relations[i], self.base[i])


def solve_for_base(r: Word, bp) -> Word:
    """Solve r = 1 as x = f at the occurrence bp = (generator, ordinal).

    The relation is rotated (after inversion when the occurrence has
    sign -1) into the shape x * f^-1 and f is read off.
    """
    g, occ = bp
    positions = r.occurrences(g)
    if not (0 <= occ < len(positions)):
        raise ValueError("no occurrence %d of generator %d in relation" % (occ, g))
    pos = positions[occ]
    letters = r.letters
    if letters[pos][1] == -1:
        letters = tuple([(gg, -s) for gg, s in reversed(letters)])
        pos = len(letters) - 1 - pos
    rotated = letters[pos:] + letters[:pos]
    assert rotated[0] == (g, 1)
    return Word(rotated[1:]).inv()


def _reduce_tracked(letters, marked: int, wlen: int):
    """Freely reduce w r w^-1 with |w| = wlen (wlen = 0 for a product
    r s, whose s then counts as part of r) while tracking the marked
    letter; returns (reduced letters, new marked index).

    When the marked letter cancels against a conjugator letter, the base
    occurrence transfers to that letter's mirror on the other side of r,
    which carries the same generator; cancellation against a letter of r
    itself invalidates the move.
    """
    rlen = len(letters) - 2 * wlen
    for _ in range(len(letters) + 1):
        stack = []  # (letter, original index)
        for idx, (g, s) in enumerate(letters):
            if stack and stack[-1][0] == (g, -s):
                _, prev_idx = stack.pop()
                if marked in (idx, prev_idx):
                    break
            else:
                stack.append(((g, s), idx))
        else:
            return tuple([letter for letter, _ in stack]), [i for _, i in stack].index(marked)
        partner = prev_idx if marked == idx else idx
        if partner < wlen:
            marked = wlen + rlen + (wlen - 1 - partner)
        elif partner >= wlen + rlen:
            marked = wlen - 1 - (partner - wlen - rlen)
        else:
            raise InvalidMove("base-point letter cancelled by free reduction")
    raise InvalidMove("base-point letter cancelled by free reduction")


@dataclass(frozen=True)
class TietzeMove:
    kind: str  # a key of _TIETZE_MOVES
    i: Optional[int] = None
    k: Optional[int] = None
    w: Optional[Word] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _TIETZE_MOVES:
            raise ValueError("unknown Tietze move kind %r" % self.kind)
        for field in _TIETZE_MOVES[self.kind][0]:
            if getattr(self, field) is None:
                raise ValueError("Tietze move %s needs field %r" % (self.kind, field))


def _position_of_base(r: Word, bp) -> int:
    g, occ = bp
    return r.occurrences(g)[occ]


def _ordinal_of_position(letters, pos: int) -> int:
    g = letters[pos][0]
    return sum(1 for p, (gg, _) in enumerate(letters) if gg == g and p < pos)


def _relation(p: BasedPresentation, i) -> Word:
    if i not in range(len(p.relations)):
        raise InvalidMove("no relation %r" % (i,))
    return p.relations[i]


def _replace_relation(p: BasedPresentation, i: int, r: Word, bp) -> BasedPresentation:
    """p with relation i set to r and, given a bp, based at bp."""
    base = dict(p.base) if bp is None else {**p.base, i: bp}
    return BasedPresentation(p.generators, p.relations[:i] + (r,) + p.relations[i + 1:], base)


def _defining_relation(p: BasedPresentation, name: str):
    """(generator index, index of the relation based at it) for a name."""
    names = p.name_to_index()
    if name not in names:
        raise InvalidMove("no generator named %r" % name)
    gi = names[name]
    for i, (g, _) in p.base.items():
        if g == gi:
            return gi, i
    raise InvalidMove("generator %r is not a base point" % name)


def _invert(p: BasedPresentation, m: TietzeMove) -> BasedPresentation:
    r = _relation(p, m.i)
    bp = None
    if m.i in p.base:
        # reversing r reverses the order of the base generator's occurrences
        g, occ = p.base[m.i]
        bp = (g, len(r.occurrences(g)) - 1 - occ)
    return _replace_relation(p, m.i, r.inv(), bp)


def _rewrite(p: BasedPresentation, m: TietzeMove) -> BasedPresentation:
    """conjugate, multiply and multiply_inv: relation i becomes head + r +
    tail, that is w r w^-1, or r times relation k or its inverse."""
    r = _relation(p, m.i)
    if m.kind == "conjugate":
        head, tail = m.w.letters, m.w.inv().letters
    else:
        other = _relation(p, m.k)
        if m.i == m.k:
            raise InvalidMove("cannot multiply a relation by itself")
        head, tail = (), (other if m.kind == "multiply" else other.inv()).letters
    letters = head + r.letters + tail
    bp = None
    if m.i in p.base:
        g, _ = p.base[m.i]
        marked = len(head) + _position_of_base(r, p.base[m.i])
        letters, marked = _reduce_tracked(letters, marked, len(head))
        bp = (g, _ordinal_of_position(letters, marked))
    new = Word(letters)
    # w r w^-1 is never empty, since r is not
    if new.is_identity():
        raise InvalidMove("product relation is empty")
    return _replace_relation(p, m.i, new, bp)


def _add_generator(p: BasedPresentation, m: TietzeMove) -> BasedPresentation:
    if m.name in p.name_to_index():
        raise InvalidMove("generator %r already exists" % m.name)
    indices = {g.index for g in p.generators}
    for g, _ in m.w.letters:
        if g not in indices:
            raise InvalidMove("defining word uses unknown generator %d" % g)
    new_index = max(indices, default=-1) + 1
    return BasedPresentation(
        p.generators + (Generator(new_index, m.name),),
        p.relations + (Word.gen(new_index) * m.w.inv(),),
        {**p.base, len(p.relations): (new_index, 0)},
    )


def _remove_generator(p: BasedPresentation, m: TietzeMove) -> BasedPresentation:
    gi, j = _defining_relation(p, m.name)
    r = p.relations[j]
    if len(r.occurrences(gi)) != 1 or r.letters[_position_of_base(r, p.base[j])][1] != 1:
        raise InvalidMove("relation is not of the form x * w^-1")
    for i, other in enumerate(p.relations):
        if i != j and gi in other.generators():
            raise InvalidMove("generator %r still used by relation %d" % (m.name, i))
    return BasedPresentation(
        tuple([g for g in p.generators if g.index != gi]),
        p.relations[:j] + p.relations[j + 1:],
        {(i if i < j else i - 1): bp for i, bp in p.base.items() if i != j},
    )


def _restore_generator(p: BasedPresentation, m: TietzeMove) -> TietzeMove:
    _, j = _defining_relation(p, m.name)
    return TietzeMove("add_generator", name=m.name, w=p.solved_form(j))


# kind -> (required fields, apply, inverse): TietzeMove rejects a move
# missing a required field; apply(p, m) is the presentation after m, and
# inverse(p, m) the move undoing m when applied right after it
_TIETZE_MOVES = {
    "invert": (("i",), _invert, lambda p, m: m),
    "conjugate": (("i", "w"), _rewrite, lambda p, m: TietzeMove("conjugate", i=m.i, w=m.w.inv())),
    "multiply": (("i", "k"), _rewrite, lambda p, m: TietzeMove("multiply_inv", i=m.i, k=m.k)),
    "multiply_inv": (("i", "k"), _rewrite, lambda p, m: TietzeMove("multiply", i=m.i, k=m.k)),
    "add_generator": (("name", "w"), _add_generator,
                      lambda p, m: TietzeMove("remove_generator", name=m.name)),
    "remove_generator": (("name",), _remove_generator, _restore_generator),
}


def tietze_apply(p: BasedPresentation, m: TietzeMove) -> BasedPresentation:
    return _TIETZE_MOVES[m.kind][1](p, m)


def inverse_move(p: BasedPresentation, m: TietzeMove) -> TietzeMove:
    """The move undoing m when applied right after it to p."""
    return _TIETZE_MOVES[m.kind][2](p, m)


def rebase(p: BasedPresentation, i: int, bp) -> BasedPresentation:
    """Move the base point of relation i to another occurrence of the
    same generator (base-choice independence of the zeta function)."""
    g, occ = bp
    old_g, _ = p.base[i]
    if g != old_g:
        raise ValueError("rebase must keep the same generator")
    return BasedPresentation(p.generators, p.relations, {**p.base, i: (g, occ)})


def _canonical_form(p: BasedPresentation):
    """Presentation data with generators identified by display name and
    relations taken as an unordered multiset; generator indices and
    relation order are internal bookkeeping."""
    names = p.names()
    rels = []
    for i, r in enumerate(p.relations):
        letters = tuple([(names[g], s) for g, s in r.letters])
        bp = None
        if i in p.base:
            g, occ = p.base[i]
            bp = (names[g], occ)
        rels.append((letters, bp))
    return frozenset(names.values()), sorted(rels)


def presentations_equal(p: BasedPresentation, q: BasedPresentation) -> bool:
    """Equality up to generator reindexing and relation order."""
    return _canonical_form(p) == _canonical_form(q)


@dataclass
class AssumptionReport:
    entries: list = field(default_factory=list)  # (relation index, certified, detail)

    @property
    def all_certified(self) -> bool:
        return all(ok for _, ok, _ in self.entries)


def check_assumption(p: BasedPresentation, rep) -> AssumptionReport:
    """Certify, per relation, that Phi(1 - df_i/dx_i) is nonzero.

    This is a sound certificate for the group-ring condition
    pr(dr_i/dx_i) != 0; a failure only means "not certified".
    """
    report = AssumptionReport()
    for i in range(len(p.relations)):
        if i not in p.base:
            report.entries.append((i, False, "no base point"))
            continue
        g, _ = p.base[i]
        f = p.solved_form(i)
        elt = GroupRingElt.one() - fox_derivative(f, g)
        mat = apply_phi(elt, rep)
        ok = not mat.is_zero()
        report.entries.append((i, ok, "Phi(1 - df/dx) %s" % ("nonzero" if ok else "zero")))
    return report


def build_group_weighted_graph(p: BasedPresentation):
    """The group-weighted graph: one vertex per generator, and for each
    based relation x_i = f_i an edge v_i -> v_j weighted df_i/dx_j.

    Weights stay in the free group ring; the projection to the quotient
    group is deferred to Phi.
    """
    names = p.names()
    vertices = tuple([(g.display_name, 1) for g in sorted(p.generators, key=lambda g: g.index)])
    edges = []
    for i in range(len(p.relations)):
        if i not in p.base:
            raise ValueError("relation %d has no base point" % i)
        g, _ = p.base[i]
        f = p.solved_form(i)
        for j in sorted(f.generators()):
            d = fox_derivative(f, j)
            if d.is_zero():
                continue
            edges.append(
                Edge("e%d_%s" % (i, names[j]), names[g], names[j], d)
            )
    return WeightedDigraph("group", vertices, tuple(edges))


# -- text format -------------------------------------------------------

def parse_presentation(text: str) -> BasedPresentation:
    """Parse the `gens:` / `rel: ... base: x@k` text format."""
    generators = None
    relations = []
    base = {}
    for line in content_lines(text):
        if line.startswith("gens:"):
            names = line[len("gens:"):].split()
            generators = tuple([Generator(i, n) for i, n in enumerate(names)])
        elif line.startswith("rel:"):
            if generators is None:
                raise ValueError("gens: line must come first")
            body = line[len("rel:"):]
            bp = None
            if "base:" in body:
                body, bptext = body.split("base:", 1)
                bptext = bptext.strip()
                if "@" not in bptext:
                    raise ValueError("base point must look like name@ordinal")
                name, occ = bptext.split("@", 1)
                nmap = {g.display_name: g.index for g in generators}
                if name not in nmap:
                    raise ValueError("unknown base generator %r" % name)
                bp = (nmap[name], int(occ))
            w = parse_word(body, {g.display_name: g.index for g in generators})
            relations.append(w)
            if bp is not None:
                base[len(relations) - 1] = bp
        else:
            raise ValueError("unrecognized line %r" % line)
    if generators is None:
        raise ValueError("missing gens: line")
    return BasedPresentation(generators, tuple(relations), base)


def format_presentation(p: BasedPresentation) -> str:
    names = p.names()
    lines = ["gens: " + " ".join(g.display_name for g in p.generators)]
    for i, r in enumerate(p.relations):
        line = "rel: " + r.display(names)
        if i in p.base:
            g, occ = p.base[i]
            line += "  base: %s@%d" % (names[g], occ)
        lines.append(line)
    return "\n".join(lines) + "\n"
