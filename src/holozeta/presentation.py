"""Based group presentations and strong Tietze moves.

A based presentation (X, R, B) assigns to each relation a chosen
occurrence of a generator (its base point), injectively over relations.
Solving the relation at its base point as x_i = f_i drives both the
assumption check and the group-weighted graph construction.
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
        letters = tuple((gg, -s) for gg, s in reversed(letters))
        pos = len(letters) - 1 - pos
    rotated = letters[pos:] + letters[:pos]
    assert rotated[0] == (g, 1)
    return Word(rotated[1:]).inv()


def _reduce_track(letters, marked: int):
    """Freely reduce while tracking one marked position.

    Returns (reduced letters, new marked index, None) on success, or
    (None, None, partner index) when the marked letter cancels, where
    partner is the position it cancelled against.
    """
    stack = []  # (letter, original index)
    for idx, (g, s) in enumerate(letters):
        if stack and stack[-1][0] == (g, -s):
            _, prev_idx = stack.pop()
            if marked == idx:
                return None, None, prev_idx
            if marked == prev_idx:
                return None, None, idx
        else:
            stack.append(((g, s), idx))
    new_marked = None
    out = []
    for k, (letter, idx) in enumerate(stack):
        out.append(letter)
        if idx == marked:
            new_marked = k
    return tuple(out), new_marked, None


def _reduce_tracked(letters, marked: int, wlen: int):
    """Tracked reduction of w r w^-1 with |w| = wlen (wlen = 0 for a
    product r s, whose s then counts as part of r).

    When the marked letter cancels against a conjugator letter, the base
    occurrence transfers to that letter's mirror on the other side of r,
    which carries the same generator; cancellation against a letter of r
    itself invalidates the move.
    """
    rlen = len(letters) - 2 * wlen
    for _ in range(len(letters) + 1):
        reduced, new_marked, partner = _reduce_track(letters, marked)
        if reduced is not None:
            return reduced, new_marked
        if partner < wlen:
            marked = wlen + rlen + (wlen - 1 - partner)
        elif partner >= wlen + rlen:
            marked = wlen - 1 - (partner - wlen - rlen)
        else:
            raise InvalidMove("base-point letter cancelled by free reduction")
    raise InvalidMove("base-point letter cancelled by free reduction")


@dataclass(frozen=True)
class TietzeMove:
    kind: str  # invert | conjugate | multiply | multiply_inv | add_generator | remove_generator
    i: Optional[int] = None
    k: Optional[int] = None
    w: Optional[Word] = None
    name: Optional[str] = None

    KINDS = (
        "invert",
        "conjugate",
        "multiply",
        "multiply_inv",
        "add_generator",
        "remove_generator",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError("unknown Tietze move kind %r" % self.kind)


def _position_of_base(r: Word, bp) -> int:
    g, occ = bp
    return r.occurrences(g)[occ]


def _ordinal_of_position(letters, pos: int) -> int:
    g = letters[pos][0]
    return sum(1 for p, (gg, _) in enumerate(letters) if gg == g and p < pos)


def tietze_apply(p: BasedPresentation, m: TietzeMove) -> BasedPresentation:
    relations = list(p.relations)
    base = dict(p.base)
    generators = list(p.generators)
    if m.kind in ("invert", "conjugate", "multiply", "multiply_inv"):
        for idx in (m.i, m.k) if m.kind.startswith("multiply") else (m.i,):
            if idx not in range(len(relations)):
                raise InvalidMove("no relation %r" % (idx,))

    if m.kind == "invert":
        r = relations[m.i]
        relations[m.i] = r.inv()
        if m.i in base:
            g, occ = base[m.i]
            pos = _position_of_base(r, base[m.i])
            new_pos = len(r.letters) - 1 - pos
            base[m.i] = (g, _ordinal_of_position(relations[m.i].letters, new_pos))

    elif m.kind in ("conjugate", "multiply", "multiply_inv"):
        # the new relation is head + r + tail: w r w^-1, or r times the
        # other relation or its inverse
        r = relations[m.i]
        if m.kind == "conjugate":
            w = m.w if m.w is not None else Word.identity()
            head, tail = w.letters, w.inv().letters
            empty = "conjugation produced an empty relation"
        else:
            if m.i == m.k:
                raise InvalidMove("cannot multiply a relation by itself")
            other = relations[m.k] if m.kind == "multiply" else relations[m.k].inv()
            head, tail = (), other.letters
            empty = "product relation is empty"
        letters = head + r.letters + tail
        if m.i in base:
            g, _ = base[m.i]
            marked = len(head) + _position_of_base(r, base[m.i])
            letters, marked = _reduce_tracked(letters, marked, len(head))
            base[m.i] = (g, _ordinal_of_position(letters, marked))
        relations[m.i] = Word(letters)
        if relations[m.i].is_identity():
            raise InvalidMove(empty)

    elif m.kind == "add_generator":
        names = p.name_to_index()
        if m.name in names:
            raise InvalidMove("generator %r already exists" % m.name)
        new_index = max((g.index for g in generators), default=-1) + 1
        for g, _ in m.w.letters:
            if g not in {gg.index for gg in generators}:
                raise InvalidMove("defining word uses unknown generator %d" % g)
        generators.append(Generator(new_index, m.name))
        relations.append(Word.gen(new_index) * m.w.inv())
        base[len(relations) - 1] = (new_index, 0)

    elif m.kind == "remove_generator":
        names = p.name_to_index()
        if m.name not in names:
            raise InvalidMove("no generator named %r" % m.name)
        gi = names[m.name]
        rel_idx = None
        for i, (g, _) in base.items():
            if g == gi:
                rel_idx = i
        if rel_idx is None:
            raise InvalidMove("generator %r is not a base point" % m.name)
        r = relations[rel_idx]
        if len(r.occurrences(gi)) != 1 or r.letters[_position_of_base(r, base[rel_idx])][1] != 1:
            raise InvalidMove("relation is not of the form x * w^-1")
        for i, other in enumerate(relations):
            if i != rel_idx and gi in other.generators():
                raise InvalidMove("generator %r still used by relation %d" % (m.name, i))
        del relations[rel_idx]
        del base[rel_idx]
        base = {
            (i if i < rel_idx else i - 1): bp for i, bp in base.items()
        }
        generators = [g for g in generators if g.index != gi]

    return BasedPresentation(tuple(generators), tuple(relations), base)


def inverse_move(p: BasedPresentation, m: TietzeMove) -> TietzeMove:
    """The move undoing m when applied right after it."""
    if m.kind == "invert":
        return m
    if m.kind == "conjugate":
        return TietzeMove("conjugate", i=m.i, w=m.w.inv())
    if m.kind == "multiply":
        return TietzeMove("multiply_inv", i=m.i, k=m.k)
    if m.kind == "multiply_inv":
        return TietzeMove("multiply", i=m.i, k=m.k)
    if m.kind == "add_generator":
        return TietzeMove("remove_generator", name=m.name)
    if m.kind == "remove_generator":
        names = p.name_to_index()
        gi = names[m.name]
        for i, (g, _) in p.base.items():
            if g == gi:
                f = p.solved_form(i)
                return TietzeMove("add_generator", name=m.name, w=f)
        raise InvalidMove("generator %r is not a base point" % m.name)
    raise InvalidMove("no inverse for %r" % m.kind)


def rebase(p: BasedPresentation, i: int, bp) -> BasedPresentation:
    """Move the base point of relation i to another occurrence of the
    same generator (base-choice independence of the zeta function)."""
    g, occ = bp
    old_g, _ = p.base[i]
    if g != old_g:
        raise ValueError("rebase must keep the same generator")
    positions = p.relations[i].occurrences(g)
    if not (0 <= occ < len(positions)):
        raise ValueError("occurrence %d of generator %d not present" % (occ, g))
    base = dict(p.base)
    base[i] = (g, occ)
    return BasedPresentation(p.generators, p.relations, base)


def _canonical_form(p: BasedPresentation):
    """Presentation data with generators identified by display name and
    relations taken as an unordered multiset; generator indices and
    relation order are internal bookkeeping."""
    names = p.names()
    rels = []
    for i, r in enumerate(p.relations):
        letters = tuple((names[g], s) for g, s in r.letters)
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
    from .wgraph import WeightedDigraph, Edge

    names = p.names()
    vertices = tuple((g.display_name, 1) for g in sorted(p.generators, key=lambda g: g.index))
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
            generators = tuple(Generator(i, n) for i, n in enumerate(names))
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
