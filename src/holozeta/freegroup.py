"""Free groups, their integral group rings, and the Fox free differential.

Words are freely reduced sequences of (generator index, sign).  Group
ring elements are sparse maps word -> rational coefficient, stored as in
`LaurentPoly` (`canonical_coeff`).  The Fox derivative
follows the product rule d(pq) = dp + p*dq with dx_j/dx_i = delta_ij,
which forces d(x^-1)/dx = -x^-1.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .laurent import LaurentPoly, PolyMatrix, COUNT_LIMIT, canonical_coeff, rational_matmul


@dataclass(frozen=True)
class Generator:
    index: int
    display_name: str


def reduce_letters(letters):
    """Freely reduce a letter sequence with a stack."""
    out = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, int(s)))
    return tuple(out)


class Word:
    """Freely reduced word in a free group."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", reduce_letters(letters))

    @staticmethod
    def gen(i: int, sign: int = 1) -> "Word":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return Word(((i, sign),))

    @staticmethod
    def from_reduced(letters) -> "Word":
        w = Word.__new__(Word)
        object.__setattr__(w, "letters", tuple(letters))
        return w

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inv(self) -> "Word":
        # from a list: a tuple grown from a generator is resized, and CPython's free
        # list keeps resized tuples of up to 20 items until a full collection
        return Word.from_reduced(tuple([(g, -s) for g, s in reversed(self.letters)]))

    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def generators(self):
        return {g for g, _ in self.letters}

    def occurrences(self, i: int):
        """Positions of letters with generator i, either sign."""
        return [p for p, (g, _) in enumerate(self.letters) if g == i]

    def display(self, names) -> str:
        if not self.letters:
            return "1"
        return " ".join(
            names[g] if s == 1 else "%s^-1" % names[g] for g, s in self.letters
        )

    def __repr__(self):
        if not self.letters:
            return "Word(1)"
        return "Word(%s)" % " ".join(
            "x%d" % g if s == 1 else "x%d^-1" % g for g, s in self.letters
        )


_WORD_TOKEN = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?:\^(?P<exp>[+-]?[0-9]+))?$")


def parse_word(text: str, name_to_index) -> Word:
    """Parse `x1 x3^-1 x2` (optional `*` separators) against a name map."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    letters = []
    for tok in re.split(r"[\s*]+", text):
        if not tok:
            continue
        m = _WORD_TOKEN.match(tok)
        if not m:
            raise ValueError("bad word token %r" % tok)
        name = m.group("name")
        if name not in name_to_index:
            raise ValueError("unknown generator %r" % name)
        e = int(m.group("exp")) if m.group("exp") else 1
        if abs(e) > COUNT_LIMIT:
            raise ValueError("word token %r: exponent %d is above the limit of %d"
                             % (tok, e, COUNT_LIMIT))
        sign = 1 if e > 0 else -1
        letters.extend([(name_to_index[name], sign)] * abs(e))
    return Word(letters)


class GroupRingElt:
    """Element of the group ring Q[F_n], a sparse map Word -> coefficient,
    each an `int` or a `Fraction` with denominator > 1."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                c = canonical_coeff(c)
                if c:
                    clean[w] = c
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElt(out)

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return GroupRingElt(out)

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt({w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "GroupRingElt") -> "GroupRingElt":
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElt(out)

    def __eq__(self, other):
        return isinstance(other, GroupRingElt) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "GroupRingElt(%s)" % {w: str(c) for w, c in self.terms.items()}


def fox_derivative(w: Word, i: int) -> GroupRingElt:
    """The Fox derivative d(w)/dx_i of a word."""
    out = {}
    letters = w.letters
    for k, (g, s) in enumerate(letters):
        if g == i:
            # x_i^s at k adds s * w[:k + (s == -1)]: a prefix of a reduced word is reduced
            key = Word.from_reduced(letters[:k + (s == -1)])
            out[key] = out.get(key, 0) + s
    return GroupRingElt(out)


def apply_phi(e: GroupRingElt, rep) -> PolyMatrix:
    """Phi = (rho tensor alpha): w -> rho(w) * t^alpha(w), extended linearly.

    `rep.rho[i]` holds the constant matrices rho(x_i) and rho(x_i)^-1 and
    `rep.exps[i]` the exponent alpha(x_i).  Per term, alpha(w) is an
    exponent sum and rho(w) a product of constant matrices (none when
    `rep.rho_is_identity`); c * rho(w) lands at t^alpha(w) in a grid of
    coefficient maps, and each cell becomes a `LaurentPoly` once, at the end.
    A cell sums products of canonical coefficients at `int` exponents, so
    it is wrapped as a ring result, with no `canonical_coeff` per term.
    """
    k = rep.dim
    rho, exps = rep.rho, rep.exps
    identity = rep.rho_is_identity
    grid = [{} for _ in range(k * k)]
    for w, c in e.terms.items():
        a, m = 0, None
        for g, s in w.letters:
            if g not in rho:
                raise KeyError("generator %d not defined in representation" % g)
            a += s * exps[g]
            if not identity:
                r = rho[g][0 if s == 1 else 1]
                m = r if m is None else rational_matmul(m, r, k, k, k)
        _add_phi(grid, c, a, m, k)
    return PolyMatrix(k, k, [LaurentPoly._ring_result(cell) for cell in grid])


def phi_fox_derivatives(w: Word, rep) -> dict:
    """Phi(dw/dx_i) for every generator i of w, each a flat row-major list
    of k*k `LaurentPoly` cells: `apply_phi(fox_derivative(w, i), rep)` for
    all i from one left-to-right pass over w.

    The pass carries Phi(prefix) = rho(prefix) * t^alpha(prefix).  A letter
    x_i adds +Phi(prefix) to the i block, a letter x_i^-1 adds
    -Phi(prefix * x_i^-1).  Each letter costs one k x k constant product
    (none when `rep.rho_is_identity`), and a letter x_i that ends w none at
    all, so a generator missing from `rep` raises the `KeyError` of
    `apply_phi` exactly when some Phi(dw/dx_i) reads it."""
    k = rep.dim
    rho, exps = rep.rho, rep.exps
    identity = rep.rho_is_identity
    grids = {}
    a, m = 0, None  # Phi(prefix) = m * t^a; m is None for rho(prefix) = I
    last = len(w.letters) - 1
    for pos, (g, s) in enumerate(w.letters):
        grid = grids.get(g)
        if grid is None:
            grid = grids[g] = [{} for _ in range(k * k)]
        if s == 1:
            _add_phi(grid, 1, a, m, k)
            if pos == last:
                break
        if g not in rho:
            raise KeyError("generator %d not defined in representation" % g)
        a += s * exps[g]
        if not identity:
            r = rho[g][0 if s == 1 else 1]
            m = r if m is None else rational_matmul(m, r, k, k, k)
        if s == -1:
            _add_phi(grid, -1, a, m, k)
    ring = LaurentPoly._ring_result
    return {g: [ring(cell) for cell in grid] for g, grid in grids.items()}


def _add_phi(grid, c, a: int, m, k: int):
    """Add c * m * t^a to the k x k grid of coefficient maps, m None for I."""
    if m is None:
        for d in range(0, k * k, k + 1):
            grid[d][a] = grid[d].get(a, 0) + c
    else:
        for cell, x in zip(grid, m):
            if x:
                cell[a] = cell.get(a, 0) + c * x
