from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holozeta.freegroup import (
    GroupRingElt,
    Word,
    apply_phi,
    fox_derivative,
    parse_word,
)
from holozeta.knot import Representation
from holozeta.laurent import LaurentPoly, PolyMatrix, rational_matmul

from helpers import apply_phi_by_products, assert_canonical, random_word, seeded_rng


NAMES = {0: "x", 1: "y", 2: "z"}
NMAP = {"x": 0, "y": 1, "z": 2}
# Phi with rho = 1 and alpha = 0 is the augmentation: every word goes to 1
AUGMENTATION = Representation(1, {i: (1,) for i in NAMES}, {i: 0 for i in NAMES})


def test_free_reduction():
    w = Word(((0, 1), (1, 1), (1, -1), (0, -1), (2, 1)))
    assert w == Word.gen(2)
    assert (w * w.inv()).is_identity()


def test_parse_display_roundtrip():
    rng = seeded_rng(10)
    for _ in range(100):
        w = random_word(rng, 3, 8)
        assert parse_word(w.display(NAMES), NMAP) == w
    assert parse_word("x y^-1 z^2", NMAP) == Word(((0, 1), (1, -1), (2, 1), (2, 1)))


def test_exponent_sum_and_occurrences():
    w = parse_word("x y x^-1 x^-1 z x", NMAP)
    assert sum(s for g, s in w.letters if g == 0) == 0
    assert sum(s for g, s in w.letters if g == 1) == 1
    assert len(w.occurrences(0)) == 4


def test_fox_derivative_base_cases():
    x, y = Word.gen(0), Word.gen(1)
    assert fox_derivative(x, 0) == GroupRingElt.one()
    assert fox_derivative(x, 1) == GroupRingElt()
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(x.inv(), 0) == GroupRingElt({x.inv(): -1})
    # d(xy)/dy = x
    assert fox_derivative(x * y, 1) == GroupRingElt.from_word(x)


def test_fox_product_rule():
    rng = seeded_rng(11)
    for _ in range(200):
        p = random_word(rng, 3, 6)
        q = random_word(rng, 3, 6)
        for j in range(3):
            lhs = fox_derivative(p * q, j)
            rhs = fox_derivative(p, j) + GroupRingElt.from_word(p) * fox_derivative(q, j)
            assert lhs == rhs


def test_fox_fundamental_identity():
    rng = seeded_rng(12)
    for _ in range(300):
        w = random_word(rng, 3, 12)
        total = GroupRingElt()
        for j in range(3):
            xj = GroupRingElt.from_word(Word.gen(j))
            total = total + fox_derivative(w, j) * (xj - GroupRingElt.one())
        assert total == GroupRingElt.from_word(w) - GroupRingElt.one()


def test_apply_phi_is_multiplicative_on_words():
    ident = (Fraction(1),)
    rep = Representation(1, {i: ident for i in range(3)}, {0: 1, 1: 2, 2: 0})
    rng = seeded_rng(13)
    for _ in range(50):
        a = random_word(rng, 3, 6)
        b = random_word(rng, 3, 6)
        pa = apply_phi(GroupRingElt.from_word(a), rep)
        pb = apply_phi(GroupRingElt.from_word(b), rep)
        pab = apply_phi(GroupRingElt.from_word(a * b), rep)
        assert pab == pa * pb


def test_apply_phi_is_linear():
    rep = Representation.trivial((0, 1, 2))
    rng = seeded_rng(14)
    for _ in range(50):
        a = GroupRingElt({random_word(rng, 3, 5): Fraction(2)})
        b = GroupRingElt({random_word(rng, 3, 5): Fraction(-1, 2)})
        assert apply_phi(a + b, rep) == apply_phi(a, rep) + apply_phi(b, rep)


_COEFFS = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
_WORDS = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=6).map(Word)


@st.composite
def _reps(draw):
    """A rep of x0, x1, x2 of dimension 1-3 whose rho are all the identity,
    permutations, unipotent, or invertible with `Fraction` entries (a unit
    lower triangular times an upper triangular with a nonzero diagonal);
    each alpha(x_i) is negative, zero or positive."""
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("identity", "permutation", "unipotent", "fraction")))
    cells = [(r, c) for r in range(k) for c in range(k)]
    mats = {}
    for g in range(3):
        if kind == "identity":
            m = [int(r == c) for r, c in cells]
        elif kind == "permutation":
            perm = draw(st.permutations(range(k)))
            m = [int(perm[r] == c) for r, c in cells]
        elif kind == "unipotent":
            m = [1 if r == c else draw(_COEFFS) if c > r else 0 for r, c in cells]
        else:
            lower = [1 if r == c else draw(_COEFFS) if c < r else 0 for r, c in cells]
            upper = [draw(_COEFFS.filter(bool)) if r == c else draw(_COEFFS) if c > r else 0
                     for r, c in cells]
            m = rational_matmul(lower, upper, k, k, k)
        mats[g] = m
    exps = {g: draw(st.integers(-3, 3)) for g in range(3)}
    return Representation(k, mats, exps)


@settings(max_examples=150, deadline=None)
@given(rep=_reps(), terms=st.dictionaries(_WORDS, _COEFFS, max_size=4))
def test_apply_phi_matches_the_product_route(rep, terms):
    k = rep.dim
    zero, empty = GroupRingElt(), GroupRingElt.one()
    assert apply_phi(zero, rep) == PolyMatrix.zeros(k, k) == apply_phi_by_products(zero, rep)
    assert apply_phi(empty, rep) == PolyMatrix.identity(k) == apply_phi_by_products(empty, rep)
    e = GroupRingElt(terms)
    got = apply_phi(e, rep)
    assert got == apply_phi_by_products(e, rep)
    assert_canonical([c for p in got.entries for c in p.terms.values()])


def test_apply_phi_names_a_missing_generator():
    rep = Representation.trivial((0, 1))
    with pytest.raises(KeyError, match="generator 2 not defined in representation"):
        apply_phi(GroupRingElt.from_word(Word.gen(2)), rep)


def test_augmentation():
    e = GroupRingElt({Word.gen(0): 2}) - GroupRingElt.one()
    assert apply_phi(e, AUGMENTATION).entries == (LaurentPoly.const(1),)


def test_group_ring_coefficients_have_one_canonical_form():
    x = Word.gen(0)
    two = GroupRingElt({x: Fraction(4, 2)})
    assert type(two.terms[x]) is int and two.terms[x] == 2
    same = GroupRingElt({x: 2})
    assert two == same and hash(two) == hash(same) and repr(two) == repr(same)
    rng = seeded_rng(15)
    for _ in range(40):
        a = GroupRingElt({random_word(rng, 3, 5): Fraction(rng.randint(-3, 3), rng.randint(1, 3))})
        a = a + GroupRingElt({random_word(rng, 3, 5): rng.randint(-2, 2)})
        b = GroupRingElt({random_word(rng, 3, 5): Fraction(rng.randint(1, 4), 2)})
        w = random_word(rng, 3, 8)
        for e in (a + b, a - b, a * b, -a, fox_derivative(w, rng.randrange(3))):
            augmentation = apply_phi(e, AUGMENTATION)[0, 0].coeff(0)
            assert_canonical(list(e.terms.values()) + [augmentation])
