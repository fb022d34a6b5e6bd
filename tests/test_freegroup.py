from fractions import Fraction

from holozeta.freegroup import (
    GroupRingElt,
    Word,
    apply_phi,
    fox_derivative,
    parse_word,
)
from holozeta.knot import Representation

from helpers import assert_canonical, random_word, seeded_rng


NAMES = {0: "x", 1: "y", 2: "z"}
NMAP = {"x": 0, "y": 1, "z": 2}


def test_free_reduction():
    w = Word(((0, 1), (1, 1), (1, -1), (0, -1), (2, 1)))
    assert w == Word.gen(2)
    assert (w * w.inv()).is_identity()
    assert Word.gen(0) ** 3 == Word(((0, 1),) * 3)
    assert Word.gen(0) ** -2 == Word(((0, -1), (0, -1)))


def test_parse_display_roundtrip():
    rng = seeded_rng(10)
    for _ in range(100):
        w = random_word(rng, 3, 8)
        assert parse_word(w.display(NAMES), NMAP) == w
    assert parse_word("x y^-1 z^2", NMAP) == Word(((0, 1), (1, -1), (2, 1), (2, 1)))


def test_exponent_sum_and_occurrences():
    w = parse_word("x y x^-1 x^-1 z x", NMAP)
    assert w.exponent_sum(0) == 0
    assert w.exponent_sum(1) == 1
    assert len(w.occurrences(0)) == 4


def test_fox_derivative_base_cases():
    x, y = Word.gen(0), Word.gen(1)
    assert fox_derivative(x, 0) == GroupRingElt.one()
    assert fox_derivative(x, 1) == GroupRingElt.zero()
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(x.inv(), 0) == GroupRingElt.from_word(x.inv(), -1)
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
        total = GroupRingElt.zero()
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
        a = GroupRingElt.from_word(random_word(rng, 3, 5), Fraction(2))
        b = GroupRingElt.from_word(random_word(rng, 3, 5), Fraction(-1, 2))
        assert apply_phi(a + b, rep) == apply_phi(a, rep) + apply_phi(b, rep)


def test_augmentation():
    e = GroupRingElt.from_word(Word.gen(0), 2) - GroupRingElt.one()
    assert e.augmentation() == Fraction(1)


def test_group_ring_coefficients_have_one_canonical_form():
    x = Word.gen(0)
    two = GroupRingElt({x: Fraction(4, 2)})
    assert type(two.terms[x]) is int and two.terms[x] == 2
    same = GroupRingElt({x: 2})
    assert two == same and hash(two) == hash(same) and repr(two) == repr(same)
    rng = seeded_rng(15)
    for _ in range(40):
        a = GroupRingElt.from_word(random_word(rng, 3, 5), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        a = a + GroupRingElt.from_word(random_word(rng, 3, 5), rng.randint(-2, 2))
        b = GroupRingElt.from_word(random_word(rng, 3, 5), Fraction(rng.randint(1, 4), 2))
        w = random_word(rng, 3, 8)
        for e in (a + b, a - b, a * b, -a, fox_derivative(w, rng.randrange(3))):
            assert_canonical(list(e.terms.values()) + [e.augmentation()])
