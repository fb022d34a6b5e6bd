from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holozeta.freegroup import (
    GroupRingElt,
    Word,
    apply_phi,
    fox_derivative,
    parse_word,
    phi_fox_derivatives,
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
    assert fox_derivative(x, 0) == GroupRingElt({Word(): 1})
    assert fox_derivative(x, 1) == GroupRingElt()
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(x.inv(), 0) == GroupRingElt({x.inv(): -1})
    # d(xy)/dy = x
    assert fox_derivative(x * y, 1) == GroupRingElt({x: 1})


def test_fox_product_rule():
    rng = seeded_rng(11)
    for _ in range(200):
        p = random_word(rng, 3, 6)
        q = random_word(rng, 3, 6)
        for j in range(3):
            lhs = fox_derivative(p * q, j)
            rhs = fox_derivative(p, j) + GroupRingElt({p: 1}) * fox_derivative(q, j)
            assert lhs == rhs


def test_fox_fundamental_identity():
    rng = seeded_rng(12)
    for _ in range(300):
        w = random_word(rng, 3, 12)
        total = GroupRingElt()
        for j in range(3):
            xj = GroupRingElt({Word.gen(j): 1})
            total = total + fox_derivative(w, j) * (xj - GroupRingElt({Word(): 1}))
        assert total == GroupRingElt({w: 1}) - GroupRingElt({Word(): 1})


def test_apply_phi_is_multiplicative_on_words():
    ident = (Fraction(1),)
    rep = Representation(1, {i: ident for i in range(3)}, {0: 1, 1: 2, 2: 0})
    rng = seeded_rng(13)
    for _ in range(50):
        a = random_word(rng, 3, 6)
        b = random_word(rng, 3, 6)
        pa = apply_phi(GroupRingElt({a: 1}), rep)
        pb = apply_phi(GroupRingElt({b: 1}), rep)
        pab = apply_phi(GroupRingElt({a * b: 1}), rep)
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
    zero, empty = GroupRingElt(), GroupRingElt({Word(): 1})
    assert apply_phi(zero, rep) == PolyMatrix.zeros(k, k) == apply_phi_by_products(zero, rep)
    assert apply_phi(empty, rep) == PolyMatrix.identity(k) == apply_phi_by_products(empty, rep)
    e = GroupRingElt(terms)
    got = apply_phi(e, rep)
    assert got == apply_phi_by_products(e, rep)
    assert_canonical([c for p in got.entries for c in p.terms.values()])


_LETTERS = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))


@st.composite
def _fox_words(draw):
    """A word over x0, x1, x2, the empty one included: drawn letters with a
    block v v^-1 spliced in, so that a prefix of the letters cancels, and
    maybe conjugated by a generator, so that x and x^-1 both occur."""
    letters = draw(st.lists(_LETTERS, max_size=8))
    v = draw(st.lists(_LETTERS, max_size=3))
    at = draw(st.integers(0, len(letters)))
    letters = letters[:at] + v + [(g, -s) for g, s in reversed(v)] + letters[at:]
    if draw(st.booleans()):
        g = draw(st.integers(0, 2))
        letters = [(g, 1)] + letters + [(g, -1)]
    return Word(letters)


# the 2-dim S3 rep by the three reflections, and a unipotent 2-dim rep
_S3 = Representation(2, {0: (0, 1, 1, 0), 1: (-1, 0, -1, 1), 2: (1, -1, 0, -1)}, {0: 1, 1: 1, 2: 1})
_UNIPOTENT = Representation(2, {0: (1, 1, 0, 1), 1: (1, 0, 0, 1), 2: (1, -2, 0, 1)}, {0: 1, 1: -1, 2: 2})
_FOX_REPS = st.one_of(st.sampled_from((Representation.trivial((0, 1, 2)), _S3, _UNIPOTENT)), _reps())


@settings(max_examples=200, deadline=None)
@given(w=_fox_words(), rep=_FOX_REPS)
def test_the_prefix_pass_is_apply_phi_of_the_fox_derivatives(w, rep):
    """One prefix pass gives apply_phi(fox_derivative(w, i), rep) for every
    generator i of w, and nothing for the others; with a generator
    missing from the rep it raises the KeyError that apply_phi raises on
    some derivative, and only then."""
    k = rep.dim
    assert phi_fox_derivatives(Word(), rep) == {}
    got = phi_fox_derivatives(w, rep)
    assert set(got) == w.generators()
    for i in range(3):
        expect = apply_phi(fox_derivative(w, i), rep)
        assert PolyMatrix(k, k, got[i]) == expect if i in got else expect.is_zero()
    assert_canonical([c for cells in got.values() for p in cells for c in p.terms.values()])
    partial = Representation(k, {i: rep.rho[i][0] for i in (0, 1)}, {i: rep.exps[i] for i in (0, 1)})
    errors = set()
    for i in sorted(w.generators()):
        try:
            apply_phi(fox_derivative(w, i), partial)
        except KeyError as exc:
            errors.add(str(exc))
    if errors:
        with pytest.raises(KeyError) as info:
            phi_fox_derivatives(w, partial)
        assert {str(info.value)} == errors
    else:
        assert phi_fox_derivatives(w, partial) == {
            i: list(apply_phi(fox_derivative(w, i), partial).entries) for i in w.generators()}


def test_the_prefix_pass_reads_a_missing_generator_only_where_a_derivative_does():
    # x0 x2 ends with x2: its derivatives are 1 and x0, which never read
    # rho(x2); x2^-1 x0 has the derivative -x2^-1
    rep = Representation.trivial((0, 1))
    x0, x2 = Word.gen(0), Word.gen(2)
    assert phi_fox_derivatives(x0 * x2, rep) == {0: [LaurentPoly({0: 1})], 2: [LaurentPoly({1: 1})]}
    for w in (x2.inv() * x0, x2 * x0):
        with pytest.raises(KeyError, match="generator 2 not defined in representation"):
            phi_fox_derivatives(w, rep)


def test_apply_phi_names_a_missing_generator():
    rep = Representation.trivial((0, 1))
    with pytest.raises(KeyError, match="generator 2 not defined in representation"):
        apply_phi(GroupRingElt({Word.gen(2): 1}), rep)


def test_augmentation():
    e = GroupRingElt({Word.gen(0): 2}) - GroupRingElt({Word(): 1})
    assert apply_phi(e, AUGMENTATION).entries == (LaurentPoly({0: 1}),)


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
