import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from holozeta import laurent
from holozeta.laurent import (
    LaurentCells,
    LaurentPoly,
    PackedCells,
    PolyMatrix,
    TruncatedSeries,
    cell_ring,
    cell_rows,
    det_one_minus_x_cells,
    parse_laurent,
    series_det,
    series_det_inverse,
)

from helpers import (
    assert_canonical,
    det_by_permutations,
    det_one_minus_x_by_laurent,
    inverse_by_adjugate,
    pack_width_limit,
    packing_cells,
    random_laurent,
    random_matrix,
    seeded_rng,
    series_det_inverse_by_exp,
    series_one,
    unimodular_matrix,
)


def test_basic_arithmetic():
    t = LaurentPoly({1: 1})
    one = LaurentPoly({0: 1})
    p = one - t
    q = one + t
    assert p * q == one - t * t
    assert p + q == LaurentPoly({0: 2})
    assert (p - p).is_zero()
    assert (-p) + p == LaurentPoly()


def test_ring_identities_random():
    rng = seeded_rng(1)
    for _ in range(200):
        a = random_laurent(rng, 3, -2)
        b = random_laurent(rng, 3, -2)
        c = random_laurent(rng, 3, -2)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_parse_str_roundtrip():
    rng = seeded_rng(2)
    for _ in range(100):
        p = random_laurent(rng, 3, -3)
        assert parse_laurent(str(p)) == p
    assert parse_laurent("1 - t + t^2") == LaurentPoly(
        {0: Fraction(1), 1: Fraction(-1), 2: Fraction(1)}
    )
    assert parse_laurent("-t^-1 + 2") == LaurentPoly(
        {-1: Fraction(-1), 0: Fraction(2)}
    )


def test_units_and_normalization():
    u = LaurentPoly({5: Fraction(-3, 2)})
    assert u.is_unit()
    assert u * u.unit_inverse() == LaurentPoly({0: 1})
    p = parse_laurent("2*t^3 - 2*t^4")
    n = p.unit_normalize()
    assert n == parse_laurent("1 - t")
    assert p.unit_normalize() == n.unit_normalize()
    assert p.unit_normalize() != parse_laurent("1 + t").unit_normalize()
    assert p.divexact(n).is_unit()
    # a lowest coefficient of 1 or -1 shifts (and negates) the terms; the
    # result is the one dividing through gives, in canonical form
    for text in ("-t^-2 + 1/2 + 3*t", "t^-2 + 1/2 - 3*t", "-t^4", "1 - 2/3*t^5"):
        q = parse_laurent(text)
        k = q.min_exp()
        n = q.unit_normalize()
        assert n == LaurentPoly({e - k: Fraction(c) / q.terms[k] for e, c in q.terms.items()})
        assert n.terms[0] == 1
        assert_canonical(n.terms.values())


def test_divexact():
    a = parse_laurent("1 - t^2")
    b = parse_laurent("1 - t")
    assert a.divexact(b) == parse_laurent("1 + t")
    with pytest.raises(ValueError):
        parse_laurent("1 + t^2").divexact(b)


def _literal(text):
    return PolyMatrix.from_rows([[parse_laurent(x) for x in row.split(",")] for row in text.split(";")])


def test_determinants_agree_with_permutation_expansion():
    rng = seeded_rng(3)
    small = []
    for _ in range(40):
        n = rng.randint(1, 4)
        small.append(random_matrix(rng, n, n, 2))
    small.append(PolyMatrix(0, 0, ()))
    rng_small = seeded_rng(4)  # its own stream: rng's larger matrices below do not depend on it
    for n in (2, 3, 4):
        for k in range(n):  # a zero row k, then a zero column k
            m = random_matrix(rng_small, n, n, 2)
            rows = [list(m.row(i)) for i in range(n)]
            rows[k] = [LaurentPoly()] * n
            small.append(PolyMatrix.from_rows(rows))
            small.append(PolyMatrix.from_rows(
                [[LaurentPoly() if j == k else m[i, j] for j in range(n)] for i in range(n)]))
        # one object in several cells, left as it was
        shared = random_laurent(rng_small, 2, -1)
        shared_terms = dict(shared.terms)
        small.append(PolyMatrix.from_rows(
            [[shared if (i + j) % 2 else random_laurent(rng_small, 1) for j in range(n)] for i in range(n)]))
        # coefficients in thirds and halves whose products are whole
        small.append(PolyMatrix.from_rows(
            [[parse_laurent(rng_small.choice(("2/3", "3/2", "-3/2*t", "4/3*t^-1 + 1/2", "0")))
              for _ in range(n)] for _ in range(n)]))
    for n in (3, 4):  # the last row is t times the first plus (1 - t) times the second
        m = random_matrix(rng_small, n, n, 2)
        rows = [list(m.row(i)) for i in range(n)]
        rows[-1] = [parse_laurent("t") * a + parse_laurent("1 - t") * b for a, b in zip(rows[0], rows[1])]
        small.append(PolyMatrix.from_rows(rows))
    for m in small:
        expect = det_by_permutations(m)
        got = m.det_cofactor()
        assert_canonical(got.terms.values())
        assert got == expect
        assert m.det_bareiss() == expect
        assert m.det() == expect
    assert [m.det().is_zero() for m in small[-2:]] == [True, True]
    assert shared.terms == shared_terms
    # above 4 x 4, det() eliminates on unit pivots first
    for n in (5, 5, 5, 6):
        m = PolyMatrix.from_rows([
            [random_laurent(rng, 2, -2).scale(Fraction(1, rng.randint(1, 6)))
             for _ in range(n)] for _ in range(n)
        ])
        expect = det_by_permutations(m)
        assert m.det() == expect
        assert m.det_bareiss() == expect
    zero_row = PolyMatrix.from_rows(
        [[random_laurent(rng, 2, -2) for _ in range(5)] for _ in range(4)]
        + [[LaurentPoly()] * 5]
    )
    assert zero_row.det().is_zero()
    assert zero_row.det_bareiss().is_zero()
    # rows 0 and 1 agree at t = 0 and t = 1 and their first entries vanish
    # there, as does row 2's once shifted by t, so the matrix is singular
    # at both points
    singular_at_0_and_1 = PolyMatrix.from_rows([
        [parse_laurent(x) for x in row] for row in (
            ("t^2 - t", "1", "t^2", "2", "0"),
            ("2*t^2 - 2*t", "1", "t", "2", "0"),
            ("1", "t", "0", "-1", "t^-1"),
            ("1/2", "0", "t", "1", "1"),
            ("3", "t", "1", "0", "1/3*t"),
        )
    ])
    d = singular_at_0_and_1.det()
    assert d == det_by_permutations(singular_at_0_and_1)
    assert d == singular_at_0_and_1.det_bareiss()
    assert not d.is_zero()
    assert sum(d.terms.values()) == 0  # vanishes at t = 1
    # 11 stored terms against a degree bound of 66, and units that the
    # first phase of det() eliminates down to a single row
    sparse = PolyMatrix.from_rows([
        [parse_laurent(x) for x in row] for row in (
            ("1 - 1/2*t^60", "-t", "0", "0", "0"),
            ("0", "1", "-t", "0", "0"),
            ("0", "0", "1", "-t", "0"),
            ("0", "0", "0", "1", "-t"),
            ("-t^-3", "0", "0", "0", "1"),
        )
    ])
    assert sparse.det() == det_by_permutations(sparse)
    # the oracle's own branches: a zero (0,0) entry makes det_bareiss swap
    # rows, and a zero first column ends it at once
    rows = [[random_laurent(rng, 2, -2) for _ in range(5)] for _ in range(5)]
    rows[0][0] = LaurentPoly()
    zero_corner = PolyMatrix.from_rows(rows)
    zero_column = PolyMatrix.from_rows(
        [[LaurentPoly()] + [random_laurent(rng, 2, -2) for _ in range(2)] for _ in range(3)]
    )
    # the pivot is the entry of fewest terms, here the unit in row 2, not
    # the first nonzero entry of the column
    fewest = _literal("1 + t + t^2,t,2;1 - t,1,t^-1;-t,3,1 + t")
    rows = [list(fewest.row(i)) for i in range(3)]
    assert laurent._fraction_free(rows, False) == (-1, -fewest.det_bareiss())
    assert rows[0] == list(fewest.row(2))
    # column 2 is t * column 0 + (1 - t) * column 1: the pivots run out at step 2
    rows = [[random_laurent(rng, 1, -1) for _ in range(2)] for _ in range(4)]
    dependent = PolyMatrix.from_rows([
        [a, b, parse_laurent("t") * a + parse_laurent("1 - t") * b, random_laurent(rng, 1, -1)]
        for a, b in rows])
    # after step 0 the pivot of step 1 equals it, t, and row 3, zero in
    # column 1, is left as it is
    same_pivot = _literal("t,1 + t,2,1;0,1,t^-1 + 1,t;1,0,1 - t,2;0,0,1 + t,t^2 - 1")
    for m in (zero_corner, zero_column, fewest, dependent, same_pivot, PolyMatrix(0, 0, ())):
        expect = det_by_permutations(m)
        assert m.det_bareiss() == expect
        assert m.det() == expect
    assert not zero_corner.det().is_zero()
    assert dependent.det_bareiss().is_zero() and not same_pivot.det_bareiss().is_zero()
    assert PolyMatrix(0, 0, ()).det_bareiss() == LaurentPoly({0: 1})


def _sparse_entry(rng, unit_share):
    """Zero, a unit q*t^k (some q with a denominator), or a polynomial of
    two or three terms, which is never a unit."""
    if rng.random() < unit_share:
        q = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)))
        return LaurentPoly({rng.randint(-2, 2): q})
    lo = rng.randint(-1, 1)
    return LaurentPoly({lo + k: rng.choice((1, -1, 2, Fraction(1, 3))) for k in range(rng.randint(2, 3))})


@st.composite
def _sparse_unit_matrices(draw):
    """A 5..7-row matrix that stores a `density` share of its entries,
    a `unit_share` of them units; up to two rows store no unit, and
    optionally one row is a unit times another plus a unit times a third,
    which makes the matrix singular."""
    n = draw(st.integers(5, 7))
    density = draw(st.sampled_from((0.4, 0.6, 0.8)))
    unit_share = draw(st.sampled_from((0.3, 0.6, 0.9)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = [[_sparse_entry(rng, unit_share) if rng.random() < density else LaurentPoly()
             for _ in range(n)] for _ in range(n)]
    for i in rng.sample(range(n), draw(st.integers(0, 2))):
        rows[i] = [_sparse_entry(rng, 0) if p.is_unit() else p for p in rows[i]]
    if draw(st.booleans()):
        i, j, k = rng.sample(range(n), 3)
        u, v = _sparse_entry(rng, 1), _sparse_entry(rng, 1)
        rows[k] = [u * a + v * b for a, b in zip(rows[i], rows[j])]
    return PolyMatrix.from_rows(rows)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_sparse_unit_matrices())
def test_det_equals_bareiss_and_leibniz_exactly(m):
    d = m.det()
    assert d == m.det_bareiss()
    if m.rows <= 6:
        assert d == det_by_permutations(m)


def _rows(*rows):
    return PolyMatrix.from_rows([[parse_laurent(x) for x in row] for row in rows])


def test_det_unit_phase_remainders(monkeypatch):
    """The unit-pivot phase of det() leaves remainders of 0, 1 and above 4
    rows, keeps the permutation sign, and ends at once on a singular
    matrix; each case matches the Leibniz expansion exactly."""
    remainders, bareiss = [], []
    eliminate, det_bareiss = PolyMatrix._eliminate_units, PolyMatrix.det_bareiss

    def spy(m):
        d, rest = eliminate(m)
        remainders.append(None if rest is None else rest.rows)
        return d, rest

    def counted(m):
        bareiss.append(m.rows)
        return det_bareiss(m)

    monkeypatch.setattr(PolyMatrix, "_eliminate_units", spy)
    monkeypatch.setattr(PolyMatrix, "det_bareiss", counted)
    # a 6-cycle of units, some with denominators: every pivot is the only
    # entry of its row, the permutation is odd, and nothing is left
    six_cycle = _rows(
        ("0", "t", "0", "0", "0", "0"), ("0", "0", "-1", "0", "0", "0"),
        ("0", "0", "0", "1/2*t^-1", "0", "0"), ("0", "0", "0", "0", "3", "0"),
        ("0", "0", "0", "0", "0", "-t^2"), ("2*t", "0", "0", "0", "0", "0"),
    )
    # 1 - t on the diagonal and units t round a 5-cycle: the units reduce
    # it to one row
    cycle = _rows(
        ("1 - t", "t", "0", "0", "0"), ("0", "1 - t", "t", "0", "0"),
        ("0", "0", "1 - t", "t", "0"), ("0", "0", "0", "1 - t", "t"),
        ("t", "0", "0", "0", "1 - t"),
    )
    # no unit anywhere: all six rows go to Laurent Bareiss
    no_unit = _rows(
        ("1 + t", "2 - t", "0", "1 - t^2", "t + t^2", "3 + t"),
        ("t - t^3", "1 + t", "1 - t", "0", "2 + t", "0"),
        ("0", "1 + t^-1", "1 + 2*t", "t - 1", "0", "1 - 2*t"),
        ("2 + t", "0", "1 + t", "1 - t", "t + 1", "0"),
        ("1 - t", "t - t^2", "0", "1 + t", "2 + 3*t", "1 + t"),
        ("1 + t^2", "0", "1 - t", "0", "1 + t", "2 + t"),
    )
    # sparse, of high degree and with no unit: also Laurent Bareiss
    high_degree = _rows(*(
        ["0"] * i + ["1 - t^20"] + ["0"] * (5 - i) for i in range(6)
    ))
    # row 4 is -t/2 times row 0: eliminating the units empties a row
    singular = _rows(
        ("1", "t", "0", "2 - t", "0"), ("0", "1 + t", "-t", "0", "1"),
        ("t", "0", "1", "0", "1/2"), ("0", "1", "t - 1", "t", "0"),
        ("-1/2*t", "-1/2*t^2", "0", "-t + 1/2*t^2", "0"),
    )
    expected = [(six_cycle, [0], parse_laurent("-3*t^3")),
                (cycle, [1], parse_laurent("1 - 5*t + 10*t^2 - 10*t^3 + 5*t^4")),
                (no_unit, [6], None),
                (high_degree, [6], parse_laurent("1 - 6*t^20 + 15*t^40 - 20*t^60"
                                                 " + 15*t^80 - 6*t^100 + t^120")),
                (singular, [None], LaurentPoly())]
    for m, rests, value in expected:
        remainders.clear()
        bareiss.clear()
        d = m.det()
        assert remainders == rests
        assert bareiss == [r for r in rests if r and r > 4]
        if value is not None:
            assert d == value
        assert d == det_by_permutations(m)


def _eliminates_on_owned_terms(m):
    """`_eliminate_units` on m leaves every entry's terms as they were,
    stores d and the cells of rest canonically, and d * det(rest) is the
    Leibniz expansion of det(m) (Bareiss above 6 rows)."""
    before = [dict(p.terms) for p in m.entries]
    d, rest = m._eliminate_units()
    assert [p.terms for p in m.entries] == before
    full = det_by_permutations if m.rows <= 6 else PolyMatrix.det_bareiss
    if rest is None:
        assert full(m).is_zero()
        return
    assert_canonical(list(d.terms.values()) + [c for p in rest.entries for c in p.terms.values()])
    assert d.is_unit()
    assert d * det_by_permutations(rest) == full(m)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_sparse_unit_matrices())
def test_the_unit_phase_leaves_its_input_alone(m):
    # equal entries become one shared object, as the zero and constant
    # cells of a Fox matrix are
    shared = {}
    _eliminates_on_owned_terms(PolyMatrix(m.rows, m.cols, [shared.setdefault(p, p) for p in m.entries]))


def test_the_unit_phase_stores_whole_fractions_as_int():
    # the units 2 and 1/2*t invert to 1/2 and 2*t^-1, so the multipliers
    # -a/u of entries 2 and 1/2*t are whole Fractions; the constants are
    # shared between cells
    two, half_t, one = LaurentPoly({0: 2}), LaurentPoly({1: Fraction(1, 2)}), LaurentPoly({0: 1})
    zero, a, b = LaurentPoly(), parse_laurent("1 + 1/2*t"), parse_laurent("1/3 - t")
    m = PolyMatrix.from_rows([
        [two, a, zero, b, two],
        [half_t, two, b, zero, a],
        [two, zero, half_t, a, zero],
        [zero, b, two, half_t, one],
        [a, zero, zero, two, half_t],
    ])
    _eliminates_on_owned_terms(m)
    # the phase reaches rest with units left in it, none of them stored as Fraction(n, 1)
    d, rest = m._eliminate_units()
    assert rest is not None and rest.rows < m.rows
    assert m.det() == det_by_permutations(m)


def _elementary_product(rng, n):
    """A product of four elementary matrices: a unit determinant."""
    m = PolyMatrix.identity(n)
    for _ in range(4):
        e = [[LaurentPoly({0: 1}) if i == j else LaurentPoly()
              for j in range(n)] for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            c = Fraction(rng.choice([1, -1, 2]))
            e[i][i] = LaurentPoly({rng.randint(-1, 1): c})
        else:
            e[i][j] = random_laurent(rng, 1)
        m = m * PolyMatrix.from_rows(e)
    return m


@st.composite
def _inversion_inputs(draw):
    """An n x n matrix, n in 1..6: a product of elementary matrices, a
    row-permuted L*U, either with one column scaled by a non-unit, with
    one row the sum of two others, or with a zero (0, 0) entry; or random
    entries, some of them zero."""
    n = draw(st.sampled_from(range(1, 7)))
    kind = draw(st.sampled_from(("elementary", "lu", "scaled", "singular", "zero corner", "random")))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "random":
        return PolyMatrix.from_rows([[random_laurent(rng, 1, -1) if rng.random() < 0.7 else LaurentPoly()
                                      for _ in range(n)] for _ in range(n)])
    m = _elementary_product(rng, n) if kind == "elementary" else unimodular_matrix(rng, n)
    rows = [list(m.row(i)) for i in range(n)]
    if kind == "scaled":
        c = rng.randrange(n)
        for row in rows:
            row[c] = row[c] * parse_laurent("1 + t")
    elif n > 2 and kind == "singular":
        rows[0] = [a + b for a, b in zip(rows[1], rows[2])]
    elif kind == "zero corner":
        rows[0][0] = LaurentPoly()
    return PolyMatrix.from_rows(rows)


def _inverse_or_error(inverse, m):
    try:
        return inverse(m)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_inversion_inputs())
@example(_literal("1,1;t,t"))  # singular
@example(_literal("1 + t,0;0,1"))  # a determinant that is not a unit
@example(_literal("0,1;1,t"))  # a zero (0, 0) entry: the elimination swaps rows
@example(_literal("0,1,0;1,t,0;t,0,1"))
@example(PolyMatrix(0, 0, ()))
@example(PolyMatrix(2, 3, [LaurentPoly({0: 1})] * 6))
def test_matrix_inverse_unit_det(m):
    got = _inverse_or_error(PolyMatrix.inverse_unit_det, m)
    assert got == _inverse_or_error(inverse_by_adjugate, m)
    if m.rows != m.cols:
        assert got == "determinant of non-square matrix"
    elif isinstance(got, PolyMatrix):
        one = PolyMatrix.identity(m.rows)
        assert m * got == one and got * m == one
        assert_canonical([c for x in got.entries for c in x.terms.values()])
    else:
        assert got == "matrix not invertible over the Laurent ring"
        assert not det_by_permutations(m).is_unit()


def test_inverse_of_a_16_x_16_unimodular_matrix():
    p = unimodular_matrix(seeded_rng(32), 16)
    assert p * p.inverse_unit_det() == PolyMatrix.identity(16)


def test_series_exp_additivity():
    rng = seeded_rng(5)
    order = 8
    for _ in range(20):
        a = TruncatedSeries(order, [LaurentPoly()]
                            + [random_laurent(rng, 1) for _ in range(order)])
        b = TruncatedSeries(order, [LaurentPoly()]
                            + [random_laurent(rng, 1) for _ in range(order)])
        assert a.exp() * b.exp() == (a + b).exp()


def test_series_inverse():
    rng = seeded_rng(6)
    order = 8
    for _ in range(20):
        coeffs = [LaurentPoly({0: 1})] + [random_laurent(rng, 1) for _ in range(order)]
        s = TruncatedSeries(order, coeffs)
        assert s * s.inverse() == series_one(order)


def test_series_det_inverse_single_entry():
    # det(I - [ct])^-1 = 1/(1 - ct) = sum (ct)^k
    c = parse_laurent("2*t")
    m = PolyMatrix.from_rows([[c]])
    for order in (6, 2000):
        s = series_det_inverse(m, order)
        expect = TruncatedSeries(order, [LaurentPoly({k: 2 ** k}) for k in range(order + 1)])
        assert s == expect
    # N^2 = 0 with tr N = 0 but sum_ij N_ij^2 != 0, so det(I - uN) = 1
    # only if the half-power traces pair (N^a)_ij with (N^b)_ji
    n = PolyMatrix.from_rows([[parse_laurent(x) for x in row] for row in
                              (("t", "t^2"), ("-1", "-t"))])
    assert (n * n).is_zero()
    assert series_det_inverse(n, 2000) == series_one(2000)


def _sparse_high_degree(rng):
    if rng.randrange(3):
        return LaurentPoly()
    c = rng.choice([1, -1, 2, Fraction(1, 3)])
    return LaurentPoly({rng.randint(-40, 90): c})


def test_series_det_inverse_matches_the_exp_route():
    # dims 0..7 against orders 0..8, so the polynomial det(I - uM) is cut
    # short (n > order) as well as padded with zeros (n < order)
    rng = seeded_rng(10)
    for n in range(8):
        for order in (0, 1, 2, 5, 8):
            fractional = PolyMatrix.from_rows([
                [random_laurent(rng, 1, -1).scale(Fraction(rng.randint(1, 3), rng.randint(1, 4)))
                 for _ in range(n)] for _ in range(n)])
            sparse = PolyMatrix.from_rows([[_sparse_high_degree(rng) for _ in range(n)]
                                           for _ in range(n)])
            for m in (random_matrix(rng, n, n), fractional, sparse):
                s = series_det_inverse(m, order)
                assert s == series_det_inverse_by_exp(m, order)
                for c in s.coeffs:
                    assert_canonical(c.terms.values())
            nilpotent = PolyMatrix.from_rows([
                [random_laurent(rng, 2, -1) if j > i else LaurentPoly() for j in range(n)]
                for i in range(n)])
            assert series_det_inverse(nilpotent, order) == series_one(order)
            assert series_det_inverse_by_exp(nilpotent, order) == series_one(order)


@st.composite
def _packing_matrices(draw):
    n = draw(st.integers(1, 3))
    return PolyMatrix(n, n, draw(packing_cells(n * n)))


@settings(max_examples=300, deadline=None)
@given(m=_packing_matrices(), extra=st.integers(-1, 1))
def test_det_one_minus_x_matches_the_laurent_route(m, extra):
    top = max(m.rows + extra, 0)
    expect = det_one_minus_x_by_laurent(m, top)
    # packed cells, then the same loop on LaurentPoly cells
    for limit, kind in ((10 ** 9, PackedCells), (0, LaurentCells)):
        with pack_width_limit(limit):
            assert isinstance(cell_ring(m.entries, min(m.rows, top), (1,), m.rows), kind)
            coeffs = series_det(m, top).coeffs
        assert list(coeffs) == expect
        for c in coeffs:
            assert_canonical(c.terms.values())


def test_det_one_minus_x_on_sparse_row_maps():
    # n = 0, an all-zero matrix, and one with an empty row and an empty
    # column: only stored cells are kept and multiplied
    assert cell_rows([], 0) == []
    assert det_one_minus_x_cells([], 0, LaurentCells()) == [LaurentPoly({0: 1})]
    assert series_det(PolyMatrix(0, 0, []), 3) == series_one(3)
    zero = PolyMatrix.zeros(3, 3)
    assert cell_rows(list(zero.entries), 3) == [{}, {}, {}]
    assert series_det(zero, 5) == series_one(5)
    rng = seeded_rng(40)
    for _ in range(20):
        cells = [LaurentPoly() if i == 1 or j == 2 else random_laurent(rng, 2, -1)
                 for i in range(4) for j in range(4)]
        m = PolyMatrix(4, 4, cells)
        assert [sorted(row) for row in cell_rows(cells, 4)][1] == []
        for top in range(6):
            low = min(top, 4)
            expect = det_one_minus_x_by_laurent(m, low) + [LaurentPoly()] * (top - low)
            for limit in (10 ** 9, 0):
                with pack_width_limit(limit):
                    assert list(series_det(m, top).coeffs) == expect


def test_det_one_minus_x_works_over_stored_cells_only(monkeypatch):
    # an n-cycle of [[t]] cells stores one cell per row, so M^2..M^4 take n
    # products each and the traces of M^2..M^8 none (a dense M^(a-1) M takes
    # n^2 per power)
    n = 200
    t = LaurentPoly({1: 1})
    m = [{(i + 1) % n: t} for i in range(n)]
    calls = [0]

    def counted(a, b, mul=LaurentPoly.__mul__):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    coeffs = det_one_minus_x_cells(m, 8, LaurentCells())
    assert coeffs == [LaurentPoly({0: 1})] + [LaurentPoly()] * 8
    assert calls[0] <= 20 * n


def test_packed_cells_read_back_what_they_pack():
    rng = seeded_rng(11)
    for _ in range(200):
        cells = [LaurentPoly({rng.randint(-40, 90): Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                             rng.choice([1, 2, 3, 7]))
                              for _ in range(rng.randint(0, 4))}) for _ in range(4)]
        with pack_width_limit(10 ** 9):
            ring = cell_ring(cells, 1, (1,), 1)
        assert isinstance(ring, PackedCells)
        for p in cells:
            assert ring.unpack(ring.pack(p), 1) == p
    # a value with negative digits, each borrowing from the one above it
    ring = cell_ring([LaurentPoly({3: -5})], 1, (1,), 1)
    assert ring.bits == 5  # bitlen(1) + bitlen(5) + 1
    x = ring.pack(LaurentPoly({3: -5, 4: -5, 5: 5}))
    assert ring.unpack(x, 1) == LaurentPoly({3: -5, 4: -5, 5: 5})


def test_unpack_reads_every_balanced_digit_up_to_the_width_limit():
    # values of 1, 2, 9 and 64 base-2^bits digits and as many as fit
    # PACK_WIDTH_BITS, at den 1 and lo 0 and at den 6 and lo -3, each digit
    # anywhere in [-2^(bits-1), 2^(bits-1)) with both ends of it drawn, and
    # the top digit at either end or +-1, so the value has either sign:
    # unpack reads the polynomial whose digits the value holds
    rng = seeded_rng(12)
    for bits in (2, 3, 17, 64):
        half = 1 << (bits - 1)
        for den, lo in ((1, 0), (6, -3)):
            ring = PackedCells(den, lo, bits)
            assert ring.unpack(0, 1) == LaurentPoly()
            for digits in sorted({1, 2, 9, 64, laurent.PACK_WIDTH_BITS // bits}):
                for power in (1, 2):
                    for top in (1, half - 1, -1, -half):
                        coeffs = [rng.choice([-half, half - 1, rng.randrange(-half, half)])
                                  for _ in range(digits - 1)] + [top]
                        x = sum([c << bits * k for k, c in enumerate(coeffs)])
                        p = ring.unpack(x, power)
                        assert p == LaurentPoly({k + lo * power: Fraction(c, den ** power)
                                                 for k, c in enumerate(coeffs)})
                        assert_canonical(p.terms.values())


def test_cell_ring_packs_up_to_the_width_limit():
    # span 10, length 8 and bits = bitlen(1) + 8 bitlen(2) + 1 = 18: 81 * 18 bits
    cells = [LaurentPoly({0: 1, 10: 1})]
    with pack_width_limit(81 * 18):
        assert isinstance(cell_ring(cells, 8, (1,), 1), PackedCells)
    with pack_width_limit(81 * 18 - 1):
        assert isinstance(cell_ring(cells, 8, (1,), 1), LaurentCells)
    # a 3000-bit den scales these cells back to 1 + t^10: nu and bits stay
    wide_den = [LaurentPoly({0: Fraction(1, 2 ** 3000), 10: Fraction(1, 2 ** 3000)})]
    with pack_width_limit(81 * 18):
        ring = cell_ring(wide_den, 8, (1,), 1)
    assert isinstance(ring, PackedCells) and (ring.den, ring.bits) == (2 ** 3000, 18)


BIG = 3 ** 40 + 1  # above 2**53: a float quotient of it is off in the low bits


def _big_laurent(rng, lo, hi):
    return LaurentPoly({e: rng.choice([BIG, -BIG, BIG + 2, 3, -1]) for e in range(lo, hi + 1)})


def test_coefficient_division_above_2_53_is_exact():
    rng = seeded_rng(7)
    p = LaurentPoly({2: BIG, 3: 1, 5: 7 * BIG + 2})
    assert p.unit_normalize().terms == {0: 1, 1: Fraction(1, BIG), 3: Fraction(7 * BIG + 2, BIG)}
    q = parse_laurent("3 + t - 5*t^2")
    for u in (LaurentPoly({4: BIG}), LaurentPoly({-3: Fraction(BIG, 7)})):
        assert (u * q).divexact(q) == u
        assert q.divexact(u * q) == u.unit_inverse()
    f = LaurentPoly({0: BIG, 1: -3, 2: 1})
    g = LaurentPoly({-1: 5, 0: BIG + 2, 3: -BIG})
    for a, b in ((f, g), (f.scale(Fraction(1, 3)), g), (_big_laurent(rng, -1, 2), _big_laurent(rng, 0, 3))):
        assert (a * b).divexact(a) == b
        assert (a * b).divexact(b) == a
    # det() expands up to 4 x 4 and eliminates on unit pivots above that
    for n in (4, 5, 6):
        rows = [[_big_laurent(rng, 0, 1) for _ in range(n)] for _ in range(n)]
        rows[0][0] = rows[0][0].scale(Fraction(1, BIG))  # an entry with a denominator
        m = PolyMatrix.from_rows(rows)
        expect = det_by_permutations(m)
        assert m.det() == expect
        assert m.det_bareiss() == expect
    s = TruncatedSeries(6, [LaurentPoly({0: BIG})] + [_big_laurent(rng, -1, 1) for _ in range(6)])
    assert s * s.inverse() == series_one(6)
    assert s.inverse() * s == series_one(6)


def test_coefficients_have_one_canonical_form():
    two = LaurentPoly({0: Fraction(4, 2)})
    assert type(two.terms[0]) is int and two.terms[0] == 2
    a = LaurentPoly({-1: 3, 0: -1, 2: Fraction(1, 2)})
    b = LaurentPoly({-1: Fraction(6, 2), 0: Fraction(-1), 2: Fraction(1, 2)})
    assert a == b and hash(a) == hash(b) and str(a) == str(b)
    rng = seeded_rng(8)
    for _ in range(25):
        x = random_laurent(rng, 3, -2).scale(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
        y = random_laurent(rng, 3, -2)
        out = [x + y, x - y, x * y, x.scale(Fraction(2, rng.randint(1, 4))), y.scale(3)]
        if y:
            out += [(x * y).divexact(y), y.unit_normalize()]
        for n in (3, 5):
            m = PolyMatrix.from_rows([
                [random_laurent(rng, 2, -1).scale(Fraction(1, rng.randint(1, 3))) for _ in range(n)]
                for _ in range(n)
            ])
            out += [m.det(), m.det_bareiss()]
        s = TruncatedSeries(6, [LaurentPoly()] + [
            random_laurent(rng, 1).scale(Fraction(rng.randint(1, 3), rng.randint(1, 3)))
            for _ in range(6)
        ])
        out += s.exp().coeffs
        for p in out:
            assert_canonical(p.terms.values())


def test_ring_results_store_no_zero_and_whole_coefficients_as_int():
    half_t = LaurentPoly({1: Fraction(1, 2)})
    whole = half_t + half_t
    assert whole.terms == {1: 1} and type(whole.terms[1]) is int
    third = LaurentPoly({0: Fraction(1, 3), 2: 5})
    cases = [
        whole,
        half_t - LaurentPoly({1: Fraction(-1, 2)}),
        half_t - half_t,
        half_t + (-half_t),
        third.scale(3),
        third.scale(0),
        third * LaurentPoly({0: 3, 1: Fraction(3, 2)}),
        -third,
    ]
    rng = seeded_rng(9)
    for _ in range(30):
        x = random_laurent(rng, 2, -2).scale(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
        y = LaurentPoly({e: rng.choice([1, -2, Fraction(1, 2), Fraction(-3, 2)])
                         for e in range(rng.randint(-1, 0), 2)})
        cases += [x + y, x - y, y + y, y - y, -x, x * y, x * x,
                  x.scale(Fraction(rng.randint(1, 4), rng.randint(1, 4))), y.scale(2)]
    for p in cases:
        assert all(p.terms.values()), p.terms
        assert_canonical(p.terms.values())
        q = LaurentPoly(dict(p.terms))
        assert p == q and hash(p) == hash(q)
