import pytest

from holozeta.freegroup import Generator, Word, parse_word
from holozeta.knot import Representation
from holozeta.presentation import (
    BasedPresentation,
    InvalidMove,
    TietzeMove,
    build_group_weighted_graph,
    check_assumption,
    format_presentation,
    inverse_move,
    parse_presentation,
    presentations_equal,
    rebase,
    solve_for_base,
    tietze_apply,
)
from holozeta import fixtures

from helpers import abelianization, seeded_rng


X, Y, Z = 0, 1, 2
GENS = (Generator(X, "x"), Generator(Y, "y"), Generator(Z, "z"))
NMAP = {"x": X, "y": Y, "z": Z}


def _pres(rel_texts, base):
    rels = tuple(parse_word(t, NMAP) for t in rel_texts)
    return BasedPresentation(GENS, rels, base)


def test_solve_for_base_positive_occurrence():
    # x y x^-1 z = 1 solved at the leading x gives x = z^-1 x y^-1... wait:
    # rotate to x * (y x^-1 z), so f = (y x^-1 z)^-1 = z^-1 x y^-1
    r = parse_word("x y x^-1 z", NMAP)
    f = solve_for_base(r, (X, 0))
    assert f == parse_word("z^-1 x y^-1", NMAP)
    # the solved form satisfies r = x f^-1 up to rotation: check x = f
    # is equivalent by substituting back
    x_f = (Word.gen(X) * f.inv()).letters
    assert sum(s for g, s in x_f if g == X) == sum(s for g, s in r.letters if g == X)


def test_solve_for_base_negative_occurrence():
    r = parse_word("y x^-1 z", NMAP)
    f = solve_for_base(r, (X, 0))
    # invert to z^-1 x y^-1, rotate at x: x * (y^-1 z^-1), f = z y
    assert f == parse_word("z y", NMAP)


def test_invert_tracks_base():
    p = _pres(["x y x^-1 y^-1"], {0: (X, 1)})
    q = tietze_apply(p, TietzeMove("invert", i=0))
    assert q.relations[0] == parse_word("y x y^-1 x^-1", NMAP)
    g, occ = q.base[0]
    assert g == X
    # the marked occurrence was the x^-1; after inversion it is the x at
    # ordinal 0
    assert occ == 0


def test_conjugate_and_inverse_roundtrip():
    p = _pres(["x y x^-1 y^-1"], {0: (X, 0)})
    m = TietzeMove("conjugate", i=0, w=parse_word("z y", NMAP))
    q = tietze_apply(p, m)
    r = tietze_apply(q, inverse_move(p, m))
    assert presentations_equal(p, r)
    assert r.base == p.base


def test_conjugate_transfers_base_to_mirror():
    # conjugating by x^-1 cancels the leading based x; the base point
    # transfers to the x in the right-hand conjugator copy
    p = _pres(["x y x^-1 y^-1"], {0: (X, 0)})
    m = TietzeMove("conjugate", i=0, w=parse_word("x^-1", NMAP))
    q = tietze_apply(p, m)
    assert q.relations[0] == parse_word("y x^-1 y^-1 x", NMAP)
    assert q.base[0] == (X, 1)
    back = tietze_apply(q, inverse_move(p, m))
    assert presentations_equal(p, back)


def test_multiply_rejects_cancelling_base():
    p = _pres(["x y", "y^-1 x^-1"], {0: (X, 0)})
    with pytest.raises(InvalidMove):
        tietze_apply(p, TietzeMove("multiply", i=0, k=1))


def test_multiply_roundtrip():
    p = _pres(["x y x^-1 y^-1", "z y z^-1 y^-1"], {0: (X, 0), 1: (Z, 0)})
    m = TietzeMove("multiply", i=0, k=1)
    q = tietze_apply(p, m)
    r = tietze_apply(q, inverse_move(q, m))
    assert presentations_equal(p, r)


def test_add_remove_generator_roundtrip():
    p = _pres(["x y x^-1 y^-1"], {0: (X, 0)})
    m = TietzeMove("add_generator", name="w", w=parse_word("y x y^-1", NMAP))
    q = tietze_apply(p, m)
    assert len(q.generators) == 4
    assert q.relations[1].letters[0][1] == 1
    r = tietze_apply(q, TietzeMove("remove_generator", name="w"))
    assert presentations_equal(p, r)


def test_remove_generator_requires_sole_use():
    p = _pres(["x y x^-1 y^-1"], {0: (X, 0)})
    q = tietze_apply(p, TietzeMove("add_generator", name="w", w=Word.gen(Y)))
    with pytest.raises(InvalidMove, match=r"relation is not of the form x \* w\^-1"):
        tietze_apply(q, TietzeMove("remove_generator", name="x"))
    # another relation mentions w, so w cannot go
    wi = q.name_to_index()["w"]
    uses_w = parse_word("w z w^-1 z^-1", dict(NMAP, w=wi))
    r = BasedPresentation(q.generators, q.relations[:1] + (uses_w,) + q.relations[1:],
                          {0: (X, 0), 2: (wi, 0)})
    with pytest.raises(InvalidMove, match="generator 'w' still used by relation 1"):
        tietze_apply(r, TietzeMove("remove_generator", name="w"))


def test_generator_moves_invert_each_other():
    p = _pres(["x y x^-1 y^-1"], {0: (X, 0)})
    add = TietzeMove("add_generator", name="w", w=parse_word("y x y^-1", NMAP))
    q = tietze_apply(p, add)
    back = tietze_apply(q, inverse_move(p, add))
    assert presentations_equal(p, back) and back.base == p.base
    remove = TietzeMove("remove_generator", name="w")
    assert inverse_move(q, remove) == add
    again = tietze_apply(tietze_apply(q, remove), inverse_move(q, remove))
    assert presentations_equal(q, again) and again.base == q.base


def test_invalid_generator_and_product_moves():
    p = _pres(["x y", "y^-1 x^-1"], {0: (X, 0)})
    unbased = _pres(["x y", "y^-1 x^-1"], {})
    cases = (
        (p, TietzeMove("add_generator", name="x", w=Word.gen(Y)), "generator 'x' already exists"),
        (p, TietzeMove("add_generator", name="w", w=Word.gen(7)),
         "defining word uses unknown generator 7"),
        (p, TietzeMove("remove_generator", name="nope"), "no generator named 'nope'"),
        (p, TietzeMove("remove_generator", name="y"), "generator 'y' is not a base point"),
        (unbased, TietzeMove("multiply", i=0, k=1), "product relation is empty"),
    )
    for pres, move, message in cases:
        with pytest.raises(InvalidMove, match="^%s$" % message):
            tietze_apply(pres, move)


def test_tietze_move_requires_its_fields():
    full = dict(i=0, k=1, w=Word.gen(Y), name="w")
    required = {"invert": ("i",), "conjugate": ("i", "w"), "multiply": ("i", "k"),
                "multiply_inv": ("i", "k"), "add_generator": ("name", "w"),
                "remove_generator": ("name",)}
    for kind, fields in required.items():
        TietzeMove(kind, **full)
        for field in fields:
            with pytest.raises(ValueError, match="^Tietze move %s needs field '%s'$" % (kind, field)):
                TietzeMove(kind, **{**full, field: None})


def test_inverse_of_remove_generator_checks_the_name():
    p = _pres(["x y x^-1 y^-1"], {0: (X, 0)})
    with pytest.raises(InvalidMove, match="no generator named 'nope'"):
        inverse_move(p, TietzeMove("remove_generator", name="nope"))
    with pytest.raises(InvalidMove, match="generator 'y' is not a base point"):
        inverse_move(p, TietzeMove("remove_generator", name="y"))


def test_rebase_validation():
    p = _pres(["x y x^-1 y^-1"], {0: (X, 0)})
    q = rebase(p, 0, (X, 1))
    assert q.base[0] == (X, 1)
    with pytest.raises(ValueError):
        rebase(p, 0, (Y, 0))
    with pytest.raises(ValueError):
        rebase(p, 0, (X, 2))


def test_a_relation_letter_must_be_a_generator():
    # z is index 2, and only x and y are generators
    rel = parse_word("z x z^-1 y^-1", NMAP)
    with pytest.raises(ValueError, match="^relation 0 uses generator index 2, which is not a generator$"):
        BasedPresentation(GENS[:2], (rel,), {0: (Y, 0)})
    assert BasedPresentation(GENS, (rel,), {0: (Y, 0)}).relations == (rel,)


def test_presentations_equal_ignores_indexing_and_order():
    p = _pres(["x y x^-1 y^-1", "z y z^-1 y^-1"], {0: (X, 0), 1: (Z, 0)})
    gens2 = (Generator(5, "z"), Generator(7, "x"), Generator(9, "y"))
    nmap2 = {"z": 5, "x": 7, "y": 9}
    rels2 = (parse_word("z y z^-1 y^-1", nmap2), parse_word("x y x^-1 y^-1", nmap2))
    q = BasedPresentation(gens2, rels2, {0: (5, 0), 1: (7, 0)})
    assert presentations_equal(p, q)
    r = _pres(["x y x^-1 y^-1", "z y z^-1 y^-1"], {0: (X, 0), 1: (Z, 1)})
    assert not presentations_equal(p, r)


def test_check_assumption_conjugation_relations():
    p = fixtures.slide_presentation_before()
    rep = abelianization(p)
    entries = check_assumption(p, rep)
    assert entries and all(ok for _, ok, _ in entries)


def test_check_assumption_flags_missing_base():
    p = _pres(["x y x^-1 y^-1"], {})
    rep = Representation.trivial((X, Y, Z))
    assert check_assumption(p, rep) == [(0, False, "no base point")]


def test_group_weighted_graph_shape():
    p = fixtures.slide_presentation_before()
    g = build_group_weighted_graph(p)
    assert g.kind == "group"
    assert len(g.vertices) == 6
    # relation x_i = x_j x_i1 x_j^-1 contributes edges toward x_j and x_i1
    srcs = {(e.src, e.tgt) for e in g.edges}
    assert ("xi", "xj") in srcs and ("xi", "xi1") in srcs


def test_parse_format_roundtrip():
    p = _pres(["x y x^-1 y^-1", "z y z^-1 y^-1"], {0: (X, 0), 1: (Z, 0)})
    q = parse_presentation(format_presentation(p))
    assert presentations_equal(p, q)
    assert q.base == p.base


def test_random_move_inverse_roundtrips():
    rng = seeded_rng(20)
    p = _pres(
        ["x y x^-1 y^-1", "z x z^-1 x^-1", "y z y^-1 z^-1"],
        {0: (X, 0), 1: (Z, 0), 2: (Y, 0)},
    )
    words = ["x", "y^-1 z", "z x y", "y"]
    for _ in range(100):
        kind = rng.choice(("invert", "conjugate", "multiply", "multiply_inv"))
        i = rng.randrange(3)
        k = rng.choice([j for j in range(3) if j != i])
        w = parse_word(rng.choice(words), NMAP)
        m = TietzeMove(kind, i=i, k=k, w=w)
        try:
            q = tietze_apply(p, m)
        except InvalidMove:
            continue
        r = tietze_apply(q, inverse_move(q, m))
        assert presentations_equal(p, r), m
