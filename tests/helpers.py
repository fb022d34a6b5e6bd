"""Shared randomized generators, input builders and independent oracles for
the tests."""
import dataclasses
import itertools
import math
import os
import random
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import strategies as st

from holozeta import laurent
from holozeta.laurent import LaurentPoly, PolyMatrix, TruncatedSeries
from holozeta.freegroup import Word
from holozeta.knot import Representation
from holozeta.quandle import AlexanderPairTable, CrossingWeights, FiniteQuandle, alexander_pair_check
from holozeta.wgraph import Edge, WeightedDigraph, cycle_classes


def seeded_rng(salt: int = 0) -> random.Random:
    base = int(os.environ.get("HOLOZETA_SEED", "20240901"))
    return random.Random(base + salt)


def random_laurent(rng, max_deg: int = 1, min_exp: int = 0) -> LaurentPoly:
    terms = {}
    for e in range(min_exp, max_deg + 1):
        c = rng.randint(-2, 2)
        if c:
            terms[e] = Fraction(c)
    return LaurentPoly(terms)


def assert_canonical(coeffs):
    """Each coefficient is in its one stored form: an int, or a Fraction
    with a denominator above 1 (never a float)."""
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def random_unit(rng) -> LaurentPoly:
    q = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    return LaurentPoly({rng.randint(-2, 2): q})


def random_matrix(rng, r: int, c: int, max_deg: int = 1) -> PolyMatrix:
    return PolyMatrix.from_rows(
        [[random_laurent(rng, max_deg) for _ in range(c)] for _ in range(r)]
    )


def random_matrix_graph(rng, max_vertices: int = 5, max_dim: int = 2,
                        extra_edges: int = 2) -> WeightedDigraph:
    nv = rng.randint(1, max_vertices)
    vertices = tuple(("v%d" % i, rng.randint(1, max_dim)) for i in range(nv))
    dims = dict(vertices)
    edges = []
    n_edges = rng.randint(1, nv + extra_edges)
    for k in range(n_edges):
        a = rng.choice(vertices)[0]
        b = rng.choice(vertices)[0]
        edges.append(Edge("e%d" % k, a, b, random_matrix(rng, dims[a], dims[b])))
    return WeightedDigraph("matrix", vertices, tuple(edges))


def cycle_classes_by_walks(g, max_len: int) -> list:
    """Every cycle class up to max_len as (edge ids, prime), from all closed
    walks: each walk's least rotation in g.edges order and whether its
    primitive period is its length, in lexicographic order of edge
    positions.  An oracle independent of the library's necklace search."""
    edges = g.edges
    classes = {}
    walks = [(i,) for i in range(len(edges))] if max_len >= 1 else []
    while walks:
        w = walks.pop()
        n = len(w)
        if edges[w[-1]].tgt == edges[w[0]].src:
            period = next(d for d in range(1, n + 1) if w == w[d:] + w[:d])
            classes[min(w[k:] + w[:k] for k in range(n))] = period == n
        if n < max_len:
            walks.extend(w + (j,) for j, e in enumerate(edges) if e.src == edges[w[-1]].tgt)
    return [(tuple(edges[i].id for i in w), prime) for w, prime in sorted(classes.items())]


def prime_cycle_classes(g, max_len: int) -> list:
    """The prime classes of `cycle_classes`, the ones the Euler product runs over."""
    return [c for c in cycle_classes(g, max_len) if c.prime]


def random_word(rng, n_gens: int, max_len: int = 12) -> Word:
    letters = tuple(
        (rng.randrange(n_gens), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    )
    return Word(letters)


def apply_phi_by_products(e, rep) -> PolyMatrix:
    """Phi(e) as the sum over its terms (w, c) of c times the product of
    one Laurent matrix Phi(x_g)^+-1 = rho(x_g)^+-1 t^(+-alpha(x_g)) per
    letter of w: an oracle independent of the library's evaluation on
    constant matrices and exponent sums."""
    k = rep.dim

    def phi(g, s):
        m = rep.rho[g][0 if s == 1 else 1]
        return PolyMatrix(k, k, [LaurentPoly({s * rep.exps[g]: x}) for x in m])

    acc = PolyMatrix.zeros(k, k)
    for w, c in e.terms.items():
        term = PolyMatrix.identity(k)
        for g, s in w.letters:
            term = term * phi(g, s)
        acc = acc + PolyMatrix(k, k, [x.scale(c) for x in term.entries])
    return acc


def det_by_permutations(m: PolyMatrix) -> LaurentPoly:
    """Leibniz-formula determinant, an oracle independent of the library's
    Bareiss and cofactor routines."""
    n = m.rows
    total = LaurentPoly()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = LaurentPoly({0: sign})
        for i in range(n):
            term = term * m[i, perm[i]]
        total = total + term
    return total


def inverse_by_adjugate(m: PolyMatrix) -> PolyMatrix:
    """adj(m) / det(m), every cofactor the Leibniz determinant
    (`det_by_permutations`) of a minor: an oracle independent of the
    library's elimination, raising the `ValueError`s of
    `PolyMatrix.inverse_unit_det`."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    d = det_by_permutations(m)
    if not d.is_unit():
        raise ValueError("matrix not invertible over the Laurent ring")
    n, dinv = m.rows, d.unit_inverse()

    def cofactor(r, c):  # of entry (r, c), over det(m)
        minor = PolyMatrix(n - 1, n - 1, [
            m[i, j] for i in range(n) if i != r for j in range(n) if j != c])
        x = det_by_permutations(minor) * dinv
        return x if (r + c) % 2 == 0 else -x

    return PolyMatrix(n, n, [cofactor(j, i) for i in range(n) for j in range(n)])


def unimodular_matrix(rng, n: int, exps=(-1, 0, 1)) -> PolyMatrix:
    """A row-permuted L*U, L unit lower and U upper triangular with
    diagonal +-t^k, every other triangular entry sum c_e t^e over e in exps
    with c_e in -2..2: a dense n x n matrix with a unit determinant, and
    with integer entries when exps is (0,)."""
    def entry():
        return LaurentPoly({e: rng.randint(-2, 2) for e in exps})

    def diagonal():
        c = rng.choice((1, -1))
        return LaurentPoly({rng.choice(exps): c})

    zero = LaurentPoly()
    lower = PolyMatrix.from_rows([[LaurentPoly({0: 1}) if i == j else entry() if j < i else zero
                                   for j in range(n)] for i in range(n)])
    upper = PolyMatrix.from_rows([[diagonal() if i == j else entry() if j > i else zero
                                   for j in range(n)] for i in range(n)])
    product = lower * upper
    rows = [list(product.row(i)) for i in range(n)]
    rng.shuffle(rows)
    return PolyMatrix.from_rows(rows)


def series_one(order: int) -> TruncatedSeries:
    """The series 1, truncated at u^order."""
    return TruncatedSeries(order, [LaurentPoly({0: 1})] + [LaurentPoly()] * order)


def series_det_inverse_by_exp(m: PolyMatrix, order: int) -> TruncatedSeries:
    """det(I - u*M)^-1 truncated at u^order as exp(sum_k tr(M^k) u^k / k),
    from all `order` matrix powers: an oracle independent of the library's
    Newton identities on half-power traces."""
    log_coeffs = [LaurentPoly()]
    power = PolyMatrix.identity(m.rows)
    for k in range(1, order + 1):
        power = power * m
        trace = sum([power[i, i] for i in range(m.rows)], LaurentPoly())
        log_coeffs.append(trace.scale(Fraction(1, k)))
    return TruncatedSeries(order, log_coeffs).exp()


@contextmanager
def pack_width_limit(bits: int):
    """`laurent.PACK_WIDTH_BITS` set to `bits` within the block: 0 keeps every
    cell a `LaurentPoly`, 10**9 packs every cell of the tests (a hypothesis
    test cannot take pytest's function-scoped monkeypatch)."""
    saved, laurent.PACK_WIDTH_BITS = laurent.PACK_WIDTH_BITS, bits
    try:
        yield
    finally:
        laurent.PACK_WIDTH_BITS = saved


# coefficients with mixed denominators, and the 1-norms of extreme cells
_PACK_COEFFS = st.integers(-5, 5) | st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 7, 9]))
_PACK_NORMS = st.sampled_from([1, 3, 2 ** 16 - 1, 2 ** 16, 3 ** 20]) | st.integers(1, 10 ** 6)


@st.composite
def packing_cells(draw, count: int) -> list:
    """`count` Laurent cells for differentials of packed against Laurent
    arithmetic: zero cells, sparse cells with mixed denominators and
    exponents -40..90, or, in one draw of four, every cell -nu/den * t^k for
    one nu and den, so the values read back are at the packing bound and
    every packed digit borrows."""
    exps = st.integers(-40, 90)
    if draw(st.integers(0, 3)) == 0:
        c = Fraction(-draw(_PACK_NORMS), draw(st.sampled_from([1, 1, 2, 6])))
        return [LaurentPoly({draw(exps): c}) for _ in range(count)]
    return [LaurentPoly(draw(st.dictionaries(exps, _PACK_COEFFS, max_size=3)))
            for _ in range(count)]


@st.composite
def packing_graphs(draw) -> WeightedDigraph:
    """Matrix-weighted graphs of 1-3 vertices of dims 1-3 and up to 3 edges
    with `packing_cells` weights; one in three is acyclic (every edge goes to
    a later vertex)."""
    nv = draw(st.integers(1, 3))
    vertices = tuple([("v%d" % i, draw(st.integers(1, 3))) for i in range(nv)])
    acyclic = draw(st.integers(0, 2)) == 0
    edges = []
    for k in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, nv - 1))
        b = draw(st.integers(a + 1, nv)) if acyclic else draw(st.integers(0, nv - 1))
        if b == nv:
            continue
        r, c = vertices[a][1], vertices[b][1]
        edges.append(Edge("e%d" % k, vertices[a][0], vertices[b][0],
                          PolyMatrix(r, c, draw(packing_cells(r * c)))))
    return WeightedDigraph("matrix", vertices, tuple(edges))


def matmul_by_loops(a, b, r: int, k: int, c: int, zero) -> list:
    """The r x c product of the flat row-major r x k matrix a and k x c
    matrix b by a plain triple loop, each entry zero plus its k products in
    turn: an oracle for `laurent.rational_matmul` that shares none of its
    code."""
    out = []
    for i in range(r):
        for j in range(c):
            acc = zero
            for m in range(k):
                acc = acc + a[i * k + m] * b[m * c + j]
            out.append(acc)
    return out


def det_one_minus_x_by_laurent(m: PolyMatrix, top: int) -> list:
    """The coefficients c_0..c_top of det(I - x*M) by Newton's identities on
    the power traces tr(M^k), with every product a `LaurentPoly` one: an
    oracle independent of the library's packed cells."""
    n = m.rows
    zero = LaurentPoly()
    powers = [None, m]
    for _ in range(2, (top + 1) // 2 + 1):
        powers.append(powers[-1] * m)
    p = [None, sum([m[i, i] for i in range(n)], zero)]
    for k in range(2, top + 1):
        x, y = powers[(k + 1) // 2], powers[k // 2]
        acc = zero
        for i in range(n):
            for j in range(n):
                acc = acc + x[i, j] * y[j, i]
        p.append(acc)
    e = [LaurentPoly({0: 1})]
    for j in range(1, top + 1):
        acc = zero
        for i in range(1, j + 1):
            term = e[j - i] * p[i]
            acc = acc + term if i % 2 else acc - term
        e.append(acc.scale(Fraction(1, j)))
    return [-ej if j % 2 else ej for j, ej in enumerate(e)]


def euler_product_by_laurent(g, max_len: int) -> TruncatedSeries:
    """The product over the prime cycle classes C up to max_len of
    det(I - u^|C| w(C)), each w(C) a product of Laurent matrices and each
    factor from `det_one_minus_x_by_laurent`, truncated at u^max_len: 1/zeta
    by an oracle independent of the library's packed cells and trace sums."""
    weight = {e.id: e.weight for e in g.edges}
    series = series_one(max_len)
    for c in prime_cycle_classes(g, max_len):
        w = weight[c.edges[0]]
        for eid in c.edges[1:]:
            w = w * weight[eid]
        coeffs = [LaurentPoly()] * (max_len + 1)
        n = len(c.edges)
        for j, cj in enumerate(det_one_minus_x_by_laurent(w, min(w.rows, max_len // n))):
            coeffs[n * j] = cj
        series = series * TruncatedSeries(max_len, coeffs)
    return series


def torus_gauss(n: int, sign: str = "+") -> str:
    """T(2,n) as the closed 2-braid sigma_1^n; sign "-" gives its mirror."""
    return " ".join("%s%d%s" % ("OU"[k % 2], k % n + 1, sign) for k in range(2 * n))


def braid_gauss(word, strands: int = 3):
    """Signed Gauss code of the closure of a braid word, a list of (i, e)
    for sigma_i^e, or None when the closure is not a knot: a knot's strand
    runs through all `strands` positions before it closes.  sigma_i^e
    crosses the strands at positions i - 1 and i; the strand moving right
    passes over when e = 1."""
    toks, pos = [], 0
    for passes in range(1, strands + 1):
        for k, (i, e) in enumerate(word):
            if pos in (i - 1, i):
                right = pos == i - 1
                toks.append("%s%d%s" % ("O" if right == (e == 1) else "U", k + 1, "+" if e == 1 else "-"))
                pos = i if right else i - 1
        if pos == 0:
            break
    closed = pos == 0 and passes == strands
    return " ".join(toks) if word and closed and len(toks) == 2 * len(word) else None


def colorings_by_sweep(q, d) -> list:
    """Every quandle coloring of d as ((arc, color), ...) tuples, by trying
    all q.n ** len(d.arcs) assignments in lexicographic order: an oracle
    independent of the library's compiled search."""
    index = {a: k for k, a in enumerate(d.arcs)}
    rules = [(index[c.under_in], index[c.over], index[c.under_out],
              q.table if c.sign == 1 else q.inv_table) for c in d.crossings]
    found = []
    for colors in itertools.product(range(q.n), repeat=len(d.arcs)):
        for i, v, o, t in rules:
            if t[colors[i]][colors[v]] != colors[o]:
                break
        else:
            found.append(tuple(zip(d.arcs, colors)))
    return found


def abelianization(p) -> Representation:
    """The trivial rep on the generators of the presentation p: rho = 1 and
    alpha(x_i) = 1 for each x_i."""
    return Representation.trivial([g.index for g in p.generators])


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
    pm = PolyMatrix.from_rows([[LaurentPoly({0: x}) for x in row] for row in p])
    pinv = pm.inverse_unit_det()
    mats = {}
    for i, (m, _) in r.rho.items():
        rho = PolyMatrix(k, k, [LaurentPoly({0: x}) for x in m])
        mats[i] = [c.coeff(0) for c in (pm * rho * pinv).entries]
    return Representation(k, mats, r.exps)


def constant_pair(q: FiniteQuandle, p1: LaurentPoly, p2: LaurentPoly) -> AlexanderPairTable:
    n = q.n
    return alexander_pair_check(
        q, [[p1] * n for _ in range(n)], [[p2] * n for _ in range(n)]
    )


def perturbed(g: CrossingWeights, which: str, a: int, b: int,
              delta: LaurentPoly) -> CrossingWeights:
    """The weights g with delta added to cell (a, b) of the table `which`."""
    t = [list(row) for row in getattr(g, which)]
    t[a][b] = t[a][b] + delta
    return dataclasses.replace(g, **{which: tuple([tuple(row) for row in t])})


def random_alexander_pair(q: FiniteQuandle, rng) -> AlexanderPairTable:
    """A random valid pair with unit f1 entries: pick a unit u and a
    unit-valued twist c on Q, then f1(a,b) = u c(a*b) c(a)^-1 and
    f2(a,b) = (1-u) c(a*b) c(b)^-1."""

    def unit():
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 2])
        return LaurentPoly({rng.randint(-2, 2): Fraction(num, den)})

    u = unit()
    tw = [unit() for _ in range(q.n)]
    one = LaurentPoly({0: 1})
    f1 = [
        [u * tw[q.star(a, b)] * tw[a].unit_inverse() for b in range(q.n)]
        for a in range(q.n)
    ]
    f2 = [
        [(one - u) * tw[q.star(a, b)] * tw[b].unit_inverse() for b in range(q.n)]
        for a in range(q.n)
    ]
    return alexander_pair_check(q, f1, f2)


def coprime_denominators(count: int, bits: int) -> list:
    """`count` pairwise coprime integers of `bits` bits each, so that their lcm
    is their product, as for distinct primes: 1 + c*M for consecutive c and
    M = lcm(1..count).  A prime dividing two of them divides the difference
    of their c, which is below count, so it divides M; yet each is 1 mod M."""
    m = math.lcm(*range(1, count + 1))
    c = (1 << (bits - 1)) // m + 1
    out = [1 + (c + i) * m for i in range(count)]
    if any(d.bit_length() != bits for d in out):
        raise ValueError("%d bits cannot hold %d such integers" % (bits, count))
    return out


def fraction_weights_text(q: FiniteQuandle, denominators) -> str:
    """A weights file over q whose 4 n^2 cells are the monomials c/d * t^e,
    one d from `denominators` per cell in order (cycling), c and e fixed by
    the cell's place."""
    n = q.n
    dens = itertools.cycle(denominators)
    rows = [", ".join("%d/%d*t^%d" % ((k + b) % 5 - 2 or 1, next(dens), (k * b) % 5 - 2)
                      for b in range(n)) for k in range(4 * n)]
    return "%d\n%s\n" % (n, "\n".join(rows))


WIDE_GRAPHS = {
    # name -> (graph text, zeta reciprocal): a 5-cycle of t-edges plus a
    # t^100000 loop, and 2 x 2 weights with a t^100000 cell; too wide to pack,
    # so the Euler check keeps Laurent cells
    "cycle": ("".join("vertex v%d dim=1\n" % i for i in range(5))
              + "".join("edge e%d v%d -> v%d weight=[[t]]\n" % (i, i, (i + 1) % 5)
                        for i in range(5))
              + "edge loop v0 -> v0 weight=[[t^100000]]\n", "1 - t^5 - t^100000"),
    "blocks": ("vertex u dim=2\nvertex v dim=2\n"
               "edge a u -> v weight=[[1 - t^5, t],[0, -t^100000]]\n"
               "edge b v -> u weight=[[t, 1],[2, t^3]]\n"
               "edge c u -> u weight=[[t^-7, 0],[1, t]]\n",
               "-t^-7 + t^-6 - 4*t + 3*t^2 - t^4 + t^5 + t^6 - t^7 - t^99996 + 2*t^100000"
               " + t^100003 - t^100004 - 2*t^100005 + t^100009"),
}
