"""Seeded input generators for the holozeta benchmark.

Everything here is plain data: Gauss codes, representation files, graph
files with their weights kept as {exponent: Fraction} dicts for the
benchmark's own checks, transform scripts and Reidemeister move lists.
The same seed always gives the same inputs.
"""
from __future__ import annotations

import random
from fractions import Fraction

# -- knots ----------------------------------------------------------------

S3_REFLECTIONS = ("[[0,1],[1,0]]", "[[-1,0],[-1,1]]", "[[1,-1],[0,-1]]")
UNIPOTENT = "[[1,1],[0,1]]"


def torus_gauss(n: int) -> str:
    """Signed Gauss code of the closed 2-braid sigma_1^n, i.e. T(2,n):
    pass k is over/under by parity and meets crossing k mod n + 1."""
    return " ".join(
        "%s%d+" % ("O" if k % 2 == 0 else "U", k % n + 1) for k in range(2 * n)
    )


def s3_rep(n: int) -> str:
    """The 2-dim dihedral S3 rep of T(2,n), 3 | n, from the Fox
    3-coloring: arc i goes to reflection i mod 3."""
    return "".join(
        "x%d: %s exp=1\n" % (i + 1, S3_REFLECTIONS[i % 3]) for i in range(n)
    )


def unipotent_rep() -> str:
    return "all: %s exp=1\n" % UNIPOTENT


def braid_gauss(word):
    """Signed Gauss code of the closure of a 3-strand braid word, a list
    of (i, e) for sigma_i^e, or None when the closure is not a knot.

    sigma_i^{+1} carries the strand moving right over the strand moving
    left and is a positive crossing, the convention of torus_gauss."""
    toks = []
    pos = 0
    for rounds in range(1, 4):
        for k, (i, e) in enumerate(word):
            if pos == i - 1:
                over, pos = e == 1, i
            elif pos == i:
                over, pos = e == -1, i - 1
            else:
                continue
            toks.append("%s%d%s" % ("O" if over else "U", k + 1, "+" if e == 1 else "-"))
        if pos == 0:
            break
    # one component: the strand passes all three positions before closing
    return " ".join(toks) if pos == 0 and rounds == 3 else None


def random_knotted_braid(rng: random.Random, length: int) -> str:
    """The Gauss code of a freely reduced 3-braid word whose closure has
    one component; words that close to a link are redrawn.  A 3-cycle is
    an even permutation, so length must be even."""
    if length % 2:
        raise ValueError("a 3-braid closing to a knot has even length")
    while True:
        word = []
        while len(word) < length:
            letter = (rng.randint(1, 2), rng.choice((1, -1)))
            if word and word[-1] == (letter[0], -letter[1]):
                continue
            word.append(letter)
        if word[0] == (word[-1][0], -word[-1][1]):
            continue
        code = braid_gauss(word)
        if code is not None:
            return code


# -- matrix-weighted graphs ---------------------------------------------


def poly_text(p: dict) -> str:
    """{exponent: coefficient} in the library's input syntax, without
    spaces so that it also fits in a whitespace-split script line."""
    return "".join(
        "%s%s*t^%d" % ("-" if c < 0 else "+" if k else "", abs(c), e)
        for k, (e, c) in enumerate(sorted(p.items()))
    ) or "0"


def matrix_text(m) -> str:
    return "[%s]" % ",".join("[%s]" % ",".join(poly_text(p) for p in row) for row in m)


class Graph:
    """A matrix-weighted digraph as the benchmark's checks see it."""

    def __init__(self, dims, edges):
        self.dims = dims  # list of vertex dims, vertex i is "v<i>"
        self.edges = edges  # list of (src, tgt, matrix of {exp: Fraction})

    def text(self) -> str:
        lines = ["vertex v%d dim=%d" % (i, d) for i, d in enumerate(self.dims)]
        lines += [
            "edge e%d v%d -> v%d weight=%s" % (k, a, b, matrix_text(m))
            for k, (a, b, m) in enumerate(self.edges)
        ]
        return "\n".join(lines) + "\n"

    def cycle_classes(self, max_len: int = 8):
        """Rotation classes of closed edge walks up to max_len, as edge
        index tuples."""
        out = {}
        for k, (a, b, _) in enumerate(self.edges):
            out.setdefault(a, []).append((k, b))
        found = set()

        def walk(first, here, start, path):
            if here == start:
                found.add(min(tuple(path[i:] + path[:i]) for i in range(len(path))))
            if len(path) == max_len:
                return
            for k, b in out.get(here, ()):
                if k >= first:
                    path.append(k)
                    walk(first, b, start, path)
                    path.pop()

        for k, (a, b, _) in enumerate(self.edges):
            walk(k, b, a, [k])
        return found

    def euler_weight(self) -> int:
        """Sum over cycle classes of dim^2 of the class weight matrix: a
        stand-in for the Euler oracle's work on this graph."""
        return sum(self.dims[self.edges[c[0]][0]] ** 2 for c in self.cycle_classes())


def random_poly(rng: random.Random) -> dict:
    """Degree <= 1, coefficients in [-2, 2]."""
    p = {}
    for e in (0, 1):
        c = rng.randint(-2, 2)
        if c:
            p[e] = Fraction(c)
    return p


def random_matrix(rng, rows: int, cols: int):
    return [[random_poly(rng) for _ in range(cols)] for _ in range(rows)]


def criterion1_graph(rng: random.Random) -> Graph:
    """1-5 vertices of dim 1-2, out-degree <= 2, random targets."""
    nv = rng.randint(1, 5)
    dims = [rng.randint(1, 2) for _ in range(nv)]
    edges = []
    for a in range(nv):
        for _ in range(rng.randint(0, 2)):
            b = rng.randrange(nv)
            edges.append((a, b, random_matrix(rng, dims[a], dims[b])))
    return Graph(dims, edges)


# Strata of criterion-1 graphs by euler_weight, and how many graphs of
# each a deck holds.  Every deck has this mix, so its cost does not hinge
# on how many heavy graphs a seed happens to draw.  A job's time varies
# by about 40% (quartiles over median) among graphs of one stratum, so
# the median job and the tail job are each set amid a stratum of many
# graphs: the median (ranks 70-71) about 30 graphs into the 21-40 one,
# the tail percentile (11th from the top) amid the 20 graphs of 361-400
# (a 2-vertex graph with 93 cycle classes), whose times vary by 20%.
# The light strata are acyclic (0) or hold one or two short cycles
# (6-20); graphs between the strata are drawn and passed over.
GRAPH_STRATA = ((0, 0, 30), (6, 20, 10), (21, 40, 80), (361, 400, 20))


def stratified_graphs(rng: random.Random):
    """Criterion-1 graphs in the GRAPH_STRATA mix, in the order drawn."""
    need = [count for _, _, count in GRAPH_STRATA]
    out = []
    while any(need):
        g = criterion1_graph(rng)
        w = g.euler_weight()
        s = next((k for k, (lo, hi, _) in enumerate(GRAPH_STRATA) if lo <= w <= hi), None)
        if s is not None and need[s]:
            need[s] -= 1
            out.append(g)
    return out


# -- round-trip graph scripts -------------------------------------------


def unimodular(rng: random.Random, d: int):
    """(P, P^-1) over the Laurent ring: a unit for d = 1, an elementary
    shear for d = 2."""
    if d == 1:
        c = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2)))
        e = rng.randint(-2, 2)
        return [[{e: c}]], [[{-e: 1 / c}]]
    a = random_poly(rng) or {1: Fraction(1)}
    neg = {e: -c for e, c in a.items()}
    one = {0: Fraction(1)}
    if rng.random() < 0.5:
        return [[one, a], [{}, one]], [[one, neg], [{}, one]]
    return [[one, {}], [a, one]], [[one, {}], [neg, one]]


ROUND_TRIPS = ("split_merge", "insert_eliminate", "null_pair", "change_basis", "reverse_twice")


def round_trip_script(rng: random.Random, g: Graph, kind: str) -> str:
    """A transform script that carries g back to itself."""
    if kind == "split_merge":
        pairs = [(a, b) for a, b, _ in g.edges]
        k = next(k for k, (a, b, _) in enumerate(g.edges) if pairs.count((a, b)) == 1)
        a, b, m = g.edges[k]
        part = random_matrix(rng, len(m), len(m[0]))
        rest = [
            [{e: c for e in set(x) | set(y) if (c := x.get(e, 0) - y.get(e, 0))} for x, y in zip(mr, pr)]
            for mr, pr in zip(m, part)
        ]
        return "split e%d s1=%s s2=%s\nmerge v%d v%d e%d\n" % (
            k, matrix_text(part), matrix_text(rest), a, b, k)
    if kind == "insert_eliminate":
        d = rng.randint(1, 2)
        edges = []
        for j in sorted(rng.sample(range(len(g.dims)), min(2, len(g.dims)))):
            edges.append("z%d z v%d %s" % (j, j, matrix_text(random_matrix(rng, d, g.dims[j]))))
        return "insert z %d %s\neliminate z\n" % (d, " ".join(edges))
    if kind == "null_pair":
        a, b = rng.randrange(len(g.dims)), rng.randrange(len(g.dims))
        return "null_add n0 v%d v%d\nnull_remove n0\n" % (a, b)
    if kind == "change_basis":
        v = rng.randrange(len(g.dims))
        p, pinv = unimodular(rng, g.dims[v])
        return "change_basis v%d %s\nchange_basis v%d %s\n" % (v, matrix_text(p), v, matrix_text(pinv))
    return "reverse_all\nreverse_all\n"


def graph_with_lone_edge(rng: random.Random, size: int) -> Graph:
    """A criterion-1 graph with total dimension and edge count both
    `size`, at least one cycle, and one edge that has no parallel twin,
    so every round trip applies to it."""
    while True:
        g = criterion1_graph(rng)
        pairs = [(a, b) for a, b, _ in g.edges]
        if (sum(g.dims) == len(pairs) == size and g.cycle_classes()
                and any(pairs.count(p) == 1 for p in pairs)):
            return g


# -- Reidemeister move sequences ------------------------------------------


def move_sequence(rng: random.Random, n: int, arcs_after: int):
    """Forward R1/R2 moves on T(2,n), each sometimes undone at once, that
    end with exactly arcs_after arcs.  A move is a dict of ReidemeisterMove
    fields; the arcs a1..an of T(2,n) survive every forward move."""
    arcs = n
    moves = []
    while arcs < arcs_after:
        kind = rng.choice(("R1_1", "R1_2", "R2") if arcs + 2 <= arcs_after else ("R1_1", "R1_2"))
        sign = rng.choice((1, -1))
        a = rng.randint(1, n)
        if kind == "R2":
            c = rng.choice([k for k in range(1, n + 1) if k != a])
            moves.append(dict(kind="R2", arc="a%d" % a, over_arc="a%d" % c, sign=sign))
        else:
            moves.append(dict(kind=kind, arc="a%d" % a, sign=sign))
        arcs += 2 if kind == "R2" else 1
        if rng.random() < 0.25:
            # undo it again: its crossings were appended last
            if kind == "R2":
                moves.append(dict(kind="R2", forward=False, crossings=(arcs - 2, arcs - 1)))
                arcs -= 2
            else:
                moves.append(dict(kind=kind, forward=False, crossing=arcs - 1))
                arcs -= 1
    return moves
