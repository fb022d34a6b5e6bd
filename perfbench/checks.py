"""Answer checks owned by the benchmark.

Each check takes what the program printed (or returned) and returns None
when the answer is right, or a one-line reason when it is wrong.  None of
them calls into holozeta: polynomials are {exponent: Fraction} dicts read
with the parser below, and determinants are plain Fraction elimination.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

_TERM = re.compile(r"^(?P<c>\d+(?:/\d+)?)?\*?(?P<t>t(?:\^(?P<e>-?\d+))?)?$")


def parse_poly(text: str) -> dict:
    """Read the program's printed Laurent polynomial, e.g. `1 - 3/2*t^-1`."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        m = _TERM.match(term)
        if not term or not m:
            raise ValueError("bad term %r in %r" % (term, text))
        c = Fraction(m.group("c")) if m.group("c") else Fraction(1)
        e = (int(m.group("e")) if m.group("e") else 1) if m.group("t") else 0
        if e in out or c == 0:
            raise ValueError("non-canonical polynomial %r" % text)
        out[e] = sign * c
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def normalize(p: dict) -> dict:
    """The associate with lowest exponent 0 and lowest coefficient 1."""
    if not p:
        return {}
    k = min(p)
    return {e - k: c / p[k] for e, c in p.items()}


def evaluate(p: dict, t: int) -> Fraction:
    return sum((c * Fraction(t) ** e for e, c in p.items()), Fraction(0))


def det(m) -> Fraction:
    """Determinant of a square list-of-lists of Fractions by elimination."""
    m = [list(row) for row in m]
    n = len(m)
    d = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        d *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return d


def torus_delta(n: int) -> dict:
    """Alexander polynomial of T(2,n): sum_{k<n} (-t)^k."""
    return {k: Fraction((-1) ** k) for k in range(n)}


def rep_denominator(mat) -> dict:
    """det(I - t*rho(x1)) for a 2x2 rational rho(x1) and exp(x1) = 1."""
    (a, b), (c, d) = mat
    p = {0: Fraction(1), 1: -(a + d), 2: a * d - b * c}
    return {e: v for e, v in p.items() if v}


# -- checks -----------------------------------------------------------------


def report(stdout: str) -> dict:
    """The `key: value` lines of a report (later keys win)."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith("{"):
            out[key] = value
    return out


def expect_lines(code: int, stdout: str, want: dict):
    if code != 0:
        return "exit code %d" % code
    rep = report(stdout)
    for key, value in want.items():
        if rep.get(key) != value:
            return "%s: %r, expected %r" % (key, rep.get(key), value)
    return None


def check_alexander(code: int, stdout: str, numerator=None, denominator=None, knot=False):
    """Route agreement plus, where given, the expected numerator and
    denominator up to units; `knot` asks Delta(1) = +-1 and symmetry."""
    bad = expect_lines(code, stdout, {"routes-agree": "true"})
    if bad:
        return bad
    rep = report(stdout)
    try:
        num = parse_poly(rep.get("numerator", ""))
        den = parse_poly(rep.get("denominator", ""))
    except ValueError as exc:
        return str(exc)
    if numerator is not None and normalize(num) != normalize(numerator):
        return "numerator %s is not the expected polynomial" % rep["numerator"]
    if denominator is not None and normalize(den) != normalize(denominator):
        return "denominator %s is not the expected polynomial" % rep["denominator"]
    if not num:
        return "zero numerator"
    top = max(num)
    mirrored = {top + min(num) - e: c for e, c in num.items()}
    if mirrored != num and mirrored != {e: -c for e, c in num.items()}:
        return "numerator %s is not reciprocal" % rep["numerator"]
    if knot and abs(sum(primitive(num).values())) != 1:
        return "Delta(1) = %s up to units, a knot has +-1" % sum(primitive(num).values())
    return None


def primitive(p: dict) -> dict:
    """The integer polynomial with coprime coefficients that is a rational
    multiple of p (the printed numerator is scaled to lowest coefficient 1)."""
    den = math.lcm(*(c.denominator for c in p.values()))
    ints = {e: int(c * den) for e, c in p.items()}
    g = math.gcd(*ints.values())
    return {e: c // g for e, c in ints.items()}


def graph_zeta_poly_ok(graph, printed: str):
    """Compare the printed det(I - A) with the benchmark's own Fraction
    determinants at total-dim + 1 integer points, which pins down the
    polynomial (entries have exponents 0 and 1 only)."""
    try:
        z = parse_poly(printed)
    except ValueError as exc:
        return str(exc)
    size = sum(graph.dims)
    if any(e < 0 or e > size for e in z):
        return "zeta-reciprocal %s has exponents outside 0..%d" % (printed, size)
    offset = [sum(graph.dims[:i]) for i in range(len(graph.dims))]
    for t in range(size + 1):
        a = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        for src, tgt, m in graph.edges:
            for i, row in enumerate(m):
                for j, p in enumerate(row):
                    a[offset[src] + i][offset[tgt] + j] -= evaluate(p, t)
        if det(a) != evaluate(z, t):
            return "zeta-reciprocal %s differs from det(I - A) at t = %d" % (printed, t)
    return None


def check_zeta(code: int, stdout: str, graph):
    bad = expect_lines(code, stdout, {"euler-agrees": "true"})
    return bad or graph_zeta_poly_ok(graph, report(stdout).get("zeta-reciprocal", ""))


def check_graph_verify(code: int, stdout: str, graph):
    bad = expect_lines(code, stdout, {"verified": "true"})
    if bad:
        return bad
    rep = report(stdout)
    if rep.get("zeta-left") != rep.get("zeta-right"):
        return "zeta-left and zeta-right differ"
    return graph_zeta_poly_ok(graph, rep.get("zeta-left", ""))


def check_holonomy(code: int, stdout: str, perturb: int):
    return expect_lines(
        code, stdout,
        {"holonomy-preserved": "true", "perturbations-rejected": "%d/%d" % (perturb, perturb)},
    )


def check_colorings(colorings, diagram, p: int, n: int):
    """D_p colorings of a diagram of T(2,n): p^2 of them when p | n,
    else p, each satisfying under_out = 2*over - under_in mod p."""
    want = p * p if n % p == 0 else p
    if len(colorings) != want:
        return "%d D%d colorings of T(2,%d), expected %d" % (len(colorings), p, n, want)
    for col in colorings:
        colors = dict(col)
        for c in diagram:
            if colors[c[1]] != (2 * colors[c[2]] - colors[c[0]]) % p:
                return "coloring %s breaks a crossing" % (col,)
    return None


def self_test():
    """Feed every check a wrong answer; return the checks that accept it."""
    from inputs import Graph

    g = Graph([1], [(0, 0, [[{1: Fraction(2)}]])])  # det(I - A) = 1 - 2t
    ok_zeta = "zeta-reciprocal: 1 - 2*t\neuler-agrees: true\n"
    tre = "numerator: 1 - t + t^2\ndenominator: 1 - t\nroutes-agree: true\n"
    cases = {
        "zeta accepts a correct answer": check_zeta(0, ok_zeta, g) is not None,
        "zeta wrong polynomial": check_zeta(0, ok_zeta.replace("2*t", "3*t"), g) is None,
        "zeta oracle false": check_zeta(0, ok_zeta.replace("true", "false"), g) is None,
        "zeta exit code": check_zeta(1, ok_zeta, g) is None,
        "alexander accepts a correct answer": check_alexander(
            0, tre, torus_delta(3), {0: 1, 1: -1}, knot=True) is not None,
        "alexander wrong numerator": check_alexander(
            0, tre.replace("+ t^2", "+ 2*t^2"), torus_delta(3)) is None,
        "alexander wrong denominator": check_alexander(
            0, tre, torus_delta(3), {0: 1, 2: -1}) is None,
        "alexander routes disagree": check_alexander(
            0, tre.replace("agree: true", "agree: false")) is None,
        "alexander knot Delta(1)": check_alexander(
            0, tre.replace("1 - t + t^2", "1 - 2*t + t^2"), knot=True) is None,
        "graph-verify unequal zetas": check_graph_verify(
            0, "verified: true\nzeta-left: 1 - 2*t\nzeta-right: 1 - t\n", g) is None,
        "holonomy missed perturbation": check_holonomy(
            0, "holonomy-preserved: true\nperturbations-rejected: 2/3\n", 3) is None,
        "colorings wrong count": check_colorings(
            [(("a1", 0), ("a2", 0), ("a3", 0))], [("a1", "a2", "a3")], 3, 3) is None,
        "colorings broken crossing": check_colorings(
            [(("a1", k), ("a2", 0), ("a3", 0)) for k in range(9)],
            [("a1", "a2", "a3")], 3, 3) is None,
    }
    return [name for name, failed in cases.items() if failed]
