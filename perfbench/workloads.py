"""The three workloads as decks of jobs.

A deck is the list of jobs one run makes, built from the seed; its input
files are written when it is built.  A job's `run` is what the benchmark times, and
its `check` turns the result into None (right) or a reason (wrong).  CLI
jobs go through `holozeta.cli.main(argv)` in-process with stdout captured;
Reidemeister rewriting has no subcommand and calls the library.
"""
from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import checks
import inputs


class Job:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Deck:
    """Writes a deck's input files into one directory."""

    def __init__(self, hz, directory):
        self.hz = hz  # dict of holozeta modules
        self.dir = directory
        self.jobs = []

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def cli(self, label, argv, check):
        cli = self.hz["cli"]

        def run():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)  # looked up per call, so tracing sees it
            return code, out.getvalue()

        self.jobs.append(Job(label, run, lambda r: check(*r)))


# -- knot-alexander -------------------------------------------------------

# the T(2,n) ladder: every odd n to 21, then 25 for the top of the growth
# curve; T(2,31) and S3 T(2,15) would each take a third of a round, leaving
# the short jobs, which set the median and the tail, too few runs
LADDER = (3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 25)
S3_SIZES = (3, 9)
UNIPOTENT_SIZES = (3, 5, 7, 9)
# few and short, so that the median and the tail percentile both land on
# jobs of the fixed families, whose cost does not depend on the seed
BRAID_LENGTHS = (6, 6, 6, 8, 8, 8)
ONE_MINUS_T = {0: Fraction(1), 1: Fraction(-1)}


def knot_alexander(deck: Deck, rng: random.Random, warm: bool):
    ladder = LADDER[:4] if warm else LADDER
    for n in ladder:
        g = deck.file("t2_%d.gauss" % n, inputs.torus_gauss(n))
        deck.cli("trivial T(2,%d)" % n, ["alexander", "--gauss", g, "--route", "both"],
                 lambda c, o, n=n: checks.check_alexander(
                     c, o, checks.torus_delta(n), ONE_MINUS_T, knot=True))
    s3_den = checks.rep_denominator([[0, 1], [1, 0]])  # rho(x1) is the first reflection
    for n in S3_SIZES[:1] if warm else S3_SIZES:
        g = deck.file("t2_%d.gauss" % n, inputs.torus_gauss(n))
        r = deck.file("s3_%d.rep" % n, inputs.s3_rep(n))
        deck.cli("s3 T(2,%d)" % n, ["alexander", "--gauss", g, "--rep", r, "--route", "both"],
                 lambda c, o: checks.check_alexander(c, o, None, s3_den))
    uni = deck.file("unipotent.rep", inputs.unipotent_rep())
    uni_den = checks.poly_mul(ONE_MINUS_T, ONE_MINUS_T)
    for n in UNIPOTENT_SIZES[:1] if warm else UNIPOTENT_SIZES:
        g = deck.file("t2_%d.gauss" % n, inputs.torus_gauss(n))
        delta = checks.torus_delta(n)
        deck.cli("unipotent T(2,%d)" % n, ["alexander", "--gauss", g, "--rep", uni, "--route", "both"],
                 lambda c, o, d=checks.poly_mul(delta, delta): checks.check_alexander(c, o, d, uni_den))
    for k, length in enumerate(BRAID_LENGTHS[:2] if warm else BRAID_LENGTHS):
        g = deck.file("braid_%d.gauss" % k, inputs.random_knotted_braid(rng, length))
        deck.cli("braid L=%d" % length, ["alexander", "--gauss", g, "--route", "both"],
                 lambda c, o: checks.check_alexander(c, o, None, ONE_MINUS_T, knot=True))


# -- zeta-euler -------------------------------------------------------------


def zeta_euler(deck: Deck, rng: random.Random, warm: bool):
    graphs = [inputs.criterion1_graph(rng) for _ in range(10)] if warm else inputs.stratified_graphs(rng)
    for k, g in enumerate(graphs):
        path = deck.file("g%d.wg" % k, g.text())
        deck.cli("graph euler_weight %d" % g.euler_weight(),
                 ["zeta", "--graph", path, "--check-euler", "--order", "8"],
                 lambda c, o, g=g: checks.check_zeta(c, o, g))


# -- rewrite-color ----------------------------------------------------------

# (n of T(2,n), p of D_p, arcs after the moves): brute-force colorings
# cost p^arcs.  Fourteen jobs of like cost (D3 at 10 arcs, D5 at 7) sit at
# the top of the deck, so the tail percentile falls amid them, not on the
# edge of a few much longer ones
REWRITES = tuple((n, 3, 10) for n in (3, 5, 7, 9)) * 2 + tuple((n, 5, 7) for n in (3, 5, 7)) * 2 \
    + ((3, 3, 9), (5, 3, 9))
PERTURB = 10


def dihedral_text(p: int) -> str:
    return "%d\n" % p + "".join(
        " ".join(str((2 * b - a) % p) for b in range(p)) + "\n" for a in range(p))


def twisted_weights_text(rng: random.Random, p: int) -> str:
    """Crossing weights of a random Alexander pair over D_p: units u and
    c(a), f1(a,b) = u c(a*b) c(a)^-1, f2(a,b) = (1-u) c(a*b) c(b)^-1, and
    g1+ = f1^-1, g2+ = -f1^-1 f2, g1-(a,b) = f1(a*b,b), g2-(a,b) = f2(a*b,b)
    (a*b = 2b - a is its own inverse operation)."""
    def unit():
        return {rng.randint(-2, 2): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))}

    def inv(m):
        ((e, c),) = m.items()
        return {-e: 1 / c}

    mul = checks.poly_mul
    u, tw = unit(), [unit() for _ in range(p)]
    ((ue, uc),) = u.items()
    one_minus_u = {0: Fraction(1)}
    one_minus_u[ue] = one_minus_u.get(ue, 0) - uc
    one_minus_u = {e: c for e, c in one_minus_u.items() if c}
    star = lambda a, b: (2 * b - a) % p
    f1 = [[mul(u, mul(tw[star(a, b)], inv(tw[a]))) for b in range(p)] for a in range(p)]
    f2 = [[mul(one_minus_u, mul(tw[star(a, b)], inv(tw[b]))) for b in range(p)] for a in range(p)]
    g1p = [[inv(f1[a][b]) for b in range(p)] for a in range(p)]
    g2p = [[{e: -c for e, c in mul(inv(f1[a][b]), f2[a][b]).items()} for b in range(p)] for a in range(p)]
    g1n = [[f1[star(a, b)][b] for b in range(p)] for a in range(p)]
    g2n = [[f2[star(a, b)][b] for b in range(p)] for a in range(p)]
    lines = [str(p)]
    for table in (g1p, g2p, g1n, g2n):
        lines += [", ".join(inputs.poly_text(x) for x in row) for row in table]
    return "\n".join(lines) + "\n"


def slide_tietze_text(hz) -> tuple:
    """(before, script, after) text of the shipped crossing-slide fixture."""
    fx = hz["fixtures"]
    names = {g.index: g.display_name for g in fx.slide_presentation_before().generators}
    lines = []
    for m in fx.slide_tietze_script():
        fields = [m.kind] + [str(x) for x in (m.i, m.k, m.name) if x is not None]
        if m.w is not None:
            fields.append(m.w.display(names))
        lines.append(" ".join(fields))
    fmt = hz["presentation"].format_presentation
    return (fmt(fx.slide_presentation_before()), "\n".join(lines) + "\n",
            fmt(fx.slide_presentation_after()))


def rewrite_job(deck: Deck, n: int, p: int, arcs: int, moves):
    knot, quandle = deck.hz["knot"], deck.hz["quandle"]
    gauss = inputs.torus_gauss(n)

    def run():
        d = knot.parse_gauss(gauss)
        for m in moves:
            d = knot.reidemeister_apply(d, knot.ReidemeisterMove(**m))
        cols = quandle.enumerate_colorings(quandle.dihedral_quandle(p), d)
        rep = knot.Representation.trivial(range(len(d.arcs)))
        res = knot.twisted_alexander(d, rep, "direct")
        return d, cols, str(res.numerator)

    def check(result):
        d, cols, numerator = result
        crossings = [(c.under_in, c.under_out, c.over) for c in d.crossings]
        bad = checks.check_colorings([c.colors for c in cols], crossings, p, n)
        if bad:
            return bad
        try:
            got = checks.normalize(checks.parse_poly(numerator))
        except ValueError as exc:
            return str(exc)
        if got != checks.torus_delta(n):
            return "Delta %s changed under the moves" % numerator
        return None

    deck.jobs.append(Job("R-moves T(2,%d) D%d %d arcs" % (n, p, arcs), run, check))


def rewrite_color(deck: Deck, rng: random.Random, warm: bool):
    for n, p, arcs in ((3, 3, 7),) if warm else REWRITES:
        rewrite_job(deck, n, p, arcs, inputs.move_sequence(rng, n, arcs))
    # every round trip on graphs of size 2, 3 and 4, four times over
    trips = [(kind, size) for kind in inputs.ROUND_TRIPS for size in (2, 3, 4)]
    for k, (kind, size) in enumerate(trips[::3] if warm else trips * 4):
        g = inputs.graph_with_lone_edge(rng, size)
        path = deck.file("rt%d.wg" % k, g.text())
        script = deck.file("rt%d.gs" % k, inputs.round_trip_script(rng, g, kind))
        deck.cli("graph-verify %s" % kind,
                 ["graph-verify", "--graph", path, "--script", script, "--expect", path],
                 lambda c, o, g=g: checks.check_graph_verify(c, o, g))
    before, script, after = (deck.file(name, text) for name, text in
                             zip(("slide_before.txt", "slide.tz", "slide_after.txt"), slide_tietze_text(deck.hz)))
    for _ in range(1 if warm else 2):
        deck.cli("tietze-verify slide", ["tietze-verify", "--pres", before, "--script", script, "--expect", after],
                 lambda c, o: checks.expect_lines(c, o, {"verified": "true"}))
    for k, p in enumerate((3,) if warm else (3, 5, 3, 5)):
        q = deck.file("d%d.q" % p, dihedral_text(p))
        w = deck.file("w%d.txt" % k, twisted_weights_text(rng, p))
        deck.cli("holonomy-check D%d" % p,
                 ["holonomy-check", "--quandle", q, "--weights", w, "--perturb", str(PERTURB)],
                 lambda c, o: checks.check_holonomy(c, o, PERTURB))


WORKLOADS = {
    "knot-alexander": knot_alexander,
    "zeta-euler": zeta_euler,
    "rewrite-color": rewrite_color,
}


def build(name: str, hz, seed: int, directory: str, warm: bool = False):
    """A deck's jobs, shuffled by the seed; inputs are written now."""
    builder = WORKLOADS[name]
    rng = random.Random("%s:%d:%s" % (name, seed, "warm" if warm else "deck"))
    deck = Deck(hz, directory)
    builder(deck, rng, warm)
    rng.shuffle(deck.jobs)
    return deck.jobs
