import argparse
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from holozeta.cli import main
from holozeta.freegroup import Word, parse_word
from holozeta.knot import parse_gauss
from holozeta.laurent import LaurentPoly, parse_laurent
from holozeta.presentation import format_presentation
from holozeta.quandle import (
    dihedral_quandle,
    f_twisted_weights,
    format_pair_file,
    format_quandle,
    format_weights_file,
    holonomy_check,
)
from holozeta.wgraph import (
    Edge,
    WeightedDigraph,
    format_graph,
    parse_matrix_literal,
)
from holozeta import cli, fixtures, laurent, quandle, wgraph

from helpers import (
    coprime_denominators,
    constant_pair,
    fraction_weights_text,
    perturbed,
    seeded_rng,
    torus_gauss,
    unimodular_matrix,
    WIDE_GRAPHS,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _graph_file(tmp_path):
    g = WeightedDigraph(
        "matrix",
        (("u", 1), ("v", 1)),
        (
            Edge("e1", "u", "v", parse_matrix_literal("[[t]]")),
            Edge("e2", "v", "u", parse_matrix_literal("[[1]]")),
            Edge("e3", "u", "u", parse_matrix_literal("[[2]]")),
        ),
    )
    return _write(tmp_path, "g.wg", format_graph(g))


def test_zeta_with_euler_check(tmp_path, capsys):
    path = _graph_file(tmp_path)
    assert main(["zeta", "--graph", path, "--check-euler"]) == 0
    out = capsys.readouterr().out
    assert "zeta-reciprocal: -1 - t" in out
    assert "euler-agrees: true" in out


def test_negative_order_exits_2(tmp_path, capsys):
    path = _graph_file(tmp_path)
    for order in ("-1", "abc"):
        assert main(["zeta", "--graph", path, "--check-euler", "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--order" in captured.err


def test_zeta_missing_file(tmp_path, capsys):
    assert main(["zeta", "--graph", str(tmp_path / "nope.wg")]) == 2


def test_alexander_both_routes(tmp_path, capsys):
    pd = _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)
    assert main(["alexander", "--pd", pd, "--route", "both"]) == 0
    out = capsys.readouterr().out
    assert "numerator: 1 - t + t^2" in out
    assert "routes-agree: true" in out


def test_alexander_with_rep_file(tmp_path, capsys):
    pd = _write(tmp_path, "f8.pd", fixtures.FIGURE_EIGHT_PD)
    rep = _write(tmp_path, "triv.rep", "all: [[1]] exp=1\n")
    assert main(["alexander", "--pd", pd, "--rep", rep, "--route", "direct"]) == 0
    out = capsys.readouterr().out
    assert "numerator: 1 - 3*t + t^2" in out


def test_sparse_high_degree_zeta_finishes(tmp_path):
    # a 5-cycle of t-edges plus a t^100000 loop: degree bound 100004, 11 terms
    text = "".join("vertex v%d dim=1\n" % i for i in range(5))
    text += "".join("edge e%d v%d -> v%d weight=[[t]]\n" % (i, i, (i + 1) % 5) for i in range(5))
    g = _write(tmp_path, "g.wg", text + "edge loop v0 -> v0 weight=[[t^100000]]\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "holozeta.cli", "zeta", "--graph", g],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == "zeta-reciprocal: 1 - t^5 - t^100000\n"


@pytest.mark.parametrize("name", sorted(WIDE_GRAPHS))
def test_wide_sparse_weights_pass_the_euler_check(tmp_path, name):
    text, zeta = WIDE_GRAPHS[name]
    g = _write(tmp_path, "g.wg", text)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "holozeta.cli", "zeta", "--graph", g,
                           "--check-euler"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == "zeta-reciprocal: %s\neuler-agrees: true\n" % zeta


def test_euler_mismatch_exits_1_with_a_witness(tmp_path, capsys, monkeypatch):
    # the check compares the packed coefficients of 1/zeta truncated at u^5
    # from the Euler product with those of det(I - uA), padded with zeros; a
    # t^3 off in the first or the last coefficient of either side's packed
    # list fails.  The cells t, 1 and 2 pack with den 1 and lo 0, so
    # pack(t^3) is t^3 at every power
    path = _graph_file(tmp_path)
    for seam in ("_adjacency_det", "_euler_product"):
        for at in (0, -1):
            def off_by_one_term(*args, fn=getattr(wgraph, seam), at=at):
                coeffs, ring = fn(*args), args[-1]
                coeffs[at] = coeffs[at] + ring.pack(LaurentPoly({3: 1}))
                return coeffs

            monkeypatch.setattr(wgraph, seam, off_by_one_term)
            assert main(["zeta", "--graph", path, "--check-euler", "--order", "5"]) == 1
            lines = capsys.readouterr().out.splitlines()
            assert lines[-2] == "euler-agrees: false"
            assert json.loads(lines[-1]) == {"witness": "euler-product mismatch at order 5"}
            monkeypatch.undo()


def test_euler_check_packs_each_weight_cell_once(tmp_path, capsys, monkeypatch):
    # one ring for both sides: the stored (nonzero) weight cells are packed
    # once, A's cells are sums of them, and the two coefficient lists are
    # compared packed, so no adjacency matrix is built.  At order 8 >= dim A
    # = 3 the det side holds every c_j of det(I - uA), so the printed
    # det(I - A) is read back from its nonzero c_j (3 here) and no Laurent
    # elimination runs
    text = ("vertex u dim=2\nvertex v dim=1\n"
            "edge a u -> v weight=[[t],[1 - t^2]]\n"
            "edge b u -> v weight=[[2],[0]]\n"
            "edge c v -> u weight=[[1/2, t^-1]]\n"
            "edge d u -> u weight=[[0, t],[1, 0]]\n")
    path = _write(tmp_path, "g.wg", text)
    g = wgraph.parse_graph(text)
    det_side = [c for c in laurent.series_det(wgraph.adjacency_matrix(g), 3).coeffs if c]
    want = "zeta-reciprocal: %s\neuler-agrees: true\n" % wgraph.zeta_reciprocal(g)
    calls = {"cell_ring": 0, "pack": 0, "unpack": 0, "adjacency_matrix": 0, "det": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in ("cell_ring", "adjacency_matrix"):
        fn = getattr(wgraph, name)
        for module in (cli, laurent, wgraph):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting(name, fn))
    for name in ("pack", "unpack"):
        monkeypatch.setattr(laurent.PackedCells, name,
                            counting(name, getattr(laurent.PackedCells, name)))
    monkeypatch.setattr(laurent.PolyMatrix, "det", counting("det", laurent.PolyMatrix.det))
    assert main(["zeta", "--graph", path, "--check-euler"]) == 0
    assert capsys.readouterr().out == want
    cells = [p for e in g.edges for p in e.weight.entries]
    assert calls == {"cell_ring": 1, "pack": sum([1 for p in cells if p.terms]),
                     "unpack": len(det_side), "adjacency_matrix": 0, "det": 0}


def test_euler_check_below_dim_a_prints_zeta_reciprocal(tmp_path, capsys, monkeypatch):
    # dim A = 4: below order 4 the det side stops short of det(I - A), so the
    # printed value is `zeta_reciprocal`'s, computed once; from order 4 on the
    # det side gives it, and without --check-euler `zeta_reciprocal` does.
    # The value is (1 - t) - (2 - t)(2t + 1/2 + t^-1/2), from the Schur
    # complement of the loop block d
    text = ("vertex u dim=1\nvertex v dim=2\nvertex w dim=1\n"
            "edge a u -> v weight=[[t, 1/2]]\n"
            "edge b v -> w weight=[[1],[t^-1]]\n"
            "edge c w -> u weight=[[2 - t]]\n"
            "edge d v -> v weight=[[0, t],[1, 0]]\n")
    path = _write(tmp_path, "g.wg", text)
    calls, real = [], wgraph.zeta_reciprocal
    for module in (cli, wgraph):
        monkeypatch.setattr(module, "zeta_reciprocal", lambda g: calls.append(g) or real(g))
    zeta = "zeta-reciprocal: -t^-1 + 1/2 - 9/2*t + 2*t^2\n"
    cases = [(["--check-euler", "--order", str(order)], zeta + "euler-agrees: true\n",
              int(order < 4)) for order in range(6)] + [([], zeta, 1)]
    for argv, out, ran in cases:
        calls.clear()
        assert main(["zeta", "--graph", path] + argv) == 0
        assert (capsys.readouterr().out, len(calls)) == (out, ran), argv


def test_check_euler_on_a_400_vertex_cycle_finishes(tmp_path):
    # dim A = 400 above the order: the det side forms A^2..A^4 over A's one
    # stored cell per column, and det(I - A) comes from `zeta_reciprocal`
    n = 400
    text = "".join("vertex v%d dim=1\n" % i for i in range(n))
    text += "".join("edge e%d v%d -> v%d weight=[[t]]\n" % (i, i, (i + 1) % n) for i in range(n))
    g = _write(tmp_path, "ring.wg", text)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "holozeta.cli", "zeta", "--graph", g,
                           "--check-euler", "--order", "8"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 5
    assert done.returncode == 0
    assert done.stdout == "zeta-reciprocal: 1 - t^400\neuler-agrees: true\n"


def _layered_dag(loops) -> str:
    """10 layers of 6 vertices, each vertex joined to all 6 of the next layer
    by a [[1 + t]] edge (324 edges), and a [[t]] loop at the first vertex of
    each layer in `loops`."""
    text = "".join("vertex v%d_%d dim=1\n" % (l, k) for l in range(10) for k in range(6))
    text += "".join("edge e%d_%d_%d v%d_%d -> v%d_%d weight=[[1 + t]]\n" % (l, a, b, l, a, l + 1, b)
                    for l in range(9) for a in range(6) for b in range(6))
    return text + "".join("edge loop%d v%d_0 -> v%d_0 weight=[[t]]\n" % (l, l, l) for l in loops)


@pytest.mark.parametrize("loops, zeta", [((9,), "1 - t"), ((0, 9), "1 - 2*t + t^2")])
def test_a_layered_dag_with_loops_checks_on_its_cyclic_core(tmp_path, loops, zeta):
    # only the loops lie on a cycle, so both sides run on them alone; on the
    # whole 14 kB graph the walks through the layers, none of which closes,
    # passed the search budget, and the check exited 2 naming --order
    text = _layered_dag(loops)
    assert text.count("\nedge ") == 324 + len(loops) and 14000 < len(text) < 15500
    g = _write(tmp_path, "dag.wg", text)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "holozeta.cli", "zeta", "--graph", g,
                           "--check-euler", "--order", "8"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "zeta-reciprocal: %s\neuler-agrees: true\n" % zeta


_PADDING_GRAPHS = (
    # no edges, dim A = 3: both sides are 1 at every order
    ("vertex a dim=2\nvertex b dim=1\n", 3, "1"),
    # two loops, one with 1/2 cells, and a vertex without edges: dim A = 2
    ("vertex u dim=1\nvertex v dim=1\nedge a u -> u weight=[[2 - t]]\n"
     "edge b u -> u weight=[[1/2 - 1/2*t]]\n", 2, "-3/2 + 3/2*t"),
)


def test_euler_check_pads_the_determinant_side(tmp_path, capsys):
    # det(I - uA) has degree at most dim A, so the orders 0, 1, dim A and
    # dim A + 3 cover no padding, padding up to u^1 and past the degree
    for text, dim, zeta in _PADDING_GRAPHS:
        path = _write(tmp_path, "g.wg", text)
        for order in sorted({0, 1, dim, dim + 3}):
            assert main(["zeta", "--graph", path, "--check-euler", "--order", str(order)]) == 0
            assert capsys.readouterr().out == "zeta-reciprocal: %s\neuler-agrees: true\n" % zeta


def test_route_mismatch_exits_1_with_a_witness(tmp_path, capsys, monkeypatch):
    real = cli.twisted_alexander

    def direct_off_by_one(d, rep, route, setup=None):
        res = real(d, rep, route, setup=setup)
        if route == "direct":
            res.numerator = res.numerator + LaurentPoly({0: 1})
        return res

    monkeypatch.setattr(cli, "twisted_alexander", direct_off_by_one)
    pd = _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)
    assert main(["alexander", "--pd", pd, "--route", "both"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "routes-agree: false"
    assert json.loads(lines[-1]) == {"witness": "route mismatch", "graph": "1 - t + t^2",
                                     "direct": "2 - t + t^2"}


def test_deep_order_euler_check_finishes(tmp_path):
    # one [[t]] loop: as many cycle classes as the order, and walks that
    # deep; det(I - u[[t]]) = 1 - tu has degree 1 whatever the order
    g = _write(tmp_path, "loop.wg", "vertex v dim=1\nedge e v -> v weight=[[t]]\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for order in ("200", "1100"):
        done = subprocess.run([sys.executable, "-m", "holozeta.cli", "zeta", "--graph", g,
                               "--check-euler", "--order", order],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout == "zeta-reciprocal: 1 - t\neuler-agrees: true\n"


def _run_in_1_gib(argv):
    """The CLI in a subprocess whose address space (RLIMIT_AS) is capped at
    1 GiB, as a `subprocess.CompletedProcess`."""
    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "holozeta.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=cap)


def test_deep_orders_keep_the_exit_contract_in_1_gib(tmp_path):
    # the search keeps one path and a (parent, last edge) record per node, so
    # its memory is linear in the order: a walk of 500 000 edges fits, and a
    # graph whose prenecklaces outgrow the search budget is rejected by it
    # before memory runs out
    loop = _write(tmp_path, "loop.wg", "vertex v dim=1\nedge e v -> v weight=[[t]]\n")
    done = _run_in_1_gib(["zeta", "--graph", loop, "--check-euler", "--order", "500000"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "zeta-reciprocal: 1 - t\neuler-agrees: true\n"
    three = _write(tmp_path, "three.wg", "vertex u dim=1\nvertex v dim=1\n"
                   "edge a u -> u weight=[[t]]\nedge b u -> v weight=[[1]]\n"
                   "edge c v -> u weight=[[t^-1]]\n")
    done = _run_in_1_gib(["zeta", "--graph", three, "--check-euler", "--order", "10000"])
    assert (done.returncode, done.stdout) == (2, "")
    assert "--order" in done.stderr and "Traceback" not in done.stderr


def test_order_past_the_search_budget_exits_2(tmp_path, capsys):
    # both series grow with the order outside the search, so an order above
    # the budget of 500 000 steps is rejected before any work, on any graph
    for name, text in (("lone.wg", "vertex v dim=1\n"),
                       ("loop.wg", "vertex v dim=1\nedge e v -> v weight=[[t]]\n")):
        path = _write(tmp_path, name, text)
        assert main(["zeta", "--graph", path, "--check-euler", "--order", "500001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--order" in captured.err


def test_counts_above_the_limit_exit_2(tmp_path, capsys):
    # in-process, so a missing check fails here: dim=1000000 would ask for a
    # 10^12-entry adjacency matrix and x^(10^18) for 10^18 letters, both
    # refused at once with a MemoryError, and a count just past the limit
    # would run and exit 0 or 1
    graph = _graph_file(tmp_path)
    pres = _write(tmp_path, "p.txt", "gens: x y\nrel: x y  base: y@0\n")
    noop = _write(tmp_path, "noop.tz", "# no moves\n")
    q3 = _write(tmp_path, "q3.txt", format_quandle(dihedral_quandle(3)))
    weights = _write(tmp_path, "w.txt", format_weights_file(f_twisted_weights(
        constant_pair(dihedral_quandle(3), parse_laurent("t"), parse_laurent("1 - t")),
        dihedral_quandle(3))))
    huge = "x^1000000000000000000"
    cases = [
        (["zeta", "--graph", "in.txt"], "vertex a dim=1000000\n", "'a': dim=1000000"),
        (["export-dot", "--graph", "in.txt"], "vertex a dim=600\nvertex b dim=401\n",
         "'b': dim=401"),
        (["graph-verify", "--graph", graph, "--script", "in.txt", "--expect", graph],
         "insert w 1001\n", "dim 1001"),
        (["tietze-verify", "--pres", "in.txt", "--script", noop, "--expect", pres],
         "gens: x y\nrel: y %s  base: y@0\n" % huge, repr(huge)),
        (["tietze-verify", "--pres", pres, "--script", "in.txt", "--expect", pres],
         "conjugate 0 x^1001\n", "'x^1001'"),
        (["tietze-verify", "--pres", pres, "--script", "in.txt", "--expect", pres],
         "add_generator z y^-1001\n", "'y^-1001'"),
        (["holonomy-check", "--quandle", q3, "--weights", weights, "--perturb", "1001"],
         "", "--perturb 1001"),
    ]
    for args, text, field in cases:
        path = _write(tmp_path, "in.txt", text)
        start = time.perf_counter()
        assert main([path if a == "in.txt" else a for a in args]) == 2, text
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert field in captured.err and "above the limit of 1000" in captured.err, captured.err
    # at the limit a word is read
    assert parse_word("x^1000 x^-1000 y^1000", {"x": 0, "y": 1}) == Word(((1, 1),) * 1000)


def test_perturb_above_the_limit_exits_2_at_once(tmp_path):
    # in a subprocess: without the check, 10^9 perturbations take about a day
    d3 = dihedral_quandle(3)
    q3 = _write(tmp_path, "q3.txt", format_quandle(d3))
    identity = f_twisted_weights(constant_pair(d3, LaurentPoly({0: 1}), LaurentPoly()), d3)
    weights = _write(tmp_path, "w.txt", format_weights_file(identity))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "holozeta.cli", "holonomy-check", "--quandle", q3,
                           "--weights", weights, "--perturb", "1000000000"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: --perturb 1000000000 is above the limit of 1000\n"


def test_euler_check_past_the_search_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(wgraph, "CYCLE_SEARCH_BUDGET", 5)
    path = _graph_file(tmp_path)
    assert main(["zeta", "--graph", path, "--check-euler"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order" in captured.err


def test_bad_rep_file_exits_2(tmp_path, capsys):
    pd = _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)
    cases = (
        ("x1: [[2]] exp=1\nall: [[1]] exp=1\n", "violates relation 0 ("),  # rho breaks a relation
        ("x1: [[1]] exp=1\nall: [[1]] exp=2\n", "violates relation 0 ("),  # alpha breaks one
        ("x1: [[1,1],[1,1]]\nall: [[1,0],[0,1]]\n", "not invertible"),  # singular rho
    )
    for text, message in cases:
        rep = _write(tmp_path, "bad.rep", text)
        for route in ("graph", "direct", "both"):
            assert main(["alexander", "--pd", pd, "--rep", rep, "--route", route]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


def test_alexander_gauss_input(tmp_path, capsys):
    gc = _write(tmp_path, "braid.gauss", fixtures.BRAID_SLIDE_GAUSS_BEFORE)
    assert main(["alexander", "--gauss", gc, "--route", "both"]) == 0
    out = capsys.readouterr().out
    assert "routes-agree: true" in out


def test_gauss_code_with_other_text_exits_2(tmp_path, capsys):
    for code in ("O1+ hello U2+ O3+ U1+ O2+ U3+", "O1+ U2+ O3+ U1+ O2+ U3+ X"):
        gc = _write(tmp_path, "junk.gauss", code)
        assert main(["alexander", "--gauss", gc]) == 2, code
        assert capsys.readouterr().out == "", code


def test_tietze_verify(tmp_path, capsys):
    before = _write(
        tmp_path, "p.txt", format_presentation(fixtures.slide_presentation_before())
    )
    after = _write(
        tmp_path, "q.txt", format_presentation(fixtures.slide_presentation_after())
    )
    script = _write(
        tmp_path,
        "s.tz",
        "\n".join(
            [
                "conjugate 1 xj",
                "multiply 0 1",
                "conjugate 1 xj^-1",
                "remove_generator xi1",
                "multiply 0 1",
                "conjugate 1 xk xj1 xi2 xk^-1 xj^-1",
                "multiply_inv 0 1",
                "conjugate 1 xj xk xi2^-1 xj1^-1 xk^-1",
                "add_generator xi1 xj1 xi2 xj1^-1",
                "conjugate 2 xk",
                "multiply_inv 0 2",
                "conjugate 2 xk^-1",
            ]
        ),
    )
    assert main(["tietze-verify", "--pres", before, "--script", script,
                 "--expect", after]) == 0
    assert "verified: true" in capsys.readouterr().out
    # wrong target fails with exit 1
    assert main(["tietze-verify", "--pres", before, "--script", script,
                 "--expect", before]) == 1
    out = capsys.readouterr().out
    assert "verified: false" in out and "witness" in out


def test_graph_verify(tmp_path, capsys):
    path = _graph_file(tmp_path)
    script = _write(tmp_path, "s.gs", "null_add z1 u v\nnull_remove z1\n")
    assert main(["graph-verify", "--graph", path, "--script", script,
                 "--expect", path]) == 0
    assert "verified: true" in capsys.readouterr().out
    bad = _write(tmp_path, "bad.gs", "null_remove e1\n")
    assert main(["graph-verify", "--graph", path, "--script", bad,
                 "--expect", path]) == 1



def test_graph_verify_inverts_a_16_x_16_basis_change_in_seconds(tmp_path):
    # a dense row-permuted L*U with entries in t^-1..t, a 5 kB literal: the
    # inverse is one fraction-free Gauss-Jordan elimination, not n^2 + 1
    # determinants
    n = 16
    p = str(unimodular_matrix(seeded_rng(16), n)).replace(" ", "")
    t_identity = "[%s]" % ",".join(
        "[%s]" % ",".join("t" if i == j else "0" for j in range(n)) for i in range(n))
    graph = _write(tmp_path, "g.wg", "vertex u dim=%d\nedge e u -> u weight=%s\n" % (n, t_identity))
    script = _write(tmp_path, "s.gs", "change_basis u %s\n" % p)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "holozeta.cli", "graph-verify", "--graph", graph,
                           "--script", script, "--expect", graph],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("verified: true\n")


def test_graph_verify_names_a_missing_edge(tmp_path, capsys):
    path = _graph_file(tmp_path)
    for line in ("null_remove nope", "hub_resolve nope", "split nope a=[[t]] b=[[0]]",
                 "hub_unresolve h u v [[1]] nope:e2"):
        script = _write(tmp_path, "s.gs", line + "\n")
        assert main(["graph-verify", "--graph", path, "--script", script,
                     "--expect", path]) == 1, line
        assert _last_json(capsys.readouterr().out) == {
            "witness": "step 0 rejected: no edge 'nope'", "failing-step": 0}, line


def test_bad_script_lines_exit_2(tmp_path, capsys):
    pres = _write(tmp_path, "p.txt", "gens: x y\nrel: x y  base: y@0\n")
    graph = _graph_file(tmp_path)
    runs = [("tietze-verify", "--pres", pres, line)
            for line in ("invert x", "conjugate 1", "multiply 0 1 2", "frobnicate 1")]
    runs += [("graph-verify", "--graph", graph, line)
             for line in ("eliminate", "reverse_all x", "split e1 a", "insert w 1 f w")]
    for command, flag, start, line in runs:
        script = _write(tmp_path, "s.txt", "# first line\n%s\n" % line)
        assert main([command, flag, start, "--script", script, "--expect", start]) == 2, line
        captured = capsys.readouterr()
        assert captured.out == "", line
        assert "bad script line %r" % line in captured.err, line


def test_quandle_and_pair_checks(tmp_path, capsys):
    q = dihedral_quandle(3)
    qf = _write(tmp_path, "q3.txt", format_quandle(q))
    assert main(["quandle-check", "--quandle", qf]) == 0
    badq = _write(tmp_path, "bad.txt", "2\n1 0\n0 1\n")
    assert main(["quandle-check", "--quandle", badq]) == 1

    f = constant_pair(q, parse_laurent("t"), parse_laurent("1 - t"))
    pf = _write(tmp_path, "pair.txt", format_pair_file(f))
    assert main(["pair-check", "--quandle", qf, "--pair", pf]) == 0
    lines = format_pair_file(f).splitlines()
    lines[4] = ", ".join(["7"] * 3)  # break an f2 row
    badp = _write(tmp_path, "badpair.txt", "\n".join(lines))
    assert main(["pair-check", "--quandle", qf, "--pair", badp]) == 1
    out = capsys.readouterr().out
    assert "(cond=" in out


def test_holonomy_check(tmp_path, capsys):
    q = dihedral_quandle(3)
    qf = _write(tmp_path, "q3.txt", format_quandle(q))
    f = constant_pair(q, parse_laurent("t"), parse_laurent("1 - t"))
    wf = _write(tmp_path, "w.txt", format_weights_file(f_twisted_weights(f, q)))
    assert main(["holonomy-check", "--quandle", qf, "--weights", wf,
                 "--perturb", "3"]) == 0
    out = capsys.readouterr().out
    assert "holonomy-preserved: true" in out
    assert "perturbations-rejected: 3/3" in out


def test_a_bad_seed_exits_2_before_any_output(tmp_path, capsys, monkeypatch):
    """HOLOZETA_SEED is read as ASCII digits, like every integer field,
    before the first report line."""
    q = dihedral_quandle(3)
    f = constant_pair(q, parse_laurent("t"), parse_laurent("1 - t"))
    argv = ["holonomy-check", "--quandle", _write(tmp_path, "q3.txt", format_quandle(q)),
            "--weights", _write(tmp_path, "w.txt", format_weights_file(f_twisted_weights(f, q))),
            "--perturb", "3"]
    for seed in ("abc", "٣", " 7_0 "):
        monkeypatch.setenv("HOLOZETA_SEED", seed)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "HOLOZETA_SEED" in captured.err
    monkeypatch.setenv("HOLOZETA_SEED", "-70")
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("perturbations-rejected: 3/3\n")


def test_holonomy_check_perturbs_a_failing_base(tmp_path, capsys):
    """Failing weights still get their perturbations counted, and the
    witness is the first failure of the exhaustive check."""
    q = dihedral_quandle(3)
    f = constant_pair(q, parse_laurent("t"), parse_laurent("1 - t"))
    g = perturbed(f_twisted_weights(f, q), "g2_neg", 0, 1, LaurentPoly({0: 1}))
    assert holonomy_check(q, g) == [
        ("B-1", (1, 0), "1 != 0"), ("B-1", (2, 1), "t^-1 != 0"), ("B-2", (0, 1), "1 != 0")]
    argv = ["holonomy-check", "--quandle", _write(tmp_path, "q3.txt", format_quandle(q)),
            "--weights", _write(tmp_path, "w.txt", format_weights_file(g)), "--perturb", "5"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "holonomy-preserved: false\nperturbations-rejected: 5/5\n"
        '{"witness": "condition B-1 fails", "at": "(1, 0)", "detail": "1 != 0"}\n')


def _holonomy_run(argv, capsys):
    t0 = time.perf_counter()
    code = main(argv)
    return code, capsys.readouterr().out, time.perf_counter() - t0


def test_holonomy_check_bounds_the_scaling_denominator(tmp_path, capsys, monkeypatch):
    """Weights whose packed cells would be wider than PACK_WIDTH_BITS are
    checked as rational cells: with a distinct 512-bit denominator in each
    of the 196 cells of a D7 file, packing them would make every product one
    of 100 000-bit integers.  With 16 32-bit denominators, a den of about
    512 bits, the cells are still too wide to pack (t^-2..t^2 at power 2 is
    9 digits of about 1 000 bits); packed anyway, the bound raised, they
    give the output of the rational route."""
    q = dihedral_quandle(7)
    qf = _write(tmp_path, "d7.txt", format_quandle(q))
    files = {
        "wide": fraction_weights_text(q, coprime_denominators(4 * 49, 512)),
        "narrow": fraction_weights_text(q, coprime_denominators(16, 32)),
    }
    for name, text in files.items():
        wf = _write(tmp_path, name + ".txt", text)
        ring = quandle._holonomy_ring(quandle.parse_weights_file(text), ())[0]
        assert isinstance(ring, laurent.LaurentCells)
        argv = ["holonomy-check", "--quandle", qf, "--weights", wf, "--perturb", "1000"]
        code, out, seconds = _holonomy_run(argv, capsys)
        assert seconds < 2.0
        if name == "narrow":
            with monkeypatch.context() as m:
                m.setattr(laurent, "PACK_WIDTH_BITS", 10 ** 9)
                assert isinstance(quandle._holonomy_ring(quandle.parse_weights_file(text), ())[0],
                                  laurent.PackedCells)
                assert _holonomy_run(argv, capsys)[:2] == (code, out)
        assert code == 1
        assert out.startswith("holonomy-preserved: false\nperturbations-rejected: 1000/1000\n")


def test_perturb_on_the_empty_quandle_exits_2(tmp_path, capsys):
    empty = _write(tmp_path, "empty.txt", "0\n")
    argv = ["holonomy-check", "--quandle", empty, "--weights", empty]
    assert main(argv + ["--perturb", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --perturb 3 has no entry to perturb on the empty quandle (0 elements)\n")
    assert main(argv + ["--perturb", "0"]) == 0
    assert capsys.readouterr().out == "holonomy-preserved: true\n"
    assert main(["quandle-check", "--quandle", empty]) == 0
    assert capsys.readouterr().out == "valid: true\nsize: 0\n"


def test_negative_perturb_exits_2(tmp_path, capsys):
    q = dihedral_quandle(3)
    qf = _write(tmp_path, "q3.txt", format_quandle(q))
    f = constant_pair(q, parse_laurent("t"), parse_laurent("1 - t"))
    wf = _write(tmp_path, "w.txt", format_weights_file(f_twisted_weights(f, q)))
    empty = _write(tmp_path, "empty.txt", "0\n")
    for args, err in ((["--weights", wf, "--perturb", "-3"], "--perturb"),
                      (["--weights", empty], "weights size 0 does not match quandle size 3")):
        assert main(["holonomy-check", "--quandle", qf] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert err in captured.err


def test_colorings(tmp_path, capsys):
    q = dihedral_quandle(3)
    qf = _write(tmp_path, "q3.txt", format_quandle(q))
    pd = _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)
    assert main(["colorings", "--quandle", qf, "--pd", pd]) == 0
    out = capsys.readouterr().out
    assert "count: 9" in out


def test_colorings_of_a_21_crossing_torus_knot(tmp_path, capsys):
    """T(2,21) has 21 arcs, far past a sweep over p^21 assignments: D_p
    colors it in p^2 ways when p divides 21, and every printed coloring
    satisfies every crossing, out = 2 over - in mod p."""
    code = torus_gauss(21)
    d = parse_gauss(code)
    gf = _write(tmp_path, "t21.gauss", code)
    for p, count in ((3, 9), (7, 49)):
        qf = _write(tmp_path, "d%d.q" % p, format_quandle(dihedral_quandle(p)))
        assert main(["colorings", "--quandle", qf, "--gauss", gf]) == 0
        head, *lines = capsys.readouterr().out.splitlines()
        assert head == "count: %d" % count
        assert len(set(lines)) == len(lines) == count
        for line in lines:
            assert line.startswith("coloring: ")
            colors = {a: int(x) for a, x in (cell.split("=") for cell in line.split()[1:])}
            assert sorted(colors) == sorted(d.arcs)
            for c in d.crossings:
                assert colors[c.under_out] == (2 * colors[c.over] - colors[c.under_in]) % p


def test_export_dot(tmp_path, capsys):
    path = _graph_file(tmp_path)
    assert main(["export-dot", "--graph", path]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_deterministic_output(tmp_path, capsys):
    pd = _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)
    main(["alexander", "--pd", pd, "--route", "both"])
    first = capsys.readouterr().out
    main(["alexander", "--pd", pd, "--route", "both"])
    second = capsys.readouterr().out
    assert first == second


def test_bad_arguments_exit_2(capsys):
    assert main(["alexander"]) == 2
    assert main(["no-such-command"]) == 2


def test_rep_cells_are_constant_laurent_cells(tmp_path, capsys):
    pd = _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)
    for cell in ("1.5", "1e3", "1_000", ".5", "3.", "t", "1 + t^-1"):
        rep = _write(tmp_path, "bad.rep", "all: [[%s]] exp=1\n" % cell)
        assert main(["alexander", "--pd", pd, "--rep", rep]) == 2, cell
        assert capsys.readouterr().out == "", cell
    outs = []
    for cell in ("-1", "\u22121"):
        rep = _write(tmp_path, "neg.rep", "all: [[%s]] exp=1\n" % cell)
        assert main(["alexander", "--pd", pd, "--rep", rep]) == 0, cell
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_graph_verify_has_no_mode_option(tmp_path, capsys):
    path = _graph_file(tmp_path)
    script = _write(tmp_path, "s.gs", "null_add z1 u v\nnull_remove z1\n")
    assert main(["graph-verify", "--graph", path, "--script", script, "--expect", path,
                 "--mode", "exact"]) == 2
    assert capsys.readouterr().out == ""


def test_zero_denominator_is_bad_input(tmp_path, capsys):
    g = _write(tmp_path, "g.wg", "vertex u dim=1\nedge e1 u -> u weight=[[1/0]]\n")
    assert main(["zeta", "--graph", g]) == 2
    pd = _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)
    rep = _write(tmp_path, "bad.rep", "all: [[1/0]] exp=1\n")
    assert main(["alexander", "--pd", pd, "--rep", rep]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cell", ["t^{2", "t^2}", "2*", "1 + 2*", "*t", "+ * t"])
def test_a_malformed_laurent_cell_exits_2(tmp_path, capsys, cell):
    g = _write(tmp_path, "g.wg", "vertex u dim=1\nedge e1 u -> u weight=[[%s]]\n" % cell)
    assert main(["zeta", "--graph", g]) == 2
    assert capsys.readouterr().out == ""


def test_non_ascii_digits_exit_2(tmp_path, capsys):
    # Arabic-Indic digits, which `\d` and `int` would read as 1, 3/4 and the trefoil
    pd = _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)
    cases = [(["zeta", "--graph", "g.wg"], "vertex u dim=1\nedge e1 u -> u weight=[[%s]]\n" % c)
             for c in ("\u0661", "\u0663/\u0664", "t^\u0662")]
    cases += [
        (["zeta", "--graph", "g.wg"], "vertex u dim=\u0661\n"),
        (["alexander", "--gauss", "g.wg"],
         "O\u0661+ U\u0662+ O\u0663+ U\u0661+ O\u0662+ U\u0663+"),
        (["alexander", "--pd", "g.wg"], fixtures.TREFOIL_PD.replace("1", "\u0661")),
        (["alexander", "--pd", pd, "--rep", "g.wg"], "all: [[1]] exp=\u0661\n"),
    ]
    # the integer fields, which `int` would read too: option values, script
    # indices and dimensions, base points and quandle sizes (x@0 is a valid base)
    graph = _write(tmp_path, "one.wg", "vertex u dim=1\nedge e1 u -> u weight=[[2]]\n")
    pres = _write(tmp_path, "p.txt", "gens: x y\nrel: x y  base: y@0\n")
    d3 = dihedral_quandle(3)
    q3_text = format_quandle(d3)
    q3 = _write(tmp_path, "q3.txt", q3_text)
    identity = f_twisted_weights(constant_pair(d3, LaurentPoly({0: 1}), LaurentPoly()), d3)
    weights = _write(tmp_path, "w.txt", format_weights_file(identity))
    noop = _write(tmp_path, "noop.tz", "# no moves\n")
    cases += [
        (["zeta", "--graph", graph, "--check-euler", "--order", "\u0663"], ""),
        (["holonomy-check", "--quandle", q3, "--weights", weights, "--perturb", "\u0663"], ""),
        (["graph-verify", "--graph", graph, "--script", "g.wg", "--expect", graph],
         "insert w \u0663\n"),
        (["tietze-verify", "--pres", pres, "--script", "g.wg", "--expect", pres],
         "invert \u0663\n"),
        (["tietze-verify", "--pres", "g.wg", "--script", noop, "--expect", pres],
         "gens: x y\nrel: x y  base: x@\u0660\n"),
        (["quandle-check", "--quandle", "g.wg"], "\u0663" + q3_text[1:]),
    ]
    for args, text in cases:
        path = _write(tmp_path, "g.wg", text)
        assert main([path if a == "g.wg" else a for a in args]) == 2, text
        assert capsys.readouterr().out == "", text


def _last_json(out: str) -> dict:
    return json.loads(out.splitlines()[-1])


def test_tietze_relation_index_out_of_range(tmp_path, capsys):
    pres = _write(tmp_path, "p.txt", "gens: x y\nrel: x y  base: y@0\n")
    for move in ("invert 5", "invert -1", "multiply 0 1", "conjugate 2 x"):
        script = _write(tmp_path, "s.tz", move + "\n")
        assert main(["tietze-verify", "--pres", pres, "--script", script,
                     "--expect", pres]) == 1, move
        assert _last_json(capsys.readouterr().out)["witness"] == "invalid move"


def test_witness_line_is_json(tmp_path, capsys):
    q3 = _write(tmp_path, "q3.txt", format_quandle(dihedral_quandle(3)))
    pres = _write(tmp_path, "p.txt", "gens: x y\nrel: x y  base: y@0\n")
    quote = _write(tmp_path, "quote.tz", 'add_generator z"q x\n')
    bad_q = _write(tmp_path, "bad.txt", "2\n1 0\n0 1\n")
    d3 = dihedral_quandle(3)
    f = constant_pair(d3, parse_laurent("t"), parse_laurent("1 - t"))
    lines = format_pair_file(f).splitlines()
    lines[4] = ", ".join(["7"] * 3)
    bad_pair = _write(tmp_path, "badpair.txt", "\n".join(lines))
    identity = f_twisted_weights(constant_pair(d3, LaurentPoly({0: 1}), LaurentPoly()), d3)
    bad_w = _write(tmp_path, "w.txt", format_weights_file(
        perturbed(identity, "g1_pos", 0, 1, LaurentPoly({0: 1}))))
    graph = _graph_file(tmp_path)
    bad_gs = _write(tmp_path, "bad.gs", "null_remove e1\n")
    runs = [
        ["tietze-verify", "--pres", pres, "--script", quote, "--expect", pres],
        ["quandle-check", "--quandle", bad_q],
        ["pair-check", "--quandle", q3, "--pair", bad_pair],
        ["holonomy-check", "--quandle", q3, "--weights", bad_w],
        ["graph-verify", "--graph", graph, "--script", bad_gs, "--expect", graph],
    ]
    for argv in runs:
        assert main(argv) == 1, argv
        assert "witness" in _last_json(capsys.readouterr().out), argv
    main(runs[0])
    assert 'z"q' in _last_json(capsys.readouterr().out)["got"]
    main(runs[2])
    assert _last_json(capsys.readouterr().out) == {
        "witness": "alexander pair condition fails", "at": "(cond=1, a=0)"}


def test_tietze_witness_names_the_failing_move(tmp_path, capsys):
    pres = _write(tmp_path, "p.txt", "gens: x y\nrel: x y  base: y@0\n")
    script = _write(tmp_path, "s.tz", "invert 0\nmultiply 0 0\ninvert 0\n")
    assert main(["tietze-verify", "--pres", pres, "--script", script, "--expect", pres]) == 1
    assert _last_json(capsys.readouterr().out) == {
        "witness": "invalid move", "detail": "cannot multiply a relation by itself",
        "failing-step": 1}


def test_stdout_of_every_subcommand(tmp_path, capsys):
    """Whole stdout of one run per subcommand, pinned byte for byte."""
    graph = _graph_file(tmp_path)
    q = dihedral_quandle(3)
    q3 = _write(tmp_path, "q3.txt", format_quandle(q))
    f = constant_pair(q, parse_laurent("t"), parse_laurent("1 - t"))
    lines = format_pair_file(f).splitlines()
    lines[4] = ", ".join(["7"] * 3)
    tietze = "conjugate 1 xj\nmultiply 0 1\nmultiply_inv 0 2\ninvert 2\n" \
             "add_generator y xk xj^-1\nremove_generator y\n"
    steps = "null_add z1 u v\nnull_remove z1\nsplit e1 a=[[t-1]] b=[[1]]\nmerge u v e1\n" \
            "change_basis u [[2]]\ninsert w 1 f w u [[3]]\neliminate w\nhub_resolve e2\n" \
            "hub_unresolve e2 v u [[1/2]] e2*e1:e1 e2*e3:e3\nchange_basis u [[1/2]]\n" \
            "reverse_all\nreverse_all\n"
    runs = [
        (["zeta", "--graph", graph, "--check-euler"], 0,
         "zeta-reciprocal: -1 - t\neuler-agrees: true\n"),
        (["alexander", "--pd", _write(tmp_path, "f8.pd", fixtures.FIGURE_EIGHT_PD),
          "--route", "both"], 0,
         "numerator: 1 - 3*t + t^2\ndenominator: 1 - t\nroutes-agree: true\n"),
        (["alexander", "--pd", _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD),
          "--rep", _write(tmp_path, "one.rep", "all: [[1]] exp=0\n"), "--route", "both"], 0,
         "numerator: 1\ndenominator: 0\ndenominator-vanishes: true\nroutes-agree: true\n"),
        (["tietze-verify",
          "--pres", _write(tmp_path, "p.txt",
                           format_presentation(fixtures.slide_presentation_before())),
          "--script", _write(tmp_path, "s.tz", tietze),
          "--expect", _write(tmp_path, "q.txt",
                             format_presentation(fixtures.slide_presentation_after()))], 1,
         'verified: false\n{"witness": "final presentation differs", "got": '
         '"xi xj xk xi2^-1 xk^-1 xj^-1 xk xj1 xk^-1 xj^-1; xj xi1 xk xi2^-1 xk^-1 xj^-1; '
         'xk xj1 xk^-1 xj^-1"}\n'),
        (["graph-verify", "--graph", graph, "--script", _write(tmp_path, "s.gs", steps),
          "--expect", graph], 0,
         "verified: true\nzeta-left: -1 - t\nzeta-right: -1 - t\n"),
        (["quandle-check", "--quandle", q3], 0, "valid: true\nsize: 3\n"),
        (["pair-check", "--quandle", q3, "--pair", _write(tmp_path, "bad.txt", "\n".join(lines))],
         1, 'valid: false\n{"witness": "alexander pair condition fails", "at": "(cond=1, a=0)"}\n'),
        (["holonomy-check", "--quandle", q3, "--perturb", "3", "--weights",
          _write(tmp_path, "w.txt", format_weights_file(f_twisted_weights(f, q)))], 0,
         "holonomy-preserved: true\nperturbations-rejected: 3/3\n"),
        (["colorings", "--quandle", q3, "--pd", _write(tmp_path, "tre.pd", fixtures.TREFOIL_PD)],
         0, "count: 9\ncoloring: a1=0 a2=0 a3=0\ncoloring: a1=0 a2=1 a3=2\n"
            "coloring: a1=0 a2=2 a3=1\ncoloring: a1=1 a2=0 a3=2\ncoloring: a1=1 a2=1 a3=1\n"
            "coloring: a1=1 a2=2 a3=0\ncoloring: a1=2 a2=0 a3=1\ncoloring: a1=2 a2=1 a3=0\n"
            "coloring: a1=2 a2=2 a3=2\n"),
        (["export-dot", "--graph", graph], 0,
         'digraph G {\n  "u" [label="u"];\n  "v" [label="v"];\n'
         '  "u" -> "v" [label="[[t]]"];\n  "v" -> "u" [label="[[1]]"];\n'
         '  "u" -> "u" [label="[[2]]"];\n}\n'),
    ]
    for argv, code, stdout in runs:
        assert main(argv) == code, argv
        assert capsys.readouterr().out == stdout, argv


def test_insert_dimension_is_read_as_written(tmp_path, capsys):
    graph = _graph_file(tmp_path)
    for script in ("insert w 0 f w u [[3]]\neliminate w\n", "insert w -2\neliminate w\n",
                   # an edge at a dimension-0 vertex would have no text form
                   "insert w 0\nnull_add z w u\nnull_remove z\neliminate w\n"):
        argv = ["graph-verify", "--graph", graph, "--script", _write(tmp_path, "s.gs", script),
                "--expect", graph]
        assert main(argv) == 2, script
        assert capsys.readouterr().out == "", script


# -- the exit-code contract on mutated inputs ------------------------------

_D3 = dihedral_quandle(3)
_D3_PAIR = constant_pair(_D3, parse_laurent("t"), parse_laurent("1 - t"))
_PRES = "gens: x y\nrel: x y x^-1 y^-1  base: x@0\n"
_GRAPH = ("vertex u dim=1\nvertex v dim=1\nedge e1 u -> v weight=[[t]]\n"
          "edge e2 v -> u weight=[[1]]\nedge e3 u -> u weight=[[2]]\n")
# S3 acting on three points: x1, x2, x3 of the trefoil go to the three
# transpositions, a 3-dim rep that satisfies every Wirtinger relation
_S3_REP = ("x1: [[0,1,0],[1,0,0],[0,0,1]] exp=1\nx2: [[1,0,0],[0,0,1],[0,1,0]] exp=1\n"
           "x3: [[0,0,1],[0,1,0],[1,0,0]] exp=1\n")

# input format -> (a valid file, the argv that reads it as {}); the other
# files an argv names are the valid ones written under their own names
_CONTRACT = {
    "graph": (_GRAPH, ["zeta", "--graph", "{}", "--check-euler"]),
    "presentation": (_PRES, ["tietze-verify", "--pres", "{}", "--script", "tietze-script",
                             "--expect", "presentation"]),
    "tietze-script": ("invert 0\nconjugate 0 x y^-1\nconjugate 0 y x^-1\ninvert 0\n",
                      ["tietze-verify", "--pres", "presentation", "--script", "{}",
                       "--expect", "presentation"]),
    "graph-script": ("null_add z1 u v\nnull_remove z1\nsplit e1 a=[[t-1]] b=[[1]]\n"
                     "merge u v e1\nchange_basis u [[2]]\nchange_basis u [[1/2]]\n",
                     ["graph-verify", "--graph", "graph", "--script", "{}", "--expect", "graph"]),
    "quandle": (format_quandle(_D3), ["colorings", "--quandle", "{}", "--pd", "pd"]),
    "pair": (format_pair_file(_D3_PAIR), ["pair-check", "--quandle", "quandle", "--pair", "{}"]),
    "weights": (format_weights_file(f_twisted_weights(_D3_PAIR, _D3)),
                ["holonomy-check", "--quandle", "quandle", "--weights", "{}", "--perturb", "3"]),
    "pd": (fixtures.TREFOIL_PD, ["alexander", "--pd", "{}", "--route", "both"]),
    "gauss": (fixtures.BRAID_SLIDE_GAUSS_BEFORE, ["colorings", "--quandle", "quandle",
                                                  "--gauss", "{}"]),
    "rep": (_S3_REP, ["alexander", "--pd", "pd", "--rep", "{}", "--route", "both"]),
}
_EDIT_CHARS = "0123456789 \n\t+-*/^,.:=@#[]()<>\"'xyzuvetOUX\u00e9"


def _run_argv(directory, argv, text):
    """(exit code, stdout, stderr) of `argv` with `text` as {}, the other
    files it names being the valid ones of `_CONTRACT`."""
    mutated = directory / "mutated"
    mutated.write_text(text)
    argv = [str(mutated) if a == "{}" else str(directory / a) if a in _CONTRACT else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_contract(directory, name, text):
    """(exit code, stdout) of the argv of `name` reading `text`."""
    return _run_argv(directory, _CONTRACT[name][1], text)[:2]


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    for name, (text, _) in _CONTRACT.items():
        (directory / name).write_text(text)
    for name, (text, _) in _CONTRACT.items():
        assert _run_contract(directory, name, text)[0] == 0, name
    return directory


@st.composite
def _mutated_inputs(draw):
    """A valid input with 1-4 one-character inserts, deletes or replacements."""
    name = draw(st.sampled_from(sorted(_CONTRACT)))
    text = _CONTRACT[name][0]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        c = draw(st.sampled_from(_EDIT_CHARS))
        text = text[:i] + ("" if op == "delete" else c) + text[i + (op != "insert"):]
    return name, text


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=_mutated_inputs())
def test_mutated_inputs_keep_the_exit_contract(contract_dir, case):
    """Exit 0, 1 or 2, never a traceback, and exit 1 ends in a JSON line."""
    code, out = _run_contract(contract_dir, *case)
    assert code in (0, 1, 2)
    if code == 1:
        assert isinstance(json.loads(out.splitlines()[-1]), dict)


# a cell of a valid file, and the text that rewrites it with {} as the cell
_ONE_CELL = {
    "graph": ("weight=[[t]]", "weight=[[{}]]"),
    "graph-script": ("a=[[t-1]] b=[[1]]", "a=[[t]] b=[[{}]]"),
    "pair": ("1 - t\n", "{}\n"),
    "weights": ("1 - t\n", "{}\n"),
}


@pytest.mark.parametrize("name", sorted(_ONE_CELL))
def test_an_empty_cell_exits_2(contract_dir, name):
    """A cell written 0 is read as zero; the same cell left empty is bad input."""
    text = _CONTRACT[name][0]
    old, new = _ONE_CELL[name]
    assert old in text
    assert _run_contract(contract_dir, name, text.replace(old, new.format("0"), 1))[0] in (0, 1)
    assert _run_contract(contract_dir, name, text.replace(old, new.format(""), 1)) == (2, "")


# -- each rejection a CLI input can reach, one table per reader -------------

_GRAPH_VERIFY = ["graph-verify", "--graph", "graph", "--script", "{}", "--expect", "graph"]


def _step_rejected(reason):
    return {"witness": "step 0 rejected: " + reason, "failing-step": 0}


# reader -> (argv reading {}, rows of (text, exit code, expected)): on exit 2
# the reason on stderr, on exit 1 the witness line, on exit 0 the stdout
_REJECTIONS = {
    "pd": (["alexander", "--pd", "{}", "--route", "both"], [
        ("X[1,3,2,5] X[3,6,4,1] X[5,2,6,3]", 2, "ambiguous over-strand orientation at X[1,3,2,5]"),
        ("X[1,3,2,4] X[1,4,2,3]", 2, "under-in edges must be distinct"),
        ("X[1,1,2,2]", 2, "edge 1 cannot both end under and over a crossing"),
        ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,1]", 2, "open strands at edges [1, 3]"),
    ]),
    "gauss": (["alexander", "--gauss", "{}", "--route", "both"], [
        ("O1+ U2+ O3+", 2, "a Gauss code needs a positive even number of passes, not 3"),
        ("", 2, "a Gauss code needs a positive even number of passes, not 0"),
        ("O1+ O1+", 2, "crossing 1 needs one O and one U pass"),
        ("unknot", 0, "numerator: 1\ndenominator: 1 - t\nroutes-agree: true\n"),
        # a virtual trefoil: planarity is not checked, and both routes read
        # the group its Wirtinger relations present
        ("O1+ O2+ U1+ U2+", 0, "numerator: 1\ndenominator: 1 - t\nroutes-agree: true\n"),
    ]),
    "presentation": (_CONTRACT["presentation"][1], [
        ("rel: x y\ngens: x y\n", 2, "gens: line must come first"),
        ("# no lines\n", 2, "missing gens: line"),
        ("gens: x y\nrel: x y  base: x\n", 2, "base point must look like name@ordinal"),
        ("gens: x\nrel: x z\n", 2, "unknown generator 'z'"),
        ("gens: x y\nrel: x x^-1\n", 2, "relation 0 is empty"),
        ("gens: x y\nrel: x y  base: x@0\nrel: x y x  base: x@1\n", 2,
         "base map not injective at generator 0"),
    ]),
    "rep": (_CONTRACT["rep"][1], [
        ("# no lines\n", 2, "empty representation file"),
        ("x1: [[1]]\nx2: [[1,0],[0,1]]\nall: [[1]]\n", 2, "inconsistent matrix sizes"),
        ("x1: [[1]]\n", 2, "representation missing generators [1, 2]"),
    ]),
    "quandle": (["quandle-check", "--quandle", "{}"], [
        ("2\n0 5\n1 1\n", 1, {"witness": "table entry 5 out of range", "at": "None"}),
        ("2\n0 0\n0 1\n", 1, {"witness": "right translation by 0 not injective",
                               "at": "(1, 0)"}),
        ("", 2, "empty quandle file"),
    ]),
    "pair": (_CONTRACT["pair"][1], [
        ("3\nt, 1, 1\n1, t, 1\n1, 1, t\n1 - t, 0, 0\n0, 1 - t, 0\n0, 0, 1 - t\n", 1,
         {"witness": "alexander pair condition fails", "at": "(cond=3a, a=0, b=1, c=0)"}),
        ("3\n" + "1 + t, 1 + t, 1 + t\n" * 3 + "-t, -t, -t\n" * 3, 1,
         {"witness": "alexander pair condition fails", "at": "(cond=2, a=0, b=0)"}),
        ("3\nt, t\n" + "t, t, t\n" * 2 + "1 - t, 1 - t, 1 - t\n" * 3, 2,
         "expected 3 comma-separated entries in 't, t'"),
        ("2\nt, t\nt, t\n1 - t, 1 - t\n1 - t, 1 - t\n", 2,
         "pair size 2 does not match quandle size 3"),
    ]),
    "graph-script": (_GRAPH_VERIFY, [(line + "\n", 1, _step_rejected(reason)) for line, reason in [
        ("change_basis w [[1]]", "no vertex 'w'"),
        ("change_basis u [[1,0],[0,1]]", "basis matrix must be 1x1"),
        ("change_basis u [[0]]", "matrix not invertible over the Laurent ring"),
        ("change_basis u [[1+t]]", "matrix not invertible over the Laurent ring"),
        ("null_add z u w", "null edge endpoints missing"),
        ("merge u v", "need at least two parallel edges 'u' -> 'v'"),
        ("split e1 a=[[t]]", "split needs at least two summands"),
        ("eliminate w", "no vertex 'w'"),
        ("eliminate u", "vertex 'u' is neither a source nor a sink"),
        ("insert u 1", "vertex 'u' already exists"),
        ("insert w 1 f1 u w [[1]] f2 w v [[1]]", "inserted vertex must be a source or a sink"),
        ("insert w 1 f u v [[1]]", "inserted edge 'f' must touch the new vertex"),
        ("hub_resolve e3", "hub resolution requires distinct endpoints"),
        ("hub_unresolve h u u [[1]] e3:e3", "hub edge endpoints must differ"),
        ("hub_unresolve h u v [[1]] e1:e1", "pairs must cover the out-edges of 'v' exactly"),
        ("hub_unresolve h u v [[1]] e1:e2", "edge 'e1' does not run 'u' -> 'u'"),
        ("hub_unresolve h u v [[1]] e3:e2", "edge 'e3' is not the hub product for 'e2'"),
    ]]),
}


@pytest.mark.parametrize("reader, text, code, expected", [
    (reader, *row) for reader, (_, rows) in _REJECTIONS.items() for row in rows], ids=[
    "%s-%d" % (reader, k) for reader, (_, rows) in _REJECTIONS.items() for k in range(len(rows))])
def test_each_reachable_rejection_keeps_the_exit_contract(contract_dir, reader, text, code,
                                                         expected):
    """Exit 2 prints nothing and names the reason on stderr; exit 1 ends in
    its witness line and writes nothing to stderr."""
    got, out, err = _run_argv(contract_dir, _REJECTIONS[reader][0], text)
    assert got == code
    if code == 2:
        assert out == "" and err == "error: %s\n" % expected
    elif code == 1:
        assert json.loads(out.splitlines()[-1]) == expected and err == ""
    else:
        assert out == expected and err == ""


# -- a repeated line is bad input in every line format -----------------------

# (format, text read as its `_CONTRACT` argv's {}, the reason on stderr, which
# quotes the line or the name)
_REPEATED_LINES = [
    ("graph", _GRAPH + "vertex u dim=2\n", "duplicate vertex id 'u'"),
    ("graph", _GRAPH + "edge e1 v -> u weight=[[1]]\n", "duplicate edge id 'e1'"),
    # a second gens: line that renames the generators, then one that drops z
    ("presentation", "gens: x y\nrel: x y^-1  base: x@0\ngens: y x\n",
     "second gens: line 'gens: y x': a presentation has exactly one"),
    ("presentation", "gens: x y z\nrel: z x z^-1 y^-1  base: y@0\ngens: x y\n",
     "second gens: line 'gens: x y': a presentation has exactly one"),
    ("rep", "x1: [[1]] exp=5\nx1: [[1]] exp=1\nall: [[1]]\n",
     "x1: is given on two lines of the representation"),
    ("rep", "all: [[1]] exp=2\nall: [[1]]\n", "all: is given on two lines of the representation"),
    ("quandle", "3\n" + _CONTRACT["quandle"][0], "expected 3 rows after the size line '3', got 4"),
    ("pair", "3\n" + _CONTRACT["pair"][0], "expected 6 rows after the size line '3', got 7"),
    ("weights", "3\n" + _CONTRACT["weights"][0], "expected 12 rows after the size line '3', got 13"),
]


@pytest.mark.parametrize("name, text, reason", _REPEATED_LINES,
                         ids=["%s-%d" % (row[0], k) for k, row in enumerate(_REPEATED_LINES)])
def test_a_repeated_line_exits_2_naming_it(contract_dir, name, text, reason):
    """A line that repeats one the format allows once exits 2, prints
    nothing, and gives the one-line reason on stderr, with no traceback."""
    assert _run_argv(contract_dir, _CONTRACT[name][1], text) == (2, "", "error: %s\n" % reason)


# -- one parse per command --------------------------------------------------

# each command on valid files, then the argv that argparse rejects or
# answers itself; "{}" names the format's own valid file
_DISPATCH = [[name if a == "{}" else a for a in argv] for name, (_, argv) in _CONTRACT.items()] + [
    ["quandle-check", "--quandle", "quandle"],
    ["export-dot", "--graph", "graph"],
    ["zeta"],
    ["zeta", "--graph", "graph", "--check-euler", "--order", "x"],
    ["zeta", "--graph", "graph", "--check-euler", "--frobnicate"],
    ["zeta-function", "--graph", "graph"],
    ["--graph", "graph", "zeta"],
    [],
    ["-h"],
    ["zeta", "-h"],
]


@pytest.mark.parametrize("argv", _DISPATCH, ids=lambda argv: " ".join(argv) or "no arguments")
def test_a_command_parses_as_through_the_top_level_parser(contract_dir, monkeypatch, argv):
    """`main` hands what follows a known command to that command's own
    subparser, which the top-level parser calls anyway; with no command map
    every argv takes the top-level route.  Both routes give the same
    namespace, `args.command` included, and the same exit code, stdout and
    stderr, but for an unknown option after a command, which the subparser
    reports under its own name."""
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *a, **k):
        parsed.append(vars(parse_args(self, *a, **k)))
        return argparse.Namespace(**parsed[-1])

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    direct = _run_argv(contract_dir, argv, "")
    ap, _ = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: (ap, {}))
    top = _run_argv(contract_dir, argv, "")
    assert direct[:2] == top[:2]
    # a namespace is recorded when a parse returns, so only with exit 0 or 1
    assert len(parsed) == (2 if direct[0] != 2 and argv[-1] != "-h" else 0)
    if parsed:
        assert parsed[0] == parsed[1] and parsed[0]["command"] == argv[0]
    if "--frobnicate" in argv:
        assert direct[0] == 2
        assert top[2].endswith("\nholozeta: error: unrecognized arguments: --frobnicate\n")
        assert direct[2].endswith("\nholozeta zeta: error: unrecognized arguments: --frobnicate\n")
    else:
        assert direct[2] == top[2]
