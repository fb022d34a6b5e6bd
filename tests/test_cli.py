import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from holozeta.cli import main
from holozeta.knot import parse_gauss
from holozeta.laurent import LaurentPoly, parse_laurent
from holozeta.presentation import format_presentation
from holozeta.quandle import (
    constant_pair,
    dihedral_quandle,
    f_twisted_weights,
    format_pair_file,
    format_quandle,
    format_weights_file,
    holonomy_check,
    identity_weights,
)
from holozeta.wgraph import Edge, WeightedDigraph, format_graph, parse_matrix_literal
from holozeta import fixtures, wgraph

from helpers import torus_gauss


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
    assert main(["zeta", "--graph", path, "--check-euler", "--order", "-1"]) == 2
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


def test_holonomy_check_perturbs_a_failing_base(tmp_path, capsys):
    """Failing weights still get their perturbations counted, and the
    witness is the first failure of the exhaustive check."""
    q = dihedral_quandle(3)
    f = constant_pair(q, parse_laurent("t"), parse_laurent("1 - t"))
    g = f_twisted_weights(f, q).perturbed("g2_neg", 0, 1, LaurentPoly.one())
    assert holonomy_check(q, g).failures == [
        ("B-1", (1, 0), "1 != 0"), ("B-1", (2, 1), "t^-1 != 0"), ("B-2", (0, 1), "1 != 0")]
    argv = ["holonomy-check", "--quandle", _write(tmp_path, "q3.txt", format_quandle(q)),
            "--weights", _write(tmp_path, "w.txt", format_weights_file(g)), "--perturb", "5"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "holonomy-preserved: false\nperturbations-rejected: 5/5\n"
        '{"witness": "condition B-1 fails", "at": "(1, 0)", "detail": "1 != 0"}\n')


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
    assert main(["holonomy-check", "--quandle", qf, "--weights", wf,
                 "--perturb", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--perturb" in captured.err


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
    f = constant_pair(dihedral_quandle(3), parse_laurent("t"), parse_laurent("1 - t"))
    lines = format_pair_file(f).splitlines()
    lines[4] = ", ".join(["7"] * 3)
    bad_pair = _write(tmp_path, "badpair.txt", "\n".join(lines))
    bad_w = _write(tmp_path, "w.txt", format_weights_file(
        identity_weights(3).perturbed("g1_pos", 0, 1, LaurentPoly.one())))
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


def _run_contract(directory, name, text):
    """(exit code, stdout) of the argv of `name` reading `text`."""
    mutated = directory / "mutated"
    mutated.write_text(text)
    argv = [str(mutated) if a == "{}" else str(directory / a) if a in _CONTRACT else a
            for a in _CONTRACT[name][1]]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


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
