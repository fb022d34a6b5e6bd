"""Every job of the benchmark's warm-up and measured decks gives an answer
its check accepts.

`perfbench/checks.py` owns the answer checks and `perfbench/workloads.py`
the decks; a job that the current code gets wrong fails here, before the
benchmark is run.  The checks are first fed wrong answers, which they
must all reject.
"""
import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MODULES = ("laurent", "freegroup", "presentation", "wgraph", "knot", "quandle", "fixtures", "cli")
WORKLOADS = ["knot-alexander", "zeta-euler", "rewrite-color"]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench_path(monkeypatch):
    # the benchmark's modules import their siblings `checks` and `inputs` by name
    monkeypatch.syspath_prepend(PERFBENCH)


def test_checks_reject_wrong_answers(perfbench_path):
    assert _load("checks").self_test() == []


def _check_deck(name, seed, directory, warm):
    hz = {m: importlib.import_module("holozeta." + m) for m in MODULES}
    jobs = _load("workloads").build(name, hz, seed, str(directory), warm=warm)
    assert jobs
    for job in jobs:
        assert job.check(job.run()) is None, job.label


@pytest.mark.parametrize("name", WORKLOADS)
def test_warm_deck_jobs_pass_their_checks(perfbench_path, tmp_path, name):
    _check_deck(name, 401, tmp_path, warm=True)


@pytest.mark.parametrize("seed", [401, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_measured_deck_jobs_pass_their_checks(perfbench_path, tmp_path, name, seed):
    # the measured decks hold the graphs and knots the warm-up decks leave
    # out, such as zeta-euler's dense 2 x 2 loops
    _check_deck(name, seed, tmp_path, warm=False)
