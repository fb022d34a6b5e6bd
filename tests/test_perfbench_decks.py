"""Every job of the benchmark's warm-up decks gives an answer its check accepts.

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


@pytest.mark.parametrize("name", ["knot-alexander", "zeta-euler", "rewrite-color"])
def test_warm_deck_jobs_pass_their_checks(perfbench_path, tmp_path, name):
    hz = {m: importlib.import_module("holozeta." + m) for m in MODULES}
    jobs = _load("workloads").build(name, hz, 401, str(tmp_path), warm=True)
    assert jobs
    for job in jobs:
        assert job.check(job.run()) is None, job.label
