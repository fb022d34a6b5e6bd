"""The benchmark's per-layer tracer finds every holozeta binding it wraps.

`perfbench/layers.py` patches functions and methods by name, looking each
one up in its owner's `__dict__`; a rename in `holozeta` would otherwise
only show up as a `KeyError` in `perfbench/run.py --trace 1`.
"""
import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_layers():
    path = os.path.join(ROOT, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    layers = _load_layers()
    assert layers.TARGETS
    for modname, path, stat, _ in layers.TARGETS:
        owner = importlib.import_module("holozeta." + modname)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        assert parts[-1] in owner.__dict__, "%s: holozeta.%s.%s is gone" % (stat, modname, path)
        assert callable(owner.__dict__[parts[-1]]), "%s: %s.%s" % (stat, modname, path)
