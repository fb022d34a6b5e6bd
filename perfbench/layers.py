"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions and methods of holozeta with
timing wrappers, in every module that binds them, and `restore()` puts
the originals back.  Ring operations, which run millions of times, only
bump aggregated counters; the layer-boundary functions also leave a span
(name, start, end, parent, job) in memory, written out at the end.
Self time is a call's duration minus the time of wrapped calls inside it.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute path, stat name, records a span)
TARGETS = (
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", False),
    ("laurent", "LaurentPoly.__add__", "laurent.add", False),
    ("laurent", "LaurentPoly.__sub__", "laurent.add", False),
    ("laurent", "LaurentPoly.divexact", "laurent.divexact", False),
    ("laurent", "PolyMatrix.__mul__", "laurent.matmul", False),
    ("laurent", "PolyMatrix.det", "laurent.det", True),
    ("laurent", "PolyMatrix.det_bareiss", "laurent.det_bareiss", False),
    ("laurent", "PolyMatrix.det_cofactor", "laurent.det_cofactor", False),
    ("laurent", "TruncatedSeries.__mul__", "laurent.series_mul", False),
    ("laurent", "TruncatedSeries.exp", "laurent.series_exp", True),
    ("laurent", "series_det_inverse", "laurent.series_det_inverse", True),
    ("freegroup", "fox_derivative", "freegroup.fox_derivative", False),
    ("freegroup", "apply_phi", "freegroup.apply_phi", False),
    ("presentation", "check_assumption", "presentation.check_assumption", True),
    ("presentation", "build_group_weighted_graph", "presentation.build_graph", True),
    ("presentation", "tietze_apply", "presentation.tietze_apply", True),
    ("wgraph", "cycle_classes", "wgraph.cycle_classes", True),
    ("wgraph", "euler_product_oracle", "wgraph.euler_oracle", True),
    ("wgraph", "adjacency_matrix", "wgraph.adjacency", True),
    ("wgraph", "zeta_reciprocal", "wgraph.zeta_reciprocal", True),
    ("wgraph", "apply_step", "wgraph.apply_step", True),
    ("wgraph", "verify_equivalence", "wgraph.verify_equivalence", True),
    ("knot", "parse_pd", "knot.parse", True),
    ("knot", "parse_gauss", "knot.parse", True),
    ("knot", "wirtinger_presentation", "knot.wirtinger", True),
    ("knot", "fox_matrix", "knot.fox_matrix", True),
    ("knot", "twisted_alexander", "knot.alexander", True),
    ("knot", "reidemeister_apply", "knot.reidemeister_apply", True),
    ("quandle", "enumerate_colorings", "quandle.enumerate_colorings", True),
    ("quandle", "holonomy_check", "quandle.holonomy_check", True),
    ("cli", "main", "cli", True),
)

# (metric name, unit) in the order BENCHMARK.json lists them
METRICS = (
    ("laurent.mul.calls", "count"), ("laurent.mul.s", "s"),
    ("laurent.add.calls", "count"), ("laurent.add.s", "s"),
    ("laurent.divexact.calls", "count"), ("laurent.divexact.s", "s"),
    ("laurent.det.calls", "count"), ("laurent.det.s", "s"), ("laurent.det.self_s", "s"),
    ("laurent.det_bareiss.calls", "count"), ("laurent.det_cofactor.calls", "count"),
    ("laurent.det.max_n", "rows"), ("laurent.det.max_deg_span", "degree"),
    ("laurent.det.max_coeff_bits", "bits"),
    ("laurent.matmul.calls", "count"), ("laurent.matmul.s", "s"), ("laurent.matmul.self_s", "s"),
    ("laurent.series_mul.calls", "count"), ("laurent.series_mul.s", "s"),
    ("laurent.series_exp.calls", "count"), ("laurent.series_exp.s", "s"),
    ("laurent.series_det_inverse.s", "s"),
    ("freegroup.fox_derivative.calls", "count"), ("freegroup.fox_derivative.s", "s"),
    ("freegroup.apply_phi.calls", "count"), ("freegroup.apply_phi.s", "s"),
    ("freegroup.apply_phi.terms", "count"),
    ("presentation.check_assumption.s", "s"), ("presentation.build_graph.s", "s"),
    ("presentation.tietze_apply.calls", "count"), ("presentation.tietze_apply.s", "s"),
    ("wgraph.cycle_classes.calls", "count"), ("wgraph.cycle_classes.s", "s"),
    ("wgraph.cycle_classes.found", "count"), ("wgraph.prime_ratio", "ratio"),
    ("wgraph.euler_oracle.s", "s"), ("wgraph.euler_oracle.self_s", "s"),
    ("wgraph.adjacency.s", "s"),
    ("wgraph.zeta_reciprocal.calls", "count"), ("wgraph.zeta_reciprocal.s", "s"),
    ("wgraph.apply_step.calls", "count"), ("wgraph.apply_step.s", "s"),
    ("wgraph.verify_equivalence.s", "s"),
    ("knot.parse.s", "s"), ("knot.wirtinger.s", "s"), ("knot.fox_matrix.s", "s"),
    ("knot.alexander_graph.s", "s"), ("knot.alexander_direct.s", "s"),
    ("knot.reidemeister_apply.calls", "count"), ("knot.reidemeister_apply.s", "s"),
    ("quandle.enumerate_colorings.calls", "count"), ("quandle.enumerate_colorings.s", "s"),
    ("quandle.colorings_found", "count"),
    ("quandle.holonomy_check.calls", "count"), ("quandle.holonomy_check.s", "s"),
    ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("bench.trace_overhead", "ratio"),
)


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


def _coeff_bits(p) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)


class Tracer:
    def __init__(self):
        self.stats = {}
        self.extra = {"apply_phi.terms": 0, "cycles.found": 0, "cycles.prime": 0,
                      "colorings.found": 0, "stdout_bytes": 0}
        self.spans = []  # (id, parent id, job, name, start, end)
        self.sizes = {}  # job label -> [det s, max n, max deg span, max coeff bits]
        self.job = None
        self._frames = [[None, 0.0]]  # [span id, child seconds]
        self._next_id = 0
        self._patched = []
        self.bindings = {}  # stat name -> the names it was patched under

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, fn, name: str, span: bool):
        tracer = self
        frames = self._frames
        post = {"freegroup.apply_phi": self._after_apply_phi,
                "wgraph.cycle_classes": self._after_cycle_classes,
                "quandle.enumerate_colorings": self._after_enumerate_colorings,
                "laurent.det": self._after_det}.get(name)
        stat = self.stat(name)
        by_route = name == "knot.alexander"

        def wrapper(*args, **kwargs):
            s = stat
            if by_route:
                route = kwargs.get("route", args[2] if len(args) > 2 else "graph")
                s = tracer.stat("knot.alexander_" + route)
            if s.depth:  # recursion: only the outermost call counts
                return fn(*args, **kwargs)
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = frames[-1][0]
            frames.append([sid, 0.0])
            s.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                s.depth -= 1
                _, child = frames.pop()
                frames[-1][1] += t1 - t0
                s.calls += 1
                s.s += t1 - t0
                s.self_s += t1 - t0 - child
                if span:
                    tracer.spans.append((sid, frames[-1][0], tracer.job, name, t0, t1))
            if post is not None:
                post(args, result, t1 - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # per-call extras: sizes of arguments and results
    def _after_apply_phi(self, args, result, dt):
        self.extra["apply_phi.terms"] += len(args[0].terms)

    def _after_cycle_classes(self, args, result, dt):
        self.extra["cycles.found"] += len(result)
        self.extra["cycles.prime"] += sum(1 for c in result if c.prime)

    def _after_enumerate_colorings(self, args, result, dt):
        self.extra["colorings.found"] += len(result)

    def _after_det(self, args, result, dt):
        span = max(result.terms) - min(result.terms) if result.terms else 0
        row = self.sizes.setdefault(self.job, [0.0, 0, 0, 0])
        row[0] += dt
        row[1:] = [max(row[1], args[0].rows), max(row[2], span), max(row[3], _coeff_bits(result))]

    def install(self):
        """Wrap every binding of each target in the loaded holozeta modules."""
        mods = {name.split(".")[-1]: mod for name, mod in list(sys.modules.items())
                if name == "holozeta" or name.startswith("holozeta.")}
        for modname, path, stat, span in TARGETS:
            owner = mods[modname]
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            original = owner.__dict__[parts[-1]]
            wrapper = self._wrap(original, stat, span)
            if len(parts) > 1:  # a method: the class attribute is the only binding
                self._patch(owner, parts[-1], wrapper, stat, "holozeta.%s.%s" % (modname, path))
                continue
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper, stat, mod.__name__ + "." + attr)

    def _patch(self, owner, attr, value, stat, where):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
        self.bindings.setdefault(stat, []).append(where)

    def restore(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def metrics(self, overhead: float) -> dict:
        out = {}
        for name, s in self.stats.items():
            out[name + ".calls"] = s.calls
            out[name + ".s"] = s.s
            out[name + ".self_s"] = s.self_s
        x = self.extra
        rows = self.sizes.values()
        out.update({
            "freegroup.apply_phi.terms": x["apply_phi.terms"],
            "wgraph.cycle_classes.found": x["cycles.found"],
            "wgraph.prime_ratio": x["cycles.prime"] / x["cycles.found"] if x["cycles.found"] else 0.0,
            "quandle.colorings_found": x["colorings.found"],
            "laurent.det.max_n": max((r[1] for r in rows), default=0),
            "laurent.det.max_deg_span": max((r[2] for r in rows), default=0),
            "laurent.det.max_coeff_bits": max((r[3] for r in rows), default=0),
            "cli.stdout_bytes": x["stdout_bytes"],
            "bench.trace_overhead": overhead,
        })
        return {name: {"value": out.get(name, 0), "unit": unit} for name, unit in METRICS}

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": t0, "end": t1}) + "\n")
