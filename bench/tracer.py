"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of deltalab's modules by
wrappers that record a span (name, start, end, parent span, job id) and a
few counts read from arguments and results.  Every reference to the
original function in every deltalab module is replaced, so calls between
modules are traced too.  Spans stay in memory; `layer_metrics` turns the
spans of one pass into the per-layer metrics and `dump_spans` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name; "Class.method" patches a method
TRACED = {
    ("lp", "simplex_float"): "lp.simplex_float",
    ("lp", "linprog_mixed"): "lp.linprog_mixed",
    ("lp", "simplex_exact"): "lp.simplex_exact",
    ("core", "hull_distance_info"): "core.hull_distance_info",
    ("crosscheck", "crosscheck_characterizations"): "crosscheck.crosscheck_characterizations",
    ("l1", "far_vertices"): "l1.far_vertices",
    ("l1", "is_daugavet_point_l1"): "l1.is_daugavet_point_l1",
    ("ck", "daugavet_witness_ck"): "ck.daugavet_witness_ck",
    ("muntz", "spike_search"): "muntz.spike_search",
    ("muntz", "sup_abs_bb"): "muntz.sup_abs_bb",
    ("muntz", "MuntzPolynomial.sup_enclosure"): "muntz.sup_enclosure",
    ("muntz", "daugavet_witness_muntz"): "muntz.daugavet_witness_muntz",
    ("muntz", "convex_dld2p_decompose_muntz"): "muntz.convex_dld2p_decompose_muntz",
    ("sums", "dirichlet_average_pair"): "sums.dirichlet_average_pair",
    ("sums", "sum_daugavet_construct"): "sums.sum_daugavet_construct",
    ("sums", "has_property_alpha"): "sums.has_property_alpha",
    ("cli", "main"): "cli.main",
}
SERIALIZE = ("num_to_json", "num_from_json", "point_to_json", "point_from_json",
             "ladder_to_json", "ladder_from_json", "parse_ladder_spec",
             "functional_to_json", "functional_from_json", "certificate_to_json")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "lp.simplex_float.calls": ("count", "lower"),
    "lp.simplex_float.self_s": ("s", "lower"),
    "lp.simplex_float.entries": ("count", "lower"),
    "lp.linprog_mixed.calls": ("count", "lower"),
    "lp.linprog_mixed.self_s": ("s", "lower"),
    "lp.simplex_exact.calls": ("count", "lower"),
    "core.hull_distance_info.calls": ("count", "lower"),
    "core.hull_distance_info.self_s": ("s", "lower"),
    "crosscheck.crosscheck_characterizations.calls": ("count", "lower"),
    "crosscheck.crosscheck_characterizations.self_s": ("s", "lower"),
    "crosscheck.candidates": ("count", "lower"),
    "l1.far_vertices.calls": ("count", "lower"),
    "l1.far_vertices.self_s": ("s", "lower"),
    "l1.is_daugavet_point_l1.calls": ("count", "lower"),
    "l1.is_daugavet_point_l1.self_s": ("s", "lower"),
    "ck.daugavet_witness_ck.calls": ("count", "lower"),
    "ck.daugavet_witness_ck.self_s": ("s", "lower"),
    "ck.daugavet_witness_ck.members": ("count", "lower"),
    "muntz.spike_search.calls": ("count", "lower"),
    "muntz.spike_search.distinct": ("count", "lower"),
    "muntz.spike_search.self_s": ("s", "lower"),
    "muntz.sup_abs_bb.calls": ("count", "lower"),
    "muntz.sup_abs_bb.self_s": ("s", "lower"),
    "muntz.daugavet_witness_muntz.calls": ("count", "lower"),
    "muntz.daugavet_witness_muntz.self_s": ("s", "lower"),
    "muntz.sup_enclosure.calls": ("count", "lower"),
    "muntz.sup_enclosure.root_path": ("count", "higher"),
    "muntz.sup_enclosure.self_s": ("s", "lower"),
    "muntz.convex_dld2p_decompose_muntz.calls": ("count", "lower"),
    "muntz.convex_dld2p_decompose_muntz.self_s": ("s", "lower"),
    "sums.dirichlet_average_pair.calls": ("count", "lower"),
    "sums.dirichlet_average_pair.scan_n": ("count", "lower"),
    "sums.dirichlet_average_pair.self_s": ("s", "lower"),
    "sums.sum_daugavet_construct.self_s": ("s", "lower"),
    "sums.members": ("count", "lower"),
    "sums.has_property_alpha.calls": ("count", "lower"),
    "sums.has_property_alpha.self_s": ("s", "lower"),
    "serialize.self_s": ("s", "lower"),
    "serialize.point_to_json.calls": ("count", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
}


def _entries(args, kwargs, result, tracer):
    a = args[1] if len(args) > 1 else kwargs["A"]
    shape = getattr(a, "shape", None)
    rows, cols = shape if shape is not None else (len(a), len(a[0]) if len(a) else 0)
    tracer.counts["lp.simplex_float.entries"] += rows * cols


def _candidates(args, kwargs, result, tracer):
    tracer.counts["crosscheck.candidates"] += sum(r.n_candidates for r in result.rows)


def _ck_members(args, kwargs, result, tracer):
    tracer.counts["ck.daugavet_witness_ck.members"] += len(result.members)


def _scan_n(args, kwargs, result, tracer):
    tracer.counts["sums.dirichlet_average_pair.scan_n"] += result[0]


def _sum_members(args, kwargs, result, tracer):
    tracer.counts["sums.members"] += sum(r.count for r in result)


HOOKS = {
    "lp.simplex_float": _entries,
    "crosscheck.crosscheck_characterizations": _candidates,
    "ck.daugavet_witness_ck": _ck_members,
    "sums.dirichlet_average_pair": _scan_n,
    "sums.sum_daugavet_construct": _sum_members,
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, job]
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.spike_args = set()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, self)
            return result

        if name == "muntz.spike_search":
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def spike(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                self.spike_args.add((a["ladder"].name, float(a["eps"]),
                                     float(a["delta"]), float(a["norm_tol"])))
                return traced(*args, **kwargs)
            return spike
        return traced

    def install(self):
        """Wrap the traced functions in every loaded deltalab module."""
        import deltalab

        modules = [m for n, m in sys.modules.items()
                   if n == "deltalab" or n.startswith("deltalab.")]
        targets = [(mod, attr, name) for (mod, attr), name in TRACED.items()]
        targets += [("serialize", attr, f"serialize.{attr}") for attr in SERIALIZE]
        for mod, attr, name in targets:
            owner = getattr(deltalab, mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.spike_args.clear()

    def layer_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        has_bb_child = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "muntz.sup_abs_bb":
                    has_bb_child[parent] = True
        calls, self_s = Counter(), Counter()
        root_path = 0
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            own = end - start - child_time[i]
            self_s[name] += own
            if name.startswith("serialize."):
                self_s["serialize"] += own
            if name == "muntz.sup_enclosure" and not has_bb_child[i]:
                root_path += 1
        out = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer]
            elif kind == "self_s":
                out[metric] = self_s[layer]
            else:
                out[metric] = self.counts[metric]
        out["muntz.sup_enclosure.root_path"] = root_path
        out["muntz.spike_search.distinct"] = len(self.spike_args)
        return out


def dump_spans(path, spans, meta):
    """Write the spans of every pass, one row [name, start, end, parent, job]
    per span; parent indexes the same pass's rows, -1 for none."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "job"],
                   "spans": spans}, fh)
