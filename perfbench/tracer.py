"""Outside-in tracing of the fnovikov layers.

`installed(tracer)` swaps every public function and method of the layer
modules for a wrapper that records one span per call, and puts the
originals back on exit. Nothing under src/ changes: the wrappers exist
only inside the `with` block of the process that traces.

A span records its name, start, end, parent span and the request (op
index) it belongs to; spans stay in memory until the report is taken. A
span's self time is its duration minus the durations of its child spans.
Calls that cross into another layer all pass through a wrapper, so the
self times of one layer's spans are the time spent in that layer's code,
scalar arithmetic included. An operator (a dunder such as Mat.__mul__ or
Poly.__sub__) gets a span only when it is called from another layer: the
arithmetic a layer does on its own types, such as generic_rank's polynomial
products, stays in the self time of the function that does it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("exactlin", "algebra", "forms", "canon", "classify", "fileio", "cli")
# Operators and constructors that carry real work across layers; other
# dunders (__bool__, __hash__, __repr__) are too cheap to be worth a span.
WRAPPED_DUNDERS = {"__init__", "__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__eq__"}

# The per-layer metrics reported for every workload, besides each layer's self_s.
NAMED = {
    "exactlin": ("generic_rank", "poly_divexact", "Mat.__mul__", "rank", "det",
                 "kernel_basis", "inverse", "congruent_diagonalize", "find_generic_point"),
    "algebra": ("check_left_symmetric", "check_fermionic", "check_novikov",
                "Algebra.right_op", "Algebra.derived_dim"),
    "forms": ("invariant_form_space", "find_nondegenerate", "is_invariant", "normalize_orientation"),
    "canon": ("theorem_check", "max_rank_element", "canonical_basis", "verify_structure"),
    "classify": ("generate_corpus", "scramble"),
    "fileio": ("parse",),
    "cli": ("main",),
}
# Functions whose inclusive time is also reported, whole and split by the
# dimension of the op's input: the per-stage wall times of the pipeline.
STAGES = ("canon.theorem_check", "canon.max_rank_element", "canon.canonical_basis",
          "canon.verify_structure", "forms.find_nondegenerate", "exactlin.generic_rank",
          "cli.main")


class Tracer:
    """Span store for one traced phase."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self._ids = {}
        self.calls = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.request_id = -1
        self.maxima = defaultdict(int)
        self.counts = defaultdict(int)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".")[0])
            self.calls.append(0)
        return self._ids[name]

    def current_layer(self):
        return self.layer_of[self.name[self._open[-1]]] if self._open else None

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._open.pop()


def _coeff_bits(rep):
    values = [*rep.x0, *rep.pair_weights, *rep.complement_diag]
    values += [x for row in rep.P.data for x in row]
    values += [x for D in rep.d_forms for row in D.data for x in row]
    return max((max(q.numerator.bit_length(), q.denominator.bit_length()) for q in values), default=0)


def _observe_generic_rank(tracer, args, result):
    tracer.maxima["exactlin.generic_rank.nvars_max"] = max(
        tracer.maxima["exactlin.generic_rank.nvars_max"], args[0].nvars)


def _observe_find_nondegenerate(tracer, args, result):
    tracer.counts["forms.find_nondegenerate.found"] += result is not None


def _observe_invariant_form_space(tracer, args, result):
    tracer.maxima["forms.invariant_form_space.dim_max"] = max(
        tracer.maxima["forms.invariant_form_space.dim_max"], len(result))


def _observe_canonical_basis(tracer, args, result):
    tracer.maxima["canon.coeff_bits_max"] = max(tracer.maxima["canon.coeff_bits_max"], _coeff_bits(result))


OBSERVERS = {
    "exactlin.generic_rank": _observe_generic_rank,
    "forms.find_nondegenerate": _observe_find_nondegenerate,
    "forms.invariant_form_space": _observe_invariant_form_space,
    "canon.canonical_basis": _observe_canonical_basis,
}


def _wrap(tracer, name, fn):
    nid = tracer.name_id(name)
    if inspect.isgeneratorfunction(fn):
        # one span per resumption, so time the consumer spends between
        # items is not charged to the generator
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            tracer.calls[nid] += 1
            it = fn(*args, **kwargs)
            while True:
                span = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item

        return traced_generator
    observe = OBSERVERS.get(name)
    layer = tracer.layer_of[nid]
    operator = fn.__name__.startswith("__")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if operator and tracer.current_layer() == layer:
            return fn(*args, **kwargs)
        tracer.calls[nid] += 1
        span = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return traced


def _targets():
    """(owner, attribute, raw value, function, span name) for every public
    function of the layer modules and every public method of their classes."""
    for layer in LAYERS:
        module = importlib.import_module(f"fnovikov.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, attr, obj, obj, f"{layer}.{attr}"
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for mname, raw in vars(obj).items():
                    if mname.startswith("_") and mname not in WRAPPED_DUNDERS:
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        yield obj, mname, raw, fn, f"{layer}.{attr}.{mname}"


@contextlib.contextmanager
def installed(tracer):
    """Trace every call into the layers while the block runs."""
    namespaces = [importlib.import_module("fnovikov")]
    namespaces += [importlib.import_module(f"fnovikov.{layer}") for layer in LAYERS]
    undo = []
    try:
        for owner, attr, raw, fn, name in list(_targets()):
            wrapped = _wrap(tracer, name, fn)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            if inspect.isclass(owner):
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            # a function is also bound by name in every module that imported it
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        undo.append((ns, key, value))
                        setattr(ns, key, wrapped)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def report(tracer, wall, dims, prefix=""):
    """Per-layer metrics of one traced phase, as {name: (value, unit)}.

    wall is the phase's wall time; dims maps a request id to the dimension
    of its op's input, for the per-dimension stage split.
    """
    n = len(tracer.name)
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    self_time = list(duration)
    outermost = [True] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            self_time[p] -= duration[i]
        while p >= 0:
            if tracer.name[p] == tracer.name[i]:
                outermost[i] = False
                break
            p = tracer.parent[p]
    by_name = defaultdict(float)
    total = defaultdict(float)
    by_dim = defaultdict(float)
    attempts = 0
    root_time = 0.0
    for i in range(n):
        name = tracer.names[tracer.name[i]]
        by_name[name] += self_time[i]
        if outermost[i]:
            total[name] += duration[i]
            if tracer.request[i] in dims and name in STAGES:
                by_dim[f"{name}.total_s.dim{dims[tracer.request[i]]}"] += duration[i]
        p = tracer.parent[i]
        if p < 0:
            root_time += duration[i]
        elif name == "exactlin.rank" and tracer.names[tracer.name[p]] == "exactlin.find_generic_point":
            attempts += 1
    calls = {name: tracer.calls[nid] for nid, name in enumerate(tracer.names)}

    out = {}
    layer_self = 0.0
    for layer in LAYERS:
        value = sum(v for k, v in by_name.items() if k.startswith(layer + "."))
        layer_self += value
        out[f"{layer}.self_s"] = (value, "s")
        for fn in NAMED[layer]:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (by_name.get(name, 0.0), "s")
            if name in STAGES:
                out[f"{name}.total_s"] = (total.get(name, 0.0), "s")
    for key, value in sorted(by_dim.items()):
        out[key] = (value, "s")
    out["exactlin.generic_rank.nvars_max"] = (tracer.maxima["exactlin.generic_rank.nvars_max"], "count")
    out["exactlin.find_generic_point.attempts"] = (attempts, "count")
    nondegenerate_calls = calls.get("forms.find_nondegenerate", 0)
    out["forms.find_nondegenerate.found_ratio"] = (
        tracer.counts["forms.find_nondegenerate.found"] / nondegenerate_calls if nondegenerate_calls else 0.0,
        "ratio",
    )
    out["forms.invariant_form_space.dim_max"] = (tracer.maxima["forms.invariant_form_space.dim_max"], "count")
    out["canon.coeff_bits_max"] = (tracer.maxima["canon.coeff_bits_max"], "bits")
    residual = wall - root_time
    out["trace.residual_s"] = (residual, "s")
    out["trace.accounting_error_s"] = (layer_self + residual - wall, "s")
    return {prefix + k: v for k, v in out.items()}
