"""Span tracing of fcl's layers from outside the package.

``Tracer.install`` replaces, in every fcl module, each public function (and
each name another module bound to it with ``from .x import y``) and the
arithmetic methods of ``LaurentPoly`` and ``TruncatedSeries`` by a wrapper.
A wrapper counts the call; when the call crosses from one layer into another
it also records a span (job, layer, parent span, start, end).  Calls inside
the same layer only count, so every span's children belong to other layers
and a layer's self time is its span time minus its child spans.

Spans stay in memory (flat arrays) and are written to a file once, by
``Tracer.write`` at the end of the run; ``read_spans``/``self_times`` turn
that file into per-layer self time.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("qseries", "partitions", "fock", "crystal", "canonical", "paths", "branching", "specht",
          "cli")

# Methods whose calls make qseries.laurent_ops / qseries.series_ops.
ARITHMETIC = {
    "LaurentPoly": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
                    "shifted", "bar", "exact_div"),
    "TruncatedSeries": ("__add__", "__sub__", "__mul__", "__rmul__", "shifted", "truncate"),
}

_ARRAYS = (("job", "i"), ("layer", "b"), ("parent", "i"), ("start", "d"), ("end", "d"))


def modules():
    """The fcl modules that form the layers, keyed by layer name."""
    return {name: importlib.import_module(f"fcl.{name}") for name in LAYERS}


def lru_caches(mods) -> list[tuple[str, str, object]]:
    """(layer, name, function) for every lru_cache-decorated function."""
    return [
        (layer, name, obj)
        for layer, mod in mods.items()
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__
    ]


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if callable(obj) and not isinstance(obj, type):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = {key: array(code) for key, code in _ARRAYS}
        self.calls: Counter[str] = Counter()  # "layer.function" -> calls
        self.counters: Counter[str] = Counter()
        self.job = -1
        self._stack = [-1]  # open span indices; -1 is "outside fcl"
        self._layer = [-1]  # layer index of the innermost open span

    # -- wrapping --------------------------------------------------------

    def _wrap(self, li: int, qualname: str, fn, on_result=None):
        calls, stack, layer = self.calls, self._stack, self._layer
        job, lay, parent, start, end = (self.spans[k] for k, _ in _ARRAYS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            if layer[-1] == li:
                result = fn(*args, **kwargs)
            else:
                idx = len(start)
                job.append(self.job)
                lay.append(li)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                layer.append(li)
                start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = perf_counter()
                    stack.pop()
                    layer.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _result_hooks(self, mods):
        """Counters derived from results, keyed by "layer.function"."""
        c = self.counters
        fock_vector = mods["fock"].FockVector

        def fock_terms(args, result):
            if isinstance(result, fock_vector):
                c["fock.terms_out"] += len(result.terms)

        def built(fn, count):
            # count only calls that missed the function's lru cache
            seen = [fn.cache_info().misses]

            def hook(args, result):
                misses = fn.cache_info().misses
                if misses != seen[0]:
                    seen[0] = misses
                    count(result)
            return hook

        def columns(result):
            c["canonical.columns"] += len(result)

        def matrix(result):
            dim = len(result)
            c["specht.basis_dim"] += dim
            c["specht.dense_entries"] += dim * dim
            c["specht.matrix_nonzeros"] += sum(not e.is_zero() for row in result for e in row)

        def visited(args, result):
            c["paths.partitions_visited"] += len(result)

        hooks = {f"fock.{name}": fock_terms for name, _ in _public_functions(mods["fock"])}
        hooks["canonical.global_basis_vectors"] = built(
            mods["canonical"].global_basis_vectors, columns)
        hooks["specht.rep_matrix"] = built(mods["specht"].rep_matrix, matrix)
        hooks["paths.js_partitions_upto"] = visited
        return hooks

    def install(self) -> None:
        """Wrap every layer's public functions and qseries arithmetic, in place."""
        mods = modules()
        hooks = self._result_hooks(mods)
        wrappers: dict[int, object] = {}
        for li, (layer, mod) in enumerate(mods.items()):
            for name, fn in _public_functions(mod):
                qualname = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(li, qualname, fn, hooks.get(qualname))
        # rebind every global that names a wrapped function: the defining
        # module's own name and each ``from .x import y`` copy
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        qseries = mods["qseries"]
        li = LAYERS.index("qseries")
        for cls_name, methods in ARITHMETIC.items():
            cls = getattr(qseries, cls_name)
            for meth in methods:
                setattr(cls, meth, self._wrap(li, f"qseries.{cls_name}.{meth}", vars(cls)[meth]))

    # -- output ----------------------------------------------------------

    def write(self, path) -> int:
        """Write the spans to ``path``; returns the span count."""
        n = len(self.spans["start"])
        with open(path, "wb") as f:
            f.write((json.dumps({"layers": LAYERS, "count": n}) + "\n").encode())
            for key, _ in _ARRAYS:
                self.spans[key].tofile(f)
        return n


def read_spans(path) -> tuple[tuple[str, ...], dict[str, array]]:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        spans = {}
        for key, code in _ARRAYS:
            spans[key] = array(code)
            spans[key].fromfile(f, header["count"])
    return tuple(header["layers"]), spans


def self_times(layers, spans) -> dict[str, float]:
    """Per-layer span time minus the time of the layer's child spans."""
    out = [0.0] * len(layers)
    lay, parent = spans["layer"], spans["parent"]
    for i, (t0, t1) in enumerate(zip(spans["start"], spans["end"])):
        d = t1 - t0
        out[lay[i]] += d
        if parent[i] >= 0:
            out[lay[parent[i]]] -= d
    return dict(zip(layers, out))
