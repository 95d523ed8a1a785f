"""Span tracing of rainbowcheck's layers, installed from outside the package.

`Tracer.install` replaces the public functions of each rainbowcheck module,
plus the `SimplicialComplex` constructor and the CLI's JSON writer, with
wrappers that record one span per call: name, start, end, parent span and
job id, and for matrix layers the nonzeros handled. Every module binding
of a function is replaced (including `from .x import f` copies), so calls
between modules are traced too. Spans stay in memory until `dump`.

`layer_metrics` turns spans into the per-layer metrics: calls, self time
(span time minus the time of its child spans), nonzeros and the
`reduced_betti` cache-hit ratio.
"""

from __future__ import annotations

import functools
import json
import time

MODULES = ("complexes", "homology", "chromatic", "subdivision", "generators", "cli")

# Per-element helpers called millions of times inside a layer; a span each
# would measure the tracer, not the layer.
SKIP = {"subdivision.barycenter_label"}

# Layer names reported as per-layer metrics, with the figures each has.
LAYER_FIGURES = {
    "complexes.SimplicialComplex": ("calls", "self_s"),
    "complexes.induced_subcomplex": ("calls", "self_s"),
    "complexes.pseudomanifold_report": ("self_s",),
    "homology.boundary_matrices": ("calls", "self_s", "nnz"),
    "homology.field_rank.gf": ("calls", "self_s"),
    "homology.field_rank.q": ("calls", "self_s"),
    "homology.reduced_betti": ("calls", "self_s"),
    "homology.relative_betti": ("calls", "self_s"),
    "chromatic.chromatic_subcomplex": ("calls", "self_s"),
    "chromatic.check_meshulam": ("self_s",),
    "chromatic.check_theorem": ("self_s",),
    "chromatic.alexander_duality_audit": ("self_s",),
    "chromatic.rainbow_simplices": ("self_s",),
    "subdivision.barycentric_subdivision": ("calls", "self_s"),
    "generators.sperner_instance": ("self_s",),
    "cli.parse_instance": ("self_s",),
    "cli.write": ("self_s",),
    "cli.main": ("self_s",),
}


def _nnz(matrix):
    entries = getattr(matrix, "entries", None)
    return len(entries) if entries is not None else None


def _field_rank_name(args, kwargs):
    field = args[1] if len(args) > 1 else kwargs.get("F")
    return "homology.field_rank." + ("q" if field.is_rational else "gf")


def _field_rank_extra(args, kwargs, result):
    matrix = args[0] if args else kwargs.get("M")
    return {"nnz": _nnz(matrix)}


def _boundary_extra(args, kwargs, result):
    counts = [_nnz(m) for m in getattr(result, "boundaries", {}).values()]
    return {"nnz": sum(counts) if None not in counts else None}


def _betti_extra(args, kwargs, result):
    complex_ = args[0] if args else kwargs.get("K")
    return {"empty": complex_.is_empty}


# name -> (function giving the span name from the arguments, or None;
#          function giving the span's extra figures, or None)
SPECIAL = {
    "homology.field_rank": (_field_rank_name, _field_rank_extra),
    "homology.boundary_matrices": (None, _boundary_extra),
    "homology.reduced_betti": (None, _betti_extra),
}


class Tracer:
    """Span recorder for one process. A span is the list
    [name, start, end, parent index or -1, job id, extra dict or None]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = "setup"

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        namer, extra = SPECIAL.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span_name = namer(args, kwargs) if namer else name
            span = [span_name, time.perf_counter(), None, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if extra:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of the package's modules in place, in
        the package's namespace and in every module that imported them."""
        modules = [getattr(package, m) for m in MODULES]
        replace = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                replace[id(obj)] = self.wrap(name, obj)
        cls = package.complexes.SimplicialComplex
        cls.__init__ = self.wrap("complexes.SimplicialComplex", cls.__init__)
        writer = getattr(package.cli, "_write_json", None)
        if writer is not None:
            replace[id(writer)] = self.wrap("cli.write", writer)
        namespaces = [package] + [
            mod for mod in vars(package).values() if getattr(mod, "__name__", "").startswith(package.__name__ + ".")
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans):
    """Per-layer metrics of a span list: for each layer in LAYER_FIGURES,
    `<layer>.<figure>`, plus `homology.field_rank.nnz` and
    `homology.reduced_betti.cache_hit_ratio`. A `reduced_betti` call on a
    nonempty complex that made no child span is a cache hit."""
    child_time = [0.0] * len(spans)
    children = [0] * len(spans)
    for name, start, end, parent, _job, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
            children[parent] += 1
    totals = {}
    for i, (name, start, end, _parent, _job, extra) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "nnz": 0, "hits": 0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        if extra and extra.get("nnz") is not None:
            t["nnz"] += extra["nnz"]
        if name == "homology.reduced_betti" and extra and not children[i] and not extra["empty"]:
            t["hits"] += 1
    empty = {"calls": 0, "self_s": 0.0, "nnz": 0, "hits": 0}
    out = {}
    for layer, figures in LAYER_FIGURES.items():
        t = totals.get(layer, empty)
        for figure in figures:
            out[f"{layer}.{figure}"] = t[figure]
    out["homology.field_rank.nnz"] = sum(
        totals.get(f"homology.field_rank.{k}", empty)["nnz"] for k in ("gf", "q")
    )
    betti = totals.get("homology.reduced_betti", empty)
    out["homology.reduced_betti.cache_hit_ratio"] = (
        betti["hits"] / betti["calls"] if betti["calls"] else 0.0
    )
    return out


def metric_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", ".nnz")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "s"
