"""Per-layer tracing of bellfield from outside the package.

``Tracer.installed()`` wraps the public functions of each layer and, for
the duration of the ``with`` block, rebinds every name that refers to them.
``from .dist import dist_mul`` copies the binding into the importing module,
so a function is rebound in every loaded ``bellfield`` module that holds it
(and in default arguments such as ``regularize(kernel=wrapped_gaussian)``),
not only in the module that defines it.  Leaving the block restores every
binding.

Each wrapped call records a span -- name, start, end, parent -- in flat
in-memory arrays; ``save`` writes them out once, at the end of a run, and
``layer_metrics`` turns a saved file into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("graded", "angles", "dist", "mrf", "bell", "quantum", "cli")

#: Span name given to the tracer's own bookkeeping, so that its cost is not
#: charged to the layer that made the call.
BOOKKEEPING = "trace.bookkeeping"


def _triphoton_name(call) -> str:
    return f"quantum.triphoton_{call['model']}"


def _kernel_measure(tracer, idx, call, result):
    grid = call["grid"]
    tracer.value[idx] = grid.size
    digest = hashlib.blake2b(np.ascontiguousarray(grid).tobytes(), digest_size=16).digest()
    key = (float(call["center"]), float(call["sigma"]), grid.shape, digest)
    tracer.key[idx] = tracer.key_ids.setdefault(key, len(tracer.key_ids))


def _cells_measure(tracer, idx, call, result):
    tracer.value[idx] = call["self"].grid_n ** 2


def _nonzero_measure(tracer, idx, call, result):
    tracer.value[idx] = 0.0 if result.is_zero else 1.0


def _rows_measure(tracer, idx, call, result):
    tracer.value[idx] = len(result)


# (defining module, attribute, span name or name function, measure or None).
# Name functions and measures see the call's arguments by parameter name.
FUNCTIONS = (
    ("bellfield.graded", "coeff_ratio_limit", "graded.coeff_ratio_limit", None),
    ("bellfield.dist", "dist_mul", "dist.dist_mul", None),
    ("bellfield.dist", "dist_integrate", "dist.dist_integrate", None),
    ("bellfield.dist", "wrapped_gaussian", "dist.wrapped_gaussian", _kernel_measure),
    ("bellfield.mrf", "relative_probability", "mrf.relative_probability", _nonzero_measure),
    ("bellfield.mrf", "tally_events", "mrf.tally_events", None),
    ("bellfield.bell", "coincidence_probability", "bell.coincidence_probability", None),
    ("bellfield.bell", "brute_force_oracle", "bell.brute_force_oracle", None),
    ("bellfield.bell", "build_triphoton_graph", "bell.build_triphoton_graph", None),
    ("bellfield.quantum", "dephase", "quantum.dephase", None),
    ("bellfield.quantum", "bell_coincidence_qm", "quantum.bell_coincidence_qm", None),
    ("bellfield.quantum", "triphoton_compare", _triphoton_name, None),
    ("bellfield.cli", "main", "cli.main", None),
    ("bellfield.cli", "run", "cli.run", _rows_measure),
)

# (defining module, class, method, span name, measure or None); aliases such
# as ``__rmul__ = __mul__`` are rebound with the method.
METHODS = (
    ("bellfield.graded", "GradedCoeff", "__mul__", "graded.mul", None),
    ("bellfield.graded", "GradedCoeff", "__add__", "graded.add", None),
    ("bellfield.angles", "PolAngle", "__eq__", "angles.eq", None),
    ("bellfield.dist", "RegularizedDistFn", "__mul__", "dist.regularized_mul", None),
    ("bellfield.bell", "TriphotonGraph", "triple_coincidence", "bell.triple_coincidence", _cells_measure),
)

# (metric, unit, kind, span names); a name ending in "." selects a whole layer.
#   calls     spans per point
#   self_ms   span time minus the time of child spans, per point
#   value     sum of the measured value per point (cells, rows, ...)
#   frac      measured value / calls, per point
#   distinct  distinct measured keys / calls, per point
# Each is the median over the points of the run.
LAYER_METRICS = (
    ("graded.mul.calls", "count", "calls", ("graded.mul",)),
    ("graded.add.calls", "count", "calls", ("graded.add",)),
    ("graded.self_ms", "ms", "self_ms", ("graded.",)),
    ("angles.eq.calls", "count", "calls", ("angles.eq",)),
    ("dist.dist_mul.calls", "count", "calls", ("dist.dist_mul",)),
    ("dist.dist_mul.self_ms", "ms", "self_ms", ("dist.dist_mul",)),
    ("dist.dist_integrate.calls", "count", "calls", ("dist.dist_integrate",)),
    ("dist.wrapped_gaussian.calls", "count", "calls", ("dist.wrapped_gaussian",)),
    ("dist.wrapped_gaussian.self_ms", "ms", "self_ms", ("dist.wrapped_gaussian",)),
    ("dist.wrapped_gaussian.cells", "count", "value", ("dist.wrapped_gaussian",)),
    ("dist.wrapped_gaussian.distinct_frac", "ratio", "distinct", ("dist.wrapped_gaussian",)),
    ("dist.regularized_mul.calls", "count", "calls", ("dist.regularized_mul",)),
    ("dist.regularized_mul.self_ms", "ms", "self_ms", ("dist.regularized_mul",)),
    ("mrf.scenarios.visited", "count", "calls", ("mrf.relative_probability",)),
    ("mrf.scenarios.nonzero_frac", "ratio", "frac", ("mrf.relative_probability",)),
    ("mrf.relative_probability.self_ms", "ms", "self_ms", ("mrf.relative_probability",)),
    ("mrf.tally_events.self_ms", "ms", "self_ms", ("mrf.tally_events",)),
    ("bell.coincidence_probability.self_ms", "ms", "self_ms", ("bell.coincidence_probability",)),
    ("bell.brute_force_oracle.calls", "count", "calls", ("bell.brute_force_oracle",)),
    ("bell.brute_force_oracle.self_ms", "ms", "self_ms", ("bell.brute_force_oracle",)),
    ("bell.build_triphoton_graph.self_ms", "ms", "self_ms", ("bell.build_triphoton_graph",)),
    ("bell.triple_coincidence.self_ms", "ms", "self_ms", ("bell.triple_coincidence",)),
    ("bell.triple_coincidence.cells", "count", "value", ("bell.triple_coincidence",)),
    ("quantum.triphoton_M.self_ms", "ms", "self_ms", ("quantum.triphoton_M",)),
    ("quantum.triphoton_Mstar.self_ms", "ms", "self_ms", ("quantum.triphoton_Mstar",)),
    ("quantum.dephase.calls", "count", "calls", ("quantum.dephase",)),
    ("quantum.dephase.self_ms", "ms", "self_ms", ("quantum.dephase",)),
    ("quantum.bell_coincidence_qm.self_ms", "ms", "self_ms", ("quantum.bell_coincidence_qm",)),
    ("cli.self_ms", "ms", "self_ms", ("cli.",)),
    ("cli.rows", "count", "value", ("cli.run",)),
)


class Tracer:
    """Spans of wrapped bellfield calls, kept in flat arrays until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")  # per-call measurement: cells, rows, nonzero flag
        self.key = array("q")  # distinct-input id, -1 when not measured
        self.key_ids: dict[tuple, int] = {}
        self.errors: Counter[str] = Counter()  # exceptions escaping a layer's wrapped calls
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.value.append(0.0)
        self.key.append(-1)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer, name, measure):
        tracer = self
        fixed = None if callable(name) else name
        signature = inspect.signature(fn)

        def bound(args, kwargs) -> dict:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            return call.arguments

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(fixed or name(bound(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(idx)
            if measure is not None:
                book = tracer._open(BOOKKEEPING)
                measure(tracer, idx, bound(args, kwargs), result)
                tracer._close(book)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function and method; restore them on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "bellfield" or n.startswith("bellfield.")]
        undo: list[tuple] = []
        try:
            for modname, attr, name, measure in FUNCTIONS:
                original = getattr(importlib.import_module(modname), attr)
                traced = self._wrap(original, modname.split(".")[1], name, measure)
                for module in modules:
                    for key, val in list(vars(module).items()):
                        if val is original:
                            undo.append((module, key, original))
                            setattr(module, key, traced)
                        elif inspect.isfunction(val) and any(d is original for d in val.__defaults__ or ()):
                            undo.append((val, "__defaults__", val.__defaults__))
                            val.__defaults__ = tuple(traced if d is original else d for d in val.__defaults__)
            for modname, clsname, attr, name, measure in METHODS:
                cls = getattr(importlib.import_module(modname), clsname)
                original = vars(cls)[attr]
                traced = self._wrap(original, modname.split(".")[1], name, measure)
                for key, val in list(vars(cls).items()):
                    if val is original:
                        undo.append((cls, key, original))
                        setattr(cls, key, traced)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def save(self, path: str):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            value=np.frombuffer(self.value),
            key=np.frombuffer(self.key, dtype=np.int64),
            errors=np.array([self.errors[layer] for layer in LAYERS], dtype=np.int64),
        )


def layer_metrics(path: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a saved trace, each the median over its points.

    A point is one root span (one ``cli.main`` call) and everything under it.
    """
    with np.load(path) as f:
        names = list(f["names"])
        name, parent, value, key = f["name"], f["parent"], f["value"], f["key"]
        dur = f["end"] - f["start"]
        errors = dict(zip(LAYERS, f["errors"].tolist()))
    n = len(dur)
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
    self_s = dur - child
    point = np.cumsum(parent == -1) - 1
    n_points = int(point[-1]) + 1 if n else 0

    def per_point(mask, weights=None):
        w = None if weights is None else weights[mask]
        return np.bincount(point[mask], weights=w, minlength=n_points)

    def select(spans):
        layers = tuple(s for s in spans if s.endswith("."))
        return np.isin(name, [i for i, s in enumerate(names) if s in spans or s.startswith(layers)])

    out = {}
    for metric, unit, kind, spans in LAYER_METRICS:
        mask = select(spans)
        calls = per_point(mask)
        if kind == "calls":
            v = calls
        elif kind == "self_ms":
            v = per_point(mask, self_s) * 1e3
        elif kind == "value":
            v = per_point(mask, value)
        elif kind == "frac":
            v = np.divide(per_point(mask, value), calls, out=np.zeros(n_points), where=calls > 0)
        else:  # distinct
            pairs = {(p, k) for p, k in zip(point[mask].tolist(), key[mask].tolist())}
            distinct = np.bincount([p for p, _ in pairs], minlength=n_points)
            v = np.divide(distinct, calls, out=np.zeros(n_points), where=calls > 0)
        out[metric] = (float(statistics.median(v.tolist())) if n_points else 0.0, unit)
    for layer in LAYERS:
        out[f"{layer}.errors"] = (float(errors[layer]), "count")
    return out
