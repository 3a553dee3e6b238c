"""Layer spans and counters recorded from outside the gmequiv package.

A Tracer wraps the public functions and public class methods of each layer
module (one layer per module of gmequiv) in place, so every call into a
layer records a span: name, start, end, parent. Only the outermost call of
a layer is a span: when the innermost open span already belongs to the
same layer the call runs unrecorded, so cell_averages -> antiderivative
counts once. Names that other modules bound with `from ... import` (for
example sampling.gram, rkhs.refine_gauss, gmequiv.rate_sweep) are
rewrapped where they are looked up, and so are the statistics held in
diagnostics.STATISTICS.

A few private functions get counting hooks but never spans: the dense
Fourier reduction (points and terms evaluated), the dense sampling factor
(dense-route draws) and the Gauss-Legendre panel rule (panels, and the
convergence of each refine_gauss call).

Spans stay in memory; `uninstall` restores every original binding. The
tracer assumes calls arrive on one thread, which holds while
GMEQUIV_THREADS is left at its default of 1.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import sys
import time
from collections import Counter

LAYERS = ("fourier", "quadrature", "rkhs", "sampling", "kernels", "expr",
          "diagnostics", "experiments", "counterexample", "rng", "cli")

_NAME, _LAYER, _START, _END, _PARENT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._refine: list | None = None
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        call = (lambda a, k: hook(self, fn, a, k)) if hook else (lambda a, k: fn(*a, **k))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][_LAYER] == layer:
                return call(args, kwargs)
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), 0.0,
                          stack[-1] if stack else None])
            stack.append(idx)
            try:
                return call(args, kwargs)
            finally:
                spans[idx][_END] = time.perf_counter()
                stack.pop()

        wrapper.__bench_original__ = fn
        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer module of `package` (the imported gmequiv)."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"]
                   for name in LAYERS if f"{package.__name__}.{name}" in sys.modules}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    hook = _HOOKS.get(f"{layer}.{attr}")
                    wrapper = self._wrap(layer, f"{layer}.{attr}", value, hook)
                    wrapped[id(value)] = wrapper
                    self._set(module, attr, wrapper)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value)
            for attr in _PRIVATE_HOOKS.get(layer, ()):
                if hasattr(module, attr):
                    value = getattr(module, attr)
                    wrapper = self._wrap(layer, f"{layer}.{attr}", value,
                                         _HOOKS[f"{layer}.{attr}"])
                    wrapped[id(value)] = wrapper
                    self._set(module, attr, wrapper)
        # rebind names imported with `from ... import` wherever they are looked up
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and vars(module)[attr] is value:
                    self._set(module, attr, wrapped[id(value)])
        diagnostics = modules.get("diagnostics")
        if diagnostics is not None:
            table = diagnostics.STATISTICS
            for key, fn in list(table.items()):
                original = getattr(fn, "__bench_original__", fn)
                cell = self._wrap("diagnostics", f"diagnostics.{original.__name__}",
                                  original, _sweep_cell)
                self._undo.append((table.__setitem__, key, fn))
                table[key] = cell

    def _wrap_class(self, layer: str, cls) -> None:
        generated = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        for attr, raw in list(vars(cls).items()):
            if attr in generated or (attr.startswith("_") and attr != "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = _HOOKS.get(name)
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(layer, name, raw.__func__, hook)), raw)
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(layer, name, raw, hook), raw)
        for attr in _PRIVATE_HOOKS.get(f"{layer}.{cls.__name__}", ()):
            raw = vars(cls)[attr]
            self._set(cls, attr, self._wrap(layer, f"{layer}.{cls.__name__}.{attr}", raw,
                                            _HOOKS[f"{layer}.{cls.__name__}.{attr}"]), raw)

    def _set(self, owner, attr, new, old=None) -> None:
        old = vars(owner)[attr] if old is None else old
        self._undo.append((functools.partial(setattr, owner), attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for setter, key, old in reversed(self._undo):
            setter(key, old)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def layer_times(self) -> tuple[dict, float]:
        """Per-layer self times and the summed duration of root spans."""
        child_time = [0.0] * len(self.spans)
        root = 0.0
        for span in self.spans:
            duration = span[_END] - span[_START]
            if span[_PARENT] is None:
                root += duration
            else:
                child_time[span[_PARENT]] += duration
        self_s = dict.fromkeys(LAYERS, 0.0)
        for span, children in zip(self.spans, child_time):
            self_s[span[_LAYER]] += span[_END] - span[_START] - children
        return self_s, root

    def summary(self) -> dict:
        """Counts and times of the spans recorded since the last reset."""
        self_s, root = self.layer_times()
        counts = Counter(self.counts)
        for span in self.spans:
            counts[f"{span[_LAYER]}.calls"] += 1
            if span[_NAME].startswith("rkhs.projection_distance"):
                counts["rkhs.projection_s"] += span[_END] - span[_START]
            elif span[_NAME].startswith("rkhs.kriging_"):
                counts["rkhs.kriging_s"] += span[_END] - span[_START]
        return {"self_s": self_s, "root_s": root, "counts": dict(counts)}

    def span_records(self) -> list[dict]:
        return [{"name": s[_NAME], "layer": s[_LAYER], "start": s[_START],
                 "end": s[_END], "parent": s[_PARENT]} for s in self.spans]


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# counting hooks: hook(tracer, fn, args, kwargs) -> fn(*args, **kwargs)


def _arg(fn, args, kwargs, name, position):
    if len(args) > position:
        return args[position]
    if name in kwargs:
        return kwargs[name]
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


_SIGNATURES: dict = {}


def _fourier_reduce(tracer, fn, args, kwargs):
    _, t, weights = args
    tracer.counts["fourier.points"] += t.size
    tracer.counts["fourier.dense_terms"] += t.size * weights.size
    return fn(*args, **kwargs)


def _gauss_panels(tracer, fn, args, kwargs):
    tracer.counts["quadrature.panels"] += int(_arg(fn, args, kwargs, "panels", 3))
    value = fn(*args, **kwargs)
    if tracer._refine is not None:
        tracer._refine.append(value)
    return value


def _refine_gauss(tracer, fn, args, kwargs):
    outer, tracer._refine = tracer._refine, []
    try:
        value = fn(*args, **kwargs)
        values = tracer._refine
    finally:
        tracer._refine = outer
    rel_tol = _arg(fn, args, kwargs, "rel_tol", 3)
    doublings = _arg(fn, args, kwargs, "max_doublings", 4)
    tracer.counts["quadrature.refine_calls"] += 1
    if doublings > 0 and len(values) == doublings + 1:
        new, old = values[-1], values[-2]
        if not abs(new - old) <= rel_tol * max(abs(new), 1e-300):
            tracer.counts["quadrature.exhausted"] += 1
    return value


def _sample_paths(tracer, fn, args, kwargs):
    grid = _arg(fn, args, kwargs, "grid", 1)
    npaths = int(_arg(fn, args, kwargs, "npaths", 2))
    tracer.counts["sampling.draws"] += npaths * max(len(grid) - 1, 0)
    return fn(*args, **kwargs)


def _dense_factor(tracer, fn, args, kwargs):
    tracer.counts["sampling.dense_calls"] += 1
    return fn(*args, **kwargs)


def _gram(tracer, fn, args, kwargs):
    size = len(_arg(fn, args, kwargs, "ts", 1))
    tracer.counts["kernels.gram_calls"] += 1
    tracer.counts["kernels.gram_entries"] += size * size
    return fn(*args, **kwargs)


def _stream(tracer, fn, args, kwargs):
    tracer.counts["rng.streams"] += 1
    return fn(*args, **kwargs)


def _sweep_cell(tracer, fn, args, kwargs):
    tracer.counts["diagnostics.sweep_cells"] += 1
    try:
        value = fn(*args, **kwargs)
    except Exception:
        tracer.counts["diagnostics.sweep_failed_cells"] += 1
        raise
    if not math.isfinite(float(value)):
        tracer.counts["diagnostics.sweep_failed_cells"] += 1
    return value


_HOOKS = {
    "fourier.FourierFunction._reduce": _fourier_reduce,
    "quadrature.gauss_panels": _gauss_panels,
    "quadrature.refine_gauss": _refine_gauss,
    "sampling.sample_paths": _sample_paths,
    "sampling._dense_factor": _dense_factor,
    "kernels.gram": _gram,
    "rng.stream": _stream,
}

_PRIVATE_HOOKS = {
    "fourier.FourierFunction": ("_reduce",),
    "sampling": ("_dense_factor",),
}
