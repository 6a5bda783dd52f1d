"""Outside-in layer tracer for ``polyheight``.

The benchmark cannot change the program, so spans are recorded by
wrapping, from the outside, every public function of each layer module
and the public methods of the classes it defines.  A span opens only when
control crosses into a layer from another layer (calls inside one layer
add nothing), and its self time is its duration minus that of its child
spans.  ``fields``, ``intervals``, ``verdicts`` and ``pell`` get no spans:
a span around each arithmetic operation would cost more than the
operation, so their time shows in the self time of whichever layer calls
them.

A few functions also feed counters: ``SplitPoly.expand`` and
``valuation`` calls, ``has_unit_mahler`` results, whether
``recognize_split`` needed ``complex_roots``, and the working precisions
that ``complex_roots`` requested from ``intervals.working_precision``.

Every alias is re-bound: ``from .x import y`` globals in every loaded
``polyheight`` module, the functions held in ``cli._CHECKS`` and class
attributes.  ``polyheight.__main__`` is never imported, because importing
it runs the CLI and exits.  ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter

LAYERS = ("cli", "polyparse", "search", "bounds", "heights", "analytic", "rootfind",
          "polynomials", "valuations", "numutil", "exactreal", "gauss_lattice")

PACKAGE = "polyheight"


class Tracer:
    """Per-layer self time and call counts, plus the counters that ratios
    are built from.  Records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.expand_calls = 0
        self.valuation_calls = 0
        self.unit_calls = 0
        self.unit_true = 0
        self.recognize_calls = 0
        self.recognize_fast = 0
        self.roots_calls = 0
        self.roots_escalated = 0
        self.max_prec_bits = 0
        self._stack: list[list] = []        # open spans: [layer, start, child seconds]
        self._recognize: list[list] = []    # open recognize_split calls: [used roots]
        self._roots: list[list] = []        # open complex_roots calls: [start, max bits]
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            self.calls[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter() - frame[1]
                stack.pop()
                self.self_s[layer] += total - frame[2]
                if stack:
                    stack[-1][2] += total
        return wrapper

    def _hook(self, qualname: str, fn):
        """Counters for the functions that ratios are measured at."""
        if qualname == "SplitPoly.expand":
            def wrapper(*args, **kwargs):
                self.expand_calls += self.active
                return fn(*args, **kwargs)
        elif qualname == "valuation":
            def wrapper(*args, **kwargs):
                self.valuation_calls += self.active
                return fn(*args, **kwargs)
        elif qualname == "has_unit_mahler":
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self.active:
                    self.unit_calls += 1
                    self.unit_true += bool(out)
                return out
        elif qualname == "recognize_split":
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                frame = [False]
                self._recognize.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._recognize.pop()
                    self.recognize_calls += 1
                    self.recognize_fast += not frame[0]
        elif qualname == "complex_roots":
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                start = bound.arguments["prec"]
                frame = [start, start]
                self._roots.append(frame)
                for r in self._recognize:
                    r[0] = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._roots.pop()
                    self.roots_calls += 1
                    self.roots_escalated += frame[1] > start
                    self.max_prec_bits = max(self.max_prec_bits, frame[1])
        elif qualname == "working_precision":
            def wrapper(bits, *args, **kwargs):
                if self.active:
                    for frame in self._roots:
                        if bits > frame[1]:
                            frame[1] = bits
                return fn(bits, *args, **kwargs)
        else:
            return fn
        return functools.wraps(fn)(wrapper)

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, layer or None, qualname) for every callable
        to wrap; layer None means counters only."""
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name != "__main__":
                importlib.import_module(f"{PACKAGE}.{info.name}")
        intervals = sys.modules[f"{PACKAGE}.intervals"]
        yield intervals, "working_precision", None, "working_precision"
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for mname, attr in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        raw = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
                        if inspect.isfunction(raw):
                            yield obj, mname, layer, f"{name}.{mname}"
                elif callable(obj):
                    yield mod, name, layer, name

    def install(self) -> None:
        """Wrap every target and re-bind each of its aliases."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for owner, name, layer, qualname in list(self._targets()):
            attr = vars(owner)[name]
            kind = type(attr) if isinstance(attr, (classmethod, staticmethod)) else None
            fn = attr.__func__ if kind else attr
            new = self._hook(qualname, fn)
            if layer is not None:
                new = self._span(layer, new)
            self._undo.append((owner, name, attr))
            setattr(owner, name, kind(new) if kind else new)
            if not kind and not inspect.isclass(owner):
                replaced[id(fn)] = (fn, new)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            if modname == f"{PACKAGE}.__main__":
                continue
            self._rebind(vars(mod), mod, replaced, setattr)
        checks = sys.modules[f"{PACKAGE}.cli"]._CHECKS
        self._rebind(checks, checks, replaced, dict.__setitem__)

    def _rebind(self, namespace: dict, owner, replaced: dict, setter) -> None:
        for key, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                self._undo.append((owner, key, value))
                setter(owner, key, hit[1])

    def uninstall(self) -> None:
        """Restore every original function, method and alias."""
        self.active = False
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- results --------------------------------------------------------------

    def metrics(self, items: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-item figures for ``items`` traced items, with self times
        multiplied by ``scale``: name -> (value, unit)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (1000 * scale * self.self_s[layer] / items, "ms")
            out[f"{layer}.calls"] = (self.calls[layer] / items, "count")

        def ratio(num, den):
            return num / den if den else 0.0

        out["polynomials.expand_calls"] = (self.expand_calls / items, "count")
        out["polynomials.kronecker_unit_ratio"] = (ratio(self.unit_true, self.unit_calls), "ratio")
        out["search.recognize_fast_ratio"] = (ratio(self.recognize_fast, self.recognize_calls),
                                              "ratio")
        out["rootfind.escalated_ratio"] = (ratio(self.roots_escalated, self.roots_calls), "ratio")
        out["rootfind.max_prec_bits"] = (float(self.max_prec_bits), "bits")
        out["valuations.valuation_calls"] = (self.valuation_calls / items, "count")
        return out
