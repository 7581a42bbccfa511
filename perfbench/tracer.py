"""Layer tracing of the staircase library, installed from outside it.

A layer is one of the library's modules.  The modules import each other's
functions by name (``from .walls import potential_wall``), so a call from
``objects`` into ``walls`` goes through the name bound inside
``staircase.objects``.  The tracer therefore finds every public function
defined in a layer by introspection and replaces *every* module-level
binding of it, in its own module and in each importing module, with one
wrapper.  The wrapper counts the call; when the caller runs in another layer
(or in the benchmark) it also opens a span.  Calls inside one layer are only
counted, which keeps the overhead of deep intra-module recursion small and
leaves their time to the span that entered the layer.

Spans are aggregated in memory as they close: a span's self time is its
duration minus the time of its child spans, summed per layer and per entry
function.  Classes are not wrapped (that would break ``isinstance``), so
their generated methods run inside the caller's span.  ``restore`` puts
every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("diagram", "slopes", "ktheory", "walls", "objects", "resolution", "oracle", "cli")
BENCH = "bench"


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"staircase.{layer}") for layer in LAYERS}


def public_functions(modules: dict) -> dict:
    """id -> (layer, name, function) for every public function a layer defines.

    An ``lru_cache`` wrapper counts as the function it wraps.
    """
    found = {}
    for layer, module in modules.items():
        for name, value in vars(module).items():
            target = getattr(value, "__wrapped__", value)
            if (
                not name.startswith("_")
                and inspect.isfunction(target)
                and target.__module__ == module.__name__
            ):
                found[id(value)] = (layer, name, value)
    return found


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end", "child")

    def __init__(self, id_, name, layer, parent, op, start):
        self.id = id_
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = start
        self.end = None
        self.child = 0.0


class Tracer:
    """Counts and spans at layer boundaries, between ``install`` and ``restore``.

    ``hooks`` maps a qualified name such as ``"objects.candidate_walls"`` to
    ``hook(args, result, crossed)``, called after each call of that function;
    ``crossed`` is true when the call came from outside the function's layer.
    """

    def __init__(self, modules: dict, hooks: dict | None = None):
        self.modules = modules
        self.hooks = hooks or {}
        self.calls = Counter()  # "layer.function" -> calls through any binding
        self.self_s = Counter()  # layer -> self seconds
        self.entry_self_s = Counter()  # "layer.function" of the span -> self seconds
        self.total_s = 0.0  # summed duration of root spans
        self.spans = 0
        self.bindings = 0
        self.op = None
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        functions = public_functions(self.modules)
        wrappers = {
            key: self._wrap(layer, f"{layer}.{name}", func)
            for key, (layer, name, func) in functions.items()
        }
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
        self.bindings = len(self._saved)

    def restore(self) -> list[str]:
        """Put every original binding back; return the ones that did not stick."""
        for module, name, value in self._saved:
            setattr(module, name, value)
        lost = [
            f"{module.__name__}.{name}"
            for module, name, value in self._saved
            if getattr(module, name) is not value
        ]
        self._saved.clear()
        return lost

    # -- spans --------------------------------------------------------

    def _push(self, name: str, layer: str) -> Span:
        stack = self._stack
        parent = stack[-1].id if stack else None
        self.spans += 1
        span = Span(self.spans, name, layer, parent, self.op, perf_counter())
        stack.append(span)
        return span

    def _pop(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = span.end - span.start
        own = duration - span.child
        self.self_s[span.layer] += own
        self.entry_self_s[span.name] += own
        if stack:
            stack[-1].child += duration
        else:
            self.total_s += duration

    @contextmanager
    def op_span(self, op):
        """Root span for one benchmark operation; layer spans inherit its id."""
        self.op = op
        span = self._push(f"{BENCH}.op", BENCH)
        try:
            yield span
        finally:
            self._pop(span)
            self.op = None

    # -- wrappers -----------------------------------------------------

    def _wrap(self, layer: str, key: str, func):
        stack = self._stack
        calls = self.calls
        hook = self.hooks.get(key)
        target = getattr(func, "__wrapped__", func)

        if inspect.isgeneratorfunction(target):
            # time each resumption, not the consumer's work between them
            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                calls[key] += 1
                iterator = func(*args, **kwargs)
                if stack and stack[-1].layer == layer:
                    yield from iterator
                    return
                while True:
                    span = self._push(key, layer)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._pop(span)
                    yield item

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            crossed = not stack or stack[-1].layer != layer
            if crossed:
                span = self._push(key, layer)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self._pop(span)
            else:
                result = func(*args, **kwargs)
            if hook is not None:
                hook(args, result, crossed)
            return result

        for attribute in ("cache_info", "cache_clear"):
            if hasattr(func, attribute):
                setattr(wrapper, attribute, getattr(func, attribute))
        return wrapper

    # -- results ------------------------------------------------------

    def layer_calls(self) -> Counter:
        totals = Counter({layer: 0 for layer in self.modules})
        for key, count in self.calls.items():
            totals[key.split(".", 1)[0]] += count
        return totals

