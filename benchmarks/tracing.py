"""Per-layer spans and counters, installed around nashfol from the outside.

The package carries no instrumentation of its own, so the tracer wraps its
callables: every public function of every ``nashfol.*`` module, and the
constructor, public methods and arithmetic operators of every public class.
A layer is the module that defines the callable.

Wrappers are installed by object identity: ``from .linalg import rank``
leaves a separate binding of ``rank`` in ``nash``, ``charts`` and
``algebroid``, and each binding is replaced by the one wrapper.  Methods are
replaced on the class, so every importer sees them.  After installation no
module namespace may still hold an original callable.

Spans are aggregated as they close instead of being stored: each callable
keeps a call count and an inclusive time (outermost activation only), and
each layer keeps its self time, the span time minus the time covered by the
child spans it contains.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "nashfol"

# Operators counted as polynomial work.  Cheap, very frequent dunders
# (__bool__, __eq__, __hash__) stay unwrapped: their call overhead would
# dwarf their cost and they do no arithmetic.
_DUNDERS = frozenset(
    {
        "__init__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__neg__",
        "__pow__",
        "__truediv__",
        "__rtruediv__",
        "__str__",
    }
)


class CallStat:
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class Tracer:
    """Aggregated spans over the nashfol package; a pass-through until enabled."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, CallStat] = {}
        self.layer_self: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = 0
            stat.seconds = 0.0
        for cell in self.layer_self.values():
            cell[0] = 0.0
        for key in self.counters:
            self.counters[key] = 0

    def calls(self, key: str) -> int:
        return self.stats[key].calls

    def seconds(self, key: str) -> float:
        return self.stats[key].seconds

    def self_seconds(self, layer: str) -> float:
        return self.layer_self[layer][0]

    # -- installation --------------------------------------------------------

    def modules(self) -> list:
        root = importlib.import_module(PACKAGE)
        names = sorted(info.name for info in pkgutil.iter_modules(root.__path__))
        return [importlib.import_module(f"{PACKAGE}.{name}") for name in names]

    def install(self, after=None) -> None:
        """Wrap the package.  ``after`` maps a stat key ("layer.qualname") to
        a hook called as hook(self, args, result) when that callable returns."""
        after = after or {}
        modules = self.modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    key = f"{layer}.{name}"
                    wrappers[id(obj)] = self._wrap(key, layer, obj, after.get(key))
                    self._originals[id(obj)] = obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, after)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and self._originals[id(obj)] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        missing = set(after) - set(self.stats)
        if missing:
            raise RuntimeError(f"hooks name no traced callable: {sorted(missing)}")
        self.check_installed(modules)

    def _wrap_class(self, layer: str, cls, after) -> None:
        shared: dict[int, object] = {}
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                func = raw.__func__
            elif inspect.isfunction(raw):
                func = raw
            else:
                continue
            # __radd__ = __add__ binds one function twice: give it one wrapper.
            wrapped = shared.get(id(func))
            if wrapped is None:
                key = f"{layer}.{cls.__name__}.{func.__name__}"
                wrapped = self._wrap(key, layer, func, after.get(key))
                shared[id(func)] = wrapped
                self._originals[id(func)] = func
            if isinstance(raw, classmethod):
                replacement = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(wrapped)
            else:
                replacement = wrapped
            self._restore.append((cls, name, raw))
            setattr(cls, name, replacement)

    def check_installed(self, modules) -> None:
        """Fail if any module namespace, or a container at module level,
        still reaches an unwrapped callable."""
        for mod in modules:
            for name, obj in vars(mod).items():
                values = [obj]
                if isinstance(obj, dict):
                    values += list(obj.values())
                elif isinstance(obj, (list, tuple, set, frozenset)):
                    values += list(obj)
                for value in values:
                    if self._originals.get(id(value), self) is value:
                        raise RuntimeError(
                            f"{mod.__name__}.{name} still holds unwrapped "
                            f"{value.__qualname__}"
                        )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, key: str, layer: str, func, hook):
        stat = self.stats.setdefault(key, CallStat())
        cell = self.layer_self.setdefault(layer, [0.0])
        stack = self._stack
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                cell[0] += elapsed - frame[0]
                stat.calls += 1
                stat.depth -= 1
                if not stat.depth:
                    stat.seconds += elapsed
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


# ---------------------------------------------------------------------------
# the nashfol layer metrics
# ---------------------------------------------------------------------------

ALL = ("corpus", "fiber-singular")
CORPUS = ("corpus",)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer number read from a traced pass.

    ``source`` is (kind, key): ("self", layer) for a layer's self time,
    ("calls", stat) or ("seconds", stat) for one traced callable,
    ("counter", name) for a counter set by a hook, and ("ratio", (numerator,
    denominator)) for a ratio of two counters.  ``exercised`` names the
    workloads on which the number must not be zero.
    """

    name: str
    unit: str
    source: tuple
    exercised: tuple

    def read(self, tracer: Tracer):
        kind, key = self.source
        if kind == "self":
            return tracer.self_seconds(key)
        if kind == "calls":
            return tracer.calls(key)
        if kind == "seconds":
            return tracer.seconds(key)
        if kind == "counter":
            return tracer.counters.get(key, 0)
        if kind == "ratio":
            num, den = (tracer.counters.get(k, 0) for k in key)
            return num / den if den else 0.0
        raise ValueError(f"unknown metric source {kind!r}")


def _m(name, unit, kind, key, exercised=ALL):
    return LayerMetric(name, unit, (kind, key), exercised)


LAYER_METRICS = [
    _m("poly.self_s", "s", "self", "poly"),
    _m("poly.mul.calls", "count", "calls", "poly.MultiPoly.__mul__"),
    _m("poly.mul.term_pairs", "count", "counter", "poly.mul.term_pairs"),
    _m("poly.construct.calls", "count", "calls", "poly.MultiPoly.__init__"),
    _m("poly.exact_div.calls", "count", "calls", "poly.exact_div"),
    _m("poly.subst.calls", "count", "calls", "poly.MultiPoly.subst"),
    _m("poly.subst.s", "s", "seconds", "poly.MultiPoly.subst"),
    _m("linalg.self_s", "s", "self", "linalg"),
    _m("linalg.det.calls", "count", "calls", "linalg.det"),
    _m("linalg.minors.calls", "count", "calls", "linalg.minors"),
    _m("linalg.minors.s", "s", "seconds", "linalg.minors"),
    _m("linalg.rank.calls", "count", "calls", "linalg.rank"),
    _m("linalg.kernel_basis.s", "s", "seconds", "linalg.kernel_basis"),
    _m("linalg.solve.calls", "count", "calls", "linalg.solve", CORPUS),
    _m("linalg.frac_rank.calls", "count", "calls", "linalg.frac_rank", CORPUS),
    _m("grassmann.self_s", "s", "self", "grassmann"),
    # The engine computes Pluecker vectors through the Subspace method; the
    # module-level pluecker() is a checked entry point it never calls.
    _m("grassmann.pluecker.calls", "count", "calls", "grassmann.Subspace.pluecker"),
    _m("grassmann.unpluecker.s", "s", "seconds", "grassmann.unpluecker"),
    _m("nash.self_s", "s", "self", "nash"),
    _m("nash.kernel_curve.s", "s", "seconds", "nash.kernel_curve"),
    _m("nash.limit_subspace.s", "s", "seconds", "nash.limit_subspace"),
    _m("nash.arcs.tried", "count", "counter", "nash.arcs.tried"),
    _m("nash.arcs.singular", "count", "counter", "nash.arcs.singular", ()),
    _m("nash.limit_yield", "ratio", "ratio", ("nash.limits", "nash.arcs.ok")),
    _m("algebroid.self_s", "s", "self", "algebroid"),
    _m("algebroid.is_lie_algebroid.calls", "count", "calls", "algebroid.is_lie_algebroid", CORPUS),
    _m("algebroid.is_lie_algebroid.s", "s", "seconds", "algebroid.is_lie_algebroid", CORPUS),
    _m("algebroid.isotropy_algebra_at.s", "s", "seconds", "algebroid.isotropy_algebra_at", CORPUS),
    _m("algebroid.section_bracket.calls", "count", "calls", "algebroid.section_bracket", CORPUS),
    _m("algebroid.anchor_rank_generic.calls", "count", "calls", "algebroid.anchor_rank_generic"),
    _m("charts.self_s", "s", "self", "charts"),
    _m("charts.pullback_vector_field.calls", "count", "calls", "charts.pullback_vector_field", CORPUS),
    _m("charts.nash_anchor_on_chart.calls", "count", "calls", "charts.nash_anchor_on_chart", CORPUS),
    _m("charts.compose.calls", "count", "calls", "charts.ChartMap.compose", CORPUS),
    _m("charts.debord_generators.calls", "count", "calls", "charts.debord_generators", CORPUS),
    _m("charts.tautological_frame.s", "s", "seconds", "charts.tautological_frame", CORPUS),
    _m("charts.check_ideal.s", "s", "seconds", "charts.check_ideal", CORPUS),
    _m("charts.pullback_bivector.s", "s", "seconds", "charts.pullback_bivector", CORPUS),
    _m("poisson.self_s", "s", "self", "poisson"),
    _m("documents.self_s", "s", "self", "documents"),
    _m("scenario.self_s", "s", "self", "scenario"),
]

# The per-layer metrics of the JSON result line.  A time that is 0 on some
# workload (the layer does no work there) is printed but left out, so that
# every declared time is a measured, nonzero number on every workload.
JSON_METRICS = [m for m in LAYER_METRICS if m.unit != "s" or m.exercised == ALL]

# Counts that repeat exactly for one seed: the evidence later changes cite.
EXACT_COUNTS = [m.name for m in LAYER_METRICS if m.unit in ("count", "ratio")]


def _count_term_pairs(tracer: Tracer, args, result) -> None:
    a, b = args
    pairs = len(b.terms) if hasattr(b, "terms") else int(bool(b))
    tracer.count("poly.mul.term_pairs", len(a.terms) * pairs)


def _count_arcs(tracer: Tracer, args, result) -> None:
    ok = result.curve_status.count("ok")
    tracer.count("nash.arcs.tried", len(result.curve_status))
    tracer.count("nash.arcs.singular", len(result.curve_status) - ok)
    tracer.count("nash.arcs.ok", ok)
    tracer.count("nash.limits", len(result.limits))


HOOKS = {
    "poly.MultiPoly.__mul__": _count_term_pairs,
    "nash.nash_fiber_sample": _count_arcs,
}


def read_layer_metrics(tracer: Tracer) -> dict[str, float]:
    return {m.name: m.read(tracer) for m in LAYER_METRICS}
