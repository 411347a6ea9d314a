"""Per-layer spans recorded from outside the program.

``Tracer.install()`` wraps every public function of each ``gieseker`` layer
module, and the hand-written ``__init__`` of its public classes, then rebinds
each wrapped function in every ``gieseker.*`` namespace that imported it
(``from .partitions import divide_with_remainder`` leaves a second binding in
``category_o``).  Nothing under ``src/`` changes.

A span opens when a wrapped call starts and closes when it returns or raises.
Its self time is its duration minus the durations of the spans it directly
contains; spans are folded into per-function totals as they close instead of
being stored, since a model-block pass opens millions of them.  Everything
runs in one thread, so no span ever waits on another.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "diagnostics",
    "ideal_lattice",
    "torus_chambers",
    "category_o",
    "partitions",
    "quiver_engine",
    "exact_linalg",
)
BENCH = "bench"  # the benchmark's own code between and around library calls


def _module_key(module) -> tuple:
    """Content of a quiver module: its algebra size, dimension vector and
    action matrices.  Two resolution calls on equal keys repeat work."""
    return (
        module.algebra.N,
        module.dims,
        tuple(
            (g, tuple(tuple(row) for row in mat))
            for g, mat in sorted(module.act.items())
        ),
    )


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.raised: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._distinct: defaultdict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # [layer, seconds spent in child spans]
        self._top = [0.0]  # summed duration of spans opened with an empty stack
        self._hooks = {
            "partitions.divide_with_remainder": self._hook_divide,
            "quiver_engine.minimal_projective_resolution": self._hook_resolution,
            "exact_linalg.fraction_free_echelon": self._hook_echelon,
            "torus_chambers.walls": self._hook_walls,
        }
        self._root = self.span(BENCH, BENCH, lambda fn, *args: fn(*args))

    # -- counters measured at the span boundary -------------------------------

    def _hook_divide(self, args, kwargs, result) -> None:
        self._distinct["partitions.divide_with_remainder"].add((args[0], args[1]))

    def _hook_resolution(self, args, kwargs, result) -> None:
        self._distinct["quiver_engine.minimal_projective_resolution"].add(
            _module_key(args[1])
        )

    def _hook_echelon(self, args, kwargs, result) -> None:
        a = args[0]
        self.counts["exact_linalg.echelon_cells"] += len(a) * (len(a[0]) if a else 0)

    def _hook_walls(self, args, kwargs, result) -> None:
        self.counts["torus_chambers.walls_built"] += len(result.walls)

    # -- spans -----------------------------------------------------------------

    def span(self, layer: str, name: str, fn):
        """Call-through wrapper for ``fn`` recording the span ``name``."""
        stack, calls, self_s, raised = self._stack, self.calls, self.self_s, self.raised
        top = self._top
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][0] != layer:
                    raised[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    top[0] += elapsed
            if hook is not None:
                # time spent counting belongs to the tracer, not to the caller
                hook_start = perf_counter()
                hook(args, kwargs, result)
                hook_s = perf_counter() - hook_start
                self_s["trace.hooks"] += hook_s
                if stack:
                    stack[-1][1] += hook_s
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public callables and rebind every alias."""
        import gieseker  # noqa: F401  (imports every layer module)

        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"gieseker.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    init = obj.__dict__.get("__init__")
                    if inspect.isfunction(init) and not hasattr(obj, "__dataclass_fields__"):
                        obj.__init__ = self.span(layer, f"{layer}.{attr}", init)
                elif inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    replaced[id(obj)] = self.span(layer, f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "gieseker" or name.startswith("gieseker."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, attr, replaced[id(obj)])

    def root(self, fn, *args):
        """Run ``fn(*args)`` inside a span of the benchmark's own code."""
        return self._root(fn, *args)

    # -- report ----------------------------------------------------------------

    def snapshot(self) -> dict:
        distinct = {name: len(keys) for name, keys in self._distinct.items()}
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "raised": dict(self.raised),
            "counts": dict(self.counts),
            "distinct": distinct,
            "top_s": self._top[0],
        }


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (spans of several processes)."""
    for section, values in part.items():
        if isinstance(values, dict):
            bucket = total.setdefault(section, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value
        else:
            total[section] = total.get(section, 0) + values
    return total
