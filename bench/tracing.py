"""In-memory spans around calls into the public functions of each teflow module.

Nothing is added inside ``src/``: :func:`instrument` replaces every public
module-level function and every public method of a public class with a
timing wrapper, in every ``teflow`` module namespace that holds a reference
to it (so ``from .te import estimate`` call sites are traced too). A span is
``[name, start_ns, end_ns, parent_index]``; spans stay in memory and are
written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "series", "market", "trends", "symbolic", "te", "pipeline")

# Leaf helpers called once per CSV value written; wrapped, the tracer's own
# cost would outweigh the work it times.
SKIP = {"series.format_value"}

# The count step behind te.count_transitions, which the shuffle and bootstrap
# replications call directly; traced so the per-evaluation kernel is visible.
PRIVATE = {"te._transition_counts"}

KERNEL = frozenset({"te.count_transitions", "te._transition_counts", "te.transfer_entropy"})

# Spans that note the process high-water mark (VmHWM) above their starting
# RSS. That is the span's own peak when the span raised the high-water mark,
# and only an upper bound on it otherwise.
MEMORY_SPANS = frozenset({"te.shuffle_surrogate_te", "te.bootstrap_inference"})


def proc_status_kb(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    return 0


class Tracer:
    """Collects spans and per-call notes; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter_ns
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            if memory:
                rss0, hwm0 = proc_status_kb("VmRSS:"), proc_status_kb("VmHWM:")
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if memory:
                hwm1 = proc_status_kb("VmHWM:")
                notes[idx] = {"peak_above_start_kb": hwm1 - rss0, "raised_peak": hwm1 > hwm0}
            if note is not None:
                notes.setdefault(idx, {}).update(note(args, kwargs, result))
            return result

        return traced


def _layer_functions(module):
    """(qualified name, owner, attribute, function) for the module's public callables."""
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") and f"{layer}.{attr}" not in PRIVATE:
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{layer}.{attr}", module, attr, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for mattr, mobj in vars(obj).items():
                if not mattr.startswith("_") and inspect.isfunction(mobj):
                    yield f"{layer}.{attr}.{mattr}", obj, mattr, mobj


def instrument(tracer: Tracer, notes: dict | None = None) -> None:
    """Wrap the public functions of every teflow layer; ``notes`` maps a
    qualified name to ``note(args, kwargs, result) -> dict`` kept with its span."""
    notes = notes or {}
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"teflow.{layer}")
        for qual, owner, attr, fn in list(_layer_functions(module)):
            if qual in SKIP:
                continue
            wrapped = tracer.wrap(qual, fn, notes.get(qual))
            setattr(owner, attr, wrapped)
            replaced[id(fn)] = (fn, wrapped)
    # rebind names imported into other modules (``from .te import estimate``)
    for name, module in list(sys.modules.items()):
        if name != "teflow" and not name.startswith("teflow."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def kernel_inside(spans: list[list]) -> list[int]:
    """Per span, nanoseconds spent in outermost kernel spans nested within it."""
    inside = [0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent = spans[i]
        if name in KERNEL and (parent < 0 or spans[parent][0] not in KERNEL):
            inside[i] = end - start
        if parent >= 0:
            inside[parent] += inside[i]
    return inside


def self_times(spans: list[list]) -> list[int]:
    """Per span, its duration minus the part covered by its child spans."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
