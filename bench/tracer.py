"""Span tracer that wraps homspace's public functions from outside the package.

`Tracer.install()` replaces every public function of each layer module, every
binding another homspace module re-imported by name, and a few methods, with
a recorder; `Tracer.uninstall()` puts every original binding back.  Spans stay
in memory; `layer_metrics()` turns them into the per-layer figures.

Timing uses `time.perf_counter`.  A tracer made with `memory_spans` also runs
`tracemalloc` around those spans and records their peaks; its times then
include tracemalloc's cost, so run.py takes times and peaks from separate
passes.  Nothing here traces other processes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

LAYERS = ("space", "dyadic", "kernels", "operators", "norms", "difference",
          "lab", "pipeline", "cli")
# methods that carry layer work but are not module-level functions
METHODS = (("space", "MetricMeasureSpace", "v_table"),
           ("space", "MetricMeasureSpace", "ball_measure"),
           ("kernels", "KernelStack", "apply"),
           ("kernels", "KernelStack", "apply_all"))
# spans whose tracemalloc peak a memory pass records (they never nest)
MEMORY_SPANS = ("kernels.validate_ati", "difference.lipschitz_norm",
                "difference.truncated_norm")
# the layer figures only a memory pass measures
PEAK_METRICS = ("kernels.validate_peak_mb", "difference.peak_mb")
MB = 1024.0 * 1024.0
WRAPPED = "__bench_span__"


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    command: str | None
    start: float = 0.0
    end: float = 0.0
    peak_bytes: int | None = None
    info: float | None = None

    @property
    def duration(self):
        return self.end - self.start


def array_bytes(obj, skip=()):
    """Bytes of the distinct numpy arrays an object holds in its attributes,
    looking through dicts, lists and tuples but not into other objects."""
    seen = set()
    total = 0
    todo = [v for k, v in vars(obj).items() if k not in skip]
    while todo:
        v = todo.pop()
        if isinstance(v, np.ndarray):
            if id(v) not in seen:
                seen.add(id(v))
                total += v.nbytes
        elif isinstance(v, dict):
            todo.extend(v.values())
        elif isinstance(v, (list, tuple)):
            todo.extend(v)
    return total


def _a0_triples(arg, result):
    n = np.shape(arg["dist"])[0]
    if n <= 2:
        return 0
    return n ** 3 if result[1] == "exhaustive" else arg["samples"]


# per-span numbers read from a call's bound arguments and its result
OBSERVERS = {
    "space.certify_a0": _a0_triples,
    "dyadic.build_cubes": lambda arg, result: sum(
        len(lv.centers) for lv in result.levels.values()),
    "operators.reconstruct": lambda arg, result: result[1].iterations,
    "lab.generate_ensemble": lambda arg, result: len(result),
    "cli.write_atomic": lambda arg, result: len(arg["text"].encode()),
}
# results whose arrays are sized at the end of each command
HELD = {"space.generate_space": "space", "kernels.build_exp_ati": "stack",
        "kernels.build_exp_iati": "stack"}


class Tracer:
    """Records nested spans for one traced command sequence."""

    def __init__(self, clock=time.perf_counter, memory_spans=()):
        self.clock = clock
        self.memory_spans = memory_spans
        # False while the worker times an unrecorded set-up
        self.recording = True
        self.spans: list[Span] = []
        self.command = None
        self.held_mb = {"space": 0.0, "stack": 0.0}
        self._stack: list[int] = []
        self._held: list[tuple[str, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        held = HELD.get(name)
        memory = name in self.memory_spans
        tracer = self

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, layer, parent, tracer.command)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            own_trace = memory and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                if own_trace:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()
            if observe is not None:
                arg = signature.bind(*args, **kwargs)
                arg.apply_defaults()
                span.info = observe(arg.arguments, result)
            if held is not None:
                tracer._held.append((held, result))
            return result

        setattr(recorder, WRAPPED, name)
        return recorder

    def end_command(self):
        """Size the spaces and kernel stacks the finished command built."""
        for kind, obj in self._held:
            skip = ("dist", "weight") if kind == "space" else ("space",)
            self.held_mb[kind] = max(self.held_mb[kind],
                                     array_bytes(obj, skip) / MB)
        self._held.clear()

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and every binding to them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"homspace.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for name, mod in list(sys.modules.items()):
            if name != "homspace" and not name.startswith("homspace."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    self._patch(mod, attr, originals[id(val)][1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"homspace.{layer}"], cls_name)
            self._patch(cls, meth, self.wrap(f"{layer}.{meth}",
                                             vars(cls)[meth]))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def outermost(self, name):
        """Spans of `name` that have no ancestor of the same name."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                out.append(s)
        return out

    def inclusive_s(self, *names):
        return sum(s.duration for n in names for s in self.outermost(n))

    def calls(self, *names):
        return sum(1 for s in self.spans if s.name in names)

    def info_sum(self, name):
        return sum(s.info for s in self.spans if s.name == name)

    def peak_mb(self, *names):
        peaks = [s.peak_bytes for s in self.spans
                 if s.name in names and s.peak_bytes is not None]
        return max(peaks, default=0) / MB

    def layer_self_s(self, layer):
        return sum(t for s, t in zip(self.spans, self.self_times())
                   if s.layer == layer)

    def layer_metrics(self):
        """Every per-layer figure the traced run reports, by metric name."""
        lip = ("difference.lipschitz_norm",)
        trunc = ("difference.truncated_norm",)
        return {
            "space.generate_s": self.inclusive_s("space.generate_space"),
            "space.certify_a0_s": self.inclusive_s("space.certify_a0"),
            "space.a0_triples": self.info_sum("space.certify_a0"),
            "space.geometry_s": self.inclusive_s("space.geometry_report"),
            "space.v_table_s": self.inclusive_s("space.v_table"),
            "space.ball_measure_calls": self.calls("space.ball_measure"),
            "space.cache_mb": self.held_mb["space"],
            "dyadic.build_nets_s": self.inclusive_s("dyadic.build_nets"),
            "dyadic.build_cubes_s": self.inclusive_s("dyadic.build_cubes"),
            "dyadic.refine_subcubes_s":
                self.inclusive_s("dyadic.refine_subcubes"),
            "dyadic.cubes": self.info_sum("dyadic.build_cubes"),
            "kernels.build_s": self.inclusive_s("kernels.build_exp_ati",
                                                "kernels.build_exp_iati"),
            "kernels.semigroup_calls": self.calls("kernels.build_semigroup"),
            "kernels.semigroup_s": self.inclusive_s("kernels.build_semigroup"),
            "kernels.stack_mb": self.held_mb["stack"],
            "kernels.validate_s": self.inclusive_s("kernels.validate_ati"),
            "kernels.validate_calls": self.calls("kernels.validate_ati"),
            "kernels.validate_peak_mb": self.peak_mb("kernels.validate_ati"),
            "kernels.apply_calls": self.calls("kernels.apply",
                                              "kernels.apply_all"),
            "kernels.apply_s": self.inclusive_s("kernels.apply",
                                                "kernels.apply_all"),
            "operators.hl_maximal_calls": self.calls("operators.hl_maximal"),
            "operators.hl_maximal_s": self.inclusive_s("operators.hl_maximal"),
            "operators.reconstruct_s":
                self.inclusive_s("operators.reconstruct"),
            "operators.frame_operator_calls":
                self.calls("operators.frame_operator"),
            "operators.cg_iterations": self.info_sum("operators.reconstruct"),
            "norms.besov_s": self.inclusive_s("norms.besov_norm"),
            "norms.triebel_s": self.inclusive_s("norms.triebel_lizorkin_norm"),
            "norms.calls": self.calls("norms.besov_norm",
                                      "norms.triebel_lizorkin_norm"),
            "difference.lipschitz_s": self.inclusive_s(*lip),
            "difference.lipschitz_calls": self.calls(*lip),
            "difference.truncated_s": self.inclusive_s(*trunc),
            "difference.truncated_calls": self.calls(*trunc),
            "difference.peak_mb": self.peak_mb(*lip, *trunc),
            "lab.self_s": self.layer_self_s("lab"),
            "lab.fields": self.info_sum("lab.generate_ensemble"),
            "pipeline.build_s": self.inclusive_s("pipeline.build_pipeline"),
            "cli.self_s": self.layer_self_s("cli"),
            "cli.bytes_written": self.info_sum("cli.write_atomic"),
        }


def installed_wrappers():
    """(owner, attr) of every homspace binding that is currently a recorder."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "homspace" and not name.startswith("homspace."):
            continue
        owners = [mod] + [v for v in vars(mod).values() if inspect.isclass(v)]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if hasattr(val, WRAPPED):
                    found.append((owner, attr))
    return found
