"""Per-layer host tracing for the benchmark's traced run.

The tracer wraps public functions of each ``repro`` layer from outside
the package: a module function on its defining module and on every
``repro.*`` module that re-binds the same object, a method on its class.
While the tracer is active, every call records one span (name, start,
end, parent) in memory; :meth:`LayerTracer.summary` turns the spans into
per-name call counts and self times, where a span's self time is its
duration minus the time its child spans cover.  :meth:`LayerTracer.dump`
writes the raw spans out once the run is over.

Spans use the same host clock as the benchmark's end-to-end timings, so
self times add up against ``host_s``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The host clock: CPU seconds consumed by this process.  The benchmark
#: runs the system in one thread, so this is the time the system spent
#: computing, without the time a shared machine gave to other processes.
host_clock = time.process_time

#: Wrapped entry points: (layer.fn name, module, attribute).  An attribute
#: ``Class.method`` is wrapped on the class; a plain name is a module
#: function.  ``CommandQueue.launch`` is split by kernel kind.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("tuner.run", "repro.tuner.search", "SearchEngine.run"),
    ("tuner.evaluate", "repro.tuner.parallel", "CandidateEvaluator.evaluate"),
    ("codegen.build_plan", "repro.codegen.plan", "build_plan"),
    ("codegen.to_json", "repro.codegen.params", "KernelParams.to_json"),
    ("analyze.gate", "repro.analyze.verifier", "StaticVerifier.gate"),
    ("perfmodel.estimate", "repro.perfmodel.model", "estimate_kernel_time"),
    ("gemm.predict", "repro.gemm.routine", "predict_implementation"),
    ("gemm.routine", "repro.gemm.routine", "GemmRoutine.__call__"),
    ("gemm.batched", "repro.gemm.batched", "BatchedGemm.__call__"),
    ("gemm.multidev", "repro.gemm.multidev", "MultiDeviceGemm.__call__"),
    ("clsim.launch", "repro.clsim.queue", "CommandQueue.launch"),
    ("clsim.build", "repro.clsim.program", "Program.build"),
    ("serve.submit", "repro.serve.service", "GemmService.submit"),
    ("serve.submit_batch", "repro.serve.service", "GemmService.submit_batch"),
    ("serve.verify", "repro.serve.verify", "FreivaldsVerifier.check"),
    ("sched.step", "repro.serve.sched.scheduler", "AsyncScheduler.step"),
    ("sched.submit", "repro.serve.sched.scheduler", "AsyncScheduler.submit"),
    ("fleet.tick", "repro.serve.fleet.manager", "FleetManager.tick"),
    ("fleet.observe", "repro.serve.fleet.manager", "FleetManager.observe"),
    ("obs.span", "repro.obs.trace", "Span.__enter__"),
    ("obs.span", "repro.obs.trace", "Span.__exit__"),
)

#: Every span name the tracer reports, launches split by kernel kind.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    name for target, _, _ in TARGETS
    for name in (("clsim.gemm_launch", "clsim.pack_launch")
                 if target == "clsim.launch" else (target,))
))


class LayerTracer:
    """Wraps the layer entry points and records spans while active."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.active = False
        self.gate_rejects = 0
        self.spans_closed = 0
        self._estimate_keys: set = set()
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap every target.  Call before building the traced system, so
        that no object holds a bound method captured before the wrap."""
        for _, module, _ in TARGETS:
            importlib.import_module(module)
        from repro.clsim.kernel import PackKernel

        self._pack_kernel = PackKernel
        for name, module, attr in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, method,
                          self._wrap(cls.__dict__[method], name, attr))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, attr)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- the wrapper -----------------------------------------------------
    def _wrap(self, fn: Callable, name: str, attr: str) -> Callable:
        tracer = self
        if name == "clsim.launch":
            gemm_id = self._id("clsim.gemm_launch")
            pack_id = self._id("clsim.pack_launch")

            def name_of(args) -> int:
                return (pack_id if isinstance(args[1], tracer._pack_kernel)
                        else gemm_id)
        else:
            fixed = self._id(name)

            def name_of(args) -> int:
                return fixed

        observe = self._observer(name, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer._start)
            tracer._name.append(name_of(args))
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            stack.append(index)
            start = host_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = host_clock()
                stack.pop()
                tracer._start[index] = start
                tracer._end[index] = end
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observer(self, name: str, attr: str):
        """Counting hook run after a traced call returns, or None."""
        if name == "analyze.gate":
            def observe(args, result) -> None:
                if result is not None:
                    self.gate_rejects += 1
            return observe
        if name == "perfmodel.estimate":
            def observe(args, result) -> None:
                spec, params, M, N, K = args[:5]
                self._estimate_keys.add(
                    (spec.codename, params.cache_key(), M, N, K))
            return observe
        if attr == "Span.__exit__":
            def observe(args, result) -> None:
                self.spans_closed += 1
            return observe
        return None

    # -- collection ------------------------------------------------------
    @contextmanager
    def recording(self) -> Iterator["LayerTracer"]:
        """Record spans for the duration of the block."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (harness work)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` for every span name."""
        n = len(self._start)
        start, end, parent, name = self._start, self._end, self._parent, self._name
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[name[i]] += 1
            self_s[name[i]] += (end[i] - start[i]) - child[i]
        out = {span: (0, 0.0) for span in SPAN_NAMES}
        for k, span in enumerate(self.names):
            out[span] = (calls[k], self_s[k])
        return out

    def counters(self) -> Dict[str, int]:
        """Counts kept at the wrapped boundaries."""
        return {
            "analyze.gate.rejects": self.gate_rejects,
            "perfmodel.estimate.distinct": len(self._estimate_keys),
            "obs.spans": self.spans_closed,
        }

    def dump(self, path: str, meta: Optional[Dict] = None) -> None:
        """Write the raw spans as gzip-compressed JSON columns."""
        payload = {
            "format": "hostbench-spans/1",
            "clock": "process_time",
            "meta": meta or {},
            "names": self.names,
            "name": self._name.tolist(),
            "parent": self._parent.tolist(),
            "start": self._start.tolist(),
            "end": self._end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)
