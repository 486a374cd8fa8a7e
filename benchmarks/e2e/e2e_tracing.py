"""Outside-in span tracer for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :func:`instrumented`
replaces each layer's entry point -- a class attribute, a module global,
or a closure factory -- with a wrapper that records one span per call,
and puts every original back on exit.  Wrappers are installed *before* a
``System`` is built because the stepper, the hierarchy and the drain
bind their collaborators (``gm.apply_until``, ``dram.access``, the flat
descent closures) once, at construction or at the first run.

A span is ``(layer, op, parent, start_ns, end_ns)``.  Spans live in typed
arrays, so a traced op of a few million calls costs tens of megabytes
and no per-span objects; :meth:`Tracer.write` dumps them when the run
ends.  A layer's self time is the sum over its spans of duration minus
the durations of their direct children, so self times over all layers
add up to the root spans' wall time exactly.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List

#: Every layer the benchmark reports, in table order.  ``unattributed``
#: is the benchmark's own root span per phase: its self time is the glue
#: that no wrapped entry point covers.
LAYERS = (
    "system", "cache.descent", "commit.drain", "gm.apply", "gm.fill",
    "gm.refetch", "prefetch.train", "prefetch.issue", "dram.access",
    "multicore.arbiter", "workloads.build", "batch.prescan",
    "runner.build_system", "exec.job_key", "exec.store_get",
    "exec.store_put", "campaign", "unattributed",
)


class Tracer:
    """Span recorder with typed-array storage (see the module docstring)."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("H")
        self.op = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op = [0]

    def set_op(self, op: int) -> None:
        """Tag every span opened from now on with ``op``."""
        self._op[0] = op

    def __len__(self) -> int:
        return len(self.end)

    def wrap(self, layer: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        lid = self._ids[layer]
        clock = time.perf_counter_ns
        stack = self._stack
        push = stack.append
        pop = stack.pop
        add_layer = self.layer.append
        add_op = self.op.append
        add_parent = self.parent.append
        add_start = self.start.append
        add_end = self.end.append
        ends = self.end
        op = self._op

        def traced(*args, **kwargs):
            idx = len(ends)
            add_layer(lid)
            add_op(op[0])
            add_parent(stack[-1])
            add_end(0)
            push(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, layer: str):
        """One span around a block of the benchmark's own code."""
        lid = self._ids[layer]
        idx = len(self.end)
        self.layer.append(lid)
        self.op.append(self._op[0])
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def layer_table(self) -> Dict[str, Dict[str, int]]:
        """Per layer: ``calls``, ``self_ns`` and ``child_spans`` (spans
        whose parent belongs to the layer)."""
        n = len(self.end)
        start, end, parent = self.start, self.end, self.parent
        child_ns = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        table = {name: {"calls": 0, "self_ns": 0, "child_spans": 0}
                 for name in LAYERS}
        layer = self.layer
        for i in range(n):
            row = table[LAYERS[layer[i]]]
            row["calls"] += 1
            row["self_ns"] += end[i] - start[i] - child_ns[i]
            p = parent[i]
            if p >= 0:
                table[LAYERS[layer[p]]]["child_spans"] += 1
        return table

    def write(self, path: Path) -> None:
        """Dump the spans: ``<path>.json`` describes ``<path>.bin``, which
        holds the five arrays back to back in the listed order."""
        columns = [("layer", self.layer), ("op", self.op),
                   ("parent", self.parent), ("start_ns", self.start),
                   ("end_ns", self.end)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, column in columns:
                column.tofile(fh)
        header = {"spans": len(self), "layers": list(LAYERS),
                  "columns": [[name, column.typecode, column.itemsize]
                              for name, column in columns]}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))


class _NoTrace:
    """Stand-in for :class:`Tracer` in untraced runs: spans cost nothing."""

    _null = nullcontext()

    def span(self, layer: str):
        return self._null

    def set_op(self, op: int) -> None:
        pass


NO_TRACE = _NoTrace()


def calibrate(rounds: int = 1000, calls: int = 500) -> Dict[str, float]:
    """Tracer cost per span, from wrapped and bare calls of an empty
    three-argument function (most wrapped entry points take three to six
    positional arguments).

    Each of ``rounds`` rounds times ``calls`` empty loop iterations, bare
    calls and wrapped calls back to back, and the medians over rounds are
    reported, so a burst of host noise spoils a few rounds, not the
    estimate.  ``span_ns`` is the whole added cost of one wrapped call.
    ``inner_ns`` is the part that falls inside the recorded span (and so
    inflates the callee's self time); the rest, ``span_ns - inner_ns``,
    lands in the caller's self time.
    """
    def empty(a, b, c):
        return None

    clock = time.perf_counter_ns
    tracer = Tracer()
    wrapped = tracer.wrap("unattributed", empty)
    spans, inners = [], []
    for _ in range(rounds):
        first = len(tracer)
        t0 = clock()
        for _ in range(calls):
            pass
        t1 = clock()
        for _ in range(calls):
            empty(1, 2, 3)
        t2 = clock()
        for _ in range(calls):
            wrapped(1, 2, 3)
        t3 = clock()
        recorded = sum(tracer.end[first:]) - sum(tracer.start[first:])
        call_ns = (t2 - t1) - (t1 - t0)
        spans.append(((t3 - t2) - (t2 - t1)) / calls)
        inners.append((recorded - call_ns) / calls)
    span_ns = max(statistics.median(spans), 0.0)
    inner_ns = min(max(statistics.median(inners), 0.0), span_ns)
    return {"span_ns": span_ns, "inner_ns": inner_ns}


def corrected_self_ns(row: Dict[str, int], cost: Dict[str, float]) -> float:
    """A layer's self time with the tracer's own cost taken out: the
    inner part of each of its spans and the outer part of each of its
    children's spans."""
    outer_ns = cost["span_ns"] - cost["inner_ns"]
    return max(row["self_ns"] - row["calls"] * cost["inner_ns"]
               - row["child_spans"] * outer_ns, 0.0)


def _prefetcher_classes() -> List[type]:
    """Every imported concrete ``Prefetcher`` subclass defining ``train``."""
    import repro.core.timely  # noqa: F401  (registers the TS wrappers)
    import repro.core.tsb  # noqa: F401
    import repro.prefetchers.registry  # noqa: F401
    import repro.security.prefender  # noqa: F401
    from repro.prefetchers.base import Prefetcher

    found, todo = [], list(Prefetcher.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "train" in vars(cls) and cls not in found:
            found.append(cls)
    return found


@contextmanager
def instrumented(tracer: Tracer):
    """Install span wrappers on every layer's entry points; restore the
    originals on exit, also when the body raises."""
    from repro.exec.store import ResultStore
    from repro.experiments import runner as runner_mod
    from repro.sim import hierarchy, multicore
    from repro.sim import system as system_mod
    from repro.sim.dram import DRAMChannel
    from repro.sim.ghostminion import GhostMinionCache

    def factory(layer, make):
        def traced_factory(*args, **kwargs):
            return tracer.wrap(layer, make(*args, **kwargs))
        return traced_factory

    targets = [
        (system_mod.System, "run", "system", False),
        (multicore._CoreRunner, "step", "system", False),
        (multicore.MulticoreSystem, "run", "multicore.arbiter", False),
        (hierarchy, "make_flat_descent", "cache.descent", True),
        (hierarchy, "make_refetch_batch", "gm.refetch", True),
        (system_mod.System, "_make_drainer", "commit.drain", True),
        (system_mod.System, "_make_issuer", "prefetch.issue", True),
        (GhostMinionCache, "apply_until", "gm.apply", False),
        (GhostMinionCache, "fill", "gm.fill", False),
        (DRAMChannel, "access", "dram.access", False),
        (DRAMChannel, "access_batch", "dram.access", False),
        (system_mod, "plan_for", "batch.prescan", False),
        (runner_mod.ExperimentRunner, "build_system",
         "runner.build_system", False),
        (runner_mod.ExperimentRunner, "build_core_system",
         "runner.build_system", False),
        (runner_mod, "cached_workload_pool", "workloads.build", False),
        (runner_mod, "job_key", "exec.job_key", False),
        (runner_mod, "mix_job_key", "exec.job_key", False),
        (ResultStore, "get", "exec.store_get", False),
        (ResultStore, "put", "exec.store_put", False),
    ]
    targets += [(cls, "train", "prefetch.train", False)
                for cls in _prefetcher_classes()]
    originals = []
    try:
        for owner, name, layer, is_factory in targets:
            original = vars(owner)[name]
            originals.append((owner, name, original))
            setattr(owner, name, factory(layer, original) if is_factory
                    else tracer.wrap(layer, original))
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
