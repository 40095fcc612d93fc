"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

The program under test is not edited: :class:`Tracing` replaces the public
functions and methods of each ``repro`` layer with thin wrappers that record
a span (name, start, end, parent, run id) per call and a few counters
(hits, prunes, bytes) from the call's arguments and return value.  Leaving
the context restores every original object.

Spans stay in memory and are written as JSONL when the run ends.  A process
forked while tracing is installed (an engine lane) starts an empty buffer of
its own and writes it to ``spans-<pid>.jsonl`` when it exits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: one recorded span: (span id, name, start, end, parent id, pid)
Span = Tuple[int, str, float, float, int, int]


class Recorder:
    """In-memory span buffer plus counters for one process."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.active = True
        self._reset(root_parent=0)

    def _reset(self, root_parent: int) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: parent of spans opened on a thread with no open span
        self.root_parent = root_parent

    def new_id(self) -> int:
        return self.pid * 1_000_000_000 + next(self._ids)

    def stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> int:
        stack = self.stack()
        return stack[-1] if stack else self.root_parent

    def add(self, span_id: int, name: str, start: float, end: float, parent: int) -> None:
        self.spans.append((span_id, name, start, end, parent, self.pid))

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0.0):
            self.counts[name] = value

    # -- fork handling ---------------------------------------------------
    def after_fork_in_child(self) -> None:
        """A forked lane keeps its own spans and writes them when it exits."""
        if not self.active:
            return
        self._reset(root_parent=0)
        multiprocessing.util.Finalize(self, self.write_process_file, exitpriority=100)

    def write_process_file(self) -> None:
        # this process's thread-local nn counters (lanes run on their main thread)
        _sample_nn_counters(self)
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        write_jsonl(path, self.run_id, self.spans, self.counts)


def write_jsonl(path: str, run_id: str, spans: List[Span], counts: Dict[str, float]) -> None:
    with open(path, "w") as handle:
        for span_id, name, start, end, parent, pid in spans:
            handle.write(json.dumps({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "pid": pid, "run": run_id,
            }) + "\n")
        handle.write(json.dumps({"counts": dict(counts), "run": run_id}) + "\n")


def read_jsonl(path: str) -> Tuple[List[Span], Dict[str, float]]:
    spans: List[Span] = []
    counts: Dict[str, float] = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "counts" in record:
                counts = record["counts"]
            else:
                spans.append((
                    record["id"], record["name"], record["start"], record["end"],
                    record["parent"], record["pid"],
                ))
    return spans, counts


def _sample_nn_counters(recorder: Recorder) -> None:
    """Fold this thread's plan-cache and workspace counters into ``recorder``."""
    nn = sys.modules.get("repro.nn")
    if nn is None:
        return
    plans = nn.plan_cache_stats()
    recorder.count("nn.plan_hits", plans["hits"])
    recorder.count("nn.plan_misses", plans["misses"])
    recorder.peak("nn.workspace_peak_bytes", nn.workspace_stats()["bytes_peak"])


# ---------------------------------------------------------------------------
# hooks: counters taken from a wrapped call's arguments and result
# ---------------------------------------------------------------------------


def _count_false(key: str) -> Callable:
    def post(rec: Recorder, args, kwargs, out, before) -> None:
        rec.count(f"{key}.checked")
        if not out:
            rec.count(f"{key}.pruned")
    return post


def _count_hits(key: str) -> Callable:
    def post(rec: Recorder, args, kwargs, out, before) -> None:
        rec.count(f"{key}.gets")
        if out is not None:
            rec.count(f"{key}.hits")
    return post


def _evaluate_before(args, kwargs):
    """Fresh schemes of an ``evaluate``/``evaluate_many`` call and their steps."""
    evaluator, arg = args[0], args[1]
    schemes = [arg] if hasattr(arg, "identifier") else list(arg)
    fresh = {s.identifier: s.length for s in schemes if s.identifier not in evaluator.results}
    return len(fresh), sum(fresh.values()), evaluator.steps_executed


def _evaluate_after(rec: Recorder, args, kwargs, out, before) -> None:
    fresh, steps_needed, steps_before = before
    rec.count("evaluator.fresh", fresh)
    rec.count("evaluator.steps_needed", steps_needed)
    rec.count("evaluator.steps_executed", args[0].steps_executed - steps_before)


def _snapshot_put_before(args, kwargs):
    return args[0].bytes_written


def _snapshot_put_after(rec: Recorder, args, kwargs, out, before) -> None:
    rec.count("snapshot.bytes_written", args[0].bytes_written - before)


def _submit_after_factory(name: str) -> Callable:
    """``LanePool.submit`` returns a future: the span ends when it is done."""

    def post(rec: Recorder, args, kwargs, future, before) -> None:
        start, parent = before
        span_id = rec.new_id()

        def done(_future) -> None:
            rec.add(span_id, name, start, time.perf_counter(), parent)

        future.add_done_callback(done)
    return post


def _submit_before(rec: Recorder):
    def before(args, kwargs):
        return time.perf_counter(), rec.parent()
    return before


def _count_call(key: str) -> Callable:
    def post(rec: Recorder, args, kwargs, out, before) -> None:
        rec.count(key)
    return post


# ---------------------------------------------------------------------------
# the layer map: what to wrap and under which span name
# ---------------------------------------------------------------------------

#: (module, qualified attribute, span name, before hook, after hook).  A
#: dotted attribute is a method looked up on the class named before the dot.
TARGETS: List[Tuple[str, str, str, Optional[str], Optional[str]]] = [
    # knowledge
    ("repro.knowledge.embedding", "learn_embeddings", "knowledge.learn", None, None),
    ("repro.knowledge.transr", "TransR.train_epoch", "knowledge.transr_epoch", None, None),
    ("repro.knowledge.nn_exp", "enhance_embeddings", "knowledge.nn_exp", None, None),
    ("repro.knowledge.graph", "build_knowledge_graph", "knowledge.graph", None, None),
    # core: search driver, Pareto selection, F_mo
    ("repro.core.search", "SearchStrategy.record", "search.record", None, None),
    ("repro.core.pareto", "pareto_mask", "pareto", None, None),
    ("repro.core.pareto", "pareto_indices", "pareto", None, None),
    ("repro.core.pareto", "nondominated_sort", "pareto", None, None),
    ("repro.core.pareto", "crowding_distance", "pareto", None, None),
    ("repro.core.pareto", "hypervolume_2d", "pareto", None, None),
    ("repro.core.pareto", "select_diverse", "pareto", None, None),
    ("repro.core.fmo", "Fmo.predict", "fmo.predict", None, None),
    ("repro.core.fmo", "Fmo.train", "fmo.train", None, None),
    ("repro.core.fmo", "Fmo.pretrain_from_experience", "fmo.train", None, None),
    # analysis
    ("repro.analysis.costmodel", "SchemeCostModel.predict", "costmodel.predict", None, None),
    ("repro.analysis.costmodel", "SchemeCostModel.feasible", "costmodel.feasible",
     None, "feasible"),
    ("repro.analysis.linter", "lint_scheme", "lint", None, None),
    # evaluator, compression, simulator
    ("repro.core.evaluator", "SchemeEvaluator.evaluate", "evaluator.evaluate",
     "evaluate", "evaluate"),
    ("repro.core.evaluator", "SchemeEvaluator.evaluate_many", "evaluator.evaluate",
     "evaluate", "evaluate"),
    ("repro.sim.accuracy", "AccuracyModel.step", "sim.step", None, None),
    # nn
    ("repro.nn.train", "Trainer.fit", "nn.fit", None, None),
    ("repro.nn.train", "Trainer.evaluate", "nn.eval_accuracy", None, None),
    ("repro.nn.train", "evaluate_accuracy", "nn.eval_accuracy", None, None),
    ("repro.nn.profile", "profile_model", "nn.profile", None, None),
    ("repro.nn.profile", "count_flops", "nn.profile", None, None),
    ("repro.nn.functional", "conv2d", "nn.conv2d", None, None),
    # engine, snapshots, result cache
    ("repro.core.engine", "EvaluationEngine.evaluate_many", "engine.evaluate_many", None, None),
    ("repro.core.engine", "LanePool.submit", None, "submit", "submit"),
    ("repro.core.engine", "LanePool.revive", "engine.revive", None, "revive"),
    ("repro.core.engine", "ResultCache.get", "cache.get", None, "cache"),
    ("repro.core.engine", "ResultCache.put", "cache.put", None, None),
    ("repro.core.snapshots", "ModelSnapshotStore.get", "snapshot.get", None, "snapshot"),
    ("repro.core.snapshots", "ModelSnapshotStore.put", "snapshot.put",
     "snapshot_put", "snapshot_put"),
    # serve
    ("repro.serve.scheduler", "JobScheduler.submit", "serve.submit", None, None),
    ("repro.serve.jobs", "JobTable.progress", "serve.progress", None, None),
]

#: solver hooks: every registered solver class's own propose/observe
SOLVER_METHODS = (("propose", "solver.propose"), ("observe", "solver.observe"))


def _hooks(rec: Recorder, before: Optional[str], after: Optional[str]):
    befores = {
        "evaluate": _evaluate_before,
        "snapshot_put": _snapshot_put_before,
        "submit": _submit_before(rec),
    }
    afters = {
        "feasible": _count_false("costmodel.feasible"),
        "evaluate": _evaluate_after,
        "cache": _count_hits("cache"),
        "snapshot": _count_hits("snapshot"),
        "snapshot_put": _snapshot_put_after,
        "submit": _submit_after_factory("engine.lane_rtt"),
        "revive": _count_call("engine.lane_restarts"),
    }
    return (befores[before] if before else None), (afters[after] if after else None)


def _make_wrapper(rec: Recorder, fn: Callable, name: Optional[str], before, after) -> Callable:
    """A wrapper that records one span named ``name`` (None: hooks only)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        if name is None:
            out = fn(*args, **kwargs)
        else:
            stack = rec.stack()
            parent = stack[-1] if stack else rec.root_parent
            span_id = rec.new_id()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.add(span_id, name, start, time.perf_counter(), parent)
                stack.pop()
        if after is not None:
            after(rec, args, kwargs, out, state)
        return out

    return wrapper


class Tracing:
    """Install span wrappers on every ``repro`` layer; restore on exit.

    ``with Tracing(run_id, out_dir) as tracing:`` runs the body traced;
    ``tracing.recorder`` holds this process's spans, and
    :meth:`write` dumps them as JSONL.  :attr:`patched` lists every
    ``(owner, attribute, original)`` replaced, so a test can check that
    each original is back after the block.
    """

    def __init__(self, run_id: str, out_dir: str):
        self.recorder = Recorder(run_id, out_dir)
        self.patched: List[Tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------------
    def __enter__(self) -> "Tracing":
        rec = self.recorder
        # runs in each multiprocessing child after its finalizer registry
        # is cleared, so the Finalize registered there survives
        multiprocessing.util.register_after_fork(rec, Recorder.after_fork_in_child)
        for module_name, attr, name, before, after in TARGETS:
            module = importlib.import_module(module_name)
            hooks = _hooks(rec, before, after)
            if "." in attr:
                cls_name, method = attr.split(".")
                self._patch_method(getattr(module, cls_name), method, name, *hooks)
            else:
                self._patch_function(module, attr, name, *hooks)
        self._patch_solvers()
        self._patch_compression()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        self.recorder.active = False
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def _patch_function(self, module, attr: str, name, before, after) -> None:
        original = getattr(module, attr)
        wrapper = _make_wrapper(self.recorder, original, name, before, after)
        # rebind every ``from module import fn`` copy across the package too
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(other, attr, None) is original:
                self.patched.append((other, attr, original))
                setattr(other, attr, wrapper)

    def _patch_method(self, cls, method: str, name, before, after) -> None:
        original = cls.__dict__[method]
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__qualname__}.{method} is not a plain method")
        wrapper = _make_wrapper(self.recorder, original, name, before, after)
        self.patched.append((cls, method, original))
        setattr(cls, method, wrapper)

    def _patch_solvers(self) -> None:
        from repro.core.solver import SOLVER_REGISTRY, Solver, _ensure_builtin_solvers

        _ensure_builtin_solvers()
        classes = {Solver, *SOLVER_REGISTRY.values()}
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            for method, name in SOLVER_METHODS:
                if method in cls.__dict__:
                    self._patch_method(cls, method, name, None, None)

    def _patch_compression(self) -> None:
        from repro.compression import EXTENSION_METHODS, METHODS

        methods = {**METHODS, **EXTENSION_METHODS}
        for label in sorted(methods):
            cls = type(methods[label])
            if "apply" in cls.__dict__:
                self._patch_method(cls, "apply", f"compression.{label}.apply", None, None)

    # -- output ----------------------------------------------------------
    def write(self, path: str) -> None:
        """Write this process's spans and counters (nn counters sampled now)."""
        _sample_nn_counters(self.recorder)
        rec = self.recorder
        write_jsonl(path, rec.run_id, rec.spans, rec.counts)


# ---------------------------------------------------------------------------
# analysis: self time, outermost totals, unattributed share
# ---------------------------------------------------------------------------


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id → duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {s[0]: (s[2], s[3]) for s in spans}
    for span_id, _name, start, end, parent, _pid in spans:
        if parent in bounds:
            p_start, p_end = bounds[parent]
            clipped = (max(start, p_start), min(end, p_end))
            if clipped[1] > clipped[0]:
                children[parent].append(clipped)
    return {
        span_id: (end - start) - _union_length(children.get(span_id, []))
        for span_id, _name, start, end, _parent, _pid in spans
    }


def outermost_totals(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per span name: summed duration and call count, skipping spans nested
    inside a span of the same name (so recursion is not counted twice)."""
    by_id = {s[0]: s for s in spans}
    totals: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        name = span[1]
        calls[name] += 1
        parent = span[4]
        nested = False
        while parent in by_id:
            ancestor = by_id[parent]
            if ancestor[1] == name:
                nested = True
                break
            parent = ancestor[4]
        if not nested:
            totals[name] += span[3] - span[2]
    return totals, calls


def self_time_table(spans: List[Span]) -> Dict[str, float]:
    """Per span name: summed self time."""
    own = self_times(spans)
    table: Dict[str, float] = defaultdict(float)
    for span in spans:
        table[span[1]] += own[span[0]]
    return dict(table)
