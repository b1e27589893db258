"""Layer spans recorded from outside the program.

`Tracer.installed()` wraps the public functions of the skymine layers in
place and restores them on exit. Each call becomes a span (name, start, end,
parent); spans stay in memory and are aggregated by `Tracer.aggregate`
when the run ends. A span opened on a worker thread (the scan's thread pool)
has no parent on its own thread, so it attaches to the innermost span open on
the main thread: ops run one at a time, so that is the op that started it.

A target that no longer exists is reported as absent instead of failing the
run, so the traced run survives refactors that rename or delete functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None


def _scan_counts(result):
    stats = result[1]
    return {"bytes_read": stats.bytes_read, "records_scanned": stats.records_scanned,
            "records_matched": stats.records_matched}


def _neighbors_counts(result):
    table, evals = result
    return {"distance_evaluations": int(evals), "pairs": len(table)}


def _em_counts(result):
    stats = result[1]
    return {"responsibility_evaluations": stats.responsibility_evaluations,
            "nodes_pruned": stats.nodes_pruned}


def _em_name(args, kwargs, signature):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return f"mining.em_fit.{bound.arguments['mode']}"


CLI_COMMANDS = ("ingest", "index", "master", "query", "lc", "classify", "trigger",
                "movers", "neighbors", "corr", "em")

# (module, attribute path, counts from the return value, span name from args)
TARGETS = [
    ("cli", "run", None, None),
    *[("cli", f"{cmd}:callback", None, None) for cmd in CLI_COMMANDS],
    ("store", "read_partition", None, None),
    ("store", "read_all", None, None),
    ("store", "scan", _scan_counts, None),
    ("store", "ingest_detections", None, None),
    ("store", "build_indexes", None, None),
    ("store", "build_master", None, None),
    ("store", "write_masters", None, None),
    ("store", "read_masters", None, None),
    ("sphere", "neighbors_join", _neighbors_counts, None),
    ("sphere", "SpatialIndex.within", None, None),
    ("sphere", "Cone.contains", None, None),
    ("sphere", "ConvexPolygon.contains", None, None),
    ("kdtree", "KdTree.__init__", None, None),
    ("kdtree", "KdTree.query_radius", None, None),
    ("timedomain", "periodogram", None, None),
    ("timedomain", "fit_lightcurve", None, None),
    ("timedomain", "run_trigger", lambda r: {"alerts": len(r)}, None),
    ("timedomain", "link_movers", lambda r: {"tracks": len(r)}, None),
    ("timedomain", "fit_motion", None, None),
    ("mining", "correlation_ls", None, None),
    ("mining", "pair_count", None, None),
    ("mining", "cross_pair_count", None, None),
    ("mining", "em_fit", _em_counts, _em_name),
]


def _resolve(module_name, path):
    """(owner, attribute, original, span name) for a target; raises
    AttributeError or KeyError when the program no longer has it."""
    module = importlib.import_module(f"skymine.{module_name}")
    if ":" in path:  # a click command's callback
        cmd, attr = path.split(":")
        owner = module.cli.commands[cmd]
        return owner, attr, getattr(owner, attr), f"{module_name}.{cmd}"
    *outer, attr = path.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr], f"{module_name}.{path}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, counts_fn, name_fn):
        signature = inspect.signature(fn) if name_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(name_fn(args, kwargs, signature) if name_fn else name, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts_fn is not None:
                span.counts = counts_fn(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists for the duration of the block."""
        saved = []
        self.absent = []
        for module_name, path, counts_fn, name_fn in TARGETS:
            try:
                owner, attr, original, name = _resolve(module_name, path)
            except (AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path.replace(':callback', '')}")
                continue
            setattr(owner, attr, self._wrap(original, name, counts_fn, name_fn))
            saved.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def aggregate(self) -> dict:
        """Per span name: calls, total_s, self_s and summed counts. Self time
        is the span's duration minus the union of its children's intervals,
        so overlapping worker-thread children are not subtracted twice."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.start, s.end))
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "counts": defaultdict(int)})
        for s in self.spans:
            a = agg[s.name]
            a["calls"] += 1
            a["total_s"] += s.end - s.start
            a["self_s"] += (s.end - s.start) - _covered(children.get(id(s), ()), s.start, s.end)
            for k, v in (s.counts or {}).items():
                a["counts"][k] += v
        return agg


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(agg: dict, reps: int) -> dict:
    """Per-layer values per repetition of the traced schedule, keyed
    `<span name>.<quantity>`. Every repetition runs the same ops, so counts
    divide exactly."""
    out = {}
    for name, a in agg.items():
        out[f"{name}.calls"] = a["calls"] // reps
        out[f"{name}.total_s"] = a["total_s"] / reps
        out[f"{name}.self_s"] = a["self_s"] / reps
        for k, v in a["counts"].items():
            out[f"{name}.{k}"] = v // reps
    if out.get("store.scan.records_scanned"):
        out["store.scan.match_frac"] = (out["store.scan.records_matched"]
                                        / out["store.scan.records_scanned"])
    if out.get("sphere.neighbors_join.distance_evaluations"):
        out["sphere.neighbors_join.pairs_per_eval"] = (
            out["sphere.neighbors_join.pairs"] / out["sphere.neighbors_join.distance_evaluations"])
    return out
