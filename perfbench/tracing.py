"""Layer spans and counters, installed from outside the program.

The traced run wraps the public entry points of each layer
(``xmlkit``, ``api``, ``core``, ``strings``, ``framework``, ``engine``,
``ingest``, ``serve``) before the program runs.  Every wrapper records
one span: busy time, self time (busy minus the time spent in wrapped
children on the same thread) and a call count.  A span re-entered under
its own name (recursion, ``from_partial`` calling ``__init__``) is timed
once, at the outermost call.  Spans are aggregated in memory and read
out with :meth:`Tracer.snapshot` when the run ends.

Every batch repetition, traced or not, also installs
:func:`install_degradation_observers`: two wrappers called once per
build and once per ``detect()``, which report a pool or ingest that
quietly fell back to serial.

A patch point that no longer exists is skipped and listed in
``Tracer.missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: Span name -> patch points ("module:Class.attr" or "module:function").
SPANS = {
    "xmlkit.parse": ["repro.xmlkit.parser:parse"],
    "xmlkit.absolute_path": ["repro.xmlkit.tree:Element.absolute_path"],
    "api.spec.build_session": ["repro.api.spec:RunSpec.build_session"],
    "api.generate_ods": ["repro.api.corpus:Corpus.generate_ods"],
    "core.index.build": [
        "repro.core.index:CorpusIndex.__init__",
        "repro.core.index:CorpusIndex.from_partial",
    ],
    "core.index.merge_partial": ["repro.core.index:CorpusIndex.merge_partial"],
    "core.index.freeze": ["repro.core.index:CorpusIndex.freeze"],
    "core.index.block_keys": ["repro.core.index:CorpusIndex.block_keys"],
    "core.object_filter.decide": [
        "repro.core.object_filter:ObjectFilter.decide"
    ],
    "strings.search": [
        "repro.strings.qgram:QGramIndex.search",
        "repro.strings.signatures:SignatureIndex.search",
    ],
    "framework.classifier.score": [
        "repro.framework.classifier:ThresholdClassifier.score_and_classify"
    ],
    "framework.clustering": ["repro.framework.clustering:duplicate_clusters"],
    "engine.run": ["repro.engine.executor:ParallelClassifier.run"],
    "ingest.build": ["repro.ingest.builder:ParallelIngestor.build"],
    "ingest.store.save": ["repro.ingest.store:IndexStore.save"],
    "ingest.store.load": ["repro.ingest.store:IndexStore.load"],
    "api.session.detect": ["repro.api.session:DetectionSession.detect"],
    "api.session.match": ["repro.api.session:DetectionSession.match"],
    "api.session.extend": ["repro.api.session:DetectionSession.extend"],
    "api.session.incremental_seed": [
        "repro.framework.incremental:IncrementalDeduplicator.add_all"
    ],
    "api.session.kept_for": ["repro.api.session:DetectionSession._kept_for"],
}

#: Lock entry waits (time to enter the context manager, not to hold it).
LOCK_WAITS = {
    "serve.read_lock_wait_s": "repro.serve.sessions:ReadWriteLock.read_locked",
    "serve.write_lock_wait_s": "repro.serve.sessions:ReadWriteLock.write_locked",
}


def _resolve(point: str):
    """``(owner, attr, original)`` for a patch point, or ``None``."""
    module_name, _, path = point.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    if original is None:
        return None
    return owner, attr, original


def _patch(owner, attr: str, original, wrapper) -> None:
    """Install ``wrapper``; module functions are replaced everywhere.

    A function imported by name into another module is a separate
    binding, so every loaded ``repro`` module holding the original
    object gets the wrapper too.
    """
    if isinstance(original, (classmethod, staticmethod)):
        wrapper = type(original)(wrapper)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _function(original):
    if isinstance(original, (classmethod, staticmethod)):
        return original.__func__
    return original


class Tracer:
    """Thread-safe span aggregation (busy, self, calls) plus counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def thread_count(self, name: str) -> float:
        """A per-thread counter (used to attribute work to one span)."""
        return getattr(self._local, name, 0)

    def count(self, name: str, amount: float = 1, per_thread: bool = False) -> None:
        with self._lock:
            self.counts[name] += amount
        if per_thread:
            setattr(self._local, name, self.thread_count(name) + amount)

    def wrap(self, name: str, function, before=None, after=None):
        """``function`` timed as span ``name``.

        ``before(args)`` runs ahead of the call and its value is handed
        to ``after(args, result, state)`` once the call returns.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[0] == name for frame in stack):
                return function(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.busy[name] += elapsed
                    tracer.self_time[name] += elapsed - frame[1]
                    tracer.calls[name] += 1
            if after is not None:
                after(args, result, state)
            return result

        return traced

    def wrap_lock_wait(self, name: str, function):
        """A context-manager factory whose ``__enter__`` wait is counted."""
        tracer = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            manager = function(*args, **kwargs)
            return _TimedEnter(manager, tracer, name)

        return timed

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "busy": dict(self.busy),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "missing": list(self.missing),
            }


class _TimedEnter:
    def __init__(self, manager, tracer: Tracer, name: str) -> None:
        self._manager = manager
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        start = time.perf_counter()
        value = self._manager.__enter__()
        self._tracer.count(self._name, time.perf_counter() - start)
        return value

    def __exit__(self, *exc):
        return self._manager.__exit__(*exc)


# ----------------------------------------------------------------------
# Hooks that turn boundary observations into counters
# ----------------------------------------------------------------------
def _hooks(tracer: Tracer) -> dict:
    def decisions_before(args):
        return len(args[0].decisions)

    def decisions_after(args, decision, before):
        if len(args[0].decisions) > before:
            tracer.count("core.object_filter.evaluated", per_thread=True)
            if not decision.kept:
                tracer.count("core.object_filter.pruned")

    def verifications_before(args):
        return getattr(args[0], "verifications", 0)

    def verifications_after(args, result, before):
        tracer.count(
            "strings.verifications",
            getattr(args[0], "verifications", 0) - before,
        )
        tracer.count("strings.similar_values", len(result))

    def passes_before(args):
        return tracer.thread_count("core.object_filter.evaluated")

    def passes_after(args, result, before):
        if tracer.thread_count("core.object_filter.evaluated") > before:
            tracer.count("api.session.filter_passes")

    return {
        "core.object_filter.decide": (decisions_before, decisions_after),
        "strings.search": (verifications_before, verifications_after),
        "api.session.kept_for": (passes_before, passes_after),
    }


def install_tracer() -> Tracer:
    """Wrap every layer entry point; returns the live tracer."""
    import repro.api  # noqa: F401 - load the package graph before patching
    import repro.ingest  # noqa: F401
    import repro.serve  # noqa: F401

    tracer = Tracer()
    hooks = _hooks(tracer)
    for name, points in SPANS.items():
        before, after = hooks.get(name, (None, None))
        for point in points:
            resolved = _resolve(point)
            if resolved is None:
                tracer.missing.append(point)
                continue
            owner, attr, original = resolved
            wrapper = tracer.wrap(name, _function(original), before, after)
            _patch(owner, attr, original, wrapper)
    for name, point in LOCK_WAITS.items():
        resolved = _resolve(point)
        if resolved is None:
            tracer.missing.append(point)
            continue
        owner, attr, original = resolved
        _patch(owner, attr, original, tracer.wrap_lock_wait(name, original))
    return tracer


def _engine_fallback(engine, count) -> None:
    if engine.last_backend != engine.policy.backend:
        count("engine.backend_fallbacks")


def _ingest_fallback(ingestor, count) -> None:
    report = ingestor.last_report
    if report is not None and report.reason is not None:
        count("ingest.fallbacks")


#: Where pool and ingest fallbacks are observed.
DEGRADATION_POINTS = {
    "repro.engine.executor:ParallelClassifier.run": _engine_fallback,
    "repro.ingest.builder:ParallelIngestor.build": _ingest_fallback,
}


def install_degradation_observers(count) -> list[str]:
    """Count pool/ingest fallbacks via ``count(name)``; returns misses.

    Called once per ``ParallelClassifier.run`` and once per
    ``ParallelIngestor.build``, so untimed runs stay unperturbed.  In a
    traced run, install it after :func:`install_tracer`, so that it wraps
    the span wrappers.
    """
    import repro.api  # noqa: F401

    missing = []
    for point, observe in DEGRADATION_POINTS.items():
        resolved = _resolve(point)
        if resolved is None:
            missing.append(point)
            continue
        owner, attr, original = resolved

        def observed(self, *args, _original=original, _observe=observe, **kwargs):
            result = _original(self, *args, **kwargs)
            _observe(self, count)
            return result

        setattr(owner, attr, functools.wraps(original)(observed))
    return missing
