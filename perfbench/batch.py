"""One repetition of a batch workload, in a fresh interpreter.

    python3 perfbench/batch.py PLAN.json [--trace]

Builds the session from the generated files (``RunSpec.build_session``),
runs one ``detect()``, looks up the plan's object ids with
``session.match()`` twice (the first pass fills the session's memos and
is not timed, so a lookup's time does not depend on which lookups came
before it), then saves the session to an ``IndexStore`` and times loads
from fresh store objects, taking samples of the reference task of
:mod:`calibrate` after the lookups and before each load.  Every output
is checked (see :func:`check`); the last stdout line is one JSON object
of timings, counts and failures.  ``--trace`` installs the layer wrappers of
:mod:`tracing` first and adds their aggregates.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path


#: Store loads per repetition, each from a fresh IndexStore.
WARM_OPENS = 3


def pairs_digest(pairs) -> str:
    text = "".join(f"{left},{right}\n" for left, right in sorted(pairs))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MiB).

    This process's own peak is read from ``VmHWM``: ``ru_maxrss`` also
    counts the forked copy of the parent that ran before ``exec``, so it
    would report the benchmark driver's size whenever that is larger.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(plan: dict, trace: bool) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import install_degradation_observers, install_tracer

    tracer = install_tracer() if trace else None
    degradations: dict[str, int] = {}

    def note(name: str) -> None:
        degradations[name] = degradations.get(name, 0) + 1

    missing = install_degradation_observers(note)

    from repro.api import RunSpec
    from repro.eval import gold_pairs, pair_metrics
    from repro.ingest import IndexStore
    from repro.strings import levenshtein

    spec = RunSpec(**plan["spec"])
    failures: list[str] = []

    started = time.perf_counter()
    session = spec.build_session()
    setup_s = time.perf_counter() - started

    started = time.perf_counter()
    result = session.detect()
    detect_s = time.perf_counter() - started
    # What follows is serial: keep it on one CPU, as run.py does for the
    # serial workloads (a no-op for them).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    duplicates = [(pair.left, pair.right) for pair in result.duplicate_pairs]
    metrics = pair_metrics(duplicates, gold_pairs(session.ods))
    od_tuples = sum(len(od.tuples) for od in session.ods)

    partners: dict[int, set[int]] = {}
    for left, right in duplicates:
        partners.setdefault(left, set()).add(right)
        partners.setdefault(right, set()).add(left)

    def check_match(object_id: int, matches) -> None:
        if {m.object_id for m in matches} != partners.get(object_id, set()):
            failures.append(f"match({object_id}) disagrees with detect()")

    # The first pass pays the memo fills (the kept-set pass with the
    # filter on; every similar-value search after a pooled detect(),
    # whose searches ran in the workers), in an order the seed draws.
    for object_id in plan["match_ids"]:
        check_match(object_id, session.match(object_id))
    match_latencies = []
    sweep_started = time.perf_counter()
    for object_id in plan["match_ids"]:
        started = time.perf_counter()
        matches = session.match(object_id)
        match_latencies.append(time.perf_counter() - started)
        check_match(object_id, matches)
    sweep_s = time.perf_counter() - sweep_started
    rss = peak_rss_mb()
    # Imported after the peak is read, so its index is not counted.
    import calibrate

    calibration = calibrate.samples(10)

    with tempfile.TemporaryDirectory(dir=plan["workdir"]) as store_dir:
        IndexStore(store_dir).save(spec, session)
        snapshot_bytes = sum(
            path.stat().st_size for path in Path(store_dir).iterdir()
            if path.is_file()
        )
        loads = []
        for _ in range(WARM_OPENS):
            calibration += calibrate.samples(3)
            started = time.perf_counter()
            loaded = IndexStore(store_dir).load(spec)
            loads.append(time.perf_counter() - started)
    if loaded is None or [od.tuples for od in loaded.ods] != [
        od.tuples for od in session.ods
    ]:
        failures.append("IndexStore.load did not restore the session's ODs")

    observed = {
        "objects": len(session.ods),
        "od_tuples": od_tuples,
        "duplicate_pairs": len(duplicates),
        "pairs_sha256": pairs_digest(duplicates),
        "precision": round(metrics.precision, 6),
        "recall": round(metrics.recall, 6),
    }
    failures.extend(check(plan, observed, degradations, missing))

    info = levenshtein._ned_ordered.cache_info()
    stats = session.index.statistics()
    out = {
        "setup_s": setup_s,
        "detect_s": detect_s,
        "warm_open_s": loads,
        "calibration_s": calibration,
        "match_latencies_s": match_latencies,
        "match_sweep_s": sweep_s,
        "peak_rss_mb": rss,
        "observed": observed,
        "failures": failures,
        "attempted": 2 + 2 * len(match_latencies),
        "config": {
            "similarity_strategy": session.config.similarity_strategy,
            "index_encoding": session.config.index_encoding,
            "execution": repr(session.config.execution),
        },
        "counts": {
            "api.od_tuples": od_tuples,
            "core.index.distinct_values": stats.get("distinct_values", 0),
            "framework.candidate_pairs": result.compared_pairs,
            "framework.duplicate_pairs": len(duplicates),
            "strings.ned_cache_hits": info.hits,
            "strings.ned_cache_misses": info.misses,
            "ingest.store.snapshot_bytes": snapshot_bytes,
            "engine.backend_fallbacks": degradations.get(
                "engine.backend_fallbacks", 0
            ),
            "ingest.fallbacks": degradations.get("ingest.fallbacks", 0),
        },
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    return out


def check(plan: dict, observed: dict, degradations: dict, missing: list) -> list[str]:
    """Mismatches against the pinned expectations, plus degradations."""
    failures = []
    for key, want in plan["expected"].items():
        if observed[key] != want:
            failures.append(f"{key}: expected {want!r}, got {observed[key]!r}")
    if plan["parallel"]:
        for name, count in sorted(degradations.items()):
            failures.append(f"{name}: {count} (the pool fell back to serial)")
        if missing:
            failures.append(f"cannot observe fallbacks: {missing} not found")
    return failures


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    out = run(plan, trace="--trace" in argv[1:])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
