"""DogmatiX benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Workloads (see ``BENCHMARK.json`` for why each exists):

* ``d3-freedb``  Dataset 3, 300 CDs, paper defaults (object filter on);
* ``d1-pool``    Dataset 1, 150 CDs + 150 dirty duplicates, filter off,
  2 shard workers and 2 ingest workers; it fails the run if either pool
  falls back to serial or its pairs differ from the serial result;
* ``serve-mixed`` the HTTP daemon over Dataset 1 (50 + 50), two
  closed-loop clients reading, one write between read rounds.

Inputs are generated under ``perfbench/_work`` before timing starts.
Every repetition runs in a new interpreter with ``PYTHONHASHSEED``
derived from ``--seed`` and with ``REPRO_SIMILARITY_STRATEGY`` /
``REPRO_INDEX_ENCODING`` removed, so the library defaults are what is
measured.  Repetitions continue until ``--seconds`` have passed, and at
least four run; timings are medians over them (store opens, and the
serve workload's detects and rounds: over every sample of every
repetition).  Every duration and rate of a repetition is first brought
to reference speed with that repetition's samples of a fixed reference
task (``calibrate.py``); the medians as measured and each repetition's
speed factor are on the context line.  Per-layer times are as measured
in the traced repetition.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced repetition (layer wrappers from
``tracing.py``) and prints the per-layer metrics.  Lines before the last
describe the run (resolved config, hash seeds, sample counts, failures);
the last line is the JSON result.  Any failed check makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPETITIONS = 4
#: Every run ends well inside 180 s: no repetition starts unless twice
#: the longest one so far still fits before this many seconds.
RUN_BUDGET_S = 165

#: Every end-to-end metric, reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "detect_s": "s",
    "precision": "ratio",
    "recall": "ratio",
    "peak_rss_mb": "MiB",
    "match_p50_ms": "ms",
    "match_p99_ms": "ms",
    "ops_per_s": "1/s",
    "warm_open_s": "s",
}

#: Spans contributing busy / self / calls metrics (see tracing.SPANS).
SPAN_NAMES = (
    "xmlkit.parse",
    "xmlkit.absolute_path",
    "api.spec.build_session",
    "api.generate_ods",
    "core.index.build",
    "core.index.merge_partial",
    "core.index.freeze",
    "core.index.block_keys",
    "core.object_filter.decide",
    "strings.search",
    "framework.classifier.score",
    "framework.clustering",
    "engine.run",
    "ingest.build",
    "ingest.store.save",
    "ingest.store.load",
    "api.session.detect",
    "api.session.match",
    "api.session.extend",
    "api.session.incremental_seed",
    "api.session.kept_for",
)

#: Counters and ratios of the traced run, with units.
LAYER_COUNTS = {
    "api.od_tuples": "count",
    "core.index.distinct_values": "count",
    "core.object_filter.evaluated": "count",
    "core.object_filter.pruned": "count",
    "core.object_filter.prune_ratio": "ratio",
    "strings.verifications": "count",
    "strings.hit_ratio": "ratio",
    "strings.ned_cache_hits": "count",
    "strings.ned_cache_misses": "count",
    "framework.candidate_pairs": "count",
    "framework.duplicate_pairs": "count",
    "framework.dup_ratio": "ratio",
    "engine.backend_fallbacks": "count",
    "ingest.fallbacks": "count",
    "ingest.store.snapshot_bytes": "bytes",
    "api.session.filter_passes": "count",
    "serve.request_overhead_ms": "ms",
    "serve.read_lock_wait_s": "s",
    "serve.write_lock_wait_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.setup_unaccounted_ratio": "ratio",
    "trace.detect_unaccounted_ratio": "ratio",
}

#: Spans whose self time is what the wrapped layers leave unaccounted.
CONTAINER_SPANS = ("api.spec.build_session", "api.session.detect")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}_s"] = "s"
        units[f"{span}_self_s"] = "s"
        units[f"{span}_calls"] = "count"
    units.update(LAYER_COUNTS)
    return units


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def child_env(seed: int, repetition: int) -> tuple[dict, str]:
    from workloads import hash_seed

    # main() already removed the REPRO_* config overrides from os.environ.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed(seed, repetition)
    return env, env["PYTHONHASHSEED"]


class Schedule:
    """When to start another repetition (and how long one may take)."""

    def __init__(self, seconds: float, trace: bool) -> None:
        self.seconds = seconds
        self.minimum = 1 if trace else MIN_REPETITIONS
        self.trace = trace
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S
        self.durations: list[float] = []

    def timed(self, call):
        started = time.monotonic()
        value = call()
        self.durations.append(time.monotonic() - started)
        return value

    def another(self, done: int) -> bool:
        now = time.monotonic()
        if now + 2 * max(self.durations, default=0.0) > self.deadline:
            return False
        if done < self.minimum:
            return True
        # Past the minimum, a repetition starts only if a typical one
        # still ends within --seconds.
        typical = statistics.median(self.durations)
        return not self.trace and now + typical - self.started <= self.seconds

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def run_child(command: list[str], env: dict, timeout: float) -> dict:
    completed = subprocess.run(
        [sys.executable, *command],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-4000:])
        raise RuntimeError(f"{command[0]} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_batch(plan: dict, plan_path: Path, seconds: float, trace: bool):
    command = [str(HERE / "batch.py"), str(plan_path)]
    repetitions, hash_seeds = [], []
    schedule = Schedule(seconds, trace)
    while schedule.another(len(repetitions)):
        env, hashed = child_env(plan["seed"], len(repetitions))
        hash_seeds.append(hashed)
        repetitions.append(schedule.timed(
            lambda: run_child(command, env, schedule.remaining())
        ))
    traced = None
    if trace:
        env, hashed = child_env(plan["seed"], len(repetitions))
        hash_seeds.append(hashed)
        traced = run_child([*command, "--trace"], env, schedule.remaining())

    failures = [f for rep in repetitions for f in rep["failures"]]
    observed = {json.dumps(rep["observed"], sort_keys=True) for rep in repetitions}
    if traced is not None:
        failures.extend(traced["failures"])
        observed.add(json.dumps(traced["observed"], sort_keys=True))
    if len(observed) > 1:
        failures.append("repetitions disagree on the detection output")
    attempted = sum(rep["attempted"] for rep in repetitions)

    factors = [calibrate.speed_factor(rep["calibration_s"]) for rep in repetitions]
    unscaled = [1.0] * len(repetitions)
    # The reference task runs on the CPU the serial steps run on; the
    # pool's set-up and detect() run on every CPU, and scaling them by
    # one CPU's speed widened their spread (0.12 -> 0.23 over ten runs).
    metrics = batch_metrics(
        repetitions, factors, unscaled if plan["parallel"] else factors
    )
    first = repetitions[0]
    context = {
        "repetitions": len(repetitions),
        "hash_seeds": hash_seeds,
        "speed_factors": factors,
        "measured": batch_metrics(repetitions, unscaled, unscaled),
        "config": first["config"],
        "match_lookups": sum(len(rep["match_latencies_s"]) for rep in repetitions),
        "observed": first["observed"],
    }
    layers = None
    if traced is not None:
        layers = batch_layers(traced, first)
        attempted += traced["attempted"]
        context["missing_patch_points"] = traced["trace"]["missing"]
    return metrics, layers, failures, attempted, context


def batch_metrics(
    repetitions: list[dict], factors: list[float], build_factors: list[float]
) -> dict:
    """End-to-end metrics, each repetition's timings scaled by its factor.

    ``build_factors`` scale set-up and ``detect()``, ``factors`` the rest.
    """
    # Each repetition looks up the same ids in the same order; a lookup's
    # latency is its median over repetitions, and the percentiles are
    # taken over objects, so one slow repetition cannot move the tail.
    per_object = [
        statistics.median(samples)
        for samples in zip(*(
            [x * f for x in rep["match_latencies_s"]]
            for rep, f in zip(repetitions, factors)
        ))
    ]
    pairs = list(zip(repetitions, factors))
    builds = list(zip(repetitions, build_factors))
    observed = repetitions[0]["observed"]
    return {
        "setup_s": statistics.median(rep["setup_s"] * f for rep, f in builds),
        "detect_s": statistics.median(rep["detect_s"] * f for rep, f in builds),
        "precision": observed["precision"],
        "recall": observed["recall"],
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in repetitions),
        "match_p50_ms": 1000 * percentile(per_object, 0.50),
        "match_p99_ms": 1000 * percentile(per_object, 0.99),
        "ops_per_s": statistics.median(
            len(rep["match_latencies_s"]) / (rep["match_sweep_s"] * f)
            for rep, f in pairs
        ),
        "warm_open_s": statistics.median(
            x * f for rep, f in pairs for x in rep["warm_open_s"]
        ),
    }


def batch_layers(traced: dict, untraced: dict) -> dict:
    trace = traced["trace"]
    counts = dict(traced["counts"])
    counts["trace.overhead_ratio"] = ratio(traced["detect_s"], untraced["detect_s"])
    return layer_metrics(trace, counts)


def layer_metrics(trace: dict, counts: dict) -> dict:
    """Every per-layer metric from one traced repetition (0 if unused)."""
    busy, own, calls, traced = (
        trace["busy"], trace["self"], trace["calls"], trace["counts"],
    )
    values: dict[str, float] = {}
    for span in SPAN_NAMES:
        values[f"{span}_s"] = busy.get(span, 0.0)
        values[f"{span}_self_s"] = own.get(span, 0.0)
        values[f"{span}_calls"] = calls.get(span, 0)
    for name in LAYER_COUNTS:
        values[name] = counts.get(name, traced.get(name, 0))
    values["core.object_filter.prune_ratio"] = ratio(
        values["core.object_filter.pruned"], values["core.object_filter.evaluated"]
    )
    values["strings.hit_ratio"] = ratio(
        traced.get("strings.similar_values", 0), values["strings.verifications"]
    )
    values["framework.dup_ratio"] = ratio(
        values["framework.duplicate_pairs"], values["framework.candidate_pairs"]
    )
    values["trace.setup_unaccounted_ratio"] = ratio(
        own.get("api.spec.build_session", 0.0), busy.get("api.spec.build_session", 0.0)
    )
    values["trace.detect_unaccounted_ratio"] = ratio(
        own.get("api.session.detect", 0.0), busy.get("api.session.detect", 0.0)
    )
    return values


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def run_serve_workload(plan: dict, plan_path: Path, seconds: float, trace: bool):
    from serve import reference, run_session
    from repro.eval import pair_metrics

    env, _ = child_env(plan["seed"], 0)
    expected = reference(plan, plan_path, env)
    gold = [tuple(pair) for pair in expected["gold"]]
    sessions, hash_seeds = [], []
    schedule = Schedule(seconds, trace)
    while schedule.another(len(sessions)):
        env, hashed = child_env(plan["seed"], len(sessions) + 1)
        hash_seeds.append(hashed)
        sessions.append(schedule.timed(
            lambda: run_session(plan, expected, env, trace=False)
        ))
    traced = None
    if trace:
        env, hashed = child_env(plan["seed"], len(sessions) + 1)
        hash_seeds.append(hashed)
        traced = run_session(plan, expected, env, trace=True)

    failures = [f for s in sessions for f in s["failures"]]
    attempted = sum(s["attempted"] for s in sessions)
    if traced is not None:
        failures.extend(traced["failures"])
        attempted += traced["attempted"]
    quality = pair_metrics([tuple(p) for p in sessions[0]["duplicates"]], gold)
    reads = [x for s in sessions for x in s["read_latencies_s"]]
    post_write = [x for s in sessions for x in s["post_write_read_latencies_s"]]
    writes = [x for s in sessions for x in s["write_latencies_s"]]
    factors = [calibrate.speed_factor(s["calibration_s"]) for s in sessions]
    metrics = serve_metrics(sessions, factors, quality)
    context = {
        "repetitions": len(sessions),
        "hash_seeds": hash_seeds,
        "speed_factors": factors,
        "measured": serve_metrics(sessions, [1.0] * len(sessions), quality),
        "read_samples": len(reads),
        "post_write_reads": len(post_write),
        "post_write_share": ratio(len(post_write), len(reads)),
        "p99_population": (
            "post-write reads (share above 1%)"
            if len(post_write) > 0.01 * len(reads)
            else "ordinary reads (share below 1%)"
        ),
        "write_samples": len(writes),
        "warm_detect_samples": sum(len(s["detect_s"]) for s in sessions),
        "session_detect_s": statistics.median(
            s["session_detect_s"] for s in sessions
        ),
        "extend_p50_ms": 1000 * percentile(writes, 0.50) if writes else None,
        "setup_parts_s": {
            key: statistics.median(s[key] for s in sessions)
            for key in ("open_s", "first_read_s", "first_write_s")
        },
    }
    layers = None
    if traced is not None:
        layers = serve_layers(traced, sessions[0])
        context["missing_patch_points"] = traced["server"]["trace"]["missing"]
    return metrics, layers, failures, attempted, context


def serve_metrics(sessions: list[dict], factors: list[float], quality) -> dict:
    """End-to-end metrics, each session's timings scaled by its factor."""
    pairs = list(zip(sessions, factors))

    def scaled(key: str) -> list[float]:
        return [x * f for s, f in pairs for x in s[key]]

    reads = scaled("read_latencies_s")
    return {
        "setup_s": statistics.median(s["setup_s"] * f for s, f in pairs),
        "detect_s": statistics.median(scaled("detect_s")),
        "precision": quality.precision,
        "recall": quality.recall,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        "match_p50_ms": 1000 * percentile(reads, 0.50),
        "match_p99_ms": 1000 * percentile(reads, 0.99),
        "ops_per_s": statistics.median(
            x / f for s, f in pairs for x in s["round_ops_per_s"]
        ),
        "warm_open_s": statistics.median(scaled("warm_open_s")),
    }


def serve_layers(traced: dict, untraced: dict) -> dict:
    server = traced["server"]
    trace = server["trace"]
    counts = dict(server["counts"])
    found = re.search(r"(\d+) comparisons", traced["detect_summary"])
    counts["framework.candidate_pairs"] = int(found.group(1)) if found else 0
    counts["framework.duplicate_pairs"] = len(traced["duplicates"])
    counts["ingest.store.snapshot_bytes"] = traced["snapshot_bytes"]
    reads = traced["read_latencies_s"]
    # Server-side match time covers the set-up read too; the client saw it.
    client_read_s = sum(reads) + traced["first_read_s"]
    counts["serve.request_overhead_ms"] = 1000 * ratio(
        client_read_s - trace["busy"].get("api.session.match", 0.0),
        len(reads) + 1,
    )
    counts["trace.overhead_ratio"] = ratio(
        statistics.median(untraced["round_ops_per_s"]),
        statistics.median(traced["round_ops_per_s"]),
    )
    return layer_metrics(trace, counts)


# ----------------------------------------------------------------------
def largest_self_layer(layers: dict) -> tuple[str, float]:
    candidates = {
        span: layers[f"{span}_self_s"]
        for span in SPAN_NAMES
        if span not in CONTAINER_SPANS
    }
    name = max(candidates, key=candidates.get)
    return name, candidates[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # The config overrides would change what is measured; a proxy would
    # carry the serve clients' requests to 127.0.0.1.
    for key in list(os.environ):
        if key in ("REPRO_SIMILARITY_STRATEGY", "REPRO_INDEX_ENCODING") or (
            key.lower().endswith("_proxy")
        ):
            del os.environ[key]
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    usable_cpus = os.sched_getaffinity(0)
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        plan = prepare(args.workload, args.seed, workdir)
        plan_path = workdir / "plan.json"
        if not plan.get("parallel"):
            # Everything but the pool runs on the last CPU, children and
            # serve daemons included (they inherit the mask).  On a
            # 2-vCPU VM the first CPU, which takes the interrupts, ran
            # detect() 15-20% slower and less evenly, and cross-CPU
            # wakeups made serve read latency swing by a third.
            os.sched_setaffinity(0, {max(usable_cpus)})
        runner = run_batch if plan["kind"] == "batch" else run_serve_workload
        try:
            metrics, layers, failures, attempted, context = runner(
                plan, plan_path, args.seconds, trace
            )
        except (RuntimeError, subprocess.SubprocessError, OSError,
                ValueError, KeyError) as exc:
            print(f"perfbench: {args.workload} failed: {exc!r}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(usable_cpus),
        "pinned_to": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    })
    if "config" not in context:
        from repro.api import RunSpec

        config = RunSpec(**plan["spec"]).to_config()
        context["config"] = {
            "similarity_strategy": config.similarity_strategy,
            "index_encoding": config.index_encoding,
            "execution": repr(config.execution),
        }
    print("context: " + json.dumps(context))
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    if trace:
        values, units = layers, per_layer_units()
        name, seconds = largest_self_layer(layers)
        print(f"largest self-time layer: {name} ({seconds:.3f} s)")
        print(
            "unaccounted by wrapped layers: "
            f"setup {layers['trace.setup_unaccounted_ratio']:.1%}, "
            f"detect {layers['trace.detect_unaccounted_ratio']:.1%}"
        )
    else:
        values, units = metrics, END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
