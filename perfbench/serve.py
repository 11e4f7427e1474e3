"""The serve-mixed workload: a closed loop of clients against the daemon.

    python3 perfbench/serve.py server STORE_DIR [--trace]
    python3 perfbench/serve.py reference PLAN.json OUT.json

``server`` runs a :class:`repro.serve.DetectionServer` on an ephemeral
localhost port in a fresh interpreter; it prints ``{"port": N}``, serves
until its stdin closes, then prints its peak RSS (and, with
``--trace``, the layer aggregates) as one JSON line.

``reference`` replays the plan's schedule on an in-process,
single-threaded session and writes every response the daemon must give.

:func:`run_session` (called by ``run.py``) drives one daemon session:
the cold ``POST /corpora``, the first read and the first write make up
set-up; then each round the clients issue their reads concurrently, and
one write runs alone between rounds, so every read's session state is
known; then ``POST /detect``; then fresh daemons open the same spec warm
from the same store (the corpus as first opened, without the writes) and
each runs one ``POST /detect`` on it.  Samples of the reference task of
:mod:`calibrate` are taken in between, on the CPU the daemon runs on,
while the daemon is idle.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent

#: Fresh daemons per session that open the stored corpus warm and
#: detect on it.
WARM_OPENS = 5

#: A request that takes longer fails the run instead of stalling it.
REQUEST_TIMEOUT_S = 30
REFERENCE_TIMEOUT_S = 60


def _match_records(matches) -> list[dict]:
    return [
        {"object_id": m.object_id, "similarity": m.similarity, "path": m.path}
        for m in matches
    ]


def _detect_records(session) -> list[list]:
    return [
        [pair.left, pair.right, pair.similarity]
        for pair in session.detect().duplicate_pairs
    ]


def _update_record(update, objects: int) -> dict:
    return {
        "added": [od.object_id for od in update.added],
        "assignments": [list(pair) for pair in update.assignments],
        "duplicate_clusters": [list(c) for c in update.duplicate_clusters],
        "objects": objects,
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def server_main(store_dir: str, trace: bool) -> int:
    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from tracing import install_tracer

        tracer = install_tracer()
    from batch import peak_rss_mb
    from repro.serve import DetectionServer
    from repro.strings import levenshtein

    server = DetectionServer(("127.0.0.1", 0), store_dir, quiet=True)
    # A short poll interval lets shutdown() return promptly: every
    # session stops one daemon per warm open.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    print(json.dumps({"port": server.port}), flush=True)
    sys.stdin.read()  # run_session closes stdin to stop the daemon
    server.shutdown()
    server.server_close()
    thread.join()
    sessions = [
        server.registry.get(digest).session
        for digest in server.registry.digests()
    ]
    info = levenshtein._ned_ordered.cache_info()
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "counts": {
            "api.od_tuples": sum(
                len(od.tuples) for session in sessions for od in session.ods
            ),
            "core.index.distinct_values": sum(
                session.index.statistics().get("distinct_values", 0)
                for session in sessions
            ),
            "strings.ned_cache_hits": info.hits,
            "strings.ned_cache_misses": info.misses,
        },
    }
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    print(json.dumps(report), flush=True)
    return 0


def reference_main(plan_path: str, out_path: str) -> int:
    from repro.api import RunSpec
    from repro.core import Source
    from repro.eval import gold_pairs
    from repro.xmlkit import parse

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    schedule = plan["schedule"]
    # What a warm daemon's detect() must return: the stored corpus, as
    # first opened, on a session of its own.
    warm_detect = _detect_records(RunSpec(**plan["spec"]).build_session())
    session = RunSpec(**plan["spec"]).build_session()

    def read(op: dict) -> list[dict]:
        if "id" in op:
            return _match_records(session.match(op["id"]))
        element = parse(op["xml"]).root.children[0]
        return _match_records(session.match(element))

    def write(xml: str) -> dict:
        update = session.extend(Source(parse(xml)))
        return _update_record(update, len(session.ods))

    expected = {
        "warm_detect": warm_detect,
        "first_read": read({"id": schedule["first_read"]}),
        "first_write": write(schedule["first_write"]),
        "rounds": [],
    }
    for round_ in schedule["rounds"]:
        expected["rounds"].append({
            "reads": [[read(op) for op in ops] for ops in round_["reads"]],
            "write": write(round_["write"]),
        })
    expected["detect"] = _detect_records(session)
    expected["gold"] = sorted(gold_pairs(session.ods))
    Path(out_path).write_text(json.dumps(expected), encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# Load generator side (runs in run.py's process)
# ----------------------------------------------------------------------
class _Daemon:
    """A server child; closing it stops the daemon and reads its report."""

    def __init__(self, store_dir: str, env: dict, trace: bool) -> None:
        command = [sys.executable, str(HERE / "serve.py"), "server", store_dir]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait()
            raise RuntimeError("the serve child exited before listening")
        from repro.serve import ServeClient

        self.client = ServeClient(
            f"http://127.0.0.1:{json.loads(line)['port']}",
            timeout=REQUEST_TIMEOUT_S,
        )
        self.report: dict = {}

    def close(self) -> dict:
        if self.process.poll() is None:
            self.process.stdin.close()
        output = self.process.stdout.read()
        self.process.wait()
        lines = output.strip().splitlines()
        if self.process.returncode == 0 and lines:
            self.report = json.loads(lines[-1])
        return self.report

    def __enter__(self) -> "_Daemon":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()


def _timed(call):
    started = time.perf_counter()
    value = call()
    return value, time.perf_counter() - started


def run_session(plan: dict, expected: dict, env: dict, trace: bool) -> dict:
    """One daemon lifetime; returns timings, samples and failures."""
    schedule = plan["schedule"]
    spec = plan["spec"]
    failures: list[str] = []
    attempted = 0
    calibration = calibrate.samples(6)

    def compare(what: str, got, want) -> None:
        if got != want:
            failures.append(f"{what}: response differs from the reference")

    with tempfile.TemporaryDirectory(dir=plan["workdir"]) as store_dir:
        with _Daemon(store_dir, env, trace) as daemon:
            client = daemon.client
            opened, open_s = _timed(lambda: client.open_corpus(spec))
            if opened.get("origin") != "cold":
                failures.append(f"first open was {opened.get('origin')!r}")
            digest = opened["digest"]
            first, first_read_s = _timed(
                lambda: client.match(digest, object_id=schedule["first_read"])
            )
            compare("first read", first["matches"], expected["first_read"])
            update, first_write_s = _timed(
                lambda: client.extend(digest, schedule["first_write"])
            )
            compare("first write", _strip(update), expected["first_write"])
            attempted += 3

            reads: list[float] = []
            post_write: list[float] = []
            writes: list[float] = []
            lock = threading.Lock()

            def reader(ops: list[dict], want: list, label: str) -> None:
                local = []
                for index, op in enumerate(ops):
                    started = time.perf_counter()
                    try:
                        if "id" in op:
                            response = client.match(digest, object_id=op["id"])
                        else:
                            response = client.match(digest, element=op["xml"])
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        with lock:
                            failures.append(f"{label} read {index}: {exc}")
                        continue
                    local.append(time.perf_counter() - started)
                    if response["matches"] != want[index]:
                        with lock:
                            failures.append(f"{label} read {index}: mismatch")
                with lock:
                    if local:
                        post_write.append(local[0])
                    reads.extend(local)

            round_rates: list[float] = []
            for number, round_ in enumerate(schedule["rounds"]):
                round_started = time.perf_counter()
                want = expected["rounds"][number]
                clients = [
                    threading.Thread(
                        target=reader,
                        args=(ops, want["reads"][c], f"round {number} client {c}"),
                    )
                    for c, ops in enumerate(round_["reads"])
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join()
                attempted += sum(len(ops) for ops in round_["reads"]) + 1
                try:
                    update, write_s = _timed(
                        lambda: client.extend(digest, round_["write"])
                    )
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    failures.append(f"round {number} write: {exc}")
                    continue
                writes.append(write_s)
                compare(f"round {number} write", _strip(update), want["write"])
                done = sum(len(ops) for ops in round_["reads"]) + 1
                round_rates.append(done / (time.perf_counter() - round_started))
                calibration += calibrate.samples(3)

            detected, detect_s = _timed(lambda: client.detect(digest))
            attempted += 1
            compare("detect", detected["duplicates"], expected["detect"])
            report = daemon.close()
        snapshot_bytes = sum(
            path.stat().st_size for path in Path(store_dir).glob("*.json.gz")
        )

        warm_opens, warm_detects = [], []
        for _ in range(WARM_OPENS):
            with _Daemon(store_dir, env, trace) as warm_daemon:
                warm = warm_daemon.client
                calibration += calibrate.samples(3)
                reopened, seconds = _timed(lambda: warm.open_corpus(spec))
                warm_opens.append(seconds)
                if reopened.get("origin") != "warm":
                    failures.append(f"reopen was {reopened.get('origin')!r}")
                calibration += calibrate.samples(3)
                redetected, seconds = _timed(
                    lambda: warm.detect(reopened["digest"])
                )
                warm_detects.append(seconds)
                compare("warm detect", redetected["duplicates"],
                        expected["warm_detect"])
                attempted += 2
                warm_report = warm_daemon.close()
            if trace and report and warm_report:
                _merge_trace(report["trace"], warm_report["trace"])

    if not report:
        failures.append("the serve child did not report")
    return {
        "setup_s": open_s + first_read_s + first_write_s,
        "open_s": open_s,
        "first_read_s": first_read_s,
        "first_write_s": first_write_s,
        "read_latencies_s": reads,
        "post_write_read_latencies_s": post_write,
        "write_latencies_s": writes,
        "round_ops_per_s": round_rates,
        "session_detect_s": detect_s,
        "detect_s": warm_detects,
        "duplicates": [[left, right] for left, right, _ in detected["duplicates"]],
        "detect_summary": detected["summary"],
        "snapshot_bytes": snapshot_bytes,
        "warm_open_s": warm_opens,
        "calibration_s": calibration,
        "peak_rss_mb": report.get("peak_rss_mb", 0.0),
        "server": report,
        "failures": failures,
        "attempted": attempted,
    }


def _merge_trace(into: dict, other: dict) -> None:
    """Add a warm daemon's span aggregates to the first daemon's."""
    for table in ("busy", "self", "calls", "counts"):
        for name, value in other[table].items():
            into[table][name] = into[table].get(name, 0) + value


def _strip(update: dict) -> dict:
    return {key: update[key] for key in
            ("added", "assignments", "duplicate_clusters", "objects")}


def reference(plan: dict, plan_path: Path, env: dict) -> dict:
    """Run the single-threaded replay in its own interpreter."""
    out = Path(plan["workdir"]) / "reference.json"
    subprocess.run(
        [sys.executable, str(HERE / "serve.py"), "reference",
         str(plan_path), str(out)],
        env=env,
        check=True,
        timeout=REFERENCE_TIMEOUT_S,
    )
    return json.loads(out.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:2] == ["server"]:
        sys.exit(server_main(sys.argv[2], "--trace" in sys.argv[3:]))
    if sys.argv[1:2] == ["reference"]:
        sys.exit(reference_main(sys.argv[2], sys.argv[3]))
    sys.exit(f"usage: {sys.argv[0]} server STORE [--trace] | reference PLAN OUT")
