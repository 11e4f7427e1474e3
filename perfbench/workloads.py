"""Workload definitions and input generation.

Every workload is generated into a work directory before anything is
timed; the program only ever receives the generated files (XML corpus,
the CD XSD written next to it, the mapping, and for ``serve-mixed`` the
documents the clients post).

The batch corpora are fixed datasets (Dataset 3 at generator seed 11,
Dataset 1 at generator seed 7), so their outputs can be pinned below:
the duplicate-pair digest, precision/recall against the ``gid`` gold
and the OD tuple count.  ``--seed`` sets each child's
``PYTHONHASHSEED`` and the order in which the match sweep looks up
every object; for
``serve-mixed`` it also draws the whole request schedule, whose
responses are checked against a single-threaded replay.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: Elements the dirty generator may drop (Dataset 1's missing-data set).
CD_OPTIONAL_PATHS = frozenset(
    {"genre", "cdextra", "artist", "title", "tracks/title"}
)

#: Pinned outputs of the batch corpora (identical for every seed).
#: ``D1_EXPECTED`` is the serial result on Dataset 1 with the filter
#: off: the pool must reproduce the serial pair set bit for bit.
D3_EXPECTED = {
    "objects": 300,
    "od_tuples": 1628,
    "duplicate_pairs": 59,
    "pairs_sha256": (
        "3857ce23f266d0cb3e7d0371e3ed830f8199840c574f05bb738b443ba9508ffe"
    ),
    "precision": 0.966102,
    "recall": 1.0,
}
D1_EXPECTED = {
    "objects": 300,
    "od_tuples": 1567,
    "duplicate_pairs": 164,
    "pairs_sha256": (
        "13eec9e94547e180c9d2a8b54c09dbafd34e65d46b6e3a3055687dc51c92e90b"
    ),
    "precision": 0.859756,
    "recall": 0.94,
}

#: serve-mixed shape: 2 closed-loop clients (= nproc of the reference
#: machine); each round every client issues READS_PER_ROUND reads, then
#: one write runs alone.  The first read of each client after a write
#: pays the object filter's full kept-set rebuild, so 2 of every
#: 2 * READS_PER_ROUND reads (5%) are post-write reads: clearly more
#: than 1%, which keeps match_p99_ms inside that population on every run.
SERVE_BASE = 50
SERVE_CLIENTS = 2
SERVE_ROUNDS = 7
READS_PER_ROUND = 20
FOREIGN_SHARE = 0.1
DUPLICATES_PER_WRITE = 2

WORKLOADS = {
    "d3-freedb": {
        "kind": "batch",
        "dataset": "d3",
        "size": 300,
        "data_seed": 11,
        "spec": {},
        "expected": D3_EXPECTED,
    },
    "d1-pool": {
        "kind": "batch",
        "dataset": "d1",
        "size": 150,
        "data_seed": 7,
        "spec": {
            "use_object_filter": False,
            "workers": 2,
            "backend": "shard",
            "ingest_workers": 2,
        },
        "expected": D1_EXPECTED,
        "parallel": True,
    },
    "serve-mixed": {
        "kind": "serve",
        "dataset": "d1",
        "size": SERVE_BASE,
        "data_seed": 7,
        "spec": {},
    },
}


def hash_seed(seed: int, repetition: int) -> str:
    """The ``PYTHONHASHSEED`` of one child process."""
    return str((seed * 7919 + repetition) % 4_294_967_295)


def _write_corpus(dataset, workdir: Path) -> dict:
    from repro.datagen import CD_XSD
    from repro.xmlkit import serialize

    corpus = workdir / "corpus.xml"
    schema = workdir / "corpus.xsd"
    mapping = workdir / "mapping.xml"
    corpus.write_text(serialize(dataset.sources[0].document), encoding="utf-8")
    schema.write_text(CD_XSD, encoding="utf-8")
    mapping.write_text(dataset.mapping.to_xml(), encoding="utf-8")
    return {
        "documents": [str(corpus)],
        "schemas": [str(schema)],
        "mapping": str(mapping),
        "real_world_type": dataset.real_world_type,
    }


def prepare(name: str, seed: int, workdir: Path) -> dict:
    """Generate a workload's inputs; returns the plan children read."""
    from repro.eval import build_dataset1, build_dataset3

    workload = WORKLOADS[name]
    if workload["dataset"] == "d3":
        dataset = build_dataset3(workload["size"], workload["data_seed"])
    else:
        dataset = build_dataset1(workload["size"], workload["data_seed"])
    spec = dict(_write_corpus(dataset, workdir), **workload["spec"])
    objects = len(dataset.sources[0].document.root.children)
    plan = {
        "workload": name,
        "kind": workload["kind"],
        "seed": seed,
        "spec": spec,
        "workdir": str(workdir),
    }
    rng = random.Random(seed)
    if workload["kind"] == "batch":
        plan["expected"] = workload["expected"]
        plan["parallel"] = workload.get("parallel", False)
        # Every object, in one order shared by the run's repetitions: the
        # kept-set pass (the first lookup after detect() with the filter
        # on) always lands on the same object, one of hundreds, so
        # match_p99_ms measures ordinary lookups.
        plan["match_ids"] = rng.sample(range(objects), objects)
    else:
        plan["schedule"] = _serve_schedule(workload, objects, rng)
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan


def _serve_schedule(workload: dict, objects: int, rng: random.Random) -> dict:
    """Reads and writes of one serve session.

    Writes post new dirty duplicates of corpus originals (so they join
    existing clusters).  They are the same for every seed, so the
    session ends on the same corpus and its ``detect()`` quality does
    not vary with the seed.  Reads are drawn from ``rng``: object ids,
    and foreign reads that post one dirty duplicate never ingested.
    """
    from repro.datagen import (
        DirtyConfig,
        DirtyDataGenerator,
        cd_to_element,
        generate_cds,
    )
    from repro.xmlkit import Element, serialize

    originals = [
        cd_to_element(record)
        for record in generate_cds(workload["size"], workload["data_seed"])
    ]
    write_rng = random.Random(workload["data_seed"])

    def generator(source: random.Random) -> DirtyDataGenerator:
        return DirtyDataGenerator(
            DirtyConfig.paper_dataset1(),
            seed=source.randrange(2**31),
            optional_paths=CD_OPTIONAL_PATHS,
        )

    write_dirty, read_dirty = generator(write_rng), generator(rng)

    def document(count: int, source: random.Random, dirty) -> str:
        root = Element("freedb")
        for original in source.sample(originals, count):
            root.append(dirty.duplicate(original))
        return serialize(root)

    def write() -> str:
        return document(DUPLICATES_PER_WRITE, write_rng, write_dirty)

    def reads(current: int) -> list[list[dict]]:
        return [
            [
                {"xml": document(1, rng, read_dirty)}
                if rng.random() < FOREIGN_SHARE
                else {"id": rng.randrange(current)}
                for _ in range(READS_PER_ROUND)
            ]
            for _ in range(SERVE_CLIENTS)
        ]

    first_read = rng.randrange(objects)
    first_write = write()
    current = objects + DUPLICATES_PER_WRITE
    rounds = []
    for _ in range(SERVE_ROUNDS):
        rounds.append({"reads": reads(current), "write": write()})
        current += DUPLICATES_PER_WRITE
    return {
        "first_read": first_read,
        "first_write": first_write,
        "rounds": rounds,
    }
