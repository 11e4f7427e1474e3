"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by up
to 1.7x over a few minutes, with CPU time tracking wall time: the vCPU
itself runs slower or faster, and every timing of a run moves with it.
Ten runs of the same code then spread by far more than any bound a
regression check can use.

:func:`samples` times a fixed reference task shaped like the program's
hottest path, the similar-value search: probing a q-gram inverted
index over a few thousand strings and counting shared grams per
candidate, under a millisecond.  It never calls the program, so no
change to the program can move it.  Samples are taken right after steps
of the program, whose work has pushed the task's index out of the CPU
caches (in batch repetitions: after the timed lookups, and before each
store load; in serve sessions: between rounds and daemon calls), and
each timing is reported at reference speed:

    reported = measured * REFERENCE_S / median(samples of its repetition)

(a rate is divided by the same factor).  The pool's set-up and
``detect()`` in ``d1-pool`` run on every CPU, not on the one the task
runs on, and are reported as measured.  Among the reference tasks
tried on the reference machine (a tight edit-distance loop, random
lookups in a 300,000-key dict, and this one), this one tracked the
drift of ``setup_s`` and ``detect_s`` best; scaling per repetition
rather than per run tracked it better still (over six ``d3-freedb``
runs, IQR/median of ``detect_s`` 0.291 measured, 0.153 scaled per run,
0.104 scaled per repetition).

``REFERENCE_S`` is the task's median duration on the reference machine,
a 2-vCPU Intel Xeon VM running CPython 3.11.7, so there a reported time
reads as seconds measured.  The run's measured medians and the speed
factor of each repetition are printed on the context line.
"""

from __future__ import annotations

import random
import statistics
import time

#: Median duration of :func:`sample` on the reference machine (s).
REFERENCE_S = 0.0004

_GRAM = 3
_rng = random.Random(7)
_ALPHABET = "abcdefghijklmnopqrstuvwxyz "
_STRINGS = [
    "".join(_rng.choice(_ALPHABET) for _ in range(_rng.randint(8, 30)))
    for _ in range(3000)
]
_INDEX: dict[str, list[int]] = {}
for _number, _text in enumerate(_STRINGS):
    for _i in range(len(_text) - _GRAM + 1):
        _INDEX.setdefault(_text[_i:_i + _GRAM], []).append(_number)
_PROBES = _rng.sample(_STRINGS, 20)


def _reference_task() -> int:
    similar = 0
    for probe in _PROBES:
        shared: dict[int, int] = {}
        for i in range(len(probe) - _GRAM + 1):
            for number in _INDEX.get(probe[i:i + _GRAM], ()):
                shared[number] = shared.get(number, 0) + 1
        similar += sum(1 for count in shared.values() if count >= _GRAM)
    return similar


def samples(count: int) -> list[float]:
    """Durations of ``count`` runs of the reference task, now."""
    durations = []
    for _ in range(count):
        started = time.perf_counter()
        _reference_task()
        durations.append(time.perf_counter() - started)
    return durations


def speed_factor(durations: list[float]) -> float:
    """Factor that brings a run's timings to reference speed."""
    return REFERENCE_S / statistics.median(durations)
