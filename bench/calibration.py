"""A fixed slice of interpreter work that measures the machine's speed.

On a VM whose host cores are shared with other tenants (the reference
figures come from a 2-vCPU Intel Xeon VM at 2.1 GHz), speed changes by
up to 1.7x for tens of seconds at a time, whatever runs in the VM.
Timing this loop next to every timed round and set-up lets the benchmark
express its times at one reference speed.

The loop never touches notesum, so no change to the program moves it.
It mixes the operations the pipeline spends its time on: string slicing
and dict updates, method calls, regex scanning, JSON and sorting.
"""

from __future__ import annotations

import json
import re
from time import perf_counter

# Calibration time at the reference speed; normalized times are
# measured times scaled by REFERENCE_S / (calibration time now). It is
# close to the reference VM's loaded speed, so normalized figures stay
# near the raw ones.
REFERENCE_S = 0.040

_TEXT = " ".join(f"word{i % 97} term{i % 13} x{i}" for i in range(200))
_TOKEN = re.compile(r"\S+")
_DOC = json.dumps({"doc_id": "x", "text": " ".join(f"tok{i}" for i in range(300))})


class _Point:
    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def at(self, x: int) -> int:
        return self.a * x + self.b


def _grams() -> None:
    for _ in range(12):
        counts: dict[str, int] = {}
        for i in range(len(_TEXT) - 2):
            gram = _TEXT[i : i + 3]
            counts[gram] = counts.get(gram, 0) + 1


def _calls() -> int:
    points = [_Point(i, i + 1) for i in range(50)]
    total = 0
    for _ in range(2400):
        for p in points:
            total += p.at(3)
    return total


def _records() -> None:
    for _ in range(60):
        record = json.loads(_DOC)
        tokens = [m.group() for m in _TOKEN.finditer(record["text"])]
        tokens.sort(key=lambda t: (len(t), t))
        json.dumps({"t": " ".join(tokens[:50])})


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = perf_counter()
    _grams()
    _calls()
    _records()
    return perf_counter() - start
