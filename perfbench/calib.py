"""Host speed, so that reported times do not drift with a shared host.

The benchmark runs on a few cores of a shared machine whose speed
changes by up to 2x within seconds and can stay changed for minutes,
for every process alike. A fixed loop that calls nothing of anchorlex is
timed before and after every set-up and every stage call. A time
measured between two calibrations is reported at the reference speed:
multiplied by REF_S over the mean of the two loop times.

The factor depends only on the loop, so a change to anchorlex moves a
reported time by exactly the share it moves the measured one; the record
keeps the measured times and the loop times beside them. On a 2-vCPU
x86-64 host, over about 30 repetitions of one seed's `corpus` and
`score`, this took the coefficient of variation of repetition times
from 0.18 to 0.05.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import time

import numpy as np

REF_S = 0.020  # the loop's time on a 2-vCPU x86-64 host in its fast state
LOOP_N = 1_000
_TEXT = "هذا نصٌّ عربيّ قصيـــر مع بعض الكلمات المكررة 😂 @user https://t.co/abc"
_MARKS = re.compile("[\u064b-\u0652\u0640]")  # tashkeel and tatweel
_VALUES = np.arange(700, dtype=float)


def _loop() -> int:
    """A mix of what the stages do: JSON lines, regex rewriting, word-bigram
    sets, sha256 and small numpy reductions."""
    seen: dict[str, int] = {}
    s = 0
    for i in range(LOOP_N):
        line = json.dumps({"id": f"d{i}", "text": f"{_TEXT} {i}"}, ensure_ascii=False)
        doc = json.loads(line)
        words = _MARKS.sub("", doc["text"]).split()
        seen[doc["id"]] = len(set(zip(words, words[1:])))
        s += hashlib.sha256(line.encode()).digest()[0]
        s += int(np.argmax(np.where(_VALUES > i % 700, _VALUES, -np.inf)))
    return s + len(seen)


def calibrate() -> float:
    """Seconds the loop takes now.

    The cyclic collector is off meanwhile, so the loop's time does not
    depend on how many objects the program left alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from a time measured between two calibrations to the reference speed."""
    return REF_S / ((before + after) / 2.0)
