"""Spans around the benchmark's calls into each layer of the program.

A ``Tracer`` keeps spans in memory: name, start, end (perf_counter_ns),
index of the parent span (-1 for none) and the instance id.  ``wrap``
returns a function that records one span per call.  Untraced runs never
build a tracer and call the program's functions directly.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.instance = ""

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.instance])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def busy(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self time in seconds, number of calls).

        Self time is a span's duration minus its direct children's.
        """
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            slot = out.setdefault(name, [0, 0])
            slot[0] += t1 - t0 - child[i]
            slot[1] += 1
        return {k: (v[0] / 1e9, v[1]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "instance")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
