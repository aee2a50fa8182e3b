"""In-memory spans for the traced run.

One span per op wraps the public call; child spans come from a
``TimingWordGenerator`` handed to ``BufferedWordSource`` as its word
generator, so every word fetch inside the op is timed without touching
the library.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Recorder:
    """Spans as (span id, op id, parent id, name, start ns, end ns).

    An op's own span has its op id as span id and no parent; its children
    share the op id and name the op span as parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._next_id = 0
        self._op = -1
        self._name = ""

    def begin(self, name: str) -> None:
        self._op = self._next_id
        self._next_id += 1
        self._name = name

    def end(self, start: int, stop: int) -> None:
        self.spans.append((self._op, self._op, None, self._name, start, stop))

    def child(self, name: str, start: int, stop: int) -> None:
        self.spans.append((self._next_id, self._op, self._op, name, start, stop))
        self._next_id += 1

    def totals(self) -> tuple[int, int, int]:
        """(ops, ns inside op spans, ns inside their child spans)."""
        ops = op_ns = child_ns = 0
        for _, _, parent, _, start, stop in self.spans:
            if parent is None:
                ops += 1
                op_ns += stop - start
            else:
                child_ns += stop - start
        return ops, op_ns, child_ns

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "op", "parent", "name", "start_ns", "end_ns")
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


class TimingWordGenerator:
    """A word generator that records a child span around each word."""

    def __init__(self, inner, recorder: Recorder):
        self._next_word = inner.next_word
        self._recorder = recorder

    def next_word(self) -> int:
        start = time.perf_counter_ns()
        word = self._next_word()
        stop = time.perf_counter_ns()
        self._recorder.child("bitsource.next_word", start, stop)
        return word
