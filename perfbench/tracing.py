"""Span recording around calls into the program, from outside it.

A traced run wraps the program's public seams — the crowd object the
miner holds, the miner's propose/pose/ingest calls, a storage backend
handed in through ``SessionManager(storage_wrapper=...)`` and the serve
session's fetch/post methods — and records one span per call: name,
start, end, parent span and request id. Nothing inside the program is
instrumented. Spans stay in memory and are written once, at the end.

A span's self time is its duration minus the time its child spans
cover. Calls are single-threaded here, so children nest strictly
inside their parent and the subtraction is exact.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """An in-memory span tree for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[object] = []
        self.request = None  #: request id stamped on spans opened from now on
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def add(self, name: str, start: float, end: float, request=None) -> None:
        """Record a span timed by the caller, outside the nesting stack.

        For calls that overlap one another, like requests on two
        connections driven by one event loop.
        """
        self.names.append(name)
        self.parents.append(-1)
        self.requests.append(request)
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # -- reading the tree ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``seconds`` and ``self_seconds``."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += duration
            entry["self_seconds"] += duration - child[i]
        return out

    def dump(self, path) -> None:
        """Write every span to ``path`` as JSON (once, at the end of a run)."""
        doc = {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": [
                [self.names[i], self.starts[i], self.ends[i], self.parents[i], self.requests[i]]
                for i in range(len(self.names))
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class TracedCrowd:
    """Forwards everything to a crowd; records its answer and scheduling calls.

    Stands in for the crowd object the miner holds. Open answers are
    split into each member's first (``crowd.open_first``, which builds
    that member's habit pool) and later ones (``crowd.open``). Closed
    answers are counted per answer, batches included.
    """

    def __init__(self, crowd, tracer: Tracer) -> None:
        self._crowd = crowd
        self._tracer = tracer
        self._opened: set[str] = set()
        self.closed_answers = 0
        self.next_member = tracer.wrap("crowd.next_member", crowd.next_member)
        self.ask_open = self._open_wrapper(crowd.ask_open)
        self.ask_closed = self._closed_wrapper("crowd.closed", crowd.ask_closed)
        if hasattr(crowd, "ask_closed_async"):
            self.ask_closed_async = self._closed_wrapper(
                "crowd.closed", crowd.ask_closed_async
            )
        if hasattr(crowd, "ask_closed_batch"):
            batch = tracer.wrap("crowd.closed", crowd.ask_closed_batch)

            def ask_closed_batch(member_ids, rules, rng):
                self.closed_answers += len(member_ids)
                return batch(member_ids, rules, rng)

            self.ask_closed_batch = ask_closed_batch

    def _open_wrapper(self, fn):
        first = self._tracer.wrap("crowd.open_first", fn)
        again = self._tracer.wrap("crowd.open", fn)

        def ask_open(member_id, *args, **kwargs):
            if member_id in self._opened:
                return again(member_id, *args, **kwargs)
            self._opened.add(member_id)
            return first(member_id, *args, **kwargs)

        return ask_open

    def _closed_wrapper(self, name, fn):
        timed = self._tracer.wrap(name, fn)

        def ask_closed(*args, **kwargs):
            self.closed_answers += 1
            return timed(*args, **kwargs)

        return ask_closed

    def __len__(self) -> int:
        return len(self._crowd)

    def __getattr__(self, name):
        return getattr(self._crowd, name)


def trace_miner(miner, tracer: Tracer) -> TracedCrowd:
    """Record the miner's public calls and its crowd's; returns the crowd proxy.

    Assigns instance attributes only, so the class — and every other
    miner in the process — is untouched.
    """
    crowd = TracedCrowd(miner.crowd, tracer)
    miner.crowd = crowd
    for attr, name in (
        ("propose_question", "miner.propose"),
        ("pose", "miner.pose"),
        ("pose_async", "miner.pose"),
        ("ingest_answer", "miner.ingest"),
    ):
        setattr(miner, attr, tracer.wrap(name, getattr(miner, attr)))
    return crowd


class TracedStorage:
    """A storage backend wrapper timing WAL appends and checkpoint writes."""

    def __init__(self, backend, tracer: Tracer) -> None:
        self._backend = backend
        self.append_answer = tracer.wrap("storage.append", backend.append_answer)
        save = tracer.wrap("storage.checkpoint", backend.save_checkpoint)
        self.checkpoint_bytes: list[int] = []

        def save_checkpoint(payload, **kwargs):
            self.checkpoint_bytes.append(len(payload))
            return save(payload, **kwargs)

        self.save_checkpoint = save_checkpoint

    def __getattr__(self, name):
        return getattr(self._backend, name)
