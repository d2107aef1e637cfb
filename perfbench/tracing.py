"""In-memory spans around the public functions each pisim layer is called through.

Nothing in pisim knows about tracing. `install_layer_spans` rebinds the
module attributes each call site resolves at call time (for example
`pisim.desim.engine.poisson_arrival_times`, the name `simulate` looks up)
to a wrapper that records a span, and returns a function that restores the
originals. Party threads record kernel and receive spans concurrently, so
appends go through a lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Collects spans from every thread; a span's parent is the innermost
    open span on its own thread, or, on a thread with none open (a party
    thread), the innermost open span of the thread that created the tracer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count_bytes: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            nbytes = 0
            if count_bytes:
                nbytes = _array_bytes(args) + _array_bytes(kwargs.values())
                nbytes += _array_bytes([result])
            span = Span(sid, name, start, end, parent, threading.current_thread().name, nbytes)
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its same-thread children."""
        own = {s.id: s.duration for s in self.spans}
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            parent = by_id.get(s.parent)
            if parent is not None and parent.thread == s.thread:
                own[parent.id] -= s.duration
        return own


# (module, attribute path, span name, count array bytes). Each entry is the
# binding a call site really resolves: `from x import f` copies f into the
# importing module, so the importer's attribute is the one to wrap.
LAYER_BINDINGS = [
    ("pisim.cli", "load_shipped_model", "costmodel.load_shipped_model", False),
    ("pisim.cli", "phase_costs", "costmodel.phase_costs", False),
    ("pisim.cli", "offline_comm", "costmodel.comm", False),
    ("pisim.cli", "online_comm", "costmodel.comm", False),
    ("pisim.cli", "build_preset", "netarch.build_preset", False),
    ("pisim.cli", "write_sweep_csv", "desim.write_sweep_csv", False),
    ("pisim.desim.sweep", "sweep_point", "desim.sweep_point", False),
    ("pisim.desim.sweep", "run_many", "desim.run_many", False),
    ("pisim.desim.engine", "simulate", "desim.simulate", False),
    ("pisim.desim.engine", "poisson_arrival_times", "desim.poisson_arrival_times", False),
    ("pisim.desim.engine", "summarize_run", "desim.summarize_run", False),
    ("pisim.cli", "verify_against_plaintext", "protocol.verify_against_plaintext", False),
    ("pisim.cli", "run_offline", "protocol.run_offline", False),
    ("pisim.cli", "run_online", "protocol.run_online", False),
    ("pisim.cli", "sample_input", "protocol.sample_input", False),
    ("pisim.protocol.verify", "run_offline", "protocol.run_offline", False),
    ("pisim.protocol.verify", "run_online", "protocol.run_online", False),
    ("pisim.protocol.verify", "sample_input", "protocol.sample_input", False),
    ("pisim.protocol.verify", "plaintext_forward", "protocol.plaintext_forward", False),
    ("pisim.protocol.verify", "gen_weights", "protocol.gen_weights", False),
    ("pisim.protocol.executor", "gen_weights", "protocol.gen_weights", False),
    ("pisim.protocol.executor", "compile_network", "protocol.compile_network", False),
    ("pisim.protocol.channel", "Channel.receive", "protocol.receive", False),
    ("pisim.protocol.parties", "conv2d_mod", "kernels.conv2d_mod", True),
    ("pisim.protocol.parties", "matvec_mod", "kernels.matvec_mod", True),
    ("pisim.protocol.parties", "sumpool_mod", "kernels.sumpool_mod", True),
    ("pisim.protocol.parties", "relu_remask_mod", "kernels.relu_remask_mod", True),
]


def install_layer_spans(tracer: Tracer):
    """Wrap every LAYER_BINDINGS entry; returns a callable that undoes it."""
    undo = []
    for module_name, path, span_name, count_bytes in LAYER_BINDINGS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(span_name, original, count_bytes))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
