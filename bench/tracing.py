"""Spans around the library calls the jobs make, and the facade that places them.

A job never calls qmforge directly: it calls ``Lib``.  In the timed run the
attributes of ``Lib`` are the library functions themselves; in the traced run
each is wrapped so that the call records a span (name, start, end, parent,
job id) and the counts computed from its inputs and outputs.  Spans live in
flat arrays in memory and are written out once, at the end of the run.

The traced run also rebinds the names through which L4 calls L2 and L3
(``qmforge.fixpoints.{normal_form,speed,act}`` and
``qmforge.speed.normal_form``), so that ``act`` inside fixpoint exclusion and
``normal_form`` inside ``speed`` get spans of their own and the callers' busy
time is self time.  The rebinding is undone when the tracer closes; no file
of the library changes.

The ball loops of the transport workload call ``apply_nielsen`` and
``evaluate`` once per ball word.  A span per call of a few microseconds would
cost more than the call, so those loops get one span each, and their call
counts are added up inside the loop.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from qmforge.action import n_representative
from qmforge.counting import as_counting, evaluate
from qmforge.fixpoints import exclude_fixpoint, verify_witness
from qmforge.freegroup import NielsenGen, apply_nielsen, ball
from qmforge.relations import normal_form
from qmforge.speed import speed

# The package exports a function named ``speed``, which hides the module.
_fixpoints = importlib.import_module("qmforge.fixpoints")
_speed = importlib.import_module("qmforge.speed")


def _ball(alphabet, radius):
    return list(ball(alphabet, radius))


def _t_images(words, n, alphabet):
    out = []
    for v in words:
        for _ in range(n):
            v = apply_nielsen(NielsenGen.T, v, alphabet)
        out.append(v)
    return out


def _evaluate_all(f, words):
    return [evaluate(f, w) for w in words]


def _certifies(trace, before, after, alphabet):
    return trace.certifies(before, after, alphabet)


class Lib:
    """The library calls a job may make, untraced."""

    normal_form = staticmethod(normal_form)
    certifies = staticmethod(_certifies)
    speed = staticmethod(speed)
    exclude_fixpoint = staticmethod(exclude_fixpoint)
    verify_witness = staticmethod(verify_witness)
    n_representative = staticmethod(n_representative)
    as_counting = staticmethod(as_counting)
    ball = staticmethod(_ball)
    t_images = staticmethod(_t_images)
    evaluate_all = staticmethod(_evaluate_all)

    def __init__(self, run_cli: Callable[[tuple], Any]) -> None:
        self.run_cli = run_cli


# Counts computed from a call's arguments and result: (counters, args, out).
def _count_normal_form(c, args, out):
    c["relations.normal_form.keys_in"] += len(args[0].weight)
    c["relations.normal_form.keys_out"] += len(out[0].weight)
    c["relations.normal_form.trace_steps"] += len(out[1].steps)


def _count_certifies(c, args, out):
    steps = args[0].steps
    c["relations.certifies.trace_steps"] += len(steps)
    c["relations.certifies.distinct_relations"] += len({(s.kind, s.base) for s in steps})


def _count_n_representative(c, args, out):
    c["action.n_representative.keys"] += len(out.weight)


def _count_act(c, args, out):
    c["action.act.keys_out"] += len(out.weight)


def _count_ball(c, args, out):
    c["freegroup.ball.words"] += len(out)


def _count_t_images(c, args, out):
    c["freegroup.apply_nielsen.calls"] += args[1] * len(args[0])


def _count_evaluate_all(c, args, out):
    f, words = args
    c["counting.evaluate.calls"] += len(words)
    c["counting.evaluate.key_letters"] += len(f.weight) * sum(len(w) for w in words)


# (facade attribute, span name, counter, one span per call) for the calls jobs
# make; the ball loops count their calls themselves.
FACADE_SPANS = (
    ("normal_form", "relations.normal_form", _count_normal_form, True),
    ("certifies", "relations.certifies", _count_certifies, True),
    ("speed", "speed.speed", None, True),
    ("exclude_fixpoint", "fixpoints.exclude_fixpoint", None, True),
    ("verify_witness", "fixpoints.verify_witness", None, True),
    ("n_representative", "action.n_representative", _count_n_representative, True),
    ("as_counting", "counting.as_counting", None, True),
    ("ball", "freegroup.ball", _count_ball, True),
    ("t_images", "freegroup.apply_nielsen", _count_t_images, False),
    ("evaluate_all", "counting.evaluate", _count_evaluate_all, False),
    ("run_cli", "cli.subprocess", None, True),
)

# (module, attribute, span name, counter) for the calls L4 makes inside the library.
LIBRARY_SPANS = (
    (_fixpoints, "normal_form", "relations.normal_form", _count_normal_form),
    (_fixpoints, "speed", "speed.speed", None),
    (_fixpoints, "act", "action.act", _count_act),
    (_fixpoints, "exclude_fixpoint", "fixpoints.exclude_fixpoint", None),
    (_speed, "normal_form", "relations.normal_form", _count_normal_form),
)


class Tracer:
    """In-memory spans; a span is recorded only while a job or check is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job: Optional[int] = None
        self._restore: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self, name: str, fn: Callable, counter: Optional[Callable] = None, per_call: bool = True
    ) -> Callable:
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if per_call:
                self.counters[name + ".calls"] += 1
            if counter is not None:
                counter(self.counters, args, out)
            return out

        return traced

    def traced_lib(self, lib: Lib) -> Lib:
        """Wrap the facade's calls and rebind the library's L4 call sites."""
        for attr, name, counter, per_call in FACADE_SPANS:
            setattr(lib, attr, self.wrap(name, getattr(lib, attr), counter, per_call))
        for module, attr, name, counter in LIBRARY_SPANS:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))
        return lib

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @contextmanager
    def span(self, name: str, job: int, nested: bool) -> Iterator[None]:
        """A span opened by the benchmark itself: a job, whose library calls
        record spans of their own (``nested``), or a check, whose do not."""
        self._job = job
        idx = self._open(name)
        if not nested:
            self._job = None
        try:
            yield
        finally:
            self._close(idx)
            self._job = None
            self.counters[name + ".calls"] += 1

    def self_times(self) -> dict[str, float]:
        """Busy time per span name: each span's duration minus its children's."""
        child = [0.0] * len(self.name)
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(len(self.name)):
            key = self.names[self.name[i]]
            out[key] = out.get(key, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                    f"{self.parent[i]}\t{self.job[i]}\n"
                )
