"""Span recording for the traced benchmark run.

Wrappers installed from a :class:`Hook` table record one span per call into
a layer: layer, start, end, parent span and run id.  Spans stay in compact
in-memory arrays until the run ends; :func:`self_times` then gives each
span's duration minus the part of it that its child spans cover.

Nothing here edits the simulator's source: hooks replace attributes on
modules and classes for the duration of a ``with tracer.installed(...)``
block and put the originals back afterwards.  A hook whose target no longer
exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: a span: one timed call into a layer
SPAN = "span"
#: a span that also opens a new run id (one simulated scenario)
RUN = "run"
#: no span; counts calls per enclosing layer (too cheap and too frequent
#: to time without distorting its parent)
COUNT = "count"
#: the target returns a callable; spans are recorded around that callable
FACTORY = "factory"

_INHERITED = object()


@dataclass(frozen=True)
class Hook:
    """One row of the wrapper table.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``observe``
    is called as ``observe(tracer, args, result)`` after a successful call;
    a number it returns is added to ``tracer.tallies[layer]``.
    """

    layer: str
    target: str
    kind: str = SPAN
    observe: Optional[Callable] = None


def resolve(target: str) -> Optional[Tuple[object, str]]:
    """(owner, attribute) for a hook target, or None if any part is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.start = array("q")
        self.end = array("q")
        self.layer = array("h")
        self.parent = array("i")
        self.run = array("i")
        self.stack: List[int] = [-1]
        self.run_id = -1
        self.tallies: Dict[str, float] = {}
        #: (counted layer, enclosing layer or "") -> calls
        self.counts: Dict[Tuple[str, str], int] = {}
        #: run id -> observations of that run (filled by hooks' observers)
        self.runs: Dict[int, dict] = {}
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    # -- wrappers -------------------------------------------------------
    def _span(self, name: str, fn: Callable, observe: Optional[Callable] = None,
              new_run: bool = False) -> Callable:
        lid = self.layer_id(name)
        starts, ends, layers = self.start, self.end, self.layer
        parents, runs, stack = self.parent, self.run, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_run:
                tracer.run_id += 1
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                value = observe(tracer, args, out)
                if value is not None:
                    tracer.tallies[name] = tracer.tallies.get(name, 0) + value
            return out

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        layers, stack, counts, names = self.layer, self.stack, self.counts, self.layers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            key = (name, names[layers[top]] if top >= 0 else "")
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _factory(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn(*args, **kwargs))

        return wrapper

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        if hook.kind == COUNT:
            return self._count(hook.layer, fn)
        if hook.kind == FACTORY:
            return self._factory(hook.layer, fn)
        return self._span(hook.layer, fn, hook.observe, new_run=hook.kind == RUN)

    # -- installation ---------------------------------------------------
    @contextlib.contextmanager
    def installed(self, hooks: Sequence[Hook]) -> Iterator["Tracer"]:
        """Patch every resolvable hook target; restore all on exit."""
        try:
            for hook in hooks:
                found = resolve(hook.target)
                if found is None:
                    self.missing.append(hook.layer)
                    continue
                owner, attr = found
                # the raw dict entry, so descriptors are restored as they
                # were; _INHERITED marks an attribute found on a base class
                original = vars(owner).get(attr, _INHERITED)
                setattr(owner, attr, self.wrap(hook, getattr(owner, attr)))
                self._patches.append((owner, attr, original))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                if original is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        n = len(self)
        return {
            "start": np.frombuffer(self.start, dtype=np.int64, count=n),
            "end": np.frombuffer(self.end, dtype=np.int64, count=n),
            "layer": np.frombuffer(self.layer, dtype=np.int16, count=n),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n),
            "run": np.frombuffer(self.run, dtype=np.int32, count=n),
        }

    def save(self, path: str) -> None:
        """Write the spans (times relative to the first span) as ``.npz``."""
        a = self.arrays()
        t0 = int(a["start"].min()) if len(self) else 0
        np.savez_compressed(path, start_ns=a["start"] - t0, dur_ns=a["end"] - a["start"],
                            layer=a["layer"], parent=a["parent"], run=a["run"],
                            layer_names=np.array(self.layers))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval; overlapping
    children are counted once.  ``parent`` holds the parent's index, or a
    negative number for a root span.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent)
    own = (end - start).astype(np.float64)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return own
    # temporaries are released as soon as possible: a traced run holds
    # millions of spans
    p = parent[kids].astype(np.int64)
    cs = np.maximum(start[kids], start[p])
    ce = np.minimum(end[kids], end[p])
    del kids
    np.maximum(ce, cs, out=ce)
    order = np.lexsort((cs, p))
    p = p[order]
    cs = cs[order]
    ce = ce[order]
    del order
    first = np.ones(p.size, dtype=bool)
    np.not_equal(p[1:], p[:-1], out=first[1:])
    group = np.cumsum(first)
    group -= 1
    # running maximum of child ends within each parent group: offset every
    # group above all earlier ones so one global accumulate suffices
    lo = int(cs.min())
    width = int(ce.max()) - lo + 1
    group *= width
    keyed = ce - lo
    keyed += group
    np.maximum.accumulate(keyed, out=keyed)
    prev_end = np.empty_like(ce)
    prev_end[1:] = keyed[:-1]
    del keyed
    prev_end[1:] -= group[1:]
    prev_end += lo
    del group
    prev_end[first] = np.iinfo(np.int64).min
    del first
    np.maximum(prev_end, cs, out=prev_end)
    del cs
    np.subtract(ce, prev_end, out=ce)
    del prev_end
    np.maximum(ce, 0, out=ce)
    own -= np.bincount(p, weights=ce, minlength=own.size)
    return own


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    data = sorted(values)
    rank = (len(data) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)
