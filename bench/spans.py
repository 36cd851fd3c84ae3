"""Per-layer spans and counters, timed from outside the program.

:class:`Tracer` replaces the public entry points of each layer with timing
wrappers while it is installed, and puts the originals back when it is
removed.  Spans nest: a span's self time is its duration minus the time its
direct child spans cover.  Nothing is written out until the run ends.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

from markermt import markers, morphology, translator

MIN_BEYOND = 10  # samples a reported percentile must have above it


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused unless at least
    ``MIN_BEYOND`` samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it, needs {MIN_BEYOND}"
        )
    return ordered[rank - 1]


class Tracer:
    """Spans and counters for the layers below ``translate``.

    The caller opens the ``translate`` span itself, with :meth:`span`,
    around each call.
    """

    # (owner, attribute, span name); activate and step_collisions share one
    TARGETS = (
        (markers.MarkerState, "__init__", "markers.init"),
        (markers.MarkerState, "initial_prediction", "markers.predict"),
        (markers.MarkerState, "activate", "markers.collide"),
        (markers.MarkerState, "step_collisions", "markers.collide"),
        (markers.MarkerState, "close", "markers.close"),
        (morphology.Morphology, "segment", "morphology.segment"),
        (morphology.Morphology, "word_for_morphemes", "morphology.generate"),
        (translator, "lookup_lexical", "network.lookup"),
    )

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.total = defaultdict(float)  # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> summed self time
        self.children = Counter()  # span name -> direct child spans closed
        self.counts = Counter()  # counter name -> count since take_counts()
        self._stack: list[list] = []  # open spans: [name, start, child time, children]
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0.0, 0])

    def exit(self):
        name, start, child, children = self._stack.pop()
        duration = self.clock() - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.children[name] += children
        if self._stack:
            self._stack[-1][2] += duration
            self._stack[-1][3] += 1

    def span(self, name, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def corrected_self_time(self, name: str, per_child: float) -> float:
        """Self time of ``name`` without the wrappers' own cost: each direct
        child span adds ``per_child`` outside its timed region (the wrapper
        call and the span bookkeeping), which would otherwise count as the
        parent's own work."""
        return self.self_time[name] - self.children[name] * per_child

    def take_counts(self) -> Counter:
        counts, self.counts = self.counts, Counter()
        return counts

    # -- wrappers ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in self.TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, attr, original))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name, attr, original):
        tracer = self

        if attr == "close":
            def wrapper(state, *args, **kwargs):
                # read the session's size before close() empties it
                tracer.counts["markers.markers"] += len(state.markers)
                tracer.counts["markers.instances"] += len(state.instances)
                return tracer.span(name, original, state, *args, **kwargs)
        elif attr == "segment":
            def wrapper(*args, **kwargs):
                result = tracer.span(name, original, *args, **kwargs)
                tracer.counts["morphology.words"] += 1
                tracer.counts["morphology.analyses"] += len(result)
                return result
        elif attr == "lookup_lexical":
            def wrapper(*args, **kwargs):
                result = tracer.span(name, original, *args, **kwargs)
                tracer.counts["network.readings"] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, original, *args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def child_cost(self, calls: int = 2000, tries: int = 5) -> float:
        """Seconds a wrapped call adds to its parent's self time, outside
        the child's own timed region: the fastest of ``tries`` timings of
        ``calls`` wrapped no-op calls against the empty loop."""
        best = float("inf")
        for _ in range(tries):
            probe = Tracer(self.clock)
            wrapped = probe._wrap("noop", "noop", _noop)
            probe.enter("parent")
            for _ in range(calls):
                wrapped()
            probe.exit()
            start = self.clock()
            for _ in range(calls):
                pass
            bare = self.clock() - start
            best = min(best, (probe.self_time["parent"] - bare) / calls)
        return max(0.0, best)

    @classmethod
    def installed(cls) -> bool:
        """True while any target still holds a wrapper."""
        return any(
            hasattr(vars(owner)[attr], "__wrapped__") for owner, attr, _ in cls.TARGETS
        )


def _noop():
    pass
