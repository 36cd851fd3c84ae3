"""Four-marker passing engine over the bilingual memory network: AP/AA
markers parse the source, GP/GA markers mirror each step on the paired
target sequence (README describes the markers and the element types).
Which source element supplies each target element is decided once, when
the network is built (``MemoryNetwork.counterparts``); the mirror here and
the realizer in :mod:`markermt.translator` both read that table, through
:meth:`MarkerState.mirror`, so the trace binds each target element to the
fill the output uses.

The engine keeps every live alternative, as a chart recognizer: a fill
never destroys the instance it extends, it derives a new one.  The chart is
keyed by an instance's future state (an Earley item extended to unordered
elements, as in Shieber's ID/LP parser, with Tomita's packing of equal
states): its sequence, start, end, cursor and which elements are filled,
not what filled them.  A derivation whose key is already in the chart is
dropped before its instance is built, so the first instance of each key is
kept; it is the one :meth:`MarkerState.best_result` would pick among them.
Even packed, k distinct free elements that one word fills make O(2^k)
states, so a sentence that needs more than ``MAX_INSTANCES`` instances
stops with :class:`TooAmbiguous`.  As the key does not say what filled an
element, two accepted instances of one sequence over one span feed their
parent one instance between them; each still has its own ``accept`` event.

The chart has one column per position, as in Earley's recognizer: what the
instances ending there wait for.  It is worked out once, when the first
passive that starts there reads it; by then no instance ending there is
still to come, as every fill spans at least one token.  A start after the
first token is made only where that column predicts a filler the plan's
``left_corner`` table (as in Moore's left-corner chart parser) lets it
begin: a result is taken only from instances
anchored at the first token, so a later instance matters only as a
constituent that some instance ending where it starts predicts.

The chart carries the parse; the markers a session places itself, the
generation mirror and the trace events only explain it, so a session
records them only when it is made with ``record=True``.  All scheduling is
FIFO, so a recording session over the same input makes the same chart as
one that does not record: :mod:`markermt.translator` translates without
recording, and replays the sentence in a recording session when a result's
trace is first read.  :func:`build_trace` derives the ``predict`` events of
the initial prediction from the network then, so the loaded network holds
no trace.  The records are named tuples, cheap to build, as a sentence
derives one instance per collision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from markermt.network import MemoryNetwork

AP = "AP"  # analysis prediction
AA = "AA"  # analysis activation
GP = "GP"  # generation prediction
GA = "GA"  # generation activation

# instances one sentence may make: the most any bench sentence needs is 40,
# and k distinct free elements one word fills need 2^k - 1 (k = 12: 4,095)
MAX_INSTANCES = 4096


class TraceEvent(NamedTuple):
    event: str
    marker: str | None
    location: str
    binding: str | None
    token: int

    def line(self) -> str:
        return f"{self.event} {self.marker or '-'} {self.location} {self.binding or '-'} tok={self.token}"


def initial_predictions(net: MemoryNetwork, source: str, target: str):
    """The initial predictions of one direction, in network declaration
    order: ``("cse", (cs id, index))`` for each initially predicted element
    of a source sequence, each followed by ``("lex", item id)`` for the
    lexical items below its filler that no earlier element predicted, and
    ``("tcse", cs id)`` for element 0 of each target sequence (GP)."""
    fillers: set[str] = set()
    items: set[str] = set()
    for cs in net.sequences.values():
        if cs.language == source:
            for idx in net.layouts[cs.id].merged[0]:
                yield "cse", (cs.id, idx)
                el = cs.elements[idx]
                if el.literal is not None or el.concept in fillers:  # no items, or predicted already
                    continue
                fillers.add(el.concept)
                for item_id in net.items_below[(source, el.concept)]:
                    if item_id not in items:
                        items.add(item_id)
                        yield "lex", item_id
        elif cs.language == target:
            yield "tcse", cs.id


def build_trace(net: MemoryNetwork | None, source: str, target: str, events) -> tuple[TraceEvent, ...]:
    """The trace of a session: the ``predict`` events of the initial
    prediction of ``source`` to ``target``, made anew from
    :func:`initial_predictions` (none when ``net`` is None: the session
    made no initial prediction), then the session's own ``events``."""
    trace = []
    if net is not None:
        for site, what in initial_predictions(net, source, target):
            if site == "cse":
                trace.append(TraceEvent("predict", AP, f"cs:{what[0]}#{what[1]}", None, -1))
            elif site == "lex":
                trace.append(TraceEvent("predict", AP, f"lex:{what}", None, -1))
            else:
                trace.append(TraceEvent("predict", GP, f"cs:{what}#0", None, -1))
    trace += events
    return tuple(trace)


class Fill(NamedTuple):
    """What one sequence element consumed: a lexical reading, a literal
    word or an accepted sub-instance.  It is also what the agenda queues,
    as the passive that extends or starts instances.  An element that is
    not filled, omitted or still open, has no fill (None)."""

    kind: str  # lex | lit | sub
    start: int = -1
    end: int = -1
    item: str | None = None
    concept: str | None = None
    sub: int | None = None

    def binding(self) -> str | None:
        if self.kind == "lex":
            return f"item:{self.item}@{self.start}"
        if self.kind == "lit":
            return f"tok{self.start}"
        return f"inst:{self.sub}"


class TooAmbiguous(Exception):
    """The sentence needs more than ``MAX_INSTANCES`` chart instances."""


class CsInstance(NamedTuple):
    """One chart instance: what the parse reads and no more.  It is accepted
    when every required element is filled (``filled & Layout.required ==
    Layout.required``); a fixed element below the cursor that is not filled
    was omitted.  Where the generation mirror waits on the paired target
    sequence follows from ``filled`` (:meth:`MarkerState.mirrored`)."""

    id: int
    cs: str
    start: int
    end: int
    fills: tuple[Fill | None, ...]  # None: not filled
    cursor: int  # element index where the fixed-order scan resumes
    filled: int  # bit i set when element i has a fill
    parent: int | None


@dataclass(frozen=True, slots=True)
class DirectionPlan:
    """Initial prediction of one direction, shared by all its sessions.

    ``slots_by_literal`` maps a literal, and ``starts_by_concept`` a source
    item concept or sequence owner, to the initially predicted ``(cs id,
    element index)`` slots that its passive can start an instance from, in
    declaration order; a concept's slots are those of all its ancestors
    (none: no entry), one tuple per set of fillers above.  A twin slot
    (``Layout.twin_pairs``) is predicted but starts none.  The initial
    markers are kept as sets of ids (AP on ``cse`` slots and on lexical
    items, GP on element 0 of target sequences), read from
    :func:`initial_predictions`; the plan keeps no trace of their
    placement, which :func:`build_trace` derives when a trace is read.

    The left-corner table filters instance starts after the first token.
    ``filler_bit`` gives the filler concept of every source element one
    bit, in declaration order.  ``left_corner`` maps each source sequence
    owner to the mask of the fillers under which an instance of one of its
    sequences may begin a constituent: the fillers at or above the owner,
    and, closed over left corners, the ``left_corner`` of the owner of each
    slot in its ``starts_by_concept``.  Owners with the same filler ancestors share one
    value.  The mappings are read-only.
    """

    slots_by_literal: MappingProxyType[str, tuple[tuple[str, int], ...]]
    starts_by_concept: MappingProxyType[str, tuple[tuple[str, int], ...]]
    filler_bit: MappingProxyType[str, int]
    left_corner: MappingProxyType[str, int]
    predicted_slots: frozenset[tuple[str, int]]
    predicted_items: frozenset[str]
    target_heads: frozenset[str]


def compile_plan(net: MemoryNetwork, source: str, target: str) -> DirectionPlan:
    """AP on every initially predicted source element (and down the
    hierarchy to lexical items), GP on the first element of every target
    sequence, in network declaration order."""
    by_literal: dict[str, list[tuple[str, int]]] = {}
    by_filler: dict[str, list[tuple[str, int]]] = {}
    items: set[str] = set()
    predicted: list[tuple[str, int]] = []
    heads: list[str] = []
    for site, what in initial_predictions(net, source, target):
        if site == "cse":
            predicted.append(what)
            cs_id, idx = what
            el = net.sequences[cs_id].elements[idx]
            if el.literal is not None:
                starts = by_literal.setdefault(el.literal, [])
            else:
                starts = by_filler.setdefault(el.concept, [])
            if all(i != idx for i, _ in net.layouts[cs_id].twin_pairs):
                starts.append(what)
        elif site == "lex":
            items.add(what)
        else:
            heads.append(what)
    order = net.sequence_order
    merged: dict[frozenset[str], tuple[tuple[str, int], ...]] = {}
    by_concept: dict[str, tuple[tuple[str, int], ...]] = {}
    owners = [cs.owner for cs in net.sequences.values() if cs.language == source]
    concepts = [it.concept for it in net.lexicon.values() if it.language == source]
    for concept in dict.fromkeys(concepts + owners):
        if by_filler.keys().isdisjoint(net.ancestors[concept]):
            continue
        fillers = frozenset(by_filler.keys() & net.ancestors[concept])
        starts = merged.get(fillers)
        if starts is None:
            slots = [slot for filler in fillers for slot in by_filler[filler]]
            starts = merged[fillers] = tuple(sorted(slots, key=lambda s: (order[s[0]], s[1])))
        if starts:
            by_concept[concept] = starts
    # left corners: one graph node per distinct filler-ancestor mask of an
    # owner, with an edge to the mask of every owner its start slots begin
    fillers = dict.fromkeys(
        el.concept for cs in net.sequences.values() if cs.language == source
        for el in cs.elements if el.literal is None
    )
    filler_bit = {filler: 1 << i for i, filler in enumerate(fillers)}
    mask_of = {
        owner: sum(filler_bit[a] for a in net.ancestors[owner] if a in filler_bit)
        for owner in dict.fromkeys(owners)
    }
    edges: dict[int, set[int]] = {}
    for owner, mask in mask_of.items():
        if mask not in edges:
            starts = by_concept.get(owner, ())
            edges[mask] = {mask_of[net.sequences[cs_id].owner] for cs_id, _ in starts}
    closed = _reach_or(edges)
    return DirectionPlan(
        slots_by_literal=MappingProxyType({k: tuple(v) for k, v in by_literal.items()}),
        starts_by_concept=MappingProxyType(by_concept),
        filler_bit=MappingProxyType(filler_bit),
        left_corner=MappingProxyType({owner: closed[mask] for owner, mask in mask_of.items()}),
        predicted_slots=frozenset(predicted),
        predicted_items=frozenset(items),
        target_heads=frozenset(heads),
    )


def _reach_or(edges: dict[int, set[int]]) -> dict[int, int]:
    """For each mask node of ``edges``, the OR of every node reachable from
    it, itself included.  One pass of Tarjan's strongly connected components
    walk (iterative): the nodes of a component share one value, and a
    component is closed only after every component it reaches."""
    value: dict[int, int] = {}
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        walk = [(root, iter(edges[root]))]
        while walk:
            node, succs = walk[-1]
            for nxt in succs:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    walk.append((nxt, iter(edges[nxt])))
                    break
                if nxt not in value:  # on the stack: same component
                    low[node] = min(low[node], index[nxt])
            else:
                walk.pop()
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members = [stack.pop()]
                    while members[-1] != node:
                        members.append(stack.pop())
                    acc = 0
                    for m in members:
                        acc |= m
                        for nxt in edges[m]:
                            acc |= value.get(nxt, 0)
                    for m in members:
                        value[m] = acc
    return value


class MarkerSet:
    """A read-only view of one session's markers as ``(kind, location,
    binding)`` keys: those of the attached :class:`DirectionPlan` (None:
    none), ``AP`` on the lexical items of ``items`` and ``GA`` bound to a
    token on the ``(target item, token)`` pairs of ``generated``.  The
    parts never overlap, so the length is the sum of theirs."""

    __slots__ = ("_plan", "_items", "_generated")

    def __init__(self, plan: DirectionPlan | None, items: set[str], generated: set[tuple[str, int]]):
        self._plan = plan
        self._items = items
        self._generated = generated

    def __contains__(self, key) -> bool:
        kind, location, binding = key
        plan, site = self._plan, location[0]
        if kind == GA:
            return site == "lex" and any(
                item == location[1] and binding == f"tok{tok}" for item, tok in self._generated
            )
        if binding is not None:
            return False
        if kind == AP and site == "lex":
            return location[1] in self._items or plan is not None and location[1] in plan.predicted_items
        if plan is None:
            return False
        if kind == AP and site == "cse":
            return location[1:] in plan.predicted_slots
        return kind == GP and site == "tcse" and location[2] == 0 and location[1] in plan.target_heads

    def __len__(self) -> int:
        plan = self._plan
        own = len(self._items) + len(self._generated)
        if plan is None:
            return own
        return own + len(plan.predicted_slots) + len(plan.predicted_items) + len(plan.target_heads)

    def __iter__(self):
        plan = self._plan
        if plan is not None:
            for slot in plan.predicted_slots:
                yield (AP, ("cse",) + slot, None)
            for item_id in plan.predicted_items:
                yield (AP, ("lex", item_id), None)
            for cs_id in plan.target_heads:
                yield (GP, ("tcse", cs_id, 0), None)
        for item_id in self._items:
            yield (AP, ("lex", item_id), None)
        for item_id, tok in self._generated:
            yield (GA, ("lex", item_id), f"tok{tok}")


class MarkerState:
    """All live markers, instances and pending collisions of one session:
    one sentence in one direction.

    The chart is ``instances``, indexed by end position (``_by_end``) and
    by future state (``_keys``, see :meth:`_fill`); :meth:`_waiting_at`
    memoizes each position's column.  The ``agenda`` holds the fills still
    to match, each as ``(literal, fill)`` (``literal`` is None but for a
    literal word).

    A session made with ``record=True`` also records its own
    :class:`TraceEvent` objects in ``events`` (None when it does not
    record), and of the markers it places itself the two kinds the trace
    reads back: ``predicted_items``, the lexical items it predicts beyond
    the plan (AP), and ``generated_items``, the ``(target item, token)``
    pairs it activates (GA); ``markers`` views them with the plan's.
    ``close`` empties the state so nothing leaks into the next sentence;
    the events outlive it.
    """

    def __init__(self, net: MemoryNetwork, source: str, target: str, *, record: bool = False):
        self.net = net
        self.source = source
        self.target = target
        self.plan = net.plans[(source, target)]
        self.predicted_items: set[str] = set()
        self.generated_items: set[tuple[str, int]] = set()
        self.markers = MarkerSet(None, self.predicted_items, self.generated_items)
        self.instances: list[CsInstance] = []
        self.agenda: deque = deque()
        self.predicted = False  # set by initial_prediction
        self.events: list[TraceEvent] | None = [] if record else None
        self.token_index = -1
        self._by_end: dict[int, list[int]] = {}
        self._keys: set[tuple] = set()  # chart keys, see _fill
        self._waiting: dict[int, tuple[list[tuple], int | None]] = {}  # see _waiting_at
        self._walked: set[str] = set()  # fillers _predict_lexical has walked

    # -- bookkeeping -------------------------------------------------------

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        if self.events is None:
            raise ValueError("the session does not record its trace")
        return build_trace(self.net if self.predicted else None, self.source, self.target, self.events)

    # -- the three phases ----------------------------------------------------

    def initial_prediction(self):
        """Attach the direction's compiled plan (see :func:`compile_plan`):
        its markers join this session's, not copied, and their ``predict``
        events will open the trace."""
        self.markers = MarkerSet(self.plan, self.predicted_items, self.generated_items)
        self.predicted = True

    def _predict_lexical(self, concept):
        """AP on the lexical items below the filler ``concept`` that neither
        the plan nor the session has predicted, in declaration order; once
        a filler is walked, all its items are predicted."""
        if concept in self._walked:
            return
        self._walked.add(concept)
        predicted, planned, tok = self.predicted_items, self.plan.predicted_items, self.token_index
        for item_id in self.net.items_below[(self.source, concept)]:
            if item_id not in predicted and item_id not in planned:
                predicted.add(item_id)
                self.events.append(TraceEvent("predict", AP, f"lex:{item_id}", None, tok))

    def activate(self, lexical_items, span: int, literal: str | None = None):
        """AA markers onto one input token's readings; collisions are queued,
        not processed (see :meth:`step_collisions`)."""
        self.token_index = span
        events, agenda, lexicon = self.events, self.agenda, self.net.lexicon
        for item_id in lexical_items:
            item = lexicon[item_id]
            assert item.language == self.source, f"{item_id} is not a {self.source} item"
            if events is not None:
                events.append(TraceEvent("activate", AA, f"lex:{item_id}", f"tok{span}", span))
            agenda.append((None, Fill("lex", span, span + 1, item_id, item.concept)))
        if literal is not None:
            if events is not None:
                events.append(TraceEvent("activate", AA, f"lit:{literal}", f"tok{span}", span))
            agenda.append((literal, Fill("lit", span, span + 1)))

    def step_collisions(self):
        """Drain the agenda of fills to quiescence.

        Each fill extends the instances waiting where it starts and starts
        new ones (:meth:`_match_passive`); each acceptance queues its sub
        fill, which passes activation up the hierarchy.  A recording
        session also records a lexical fill's collision and the GA it puts
        on the paired target items, and a token whose readings produced no
        fill anywhere as a dead activation (unusable at this position); the
        sentence simply continues.  Every instance a token's fills make ends
        just after it, so the token is dead when no instance ends there."""
        agenda, events = self.agenda, self.events
        while agenda:
            literal, fill = agenda.popleft()
            if events is not None and fill.kind == "lex":
                self._record_lexical(fill)
            self._match_passive(literal, fill)
        if events is not None and self.token_index + 1 not in self._by_end:
            events.append(TraceEvent("dead", AA, f"tok:{self.token_index}", None, self.token_index))

    # -- collision handling --------------------------------------------------

    def _record_lexical(self, fill):
        """The collision of a lexical reading with its AP, if predicted, and
        GA on the paired target items."""
        item_id, span, events = fill.item, fill.start, self.events
        if self.predicted and item_id in self.plan.predicted_items or item_id in self.predicted_items:
            events.append(TraceEvent("collide", AA, f"lex:{item_id}", f"tok{span}", span))
        generated = self.generated_items
        for tgt_item in self.net.items_of_concept(self.target, fill.concept):
            if (tgt_item, span) not in generated:
                generated.add((tgt_item, span))
                events.append(TraceEvent("activate", GA, f"lex:{tgt_item}", f"tok{span}", span))

    def _match_passive(self, literal, fill):
        # extend the instances waiting at the fill's start
        concept, start, end = fill.concept, fill.start, fill.end
        above = self.net.ancestors[concept] if concept is not None else ()
        waiting, pred = self._waiting_at(start)
        for inst, cs, layout, idx, el in waiting:
            if el.literal == literal if el.literal is not None else el.concept in above:
                self._fill(inst, cs, layout, idx, fill, end)
        # start new instances from the standing initial predictions, after
        # the first token only where an instance ending here predicts one
        if literal is not None:
            slots = self.plan.slots_by_literal.get(literal)
        else:
            slots = self.plan.starts_by_concept.get(concept)
        if slots:
            sequences, layouts = self.net.sequences, self.net.layouts
            left_corner = self.plan.left_corner
            for cs_id, idx in slots:
                cs = sequences[cs_id]
                if pred is None or left_corner[cs.owner] & pred:
                    self._fill(None, cs, layouts[cs_id], idx, fill, end, start)

    def _waiting_at(self, pos) -> tuple[list[tuple], int | None]:
        """The chart column at ``pos``: ``(inst, cs, layout, idx, element)``
        for each eligible element of the instances ending at ``pos``, in
        creation and index order, and the ``plan.filler_bit`` mask of the
        conceptual ones, None where no instance ends, as at the first token
        (nothing is filtered there).  An instance's elements are read from
        its layout's ``merged[cursor]``; a bit test skips the free ones it
        filled and those whose twin is still empty (a twin waits for the one
        before it).  Memoized: the first call comes from a passive that
        starts at ``pos``, and by then no instance ending there is still to
        come, as every fill spans at least one token."""
        column = self._waiting.get(pos)
        if column is None:
            ends = self._by_end.get(pos)
            if ends is None:
                column = ([], None)
            else:
                slots, pred = [], 0
                instances, sequences, layouts = self.instances, self.net.sequences, self.net.layouts
                filler_bit = self.plan.filler_bit
                for inst_id in ends:
                    inst = instances[inst_id]
                    cs, layout = sequences[inst.cs], layouts[inst.cs]
                    elements = cs.elements
                    skip = filled = inst.filled
                    for i, twin in layout.twin_pairs:
                        if not filled >> twin & 1:
                            skip |= 1 << i
                    for idx in layout.merged[inst.cursor]:
                        if not skip >> idx & 1:
                            el = elements[idx]
                            slots.append((inst, cs, layout, idx, el))
                            if el.literal is None:
                                pred |= filler_bit[el.concept]
                column = (slots, pred)
            self._waiting[pos] = column
        return column

    def _fill(self, inst, cs, layout, idx, fill, end, start=None):
        """Derive the instance that results from filling element ``idx`` of
        ``cs`` (whose :class:`~markermt.network.Layout` is ``layout``), unless
        the chart already holds one with its future state.

        The key ``(cs, start, end, cursor, filled)`` names that state: fixed
        elements below the cursor that are not filled are omitted, all other
        elements not filled are open; either way their fill is None.  A
        recording session then records the fill (:meth:`_record_fill`).  An
        accepted instance queues its sub fill on the agenda."""
        if inst is None:
            begin, old_cursor, filled = start, 0, 0
        else:
            begin, old_cursor, filled = inst.start, inst.cursor, inst.filled
        free = layout.free_mask >> idx & 1
        cursor = old_cursor if free else idx + 1
        filled |= 1 << idx
        key = (cs.id, begin, end, cursor, filled)
        if key in self._keys:
            return
        if len(self.instances) >= MAX_INSTANCES:
            raise TooAmbiguous(f"more than {MAX_INSTANCES} instances")
        self._keys.add(key)

        if inst is None:
            fills = [None] * len(cs.elements)
            parent = None
        else:
            fills = list(inst.fills)
            parent = inst.id
        fills[idx] = fill

        new_id = len(self.instances)
        new = CsInstance(new_id, cs.id, begin, end, tuple(fills), cursor, filled, parent)
        self.instances.append(new)
        self._by_end.setdefault(end, []).append(new_id)
        accepted = filled & layout.required == layout.required
        if self.events is not None:
            self._record_fill(new, cs, layout, idx, old_cursor, accepted)
        if accepted:
            self.agenda.append((None, Fill("sub", begin, end, None, cs.owner, new_id)))

    def _record_fill(self, new, cs, layout, idx, old_cursor, accepted):
        """The events of the fill of element ``idx`` that made instance
        ``new`` from a cursor at ``old_cursor``: its collision, the
        predictions it withdraws (a fixed fill that skips elements omits the
        fixed ones predicted before it) and those it places with the lexical
        ones below them, the target elements its mirror passes and its
        acceptance.  Both are read from the layout's ``merged``: the fixed
        elements waiting at the old cursor before ``idx`` are withdrawn, and
        the fixed elements waiting at the new cursor are predicted, with
        every free element but ``idx`` for a start (a free element stays
        predicted until filled)."""
        events, tok, at = self.events, self.token_index, f"inst:{new.id}@{cs.id}#"
        events.append(TraceEvent("collide", AA, f"{at}{idx}", new.fills[idx].binding(), tok))
        free, elements, start = layout.free_mask, cs.elements, new.parent is None
        if not free >> idx & 1:
            for k in layout.merged[old_cursor]:
                if k < idx and not free >> k & 1:
                    events.append(TraceEvent("withdraw", AP, f"{at}{k}", None, tok))
        for nxt in layout.merged[new.cursor]:
            if nxt != idx and (start or not free >> nxt & 1):
                events.append(TraceEvent("predict", AP, f"{at}{nxt}", None, tok))
                if elements[nxt].literal is None:
                    self._predict_lexical(elements[nxt].concept)

        before = 0 if start else self.mirrored(cs, self.instances[new.parent].filled)
        self.mirror(cs, new.fills, before, self.mirrored(cs, new.filled, before))
        if accepted:
            events.append(TraceEvent("accept", AA, f"cn:{cs.owner}", f"inst:{new.id}", tok))

    # -- generation mirroring --------------------------------------------------

    def mirrored(self, cs, filled, start: int = 0) -> int:
        """Where the GP cursor on the paired sequence of ``cs`` waits, from
        ``start``, once the source elements of ``filled`` are filled:
        literals pass under a bare GP, a conceptual element waits until the
        source element that supplies it (``net.counterparts``) is filled.
        An instance's ``filled`` holds that of the instance it extends, so
        its cursor is at or past that one's, and the count may resume there;
        the mirror of the fill passes the target elements between the two."""
        elements = self.net.sequences[cs.paired].elements
        supply = self.net.counterparts[cs.id]
        cursor = start
        while cursor < len(elements):
            if elements[cursor].literal is None:
                j = supply[cursor]
                if j is None or not filled >> j & 1:
                    break
            cursor += 1
        return cursor

    def mirror(self, cs, fills, begin, end):
        """The ``generate`` events of the elements ``begin`` to ``end`` of
        the sequence paired with ``cs``, given the fills of ``cs``: GA bound
        to the fill that supplies an element, GP where none does."""
        tcs_id = cs.paired
        supply = self.net.counterparts[cs.id]
        events, tok = self.events, self.token_index
        for k in range(begin, end):
            j = supply[k]
            fill = None if j is None else fills[j]
            if fill is None:
                events.append(TraceEvent("generate", GP, f"cs:{tcs_id}#{k}", None, tok))
            else:
                events.append(TraceEvent("generate", GA, f"cs:{tcs_id}#{k}", fill.binding(), tok))

    # -- results and teardown ---------------------------------------------------

    def best_result(self, n_tokens: int) -> CsInstance | None:
        """The best accepted instance anchored at the sentence start, if it
        covers the input: widest span, then network declaration order, then
        creation order."""
        order, layouts = self.net.sequence_order, self.net.layouts
        best = min(
            (
                i for i in self.instances
                if i.start == 0 and i.filled & layouts[i.cs].required == layouts[i.cs].required
            ),
            key=lambda i: (-i.end, order[i.cs], i.id),
            default=None,
        )
        if best is not None and best.end == n_tokens:
            return best
        return None

    def close(self):
        """End the session: no markers, instances or pending work may leak.
        The shared plan is only detached, never modified."""
        self.predicted_items.clear()
        self.generated_items.clear()
        self.markers = MarkerSet(None, self.predicted_items, self.generated_items)
        self.instances.clear()
        self.agenda.clear()
        self._by_end.clear()
        self._keys.clear()
        self._waiting.clear()
        self._walked.clear()

    def is_empty(self) -> bool:
        return not self.markers and not self.instances and not self.agenda
