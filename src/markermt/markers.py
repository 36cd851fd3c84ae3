"""Four-marker passing engine over the bilingual memory network: AP/AA
markers parse the source, GP/GA markers mirror each step on the paired
target sequence (README describes the markers and the element types).
Which source element supplies each target element is decided once, when
the network is built (``MemoryNetwork.counterparts``); the mirror here
(:func:`mirror`) and the realizer in :mod:`markermt.translator` both read
that table, so the trace binds each target element to the fill the output
uses.

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
instances ending there wait for.  It is built once, when the token at that
position is activated, from the instances the previous token made: every
fill spans at least one token, so each instance a token's passives make
ends just after that token, and no other does.  A start after the first
token is made only where that column predicts a filler the plan's
``left_corner`` table (as in Moore's left-corner chart parser) lets it
begin: a result is taken only from instances
anchored at the first token, so a later instance matters only as a
constituent that some instance ending where it starts predicts.  An
accepted instance whose owner has a ``left_corner`` of 0 (no filler sits
at or above it) queues no sub fill, as it could neither fill a waiting
element nor start an instance.  The winner is kept as the accepted
instances anchored at the first token are made.

The chart carries the parse, and it is also the parse's record, as an
Earley or Tomita chart is: a session's markers are its direction's plan,
which keeps only what the engine reads, it records no event, and a trace is
a view of what it keeps, its instances and each token's readings, as is
the concept tree of :mod:`markermt.translator`.
:func:`build_trace` derives the ``predict`` events of the initial
prediction from the network, so neither the network nor its plans hold a
trace, and the events that explain the chart from the chart, so a trace
never tells of another parse than the one the translation read.  The
records are named tuples, cheap to build, as a sentence derives one
instance per collision.
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


def initial_predictions(net: MemoryNetwork, source: str, target: str, fillers: set, items: set):
    """The initial predictions of one direction, in network declaration
    order: ``("cse", (cs id, index))`` for each initially predicted element
    of a source sequence, each followed by ``("lex", item id)`` for the
    lexical items below its filler that no earlier element predicted, and
    ``("tcse", cs id)`` for element 0 of each target sequence (GP).  The
    caller's empty ``fillers`` and ``items`` sets receive the fillers walked
    and the items predicted."""
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


def build_trace(net: MemoryNetwork, source: str, target: str, instances, readings, stop=None) -> list[TraceEvent]:
    """The trace of a session of ``source`` to ``target``, derived from
    what it kept: the ``predict`` events of the initial prediction, made
    anew from :func:`initial_predictions`, then the events that explain
    its chart, the ``instances`` it made from the tokens of ``readings``
    (per token, the ``(literal, fill)`` entries :meth:`MarkerState.activate`
    queued) until it stopped, too ambiguous, while it matched the passive
    ``stop``, if given.

    Each token's readings are activated (AA), and its passives are matched
    in agenda order: its lexical readings, its literal, then the sub fill of
    each accepted instance it made, in id order.  A lexical passive
    collides with its AP, if predicted, and puts GA on the paired target
    items.  The instances a passive made follow, contiguous in id order,
    each known by the fill of the element it newly filled: its collision,
    the predictions it withdraws (a fixed fill that skips elements omits the
    fixed ones before it) and those it places, with the lexical items below
    them that nothing predicted yet, the target elements its mirror passes
    and its acceptance.  The fixed elements of the layout's ``merged`` at
    the old cursor before the filled one are withdrawn; those at the new
    cursor are predicted, with every free element but the filled one for a
    start (a free element stays predicted until filled).  A token that made
    no instance is dead (unusable at this position); the sentence simply
    continues, as every instance a token's fills make ends just after it."""
    event = TraceEvent  # read now: a caller may count the events built
    events: list[TraceEvent] = []
    sequences, layouts, items_of = net.sequences, net.layouts, net.items_of
    # the fillers whose items are predicted, and those items: the initial
    # prediction's, then the session's
    walked, predicted = set(), set()
    for site, what in initial_predictions(net, source, target, walked, predicted):
        if site == "cse":
            events.append(event("predict", AP, f"cs:{what[0]}#{what[1]}", None, -1))
        elif site == "lex":
            events.append(event("predict", AP, f"lex:{what}", None, -1))
        else:
            events.append(event("predict", GP, f"cs:{what}#0", None, -1))

    def predict_lexical(concept, tok):
        walked.add(concept)
        for item_id in net.items_below[(source, concept)]:
            if item_id not in predicted:
                predicted.add(item_id)
                events.append(event("predict", AP, f"lex:{item_id}", None, tok))

    def record_fill(new, parent, idx, tok):
        cs, layout = sequences[new.cs], layouts[new.cs]
        at = f"inst:{new.id}@{cs.id}#"
        events.append(event("collide", AA, f"{at}{idx}", new.fills[idx].binding(), tok))
        free, elements, start = layout.free_mask, cs.elements, parent is None
        if not free >> idx & 1:
            for k in layout.merged[0 if start else parent.cursor]:
                if k < idx and not free >> k & 1:
                    events.append(event("withdraw", AP, f"{at}{k}", None, tok))
        for nxt in layout.merged[new.cursor]:
            if nxt != idx and (start or not free >> nxt & 1):
                events.append(event("predict", AP, f"{at}{nxt}", None, tok))
                if elements[nxt].literal is None and elements[nxt].concept not in walked:
                    predict_lexical(elements[nxt].concept, tok)
        before = 0 if start else mirrored(net, cs, parent.filled)
        events.extend(mirror(net, cs, new.fills, before, mirrored(net, cs, new.filled, before), tok))
        if new.filled & layout.required == layout.required:
            events.append(event("accept", AA, f"cn:{cs.owner}", f"inst:{new.id}", tok))
            return Fill("sub", new.start, new.end, None, cs.owner, new.id)
        return None

    i = 0
    for tok, queued in enumerate(readings):
        bound, passives = f"tok{tok}", []
        for literal, fill in queued:
            where = f"lex:{fill.item}" if literal is None else f"lit:{literal}"
            events.append(event("activate", AA, where, bound, tok))
            passives.append(fill)
        first, generated = i, set()
        for passive in passives:  # grows by the sub fill of each acceptance
            if passive.kind == "lex":
                if passive.item in predicted:
                    events.append(event("collide", AA, f"lex:{passive.item}", bound, tok))
                for tgt_item in items_of.get((target, passive.concept), ()):
                    if tgt_item not in generated:
                        generated.add(tgt_item)
                        events.append(event("activate", GA, f"lex:{tgt_item}", bound, tok))
            while i < len(instances):
                new = instances[i]
                parent = None if new.parent is None else instances[new.parent]
                idx = (new.filled ^ (0 if parent is None else parent.filled)).bit_length() - 1
                if new.fills[idx] != passive:
                    break
                i += 1
                sub = record_fill(new, parent, idx, tok)
                if sub is not None:
                    passives.append(sub)
            if passive == stop:
                return events
        if i == first:
            events.append(event("dead", AA, f"tok:{tok}", None, tok))
    return events


def mirrored(net: MemoryNetwork, cs, filled: int, start: int = 0) -> int:
    """Where the GP cursor on the paired sequence of ``cs`` waits, from
    ``start``, once the source elements of ``filled`` are filled: literals
    pass under a bare GP, a conceptual element waits until the source
    element that supplies it (``net.counterparts``) is filled.  An
    instance's ``filled`` holds that of the instance it extends, so its
    cursor is at or past that one's, and the count may resume there; the
    mirror of the fill passes the target elements between the two."""
    elements = net.sequences[cs.paired].elements
    supply = net.counterparts[cs.id]
    cursor = start
    while cursor < len(elements):
        if elements[cursor].literal is None:
            j = supply[cursor]
            if j is None or not filled >> j & 1:
                break
        cursor += 1
    return cursor


def mirror(net: MemoryNetwork, cs, fills, begin: int, end: int, tok: int) -> list[TraceEvent]:
    """The ``generate`` events of the elements ``begin`` to ``end`` of the
    sequence paired with ``cs``, given the fills of ``cs``: GA bound to the
    fill that supplies an element, GP where none does."""
    tcs_id, supply, events = cs.paired, net.counterparts[cs.id], []
    for k in range(begin, end):
        j = supply[k]
        fill = None if j is None else fills[j]
        if fill is None:
            events.append(TraceEvent("generate", GP, f"cs:{tcs_id}#{k}", None, tok))
        else:
            events.append(TraceEvent("generate", GA, f"cs:{tcs_id}#{k}", fill.binding(), tok))
    return events


class Fill(NamedTuple):
    """What one sequence element consumed: a lexical reading, a literal
    word or an accepted sub-instance.  It is also what the agenda queues,
    as the passive that extends or starts instances.  An element that is
    not filled, omitted or still open, has no fill (None).  The session
    builds fills with ``tuple.__new__``, every field given, without the
    Python-level ``__new__`` of a named tuple."""

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
    """The sentence needs more than ``MAX_INSTANCES`` chart instances;
    ``fill`` is the passive whose match asked for one more."""

    def __init__(self, fill: Fill):
        super().__init__(f"more than {MAX_INSTANCES} instances")
        self.fill = fill


class CsInstance(NamedTuple):
    """One chart instance: what the parse reads and no more.  It is accepted
    when every required element is filled (``filled & Layout.required ==
    Layout.required``); a fixed element below the cursor that is not filled
    was omitted.  Where the generation mirror waits on the paired target
    sequence follows from ``filled`` (:func:`mirrored`).
    :meth:`MarkerState._fill` builds it with ``tuple.__new__``, as it builds
    fills."""

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
    (``Layout.twin_pairs``) is predicted but starts none.  Of the initial
    markers (AP on ``cse`` slots and on lexical items, GP on element 0 of
    target sequences) the plan keeps only their number, ``placed``, its
    ``len``: one per entry of :func:`initial_predictions`, whose sites
    :func:`build_trace` derives again when a trace is read.

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
    placed: int

    def __len__(self) -> int:
        return self.placed


def compile_plan(net: MemoryNetwork, source: str, target: str) -> DirectionPlan:
    """The :class:`DirectionPlan` of ``source`` to ``target``: the start
    tables of the slots :func:`initial_predictions` yields, the left-corner
    table, and how many markers the initial prediction places."""
    by_literal: dict[str, list[tuple[str, int]]] = {}
    by_filler: dict[str, list[tuple[str, int]]] = {}
    placed = 0
    for site, what in initial_predictions(net, source, target, set(), set()):
        placed += 1
        if site == "cse":
            cs_id, idx = what
            el = net.sequences[cs_id].elements[idx]
            if el.literal is not None:
                starts = by_literal.setdefault(el.literal, [])
            else:
                starts = by_filler.setdefault(el.concept, [])
            if all(i != idx for i, _ in net.layouts[cs_id].twin_pairs):
                starts.append(what)
    order = net.sequence_order
    merged: dict[frozenset[str], tuple[tuple[str, int], ...]] = {}
    by_concept: dict[str, tuple[tuple[str, int], ...]] = {}
    owners = [cs.owner for cs in net.sequences.values() if cs.language == source]
    concepts = [concept for language, concept in net.items_of if language == source]
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
    # owner, with an edge to the mask of every owner its start slots begin;
    # the keys of items_below are the element fillers, in declaration order
    fillers = [concept for language, concept in net.items_below if language == source]
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
        placed=placed,
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


class MarkerState:
    """All live markers, instances and pending collisions of one session:
    one sentence in one direction.

    The chart is ``instances``, with one column per activated token
    (``_columns``, see :meth:`_column`) and a set of future states
    (``_keys``, see :meth:`_fill`); ``_first`` is the id of the first
    instance the current token made, and ``_best`` the winner so far (see
    :meth:`best_result`).  The ``agenda`` holds the fills still
    to match, each as ``(literal, fill)`` (``literal`` is None but for a
    literal word).  ``readings`` keeps, per activated token in order, the
    agenda entries :meth:`activate` queued for it.  The chart and the
    readings are the whole record of the parse: :attr:`trace` derives its
    events from them (:func:`build_trace`), and the session places no
    marker of its own: ``markers`` is its plan from
    :meth:`initial_prediction` on, else ``()``, so ``len(markers)`` counts
    the plan's.  ``close`` empties the
    state so nothing leaks into the next sentence; it rebinds ``instances``
    and ``readings`` to new lists, so a caller may keep the old ones.
    """

    def __init__(self, net: MemoryNetwork, source: str, target: str):
        self.net = net
        self.source = source
        self.target = target
        self.plan = net.plans[(source, target)]
        self.markers: DirectionPlan | tuple[()] = ()
        self.instances: list[CsInstance] = []
        self.readings: list[list[tuple[str | None, Fill]]] = []
        self.agenda: deque = deque()
        self._keys: set[tuple] = set()  # chart keys, see _fill
        self._columns: list[tuple[list[tuple], int | None]] = []  # one per token, see _column
        self._first = 0
        self._best: CsInstance | None = None

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        return tuple(build_trace(self.net, self.source, self.target, self.instances, self.readings))

    # -- the three phases ----------------------------------------------------

    def initial_prediction(self):
        """Attach the direction's compiled plan (see :func:`compile_plan`):
        it becomes this session's ``markers``, not copied, and the
        ``predict`` events of its markers open the trace."""
        self.markers = self.plan

    def activate(self, lexical_items, span: int, literal: str | None = None):
        """AA markers onto the readings of input token ``span``, the next
        one; collisions are queued, not processed (see
        :meth:`step_collisions`).  The queued entries are the token's
        ``readings``.  The chart column at ``span`` is built here, from the
        instances the previous token made, which all end at ``span``."""
        instances = self.instances
        self._columns.append(self._column(instances[self._first:]))
        self._first = len(instances)
        lexicon, queued = self.net.lexicon, []
        for item_id in lexical_items:
            item = lexicon[item_id]
            assert item.language == self.source, f"{item_id} is not a {self.source} item"
            queued.append((None, tuple.__new__(Fill, ("lex", span, span + 1, item_id, item.concept, None))))
        if literal is not None:
            queued.append((literal, tuple.__new__(Fill, ("lit", span, span + 1, None, None, None))))
        self.readings.append(queued)
        self.agenda.extend(queued)

    def step_collisions(self):
        """Drain the agenda of fills to quiescence.

        Each fill extends the instances waiting where it starts and starts
        new ones (:meth:`_match_passive`); each acceptance queues its sub
        fill, which passes activation up the hierarchy.  A token whose
        readings extend or start nothing leaves no instance ending after it;
        the sentence simply continues."""
        agenda = self.agenda
        while agenda:
            literal, fill = agenda.popleft()
            self._match_passive(literal, fill)

    # -- collision handling --------------------------------------------------

    def _match_passive(self, literal, fill):
        # extend the instances waiting at the fill's start
        concept, start, end = fill.concept, fill.start, fill.end
        above = self.net.ancestors[concept] if concept is not None else ()
        waiting, pred = self._columns[start]
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

    def _column(self, ending) -> tuple[list[tuple], int | None]:
        """The chart column of the instances ``ending`` at one position:
        ``(inst, cs, layout, idx, element)`` for each of their eligible
        elements, in creation and index order, and the ``plan.filler_bit``
        mask of the conceptual ones, None where no instance ends, as at the
        first token (nothing is filtered there).  An instance's elements are
        read from its layout's ``merged[cursor]``; a bit test skips the free
        ones it filled and those whose twin is still empty (a twin waits for
        the one before it)."""
        if not ending:
            return [], None
        slots, pred = [], 0
        sequences, layouts, filler_bit = self.net.sequences, self.net.layouts, self.plan.filler_bit
        for inst in ending:
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
        return slots, pred

    def _fill(self, inst, cs, layout, idx, fill, end, start=None):
        """Derive the instance that results from filling element ``idx`` of
        ``cs`` (whose :class:`~markermt.network.Layout` is ``layout``), unless
        the chart already holds one with its future state.

        The key ``(cs, start, end, cursor, filled)`` names that state: fixed
        elements below the cursor that are not filled are omitted, all other
        elements not filled are open; either way their fill is None.  An
        accepted instance queues its sub fill on the agenda, unless its
        owner has a ``left_corner`` of 0, and one anchored at the sentence
        start may become the winner (:meth:`best_result`)."""
        if inst is None:
            begin, cursor, filled = start, 0, 0
        else:
            begin, cursor, filled = inst.start, inst.cursor, inst.filled
        if not layout.free_mask >> idx & 1:
            cursor = idx + 1
        filled |= 1 << idx
        key = (cs.id, begin, end, cursor, filled)
        if key in self._keys:
            return
        if len(self.instances) >= MAX_INSTANCES:
            raise TooAmbiguous(fill)
        self._keys.add(key)

        if inst is None:
            fills = [None] * len(cs.elements)
            parent = None
        else:
            fills = list(inst.fills)
            parent = inst.id
        fills[idx] = fill

        new_id = len(self.instances)
        new = tuple.__new__(CsInstance, (new_id, cs.id, begin, end, tuple(fills), cursor, filled, parent))
        self.instances.append(new)
        if filled & layout.required == layout.required:
            if begin == 0:
                best, order = self._best, self.net.sequence_order
                if best is None or end > best.end or end == best.end and order[cs.id] < order[best.cs]:
                    self._best = new
            if self.plan.left_corner[cs.owner]:
                self.agenda.append((None, tuple.__new__(Fill, ("sub", begin, end, None, cs.owner, new_id))))

    # -- results and teardown ---------------------------------------------------

    def best_result(self, n_tokens: int) -> CsInstance | None:
        """The best accepted instance anchored at the sentence start, if it
        covers the input: widest span, then network declaration order, then
        creation order.  :meth:`_fill` keeps it as such instances are made;
        an instance ends after the token that made it, so a later one is
        never narrower."""
        best = self._best
        if best is not None and best.end == n_tokens:
            return best
        return None

    def close(self):
        """End the session: no markers, instances or pending work may leak.
        ``markers`` goes back to ``()``: the shared plan is only detached,
        never modified.  ``instances`` and ``readings`` are rebound, not
        cleared, so a result keeps its chart."""
        self.markers = ()
        self.instances = []
        self.readings = []
        self.agenda.clear()
        self._keys.clear()
        self._columns.clear()
        self._first = 0
        self._best = None
