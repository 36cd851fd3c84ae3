"""End-to-end translation: tokenize, segment, pass markers, realize.

The same orchestration serves both directions; nothing here branches on a
particular language, only on the source/target tags carried by the
direction argument (language-specific behavior lives in the morphology
profiles).

The concept tree of a result is made of named tuples, :class:`TreeNode`
and :class:`TreeFill`: immutable, cheap to build (a tree read makes one
record per source element; :func:`translate` makes none), and printed by
``repr`` field by field, as a named tuple prints, from an explicit stack
(:func:`_tree_repr`), so a deep tree prints without recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from markermt.markers import CsInstance, MarkerState, TooAmbiguous, TraceEvent, build_trace, mirror, mirrored
from markermt.morphology import PROFILES, MorphologyError, tokenize
from markermt.network import DIRECTIONS, ElementType, MemoryNetwork, lookup_lexical

SUCCESS = "success"
NO_PARSE = "no-parse"
UNKNOWN_WORD = "unknown-word"
TOO_AMBIGUOUS = "too-ambiguous"  # the chart outgrew markers.MAX_INSTANCES


def parse_direction(direction: str) -> tuple[str, str]:
    src, _, tgt = direction.partition("-")
    if (src, tgt) not in DIRECTIONS:
        raise ValueError(f"bad direction '{direction}', expected one of "
                         + ", ".join(f"{a}-{b}" for a, b in DIRECTIONS))
    return src, tgt


def reverse_direction(direction: str) -> str:
    src, tgt = parse_direction(direction)
    return f"{tgt}-{src}"


class TreeFill(NamedTuple):
    """One element of an instantiated sequence in the concept tree."""

    filler: str | None  # element's concept, None for literals
    literal: str | None
    etype: str
    kind: str  # lex | lit | sub | omitted | default
    item: str | None = None
    item_concept: str | None = None
    span: tuple[int, int] | None = None
    child: "TreeNode | None" = None

    def __repr__(self) -> str:
        return _tree_repr(self)


class TreeNode(NamedTuple):
    concept: str
    source_cs: str
    target_cs: str
    fills: tuple[TreeFill, ...]

    def __repr__(self) -> str:
        return _tree_repr(self)


def _tree_repr(root: TreeNode | TreeFill) -> str:
    """The default named-tuple ``repr`` of a tree record, from a stack of
    the text pieces and the records still to print."""
    out: list[str] = []
    stack: list = [root]
    while stack:
        record = stack.pop()
        if type(record) is str:
            out.append(record)
            continue
        parts: list = [type(record).__name__ + "("]
        for i, (name, value) in enumerate(zip(record._fields, record)):
            parts.append(f", {name}=" if i else f"{name}=")
            if type(value) is TreeNode:  # TreeFill.child
                parts.append(value)
            elif name == "fills":  # TreeNode.fills
                parts.append("(")
                for j, fill in enumerate(value):
                    parts += (", ", fill) if j else (fill,)
                parts.append(",)" if len(value) == 1 else ")")
            else:
                parts.append(repr(value))
        parts.append(")")
        stack += reversed(parts)
    return "".join(out)


@dataclass
class TranslationResult:
    """What :func:`translate` returns.

    ``concept_tree`` and ``trace`` are views of the chart the result keeps,
    built when first read and then kept, so a caller that reads only the
    text pays for neither.  A read translates nothing again and opens no
    session, so it cannot tell of another parse than the result's.

    ``concept_tree`` is the realized tree of named tuples (:class:`TreeNode`
    and :class:`TreeFill`), None unless the status is ``success``: the
    realizer walks the winner once more, as :func:`translate` walked it
    for the text, and makes the tree's records this time.

    ``trace`` is the event stream of the sentence's session: the
    ``predict`` events of the direction's initial prediction, derived from
    the network, then the events that explain the session's chart
    (:func:`~markermt.markers.build_trace`), then, for a sentence that
    parsed, the ``generate`` events of that same walk of the realizer, which
    ends in a ``note`` where generation failed; a trace read keeps the tree
    it walks.  The first read costs about 2 µs per event, most of them the
    ``predict`` events (one per initially predicted slot, item and target
    head): a median of 18–19 ms at 16000/3200 lexical/sequence pairs (see
    README).  A sentence that does not tokenize has no session and an empty
    trace.
    """

    status: str
    direction: str
    source_sentence: str
    target_sentence: str = ""
    error_position: int | None = None  # 1-based token index for unknown-word
    # what the session left for the trace and the tree: (network,
    # instances, readings, the passive it stopped at, winner); None when
    # there was no session
    _session: tuple | None = field(default=None, repr=False, compare=False)
    _trace: tuple[TraceEvent, ...] | None = field(default=None, repr=False, compare=False)
    _tree: TreeNode | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == SUCCESS

    @property
    def concept_tree(self) -> TreeNode | None:
        if self._tree is None and self.status == SUCCESS:
            net, instances, _, _, winner = self._session
            self._tree = _realize(net, instances, winner, parse_direction(self.direction)[1], [])[1]
        return self._tree

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        if self._trace is None:
            trace = []
            if self._session is not None:
                net, instances, readings, stop, winner = self._session
                src, tgt = parse_direction(self.direction)
                trace = build_trace(net, src, tgt, instances, readings, stop)
                if winner is not None:
                    try:
                        tree = _realize(net, instances, winner, tgt, trace)[1]
                    except GenerationGap as gap:
                        trace.append(TraceEvent("note", None, "generation", str(gap), winner.end - 1))
                    else:
                        if self._tree is None:
                            self._tree = tree
            self._trace = tuple(trace)
        return self._trace


class GenerationGap(Exception):
    """A required target element had no source counterpart and no default."""


def translate(net: MemoryNetwork, sentence: str, direction: str) -> TranslationResult:
    """Translate one sentence; failures come back in ``status``, not raised.

    Steps: attach the direction's initial prediction, compiled once when
    the network was built, then per token segmentation + lexical lookup +
    activation + collision draining, then realization of the paired target
    sequence tree of the widest accepted instance anchored at the sentence
    start, for its text only.  A sentence whose chart outgrows
    ``markers.MAX_INSTANCES`` stops there and ends ``too-ambiguous``.  No
    tree record and no trace event is built until
    :attr:`TranslationResult.concept_tree` or
    :attr:`TranslationResult.trace` is read.
    """
    src, tgt = parse_direction(direction)
    result = TranslationResult(status=NO_PARSE, direction=direction, source_sentence=sentence)

    try:
        words = tokenize(sentence)
    except MorphologyError:
        return result

    state = MarkerState(net, src, tgt)
    state.initial_prediction()
    literals = net.literals[src]
    stop = winner = None

    try:
        for i, word in enumerate(words):
            item_ids = word_items(net, src, word)
            literal = word if word in literals else None
            if not item_ids and literal is None:
                result.status = UNKNOWN_WORD
                result.error_position = i + 1
                return result
            state.activate(item_ids, i, literal=literal)
            try:
                state.step_collisions()
            except TooAmbiguous as too_many:
                result.status = TOO_AMBIGUOUS
                stop = too_many.fill
                return result
            assert not state.agenda, "agenda must be quiescent between tokens"

        winner = state.best_result(len(words))
        if winner is not None:
            try:
                result.target_sentence = _realize(net, state.instances, winner, tgt)[0]
                result.status = SUCCESS
            except GenerationGap:  # no-parse; the trace's note says why
                pass
    finally:
        result._session = (net, state.instances, state.readings, stop, winner)
        state.close()
    return result


def word_items(net: MemoryNetwork, language: str, word: str) -> list[str]:
    """The lexical items of one word: those of each of its segmentations in
    turn, each item once, in the order first found.

    Each item's word was made once, at load, and a word that no item's word
    folds to has no items: ``segment`` returns only readings that regenerate
    the word, and ``lookup_lexical`` matches their morphemes exactly.  So
    such a word (an unknown word, most literals) costs one set lookup and
    is not searched.

    ``lookup_lexical`` is read from this module, where the benchmark's
    per-layer spans (bench/spans.py) replace it."""
    morph = net.morphology
    if word.casefold() not in morph.words[language]:
        return []
    items: list[str] = []
    for seq in morph.segment(language, word):
        for item_id in lookup_lexical(net, language, [unit.form for unit in seq.units]):
            if item_id not in items:
                items.append(item_id)
    return items


def round_trip(net: MemoryNetwork, sentence: str, direction: str):
    """Translate forward, then translate the output back.

    The pair of results lets a caller compare the two concept trees; see
    :func:`trees_isomorphic`.
    """
    forward = translate(net, sentence, direction)
    if not forward.ok:
        raise ValueError(
            f"forward translation failed: {forward.status}"
            + (f" (token {forward.error_position})" if forward.error_position else "")
        )
    back = translate(net, forward.target_sentence, reverse_direction(direction))
    return forward, back


def trees_isomorphic(a: TreeNode | None, b: TreeNode | None) -> bool:
    """Instance isomorphism: same concepts, same sequence pairs, same filled
    content (recursively), compared by filler concept.

    A default-generated fill counts like a lexical fill of the same concept,
    so a sentence whose omissible subject was dropped and then restored by
    default generation still round-trips as isomorphic."""
    if a is None or b is None:
        return a is b
    classes: dict[tuple, int] = {}
    return _node_sig(a, classes) == _node_sig(b, classes)


def _node_sig(root: TreeNode, classes: dict[tuple, int]) -> int:
    """The isomorphism class of ``root``: the number ``classes`` gives its
    signature (concept, sequence pair, sorted filled content), in which a
    sub-instance stands for its own class (None when it supplies no target
    element, so it was never realized).  Children are numbered before their
    parent, from a list of the nodes, so nesting depth costs no recursion."""
    nodes = [root]
    for node in nodes:  # the list grows as it is read: children after parents
        nodes += [f.child for f in node.fills if f.child is not None]
    number: dict[int, int] = {}  # id of a node -> its class
    for node in reversed(nodes):
        fills = []
        for f in node.fills:
            if f.kind in ("lex", "default"):
                fills.append((f.filler, "lex", f.item_concept))
            elif f.kind == "sub":
                fills.append((f.filler, "sub", None if f.child is None else number[id(f.child)]))
        sig = (node.concept, frozenset((node.source_cs, node.target_cs)), tuple(sorted(fills, key=repr)))
        number[id(node)] = classes.setdefault(sig, len(classes))
    return number[id(root)]


def _realize(net, chart, winner: CsInstance, target_lang: str, events=None):
    """The text of ``winner``, an instance of ``chart``, in
    ``target_lang``, and its concept tree, None unless ``events`` is given.
    ``events`` is a list, a trace being built or a list to drop: the walk
    then makes the tree's records and appends there the ``generate`` events
    of the target elements the mirror never passed, which the chart alone
    does not tell."""
    generate = None
    if events is not None:  # after the sentence's last token, the winner's last
        def generate(cs, fills, k):
            events.extend(mirror(net, cs, fills, k, k + 1, winner.end - 1))
    words: list[str] = []
    tree = _walk(net, chart, winner, target_lang, words, generate)
    source_cs = net.sequences[winner.cs]
    owner = net.concepts[source_cs.owner]
    text = " ".join(words)
    profile = PROFILES[target_lang]
    if profile.capitalize_sentences and text:
        text = text[0].upper() + text[1:]
    if owner.sentence_type == "question":
        text += "?"
    elif owner.sentence_type == "statement":
        text += "."
    return text, tree


def _walk(net, chart, root: CsInstance, target_lang, words, generate) -> TreeNode | None:
    """Realize the tree of ``root`` depth first from an explicit stack of
    :func:`_walk_instance` generators, so nesting depth costs no recursion:
    each generator yields the sub-instance it needs and is sent its node."""
    stack = [_walk_instance(net, chart, root, target_lang, words, generate)]
    node = None
    while True:
        try:
            sub = stack[-1].send(node)
        except StopIteration as done:
            stack.pop()
            node = done.value
            if not stack:
                return node
        else:
            stack.append(_walk_instance(net, chart, sub, target_lang, words, generate))
            node = None


def _walk_instance(net, chart, inst: CsInstance, target_lang, words, generate):
    """Emit the paired target sequence of one accepted instance, in the
    target's declared element order, each element from the source fill that
    ``net.counterparts`` assigns it, else from its default; yields each
    sub-instance to realize in place.  With ``generate``, the trace's
    callback, it also returns the instance's node; without, None."""
    source_cs = net.sequences[inst.cs]
    target_cs = net.sequences[source_cs.paired]
    supply = net.counterparts[source_cs.id]

    children: dict[int, TreeNode] = {}  # source element -> realized sub-instance
    extras: list[TreeFill] = []
    # the chart's events hold the generate events before the mirror's
    # cursor, which stops at or before any element without a source fill
    passed = len(target_cs.elements) if generate is None else mirrored(net, source_cs, inst.filled)
    for k, el in enumerate(target_cs.elements):
        j = supply[k]
        fill = None if j is None else inst.fills[j]
        if el.literal is not None:
            words.append(el.literal)
        elif fill is not None:
            if fill.kind == "sub":
                children[j] = yield chart[fill.sub]
            else:
                words.append(_emit_item(net, target_lang, fill.concept, target_cs))
        elif el.default_item is not None:
            item = net.lexicon[el.default_item]
            words.append(net.morphology.word_of[item.id])
            if generate is not None:
                extras.append(TreeFill(el.concept, None, el.etype, "default", item.id, item.concept))
        elif ElementType.omissible(el.etype):
            continue
        else:
            raise GenerationGap(
                f"required element {target_cs.id}#{k} ({el.concept}) has no source fill"
            )
        if k >= passed:
            generate(source_cs, inst.fills, k)
    if generate is None:
        return None

    fills = []  # positional: keywords would double the cost of each record
    for j, (el, fill) in enumerate(zip(source_cs.elements, inst.fills)):
        if fill is None:  # not filled
            fills.append(TreeFill(el.concept, el.literal, el.etype, "omitted"))
            continue
        kind = fill.kind
        fills.append(TreeFill(
            el.concept,  # filler
            el.literal,
            el.etype,
            kind,
            fill.item,
            fill.concept if kind == "lex" else None,  # item_concept
            (fill.start, fill.end) if kind in ("lex", "lit") else None,  # span
            children.get(j),  # child
        ))
    return TreeNode(source_cs.owner, source_cs.id, target_cs.id, tuple(fills) + tuple(extras))


def _emit_item(net, target_lang, concept, target_cs) -> str:
    """The word of the first ``target_lang`` item of ``concept``, as load
    made it."""
    items = net.items_of.get((target_lang, concept))
    if not items:
        raise GenerationGap(
            f"concept '{concept}' has no {target_lang} lexical item for {target_cs.id}"
        )
    return net.morphology.word_of[items[0]]
