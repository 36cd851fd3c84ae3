"""Brute-force sequence recognizer, independent of the marker engine.

Membership is decided exactly as the element types define it: enumerate
every subset of omissible elements to drop, every interleaving in which
fixed-order elements keep their relative order while free-order elements go
anywhere, and check the token string against each arrangement, recursing
through conceptual fillers (a token may satisfy an element via a lexical
item below the filler, or a token span may satisfy it via a sequence owned
below the filler).

It shares the network data with the engine and none of the marker
engine's logic, so it can serve as ground truth in equivalence tests.  It
does share the word lookup: :func:`_token_below` reads a word through the
engine's own segmentation (``net.morphology.segment``) and
``lookup_lexical``, so a defect in segmentation is invisible to it (ROADMAP
item 9 gives it a segmentation of its own).
"""

from __future__ import annotations

from itertools import combinations

from markermt.network import ElementType, MemoryNetwork, lookup_lexical

MAX_ELEMENTS = 8
# sequences nested inside one another along one derivation: a level takes
# one Python frame per element of its sequence and one more, so 64 levels of
# sequences of up to MAX_ELEMENTS elements stay well inside the default
# recursion limit of 1000
MAX_DEPTH = 64


def recognize_oracle(net: MemoryNetwork, cs, tokens) -> bool:
    """True iff ``tokens`` (surface words) is in the language of ``cs``.

    Raises ValueError for a sequence of more than ``MAX_ELEMENTS`` elements,
    and when a derivation it searches nests more than ``MAX_DEPTH``
    sequences."""
    if len(cs.elements) > MAX_ELEMENTS:
        raise ValueError(f"oracle limited to {MAX_ELEMENTS} elements, got {len(cs.elements)}")
    return _match_cs(net, cs, tuple(tokens), frozenset())


def _match_cs(net, cs, tokens, visiting) -> bool:
    key = (cs.id, tokens)
    if key in visiting:
        return False  # re-deriving the same span through the same sequence
    if len(visiting) == MAX_DEPTH:  # visiting holds one key per enclosing sequence
        raise ValueError(f"oracle limited to {MAX_DEPTH} nested sequences")
    visiting = visiting | {key}

    omissible = [i for i, el in enumerate(cs.elements) if ElementType.omissible(el.etype)]
    for r in range(len(omissible) + 1):
        for dropped in combinations(omissible, r):
            kept = [el for i, el in enumerate(cs.elements) if i not in dropped]
            fixed = [el for el in kept if not ElementType.free(el.etype)]
            free = [el for el in kept if ElementType.free(el.etype)]
            for order in _interleavings(fixed, free):
                if _covers(net, cs.language, order, tokens, visiting):
                    return True
    return False


def _interleavings(fixed, free):
    """Every ordering of fixed+free in which fixed keeps its relative order."""
    if not fixed and not free:
        yield []
        return
    if fixed:
        for rest in _interleavings(fixed[1:], free):
            yield [fixed[0]] + rest
    for i in range(len(free)):
        for rest in _interleavings(fixed, free[:i] + free[i + 1 :]):
            yield [free[i]] + rest


def _covers(net, language, elements, tokens, visiting) -> bool:
    if not elements:
        return not tokens
    if not tokens:
        return False
    el, rest = elements[0], elements[1:]
    if el.literal is not None:
        return tokens[0] == el.literal and _covers(net, language, rest, tokens[1:], visiting)
    if _token_below(net, language, tokens[0], el.concept) and _covers(
        net, language, rest, tokens[1:], visiting
    ):
        return True
    for end in range(1, len(tokens) + 1):
        span = tokens[:end]
        for sub_id in net.sequences_below[(language, el.concept)]:
            if _match_cs(net, net.sequences[sub_id], span, visiting) and _covers(
                net, language, rest, tokens[end:], visiting
            ):
                return True
    return False


def _token_below(net, language, word, filler) -> bool:
    """Does one surface word read as a lexical item at or below the filler?"""
    for seq in net.morphology.segment(language, word):
        for item_id in lookup_lexical(net, language, seq.forms):
            if filler in net.ancestors[net.lexicon[item_id].concept]:
                return True
    return False
