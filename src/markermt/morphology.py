"""Bidirectional morphology: surface word <-> segmented morpheme sequence.

Analysis and generation run over the same data: a root pool (first morphemes
of lexical items, plus standalone function words), an affix table with a flat
role-adjacency relation, and boundary rewrite rules for irregular forms.
Generation is deterministic; analysis inverts it by searching root and affix
readings whose regenerated surface matches the input.  Both run from tables
compiled when the network is built: the roots keyed by the prefix no rule
can rewrite, with the lengths those keys have; and one successor table, for
each role the affixes that may follow it, each with its rules as a
``{class: surface}`` dict and the distinct class lengths, longest first,
and the fewest characters an affix after its own role adds.  Generation
takes one step of that table per affix.  Analysis searches it through the
same role's index: the affixes keyed, as the roots are, by the part of
the surface they add that no rule can rewrite, and those with rules also
by each class they replace, so a reading tries only the affixes the word
continues with where the reading ends and those whose rules rewrite it.

Word joining is a language-profile property: Korean (Yale romanization)
joins morphemes inside an Eojeol with ``-``, English concatenates directly.
Irregular rules replace the boundary outright, so ``kop + un`` can surface
as ``kowun`` while ``pha-il + tul + ul`` stays ``pha-il-tul-ul``.

A segmentation is a :class:`MorphemeSequence` of :class:`MorphUnit`
records, both named tuples, which :meth:`Morphology.segment` builds with
``tuple.__new__``, without their Python-level ``__new__``.  A word is
generated from a morpheme tuple (:meth:`Morphology.word_for_morphemes`), as
a lexical item stores it or a segmentation's ``forms`` gives it.  Loading rejects an item whose affixes the
successor table does not allow, so every item's word can be generated, and
generates each once (:attr:`Morphology.word_of`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from markermt.network import EN, KO, MemoryNetwork, _grouped


class MorphologyError(Exception):
    pass


@dataclass(frozen=True)
class LanguageProfile:
    joiner: str
    capitalize_sentences: bool


PROFILES = {
    KO: LanguageProfile(joiner="-", capitalize_sentences=False),
    EN: LanguageProfile(joiner="", capitalize_sentences=True),
}

# the growth of a role that no affix may follow: no reading ending in it grows
NEVER = float("inf")


class MorphUnit(NamedTuple):
    form: str
    role: str


class MorphemeSequence(NamedTuple):
    """One word's segmentation: a single root followed by affixes."""

    units: tuple[MorphUnit, ...]

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(u.form for u in self.units)


def tokenize(sentence: str) -> tuple[str, ...]:
    """The whitespace tokens of a sentence, case-folded for lookup, without
    the sentence-final punctuation mark, if any."""
    surfaces = sentence.split()
    if not surfaces:
        raise MorphologyError("empty sentence")
    last = surfaces[-1]
    if last[-1] in ".?!":
        if last[:-1]:
            surfaces[-1] = last[:-1]
        else:
            surfaces.pop()
    if not surfaces:
        raise MorphologyError("sentence contains only punctuation")
    return tuple(w.casefold() for w in surfaces)


def _join(stem: str, rules, plain: str) -> str:
    """``stem`` with one affix attached: the longest of the affix's rule
    classes that ends the stem is replaced by its surface, otherwise
    ``plain`` (joiner + affix) is appended.

    ``rules`` is the affix's distinct class lengths, longest first, and its
    ``{class: surface}`` dict.  Two distinct classes of one length cannot
    both end a stem, so one probe per length finds the longest: the cost is
    the number of lengths, not the number of rules."""
    lengths, surfaces = rules
    size = len(stem)
    for length in lengths:
        if length <= size:
            surface = surfaces.get(stem[size - length:])
            if surface is not None:
                return stem[: size - length] + surface
    return stem + plain


def _successors(steps, loose, keyed, ruled) -> tuple:
    """One role's entry of the successor table (see ``Morphology._next``)
    from the lists its steps were filed in, in declaration order."""
    return (
        tuple(steps),
        tuple(loose),
        {key: tuple(found) for key, found in keyed.items()},
        tuple(sorted(set(map(len, keyed)))),
        {cls_: tuple(found) for cls_, found in ruled.items()} if ruled else None,
        tuple(sorted(set(map(len, ruled)))),
    )


def _folded(root: str) -> str:
    """``root`` casefolded: ``root`` itself when folding changes nothing."""
    folded = root.casefold()
    return root if folded == root else folded


class Morphology:
    """Segmentation and word generation over one network's tables, all
    built once, at load, from its declarations.

    ``word_of[item id]`` is each lexical item's word: a root with no affixes
    is its own word, and :meth:`word_for_morphemes` generates the rest.
    Realization reads it.  ``words[language]`` is the frozenset of those
    words casefolded: a word outside it has no lexical item, so analysis
    need not search it.  Both tables are read-only.
    """

    def __init__(self, net: MemoryNetwork):
        # roots: {lang: {folded: stored}}, affixes: {lang: {form: role}},
        # before: {lang: {role: the roles it may follow}}
        roots = self.roots = {lang: {} for lang in PROFILES}
        affixes = self.affixes = {lang: {} for lang in PROFILES}
        before: dict[str, dict[str, set[str]]] = {lang: {} for lang in PROFILES}
        for decl in net.affixes:
            if decl.role == "root":
                roots[decl.language].setdefault(_folded(decl.morpheme), decl.morpheme)
            else:
                affixes[decl.language][decl.morpheme] = decl.role
                before[decl.language].setdefault(decl.role, set()).update(decl.after)
        # {lang: {affix: (class lengths, {class: surface})}}: the distinct
        # lengths of the affix's rule classes, longest first, as _join
        # probes them
        by_affix: dict[str, dict[str, dict[str, str]]] = {lang: {} for lang in PROFILES}
        for rule in net.morph_rules:
            by_affix[rule.language].setdefault(rule.affix, {})[rule.root_class] = rule.surface
        rules_by_affix = {
            lang: {affix: (tuple(sorted({len(c) for c in s}, reverse=True)), s) for affix, s in table.items()}
            for lang, table in by_affix.items()
        }
        self.max_class = {
            lang: max((lengths[0] for lengths, _ in table.values()), default=0)
            for lang, table in rules_by_affix.items()
        }
        # {lang: {role: (steps, loose, keyed, key lengths, ruled, class
        # lengths)}}: ``steps`` are the affixes that may follow ``role``, in
        # declaration order, each with its unit, its rules (None if it has
        # none), its plain joiner + affix surface, and the fewest characters
        # a step after its own role adds (a rule may shrink a surface;
        # NEVER when no affix may follow that role); generation walks them.
        # Analysis reads the same steps indexed: a step is keyed by the
        # stable part of the folded surface it adds (all but the last
        # ``max_class`` characters, as many as it adds), ``keyed[key]``,
        # with the ``key lengths`` that occur, shortest first; a keyed step
        # with rules is also filed under each of its classes,
        # ``ruled[class]`` (None when no step has a class), with the ``class
        # lengths`` that occur, shortest first; ``loose`` are the steps with
        # no stable part.  Only the roles
        # a word can end in are keys: root, and the role of each step out of
        # a key
        self._next: dict[str, dict[str, tuple]] = {}
        # {lang: the fewest characters a step after the root adds}
        self._root_least: dict[str, float] = {}
        for lang, table in affixes.items():
            rules_of, joiner, follows = rules_by_affix[lang], PROFILES[lang].joiner, before[lang]
            cut = self.max_class[lang]
            least: dict[str, float] = {}  # {role: the fewest characters a step after it adds}
            for affix, role in table.items():
                plain, rules = joiner + affix, rules_of.get(affix)
                growth = min(len(plain), *(len(s) - len(c) for c, s in rules[1].items())) if rules else len(plain)
                for prev in follows.get(role, ()):
                    least[prev] = min(least.get(prev, growth), growth)
            # {role: (steps, loose, keyed, ruled)}, filled as the affixes are read
            filed: dict[str, tuple] = {prev: ([], [], {}, {}) for prev in ("root", *table.values())}
            for affix, role in table.items():
                rules, plain = rules_of.get(affix), joiner + affix
                step = (MorphUnit(affix, role), rules, plain, least.get(role, NEVER))
                key = plain.casefold()[: len(plain) - cut] if len(plain) > cut else ""
                for prev in follows.get(role, ()):
                    if prev in filed:
                        every, loose, keyed, ruled = filed[prev]
                        every.append(step)
                        if not key:
                            loose.append(step)
                            continue
                        keyed.setdefault(key, []).append(step)
                        for cls_ in rules[1] if rules else ():
                            ruled.setdefault(cls_, []).append(step)
            reached = ["root"]
            for prev in reached:  # grows as it is read
                for unit, _, _, _ in filed[prev][0]:
                    if unit.role not in reached:
                        reached.append(unit.role)
            self._next[lang] = {prev: _successors(*filed[prev]) for prev in reached}
            self._root_least[lang] = least.get("root", NEVER)

        word_of: dict[str, str] = {}
        words: dict[str, set[str]] = {lang: set() for lang in PROFILES}
        affixed = []
        for item in net.lexicon.values():
            item_id, lang, morphemes, _ = item
            root = morphemes[0]
            folded = _folded(root)
            roots[lang].setdefault(folded, root)
            if len(morphemes) == 1:
                word_of[item_id] = root
                words[lang].add(folded)
                continue
            for m in morphemes[1:]:
                if m not in affixes[lang]:
                    raise MorphologyError(f"lexical item '{item_id}' uses undeclared affix '{m}'")
            affixed.append(item)
        # generated once every affix is known declared, so an undeclared
        # affix anywhere keeps its own message
        for item_id, lang, morphemes, _ in affixed:
            try:
                word = word_of[item_id] = self.word_for_morphemes(lang, morphemes)
            except MorphologyError as exc:
                raise MorphologyError(f"lexical item '{item_id}': {exc}") from None
            words[lang].add(_folded(word))
        self.word_of = MappingProxyType(word_of)
        self.words = MappingProxyType({lang: frozenset(found) for lang, found in words.items()})
        # literal elements are standalone function words; register them as
        # roots so generated sentences re-segment cleanly
        for lang in PROFILES:
            for lit in sorted(net.literals[lang]):
                roots[lang].setdefault(_folded(lit), lit)

        # {lang: {stable prefix: stored roots}}: a root keyed by the part no
        # boundary rule can rewrite, cut as segment cuts it, can start a
        # reading of a word only if its key is a prefix of the word
        self._roots_by_stable: dict = {}
        # {lang: the lengths of its stable-prefix keys, shortest first}: the
        # only prefixes of a word worth a lookup
        self._key_lengths: dict[str, tuple[int, ...]] = {}
        for lang, table in roots.items():
            cut = self.max_class.get(lang, 0)
            stable = (key[: len(root) - cut] if len(root) > cut else "" for key, root in table.items())
            index = self._roots_by_stable[lang] = _grouped(zip(stable, table.values()), {})
            self._key_lengths[lang] = tuple(sorted({len(key) for key in index}))

    # -- generation --------------------------------------------------------

    def word_for_morphemes(self, language: str, morphemes) -> str:
        """Generate the surface for a lexical item's stored morpheme tuple,
        checked in this order: every affix is declared, the root is known,
        and each affix may follow the role before it.  Each affix is one
        step of the successor table :meth:`segment` walks."""
        affixes = self.affixes[language]
        for m in morphemes[1:]:
            if m not in affixes:
                raise MorphologyError(f"unknown morpheme '{m}'")
        surface = morphemes[0]
        if surface.casefold() not in self.roots[language]:
            raise MorphologyError(f"unknown morpheme '{surface}'")
        successors = self._next[language]
        prev_role = "root"
        for m in morphemes[1:]:
            for unit, rules, plain, _ in successors[prev_role][0]:
                if unit.form == m:
                    break
            else:
                raise MorphologyError(f"affix '{m}' ({affixes[m]}) cannot follow {prev_role}")
            surface = _join(surface, rules, plain) if rules else surface + plain
            prev_role = unit.role
        return surface

    # -- analysis ----------------------------------------------------------

    def segment(self, language: str, word: str) -> tuple[MorphemeSequence, ...]:
        """All segmentations of a surface word, longest root first.

        Empty result signals an unknown word.  Matching is case-insensitive;
        returned units carry the stored (lexicon) spellings.

        A reading is a root and its affixes, with the surface generation
        gives them.  A boundary rule rewrites at most the last ``max_class``
        characters of a surface, so the part before them (the stable prefix)
        is final: a reading whose stable prefix is not a prefix of the word
        is never kept, nor anything grown from it.  The candidate roots, whose
        stable prefixes are prefixes of the word, cost one dict lookup per
        key length the root index holds, up to ``len(word)``.  Each reading
        is matched against the word when it is made, and kept for the search
        only when it has at most ``len(word) + 1`` units and some step of
        its last role can still fit: its length plus the fewest characters a
        step after that role adds is at most ``len(word) + max_class``.  A
        root alone in a language without affixes is never kept.  A kept
        reading takes one successor-table lookup for its last role and
        tries the steps that can fit: those whose added surface is all
        within the last ``max_class`` characters; when the word continues
        the reading, those whose stable part it continues with, one dict
        lookup per key length that fits; and the steps with a rule class
        that ends the reading's stored surface, one dict lookup per class
        length that fits.  Each affix with rules is attached with one probe
        per class length of its rules.  A reading that casefolding
        lengthened tries every step of its role.  So the cost grows with the
        word, the roots sharing its prefixes and the affixes that fit, not
        with the size of the lexicon, the number of affixes that may follow
        a role, with rules or without, the number of rules on an affix or
        the rules of other affixes.
        """
        target = word.casefold()
        successors = self._next.get(language)
        if not target or successors is None:
            return ()
        cut = self.max_class[language]
        size = len(target)
        room = size + cut  # a longer surface is neither kept nor matched
        by_stable = self._roots_by_stable[language]
        least = self._root_least[language]
        new = tuple.__new__  # the records without their Python-level __new__
        results: list[MorphemeSequence] = []
        stack = []
        for end in self._key_lengths[language]:
            if end > size:
                break
            for root in by_stable.get(target[:end], ()):
                units = (new(MorphUnit, (root, "root")),)
                folded = root.casefold()
                if folded == target:
                    results.append(new(MorphemeSequence, (units,)))
                if len(root) + least <= room:  # some step fits: casefolding never shortens
                    stack.append((units, root, folded))
        while stack:
            units, formed, folded = stack.pop()
            # tries: the loose steps, then those the word continues with,
            # then those with a class that ends the reading
            steps, tries, keyed, lengths, ruled, classes = successors[units[-1].role]
            at = len(formed)
            if lengths:  # some step is keyed
                if len(folded) > at:  # folding lengthened the reading: try every step
                    tries = steps
                else:
                    if target.startswith(folded):
                        for length in lengths:
                            if at + length > size:
                                break
                            found = keyed.get(target[at : at + length])
                            if found is not None:
                                tries += found
                    for length in classes:
                        if length > at:
                            break
                        for step in ruled.get(formed[at - length :], ()):
                            if step not in tries:  # keyed too, or under a second class
                                tries += (step,)
            grows = len(units) <= size  # a kept reading has len(word) + 1 units at most
            for unit, rules, plain, least in tries:
                surface = _join(formed, rules, plain) if rules else formed + plain
                if len(surface) > room:  # not kept, and no match: casefolding never shortens
                    continue
                folded = surface.casefold()
                if folded == target:
                    results.append(new(MorphemeSequence, (units + (unit,),)))
                if not grows or len(surface) + least > room:  # no step fits
                    continue
                stable = len(surface) - cut
                if stable <= 0 or target.startswith(folded[:stable]):
                    stack.append((units + (unit,), surface, folded))
        if len(results) > 1:
            # units order as their forms do: unit 0 is the root and an
            # affix's role follows from its form, so equal forms mean equal
            # units
            results.sort(key=lambda s: (-len(s.units[0].form), s.units))
        return tuple(results)
