"""Bidirectional morphology: surface word <-> segmented morpheme sequence.

Analysis and generation run over the same data: a root pool (first morphemes
of lexical items, plus standalone function words), an affix table with a flat
role-adjacency relation, and boundary rewrite rules for irregular forms.
Generation is deterministic; analysis inverts it by searching root and affix
readings whose regenerated surface matches the input.

Word joining is a language-profile property: Korean (Yale romanization)
joins morphemes inside an Eojeol with ``-``, English concatenates directly.
Irregular rules replace the boundary outright, so ``kop + un`` can surface
as ``kowun`` while ``pha-il + tul + ul`` stays ``pha-il-tul-ul``.
"""

from __future__ import annotations

from dataclasses import dataclass

from markermt.network import EN, KO, MemoryNetwork


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


@dataclass(frozen=True)
class MorphUnit:
    form: str
    role: str


@dataclass(frozen=True)
class MorphemeSequence:
    """One word's segmentation: a single root followed by affixes."""

    language: str
    units: tuple[MorphUnit, ...]

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(u.form for u in self.units)

    def __str__(self):
        return "+".join(f"{u.form}({u.role})" for u in self.units)


@dataclass(frozen=True)
class Tokenized:
    """Whitespace tokens of a sentence, case-folded for lookup.

    ``terminal`` holds the detached sentence-final punctuation mark, if any.
    """

    language: str
    words: tuple[str, ...]
    terminal: str | None


def tokenize(language: str, sentence: str) -> Tokenized:
    surfaces = sentence.split()
    if not surfaces:
        raise MorphologyError("empty sentence")
    terminal = None
    last = surfaces[-1]
    if last and last[-1] in ".?!":
        terminal = last[-1]
        last = last[:-1]
        if last:
            surfaces[-1] = last
        else:
            surfaces.pop()
    if not surfaces:
        raise MorphologyError("sentence contains only punctuation")
    return Tokenized(
        language=language,
        words=tuple(w.casefold() for w in surfaces),
        terminal=terminal,
    )


class Morphology:
    """Segmentation and word generation over one network's tables."""

    def __init__(self, roots, affixes, adjacency, rules):
        # roots: {lang: {folded: stored}}, affixes: {lang: {form: role}}
        # adjacency: {lang: {(prev_role, role)}}, rules: {lang: {(class, affix): surface}}
        self.roots = roots
        self.affixes = affixes
        self.adjacency = adjacency
        self.rules = rules
        self.max_class = {
            lang: max((len(c) for c, _ in table), default=0)
            for lang, table in rules.items()
        }
        # {lang: {stable prefix: stored roots}}: a root keyed by the part no
        # boundary rule can rewrite, cut as _compatible cuts it, can start a
        # reading of a word only if its key is a prefix of the word.  Groups
        # are nearly all one root, so they grow as tuples: a list per key
        # would be garbage that outweighs the index.
        self._roots_by_stable: dict[str, dict[str, tuple[str, ...]]] = {}
        for lang, table in roots.items():
            index = self._roots_by_stable[lang] = {}
            for folded, stored in table.items():
                key = folded[: max(0, len(stored) - self.max_class.get(lang, 0))]
                index[key] = index.get(key, ()) + (stored,)

    @classmethod
    def from_network(cls, net: MemoryNetwork) -> "Morphology":
        roots = {lang: {} for lang in PROFILES}
        affixes = {lang: {} for lang in PROFILES}
        adjacency = {lang: set() for lang in PROFILES}
        rules = {lang: {} for lang in PROFILES}

        for decl in net.affixes:
            if decl.role == "root":
                roots[decl.language].setdefault(decl.morpheme.casefold(), decl.morpheme)
            else:
                affixes[decl.language][decl.morpheme] = decl.role
                for prev in decl.after:
                    adjacency[decl.language].add((prev, decl.role))
        for rule in net.morph_rules:
            rules[rule.language][(rule.root_class, rule.affix)] = rule.surface

        for item in net.lexicon.values():
            roots[item.language].setdefault(item.morphemes[0].casefold(), item.morphemes[0])
            for m in item.morphemes[1:]:
                if m not in affixes[item.language]:
                    raise MorphologyError(
                        f"lexical item '{item.id}' uses undeclared affix '{m}'"
                    )
        # literal elements are standalone function words; register them as
        # roots so generated sentences re-segment cleanly
        for lang in PROFILES:
            for lit in sorted(net.literals[lang]):
                roots[lang].setdefault(lit.casefold(), lit)

        return cls(roots, affixes, adjacency, rules)

    # -- generation --------------------------------------------------------

    def attach(self, language: str, stem: str, affix: str) -> str:
        """Join one affix onto an accumulated stem surface."""
        table = self.rules.get(language, {})
        best = None
        for (cls_, afx), frag in table.items():
            if afx == affix and stem.endswith(cls_):
                if best is None or len(cls_) > len(best[0]):
                    best = (cls_, frag)
        if best is not None:
            cls_, frag = best
            return stem[: len(stem) - len(cls_)] + frag
        return stem + PROFILES[language].joiner + affix

    def generate_word(self, language: str, seq: MorphemeSequence) -> str:
        units = seq.units
        if not units or units[0].role != "root":
            raise MorphologyError(f"sequence must start with a root: {seq}")
        if units[0].form.casefold() not in self.roots[language]:
            raise MorphologyError(f"unknown morpheme '{units[0].form}'")
        surface = units[0].form
        prev_role = "root"
        for unit in units[1:]:
            role = self.affixes[language].get(unit.form)
            if role is None:
                raise MorphologyError(f"unknown morpheme '{unit.form}'")
            if role != unit.role:
                raise MorphologyError(
                    f"morpheme '{unit.form}' is declared {role}, not {unit.role}"
                )
            if (prev_role, role) not in self.adjacency[language]:
                raise MorphologyError(
                    f"affix '{unit.form}' ({role}) cannot follow {prev_role}"
                )
            surface = self.attach(language, surface, unit.form)
            prev_role = role
        return surface

    def word_for_morphemes(self, language: str, morphemes) -> str:
        """Generate the surface for a lexical item's stored morpheme tuple."""
        return self.generate_word(language, self.sequence(language, morphemes))

    def sequence(self, language: str, morphemes) -> MorphemeSequence:
        units = [MorphUnit(morphemes[0], "root")]
        for m in morphemes[1:]:
            role = self.affixes[language].get(m)
            if role is None:
                raise MorphologyError(f"unknown morpheme '{m}'")
            units.append(MorphUnit(m, role))
        return MorphemeSequence(language=language, units=tuple(units))

    # -- analysis ----------------------------------------------------------

    def segment(self, language: str, word: str) -> tuple[MorphemeSequence, ...]:
        """All segmentations of a surface word, longest root first.

        Empty result signals an unknown word.  Matching is case-insensitive;
        returned units carry the stored (lexicon) spellings.  Candidate roots
        cost ``len(word) + 1`` dict lookups, one per word prefix, so the cost
        grows with the word and the roots sharing its prefixes (each searched
        through the affix table), not with the size of the lexicon.
        """
        target = word.casefold()
        if not target:
            return ()
        results: list[MorphemeSequence] = []
        seen: set[tuple[str, ...]] = set()
        by_stable = self._roots_by_stable.get(language, {})
        for end in range(len(target) + 1):
            for root in by_stable.get(target[:end], ()):
                self._extend(
                    language,
                    target,
                    [MorphUnit(root, "root")],
                    root,
                    "root",
                    results,
                    seen,
                )
        results.sort(key=lambda s: (-len(s.units[0].form), s.forms))
        return tuple(results)

    def _compatible(self, language: str, formed: str, target: str) -> bool:
        stable = max(0, len(formed) - self.max_class.get(language, 0))
        if stable > len(target):
            return False
        return formed.casefold()[:stable] == target[:stable]

    def _extend(self, language, target, units, formed, prev_role, results, seen):
        if not self._compatible(language, formed, target):
            return
        if formed.casefold() == target:
            key = tuple(u.form for u in units)
            if key not in seen:
                seen.add(key)
                results.append(MorphemeSequence(language=language, units=tuple(units)))
            # a completed reading may still extend (rules can shrink surfaces)
        if len(units) > len(target) + 1:
            return
        for affix, role in self.affixes[language].items():
            if (prev_role, role) not in self.adjacency[language]:
                continue
            self._extend(
                language,
                target,
                units + [MorphUnit(affix, role)],
                self.attach(language, formed, affix),
                role,
                results,
                seen,
            )
