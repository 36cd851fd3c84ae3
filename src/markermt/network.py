"""Bilingual memory network: concepts, lexical pairs, paired concept sequences.

The network is the whole linguistic knowledge base.  Concept nodes form an
IS-A hierarchy shared by both languages; lexical items hang off concepts in
morphologically segmented form; each concept that realizes a phrase or a
sentence owns one concept sequence per language, and the two sequences of a
pair may differ in length and in element order.

Networks are described in a line-oriented text format (see ``load_network``).
Loading builds every derived table once, read-only (see ``MemoryNetwork``),
and nothing writes to them afterwards, so any number of translation sessions
may read one network concurrently.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType, SimpleNamespace
from typing import NamedTuple

KO = "ko"
EN = "en"
LANGUAGES = (KO, EN)
DIRECTIONS = ((KO, EN), (EN, KO))  # (source, target)

SENTENCE_TYPES = ("question", "statement")

ROLES = (
    "root",
    "suffix",
    "case-marker",
    "verb-ending",
    "prefinal-ending",
    "plural",
    "tense",
)


class NetworkError(Exception):
    """Raised for unloadable network files (syntax, references, duplicates)."""


class NetworkSyntaxError(NetworkError):
    def __init__(self, message, line, column=None):
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column


class ConceptNode(NamedTuple):
    id: str
    parents: tuple[str, ...] = ()
    sentence_type: str | None = None


class LexicalItem(NamedTuple):
    id: str
    language: str
    morphemes: tuple[str, ...]
    concept: str


class ElementType:
    """Element discipline: required vs omissible, fixed order vs free order.

    The codes CX, CF, OX and OF are the wire form used in network files and
    in traces: C/O for compulsory/omissible, X/F for fixed/free order.
    """

    REQUIRED_FIXED = "CX"
    REQUIRED_FREE = "CF"
    OMISSIBLE_FIXED = "OX"
    OMISSIBLE_FREE = "OF"

    ALL = (REQUIRED_FIXED, REQUIRED_FREE, OMISSIBLE_FIXED, OMISSIBLE_FREE)

    @staticmethod
    def omissible(code: str) -> bool:
        return code in ("OX", "OF")

    @staticmethod
    def free(code: str) -> bool:
        return code in ("CF", "OF")


@dataclass(frozen=True, slots=True)
class Layout:
    """What a sequence's element types imply for the engine, compiled once
    per signature (element types and twins) so that the engine reads each
    chart move instead of working it out per instance.

    ``merged[c]``: what an instance with its cursor at ``c`` may wait for, in
    index order, before the free elements it filled and those whose twin is
    still empty are skipped: the run of omissible fixed elements from ``c``
    and the first required one after it, and every free element.  Left out
    the free ones (``free_mask``), it is what the cursor at ``c`` predicts.
    ``required``: bit i set when element i is not omissible; ``free_mask``:
    bit i set when element i is free-order; ``twin_pairs``: the ``(i, j)``
    pairs of free elements where j is the twin of i (see :func:`_twins`)."""

    required: int
    merged: tuple[tuple[int, ...], ...]
    free_mask: int
    twin_pairs: tuple[tuple[int, int], ...]


class SequenceElement(NamedTuple):
    """One slot of a concept sequence.

    Exactly one of ``concept`` and ``literal`` is set.  A conceptual element
    is filled by anything below its concept in the IS-A hierarchy; a literal
    element matches one surface function word verbatim.  ``default_item``
    names the lexical item to emit when the element must be generated with
    no source-language counterpart.
    """

    etype: str
    concept: str | None = None
    literal: str | None = None
    default_item: str | None = None

    def label(self) -> str:
        body = f'"{self.literal}"' if self.literal is not None else str(self.concept)
        return f"{body}({self.etype})"


class ConceptSequence(NamedTuple):
    id: str
    language: str
    owner: str
    elements: tuple[SequenceElement, ...]
    paired: str


@dataclass(frozen=True)
class AffixDecl:
    language: str
    morpheme: str
    role: str
    after: tuple[str, ...] = ("root",)


@dataclass(frozen=True)
class MorphRuleDecl:
    """Boundary rewrite: a root ending in ``root_class`` followed by ``affix``
    surfaces as stem-minus-class + ``surface`` (the fragment covers the affix)."""

    language: str
    root_class: str
    affix: str
    surface: str


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


@dataclass
class MemoryNetwork:
    """The declarations and the tables :meth:`build_indexes` derives from
    them once.  The declaration records are named tuples, and
    :func:`load_network` makes one ``SequenceElement`` per distinct element
    token, shared by every use, and one string per name.  The tables are
    read-only mappings of tuples and frozensets:

    - ``morpheme_index[language][morphemes]``: items, declaration order,
      keyed by the first such item's own ``morphemes`` tuple;
    - ``items_of[(language, concept)]``: the items of exactly that concept,
      declaration order, for the concepts that have one;
    - ``ancestors[concept]``: the reflexive IS-A closure upward, for item
      concepts, sequence owners and element fillers only;
    - ``items_below[(language, filler)]`` and ``sequences_below``: items and
      sequences of that language at or below each element filler of one of
      its sequences, declaration order;
    - ``layouts[cs_id]``: the :class:`Layout` compiled from the element
      types of ``cs_id``, one shared object per distinct signature;
    - ``literals[language]``, ``sequence_order`` and ``counterparts``.

    ``morphology`` and the read-only compiled ``plans`` are built with them;
    nothing writes to either afterwards.  The morphology makes each lexical
    item's word once, for realization to read, and keeps the set of those
    words per language, so analysis does not search a word no item
    generates.

    Building checks the declarations first (:func:`_check_declarations`
    holds every rule), whether :func:`load_network` or code made them, so
    every name they reference is declared; ``lines``, given by the loader,
    lets a rejection name the offending line.
    """

    concepts: dict[str, ConceptNode] = field(default_factory=dict)
    lexicon: dict[str, LexicalItem] = field(default_factory=dict)
    sequences: dict[str, ConceptSequence] = field(default_factory=dict)
    affixes: list[AffixDecl] = field(default_factory=list)
    morph_rules: list[MorphRuleDecl] = field(default_factory=list)
    lines: InitVar[dict[str, list[int]] | None] = None

    def __post_init__(self, lines):
        self.build_indexes(lines)

    # -- derived indexes -------------------------------------------------

    def build_indexes(self, lines=None):
        """Check the declarations (:func:`_check_declarations`), then derive
        every lookup table from them, including the compiled initial
        prediction of each direction.  Call it again after changing a
        network built in code.  Raises :class:`NetworkError` for a rejected
        declaration and ``MorphologyError`` for a lexical item whose affixes
        are undeclared or cannot follow one another."""
        _check_declarations(self, lines)
        lexicon, sequences = self.lexicon.values(), self.sequences.values()
        self.morpheme_index = MappingProxyType({
            lang: MappingProxyType(
                _grouped(((it.morphemes, it.id) for it in lexicon if it.language == lang), {})
            )
            for lang in LANGUAGES
        })
        by_concept = (((it.language, it.concept), it.id) for it in lexicon)
        self.items_of = MappingProxyType(_grouped(by_concept, {}))
        fillers = dict.fromkeys(
            (cs.language, el.concept) for cs in sequences for el in cs.elements if el.literal is None
        )
        # closures only for the concepts readers ask about: one for every
        # concept would cost quadratic time on a deep IS-A chain
        read = [concept for _, concept in self.items_of] + [cs.owner for cs in sequences]
        read += [concept for _, concept in fillers]
        self.ancestors = MappingProxyType(
            {cid: _closure(self.concepts, cid) for cid in dict.fromkeys(read)}
        )
        items = ((it.language, it.concept, it.id) for it in lexicon)
        self.items_below = _below(self.ancestors, fillers, items)
        owned = ((cs.language, cs.owner, cs.id) for cs in sequences)
        self.sequences_below = _below(self.ancestors, fillers, owned)
        literals = {lang: set() for lang in LANGUAGES}
        for cs in sequences:
            literals[cs.language].update(el.literal for el in cs.elements if el.literal is not None)
        self.literals = MappingProxyType({k: frozenset(v) for k, v in literals.items()})
        # declaration positions: tied parses are ordered by them
        self.sequence_order = MappingProxyType({cid: i for i, cid in enumerate(self.sequences)})
        # counterparts[cs_id][k]: the cs_id element that supplies element k of
        # the sequence paired with cs_id, or None (see _counterparts)
        self.counterparts = MappingProxyType(
            {cs.id: _counterparts(self, cs, self.sequences[cs.paired]) for cs in sequences}
        )
        shared: dict[tuple, Layout] = {}  # one layout per distinct signature
        layouts = {}
        for cs in sequences:
            sig = (tuple(el.etype for el in cs.elements), _twins(cs))
            if sig not in shared:
                shared[sig] = _layout(*sig)
            layouts[cs.id] = shared[sig]
        self.layouts = MappingProxyType(layouts)

        from markermt.markers import compile_plan
        from markermt.morphology import Morphology

        self.morphology = Morphology(self)
        self.plans = MappingProxyType({d: compile_plan(self, *d) for d in DIRECTIONS})


def _closure(concepts, concept_id) -> frozenset[str]:
    """Reflexive-transitive IS-A closure of a concept upward."""
    seen: set[str] = set()
    stack = [concept_id]
    while stack:
        cid = stack.pop()
        if cid in seen:
            continue
        seen.add(cid)
        stack.extend(concepts[cid].parents)
    return frozenset(seen)


def _below(ancestors, fillers, members) -> MappingProxyType:
    """Each ``(language, concept, id)`` of ``members`` filed, in order, under
    every ``(language, filler)`` key of ``fillers`` at or above its concept."""
    pairs = (((language, anc), member) for language, concept, member in members
             for anc in ancestors[concept] if (language, anc) in fillers)
    return MappingProxyType(_grouped(pairs, dict.fromkeys(fillers, ())))


def _grouped(pairs, groups: dict) -> dict:
    """``groups`` with each ``(key, value)`` of ``pairs`` filed, in order,
    under its key, each group a tuple.  Nearly all groups hold one to three
    values, so a group grows as a tuple (a list per key would be garbage
    that outweighs the table) up to eight, then as a list: linear time."""
    long = []
    for key, value in pairs:
        group = groups.get(key, ())
        if len(group) < 8:
            groups[key] = group + (value,)
        elif isinstance(group, tuple):
            groups[key] = [*group, value]
            long.append(key)
        else:
            group.append(value)
    for key in long:
        groups[key] = tuple(groups[key])
    return groups


def _counterparts(net, source, target) -> tuple[int | None, ...]:
    """For each element of ``target``, the index of the conceptual ``source``
    element whose fill supplies it, or None.  The k-th target element of a
    concept pairs with the k-th source element of the same concept; each
    target element left over then takes the first unpaired source element,
    in source order, whose concept is at or below its own."""
    same: dict[str, list[int]] = {}
    for j, el in enumerate(source.elements):
        if el.literal is None:
            same.setdefault(el.concept, []).append(j)
    supply: list[int | None] = [None] * len(target.elements)
    for k, el in enumerate(target.elements):
        if el.literal is None and same.get(el.concept):
            supply[k] = same[el.concept].pop(0)
    unpaired = sorted(j for left in same.values() for j in left)
    for k, el in enumerate(target.elements):
        if el.literal is not None or supply[k] is not None:
            continue
        for j in unpaired:
            if el.concept in net.ancestors[source.elements[j].concept]:
                supply[k] = j
                unpaired.remove(j)
                break
    return tuple(supply)


def _layout(etypes, twins) -> Layout:
    """The :class:`Layout` of a sequence with element types ``etypes``."""
    fixed: list[tuple[int, ...]] = [()]  # from the end: the fixed run at len first
    for c in reversed(range(len(etypes))):
        if ElementType.free(etypes[c]):
            fixed.append(fixed[-1])
        elif ElementType.omissible(etypes[c]):
            fixed.append((c,) + fixed[-1])
        else:
            fixed.append((c,))
    free = tuple(i for i, t in enumerate(etypes) if ElementType.free(t))
    return Layout(
        required=sum(1 << i for i, t in enumerate(etypes) if not ElementType.omissible(t)),
        merged=tuple(tuple(sorted(f + free)) for f in reversed(fixed)),
        free_mask=sum(1 << i for i in free),
        twin_pairs=tuple((i, twin) for i, twin in enumerate(twins) if twin is not None),
    )


def _twins(cs) -> tuple[int | None, ...]:
    """For each element of ``cs``, the index of the previous free element
    with the same element type and the same filler (concept or literal), or
    None.  Identical free elements fill in index order: any accepting fill
    can be permuted among them into that order, so the engine need not
    build the other permutations."""
    last: dict[tuple, int] = {}
    twins: list[int | None] = []
    for i, el in enumerate(cs.elements):
        if not ElementType.free(el.etype):
            twins.append(None)
            continue
        key = (el.etype, el.concept, el.literal)
        twins.append(last.get(key))
        last[key] = i
    return tuple(twins)


# -- public operations ---------------------------------------------------


def lookup_lexical(net: MemoryNetwork, language: str, morphemes) -> tuple[str, ...]:
    """Exact-match lexical lookup by segmented morpheme tuple: the items,
    in declaration order."""
    return net.morpheme_index[language].get(tuple(morphemes), ())


_ID = r"[A-Za-z][A-Za-z0-9_.-]*"
_ELEMENT_RE = re.compile(
    r'^(?:"(?P<lit>[^"]+)"|(?P<con>%s))'
    r"\((?P<type>CX|CF|OX|OF)\)"
    r"(?:=(?P<dflt>%s))?$" % (_ID, _ID)
)


def load_network(source: str) -> MemoryNetwork:
    """Parse a network file into a fully indexed :class:`MemoryNetwork`.

    Grammar, one declaration per line (``#`` starts a comment)::

        concept <id> [isa <parent>,<parent>] [sentence-type question|statement]
        lex <id> <ko|en> <morpheme>[+<morpheme>...] isa <concept-id>
        cs <id> <ko|en> of <concept-id> pair <cs-id> : <element> ...
        affix <ko|en> <morpheme> role <role> [after <role>,<role>]
        morphrule <ko|en> <root-class>+<affix> -> <surface>

    A ``cs`` element is ``<concept-id>(CX|CF|OX|OF)`` or
    ``"<literal>"(CX|CF|OX|OF)``, optionally suffixed ``=<lex-id>`` to name
    the default item generated when the element has no source counterpart.

    Each reference to a name declared on an earlier line shares that id's
    string, and each language is ``KO`` or ``EN``; a forward reference (the
    mate of the first sequence of a pair, say) keeps its own string.

    The loader reads shapes only.  It raises :class:`NetworkSyntaxError`
    (with the line, and the column of an unknown keyword) for a truncated
    declaration, a missing keyword, a repeated or unknown clause, a token
    after a declaration's last field and a malformed element, and
    :class:`NetworkError` for a second concept, lexical or sequence id and
    a file that declares no concept.  Every other rule is the build's
    (:func:`_check_declarations`): it names the offending declaration's
    line, and of several faults reports the first in declaration kind
    order (concepts, items, sequences, affixes, morphrules), not line
    order.  Semantic invariants beyond those are the business of
    :func:`validate_network`.
    """
    # elements by token: one record per distinct token
    decls = SimpleNamespace(concepts={}, lexicon={}, sequences={}, affixes=[], morph_rules=[], elements={})
    lines: dict[str, list[int]] = {keyword: [] for keyword in _PARSERS}  # per keyword, declaration order

    for lineno, raw in enumerate(source.splitlines(), start=1):
        tokens = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if not tokens:
            continue
        parse = _PARSERS.get(tokens[0])
        if parse is None:
            raise NetworkSyntaxError(f"unknown declaration '{tokens[0]}'", lineno, raw.find(tokens[0]) + 1)
        try:
            parse(decls, tokens, lineno)
        except IndexError:
            raise NetworkSyntaxError("truncated declaration", lineno) from None
        lines[tokens[0]].append(lineno)

    if not decls.concepts:
        raise NetworkError("no concepts declared")

    # building the network checks the declarations and, in the morphology
    # tables, that every non-initial morpheme of an item is a declared affix
    from markermt.morphology import MorphologyError

    try:
        return MemoryNetwork(decls.concepts, decls.lexicon, decls.sequences, decls.affixes, decls.morph_rules,
                             lines=lines)
    except MorphologyError as exc:
        raise NetworkError(str(exc)) from None


def _declared(table, name):
    """The id string ``table`` declares as ``name``, else ``name`` itself."""
    record = table.get(name)
    return name if record is None else record.id


def _language(token) -> str:
    """The language constant ``token`` names, one string per language; any
    other token as it is, for the build to reject."""
    return KO if token == KO else EN if token == EN else token


def _no_more(tokens, count, lineno):
    """Reject a declaration with tokens after its first ``count``."""
    if len(tokens) > count:
        raise NetworkSyntaxError(f"unexpected token '{tokens[count]}'", lineno)


def _parse_concept(decls, tokens, lineno):
    cid = tokens[1]
    if cid in decls.concepts:
        raise NetworkError(f"duplicate concept id '{cid}' (line {lineno})")
    clauses: dict[str, str] = {}
    for i in range(2, len(tokens), 2):
        if tokens[i] not in ("isa", "sentence-type") or tokens[i] in clauses:
            raise NetworkSyntaxError(f"unexpected token '{tokens[i]}'", lineno)
        clauses[tokens[i]] = tokens[i + 1]
    names = clauses["isa"].split(",") if "isa" in clauses else ()
    parents = tuple(_declared(decls.concepts, p) for p in names)
    decls.concepts[cid] = ConceptNode(cid, parents, clauses.get("sentence-type"))


def _parse_lex(decls, tokens, lineno):
    lid = tokens[1]
    if lid in decls.lexicon:
        raise NetworkError(f"duplicate lexical id '{lid}' (line {lineno})")
    if tokens[4] != "isa":
        raise NetworkSyntaxError("expected 'isa' in lex declaration", lineno)
    _no_more(tokens, 6, lineno)
    concept = _declared(decls.concepts, tokens[5])
    decls.lexicon[lid] = LexicalItem(lid, _language(tokens[2]), tuple(tokens[3].split("+")), concept)


def _parse_cs(decls, tokens, lineno):
    csid = tokens[1]
    if csid in decls.sequences:
        raise NetworkError(f"duplicate sequence id '{csid}' (line {lineno})")
    if tokens[3] != "of" or tokens[5] != "pair":
        raise NetworkSyntaxError("expected 'cs <id> <lang> of <cn> pair <cs> : ...'", lineno)
    if tokens[7] != ":":
        raise NetworkSyntaxError("expected ':' before element list", lineno)
    elements = []
    for tok in tokens[8:]:
        el = decls.elements.get(tok)
        if el is None:
            m = _ELEMENT_RE.match(tok)
            if not m:
                raise NetworkSyntaxError(f"bad element '{tok}'", lineno)
            concept, default = m.group("con"), m.group("dflt")
            if concept is not None:
                concept = _declared(decls.concepts, concept)
            if default is not None:
                default = _declared(decls.lexicon, default)
            el = decls.elements[tok] = SequenceElement(m.group("type"), concept, m.group("lit"), default)
        elements.append(el)
    if not elements:
        raise NetworkSyntaxError("sequence with no elements", lineno)
    owner = _declared(decls.concepts, tokens[4])
    paired = _declared(decls.sequences, tokens[6])
    decls.sequences[csid] = ConceptSequence(csid, _language(tokens[2]), owner, tuple(elements), paired)


def _parse_affix(decls, tokens, lineno):
    if tokens[3] != "role":
        raise NetworkSyntaxError("expected 'role' in affix declaration", lineno)
    after = tuple(tokens[6].split(",")) if tokens[5:6] == ["after"] else ("root",)
    _no_more(tokens, 7 if tokens[5:6] == ["after"] else 5, lineno)
    decls.affixes.append(AffixDecl(_language(tokens[1]), tokens[2], tokens[4], after))


def _parse_morphrule(decls, tokens, lineno):
    if "+" not in tokens[2] or tokens[3] != "->":
        raise NetworkSyntaxError("expected 'morphrule <lang> <class>+<affix> -> <surface>'", lineno)
    root_class, affix = tokens[2].split("+", 1)
    _no_more(tokens, 5, lineno)
    decls.morph_rules.append(MorphRuleDecl(_language(tokens[1]), root_class, affix, tokens[4]))


_PARSERS = {"concept": _parse_concept, "lex": _parse_lex, "cs": _parse_cs,
            "affix": _parse_affix, "morphrule": _parse_morphrule}


def _check_declarations(net, lines=None):
    """Raise :class:`NetworkError` for the first declaration of ``net`` that
    no network may hold, walking the concepts, the lexical items, the
    sequences, the affixes and the morphrules in turn, each table in
    declaration order.  The rules:

    - every concept, lexical item or sequence a declaration references is
      declared (``dangling concept reference 'ghost'``);
    - a language is ``ko`` or ``en``, a sentence type ``question`` or
      ``statement``, and an affix's role and ``after`` roles are in
      ``ROLES`` (``bad language 'jp'``, ``bad role 'object'``);
    - a lexical item has a morpheme, and no empty one;
    - a sequence is paired with one of the other language, its default
      items are of its own language, not every element is omissible (it
      would accept the empty string), and each element has a type in
      ``ElementType.ALL`` and exactly one of a concept and a literal;
    - no two affixes share a language and morpheme, and no two morphrules
      a language, root class and affix.

    ``lines``, given by :func:`load_network`, holds each declaration's line
    per keyword in declaration order: a rejection then ends in ``(line N)``,
    else it names the declaration.  Messages are formatted only on failure,
    so a network that passes costs membership tests alone."""

    def reject(keyword, index, message, name=None):
        if lines is not None:
            message += f" (line {lines[keyword][index]})"
        elif name is not None:
            message += f" ({_DECLARATION_KINDS[keyword]} '{name}')"
        raise NetworkError(message)

    concepts, lexicon, sequences = net.concepts, net.lexicon, net.sequences
    for i, cn in enumerate(concepts.values()):
        for parent in cn.parents:
            if parent not in concepts:
                reject("concept", i, f"dangling concept reference '{parent}'", cn.id)
        if cn.sentence_type is not None and cn.sentence_type not in SENTENCE_TYPES:
            reject("concept", i, f"bad sentence-type '{cn.sentence_type}'", cn.id)
    for i, it in enumerate(lexicon.values()):
        if it.language not in LANGUAGES:
            reject("lex", i, f"bad language '{it.language}'", it.id)
        if it.concept not in concepts:
            reject("lex", i, f"dangling concept reference '{it.concept}'", it.id)
        if not it.morphemes or "" in it.morphemes:
            reject("lex", i, "empty morpheme", it.id)
    etypes = ElementType.ALL
    for i, cs in enumerate(sequences.values()):
        if cs.language not in LANGUAGES:
            reject("cs", i, f"bad language '{cs.language}'", cs.id)
        for el in cs.elements:
            if el.etype not in etypes or (el.concept is None) == (el.literal is None):
                reject("cs", i, f"bad element {el!r} in sequence '{cs.id}'")
            if el.concept is not None and el.concept not in concepts:
                reject("cs", i, f"dangling concept reference '{el.concept}'", cs.id)
            default = el.default_item
            if default is not None:
                if default not in lexicon:
                    reject("cs", i, f"dangling lexical reference '{default}'", cs.id)
                if lexicon[default].language != cs.language:
                    reject("cs", i, f"default item '{default}' of '{cs.id}' must be a {cs.language} item")
        if cs.owner not in concepts:
            reject("cs", i, f"dangling concept reference '{cs.owner}'", cs.id)
        if cs.paired not in sequences:
            reject("cs", i, f"dangling sequence reference '{cs.paired}'", cs.id)
        mate = sequences[cs.paired]
        if mate.language == cs.language:
            reject("cs", i, f"pairing must cross languages: '{cs.id}' is paired with '{mate.id}'")
        for el in cs.elements:
            if not ElementType.omissible(el.etype):
                break
        else:
            reject("cs", i, f"sequence '{cs.id}' accepts the empty string: every element is omissible")
    affixes, rules = set(), set()
    for i, a in enumerate(net.affixes):
        if a.language not in LANGUAGES:
            reject("affix", i, f"bad language '{a.language}'", a.morpheme)
        for role in (a.role, *a.after):
            if role not in ROLES:
                reject("affix", i, f"bad role '{role}'", a.morpheme)
        if (a.language, a.morpheme) in affixes:
            reject("affix", i, f"duplicate affix '{a.morpheme}' for {a.language}")
        affixes.add((a.language, a.morpheme))
    for i, r in enumerate(net.morph_rules):
        if r.language not in LANGUAGES:
            reject("morphrule", i, f"bad language '{r.language}'", f"{r.root_class}+{r.affix}")
        if (r.language, r.root_class, r.affix) in rules:
            reject("morphrule", i, f"duplicate morphrule '{r.root_class}+{r.affix}' for {r.language}")
        rules.add((r.language, r.root_class, r.affix))


_DECLARATION_KINDS = {"concept": "concept", "lex": "lexical item", "cs": "sequence",
                      "affix": "affix", "morphrule": "morphrule"}


def serialize_network(net: MemoryNetwork) -> str:
    """Render a network back to its file form (stable declaration order)."""
    lines = []
    for cn in net.concepts.values():
        parts = [f"concept {cn.id}"]
        if cn.parents:
            parts.append("isa " + ",".join(cn.parents))
        if cn.sentence_type:
            parts.append(f"sentence-type {cn.sentence_type}")
        lines.append(" ".join(parts))
    for it in net.lexicon.values():
        lines.append(f"lex {it.id} {it.language} {'+'.join(it.morphemes)} isa {it.concept}")
    for a in net.affixes:
        suffix = "" if a.after == ("root",) else " after " + ",".join(a.after)
        lines.append(f"affix {a.language} {a.morpheme} role {a.role}{suffix}")
    for r in net.morph_rules:
        lines.append(f"morphrule {r.language} {r.root_class}+{r.affix} -> {r.surface}")
    for cs in net.sequences.values():
        elems = []
        for el in cs.elements:
            suffix = f"={el.default_item}" if el.default_item else ""
            elems.append(el.label() + suffix)
        lines.append(
            f"cs {cs.id} {cs.language} of {cs.owner} pair {cs.paired} : " + " ".join(elems)
        )
    return "\n".join(lines) + "\n"


def validate_network(net: MemoryNetwork) -> list[Diagnostic]:
    """Structural diagnostics over a built network, loaded or made in code.

    Empty result means every invariant holds.  Each violation yields one
    diagnostic; the network is not modified.  The declaration rules of
    :func:`_check_declarations` are not diagnosed here: building a network
    rejects a declaration that breaks one, so every name is declared.  The
    checks read the tables :meth:`MemoryNetwork.build_indexes` compiled:
    the element discipline from ``layouts``, each target element's supply
    from ``counterparts``, and reachability from ``items_below``,
    ``sequences_below`` and ``ancestors``.  Each fact is decided once per
    distinct key, and the declarations are walked, in order, only where a
    diagnostic is due.  So a network built in code must call
    ``build_indexes`` after its last change.
    """
    diags: list[Diagnostic] = []

    _check_isa_acyclic(net, diags)
    _check_pairing(net, diags)
    _check_english_fixed(net, diags)
    _check_reachability(net, diags)
    _check_generation_supply(net, diags)
    _check_omissible_cycles(net, diags)
    _check_morph_rules(net, diags)
    return diags


def _check_isa_acyclic(net, diags):
    concepts = net.concepts
    for cycle in _back_edges(concepts, lambda cid: concepts[cid].parents):
        diags.append(Diagnostic("isa-cycle", f"IS-A cycle: {' -> '.join(cycle)}"))


def _back_edges(nodes, successors):
    """Depth-first search from each unvisited node of ``nodes`` in order,
    following ``successors(node)`` in the order it yields them.  Yields, for
    each edge back onto the search path, that path plus the edge's target.
    Iterative, so chains deeper than the interpreter's recursion limit are
    walked like any other."""
    done: set = set()
    for root in nodes:
        if root in done:
            continue
        path, on_path = [root], {root}
        pending = [iter(successors(root))]
        while pending:
            for nxt in pending[-1]:
                if nxt in on_path:
                    yield path + [nxt]
                elif nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    pending.append(iter(successors(nxt)))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)


def _check_pairing(net, diags):
    for cs in net.sequences.values():
        mate = net.sequences[cs.paired]
        if mate.paired != cs.id:
            diags.append(
                Diagnostic(
                    "asymmetric-pairing",
                    f"'{cs.id}' pairs '{mate.id}' but '{mate.id}' pairs '{mate.paired}'",
                )
            )


def _check_english_fixed(net, diags):
    layouts = net.layouts
    for cs in net.sequences.values():
        if cs.language != EN:
            continue
        layout = layouts[cs.id]
        if not layout.free_mask and layout.required == (1 << len(cs.elements)) - 1:
            continue  # every element CX
        for i, el in enumerate(cs.elements):
            if el.etype != ElementType.REQUIRED_FIXED:
                diags.append(
                    Diagnostic(
                        "english-cse-type",
                        f"English CSE must be CX: '{cs.id}' element {i} is {el.etype}",
                    )
                )


def _check_reachability(net, diags):
    # items_below has a key for each (language, concept) an element names
    below = net.sequences_below
    unreachable = {key for key, items in net.items_below.items() if not items and not below[key]}
    if unreachable:
        for cs in net.sequences.values():
            for i, el in enumerate(cs.elements):
                if el.literal is None and not el.default_item and (cs.language, el.concept) in unreachable:
                    diags.append(
                        Diagnostic(
                            "unreachable-filler",
                            f"'{cs.id}' element {i} ({el.concept}) reaches no {cs.language} "
                            "lexical item or sequence and has no default",
                        )
                    )
    # a lexical fill is realized by a target item of its own concept (a
    # sequence of that concept does not supply one), otherwise analysis can
    # succeed where generation cannot
    items_of = net.items_of
    fillers = {concept for _, concept in net.items_below}
    unpaired = {
        (language, concept) for language, concept in items_of
        if ((EN if language == KO else KO), concept) not in items_of
        and not fillers.isdisjoint(net.ancestors[concept])
    }
    if unpaired:
        for item in net.lexicon.values():
            if (item.language, item.concept) in unpaired:
                other = EN if item.language == KO else KO
                diags.append(
                    Diagnostic(
                        "unpaired-concept",
                        f"concept '{item.concept}' has {item.language} item '{item.id}' "
                        f"but no {other} realization",
                    )
                )


def _check_generation_supply(net, diags):
    # every compulsory conceptual element of a target sequence needs either a
    # default item or a counterpart that every parse of the source fills;
    # the elements that may lack one depend only on the supply and on both
    # sequences' required masks, so they are worked out once per such key
    layouts, sequences = net.layouts, net.sequences
    due: dict[tuple, list[tuple[int, int | None]]] = {}
    for cs_id, supply in net.counterparts.items():
        target = sequences[sequences[cs_id].paired]
        key = (supply, layouts[cs_id].required, layouts[target.id].required)
        gaps = due.get(key)
        if gaps is None:
            _, filled, needed = key
            gaps = due[key] = [
                (k, j) for k, j in enumerate(supply)
                if needed >> k & 1 and (j is None or not filled >> j & 1)
            ]
        for k, j in gaps:
            el = target.elements[k]
            if el.literal is not None or el.default_item:
                continue
            if j is None:
                why = f"has no source counterpart in '{cs_id}'"
            else:
                why = f"has only the omissible counterpart '{cs_id}' element {j}"
            diags.append(
                Diagnostic(
                    "ungeneratable-element",
                    f"'{target.id}' element {k} ({el.concept}) {why} and no default",
                )
            )


def _check_omissible_cycles(net, diags):
    # sequence-reference graph restricted to omissible conceptual elements;
    # a sequence with none has no edge out, so it is on no cycle and gets no
    # node (a set per sequence would be objects enough to set off a garbage
    # collection inside validate)
    layouts, below = net.layouts, net.sequences_below
    edges: dict[str, set[str]] = {}
    for cs in net.sequences.values():
        required = layouts[cs.id].required
        if required == (1 << len(cs.elements)) - 1:
            continue  # no omissible element
        for i, el in enumerate(cs.elements):
            if not required >> i & 1 and el.literal is None:
                edges.setdefault(cs.id, set()).update(below[(cs.language, el.concept)])

    for cycle in _back_edges(edges, lambda cid: sorted(edges.get(cid, ()))):
        diags.append(
            Diagnostic(
                "omissible-cycle",
                f"all-omissible sequence reference cycle through '{cycle[-1]}'",
            )
        )


def _check_morph_rules(net, diags):
    # an affix is attached only after a role some word can end in, and only
    # those roles are keys of the successor table
    successors = net.morphology._next
    for decl in net.affixes:
        if decl.role != "root" and decl.role not in successors[decl.language]:
            diags.append(
                Diagnostic(
                    "dead-affix",
                    f"affix '{decl.morpheme}' ({decl.language}, {decl.role}) is never attached: "
                    f"no word reaches a role that {decl.role} may follow",
                )
            )
    # a rule applies only when its affix is attached, and only the declared
    # non-root affixes (the morphology's affix table) are
    affixes = net.morphology.affixes
    for r in net.morph_rules:
        if r.affix not in affixes[r.language]:
            diags.append(
                Diagnostic(
                    "dead-morphrule",
                    f"morphrule '{r.root_class}+{r.affix}' ({r.language}) never applies: "
                    f"'{r.affix}' is not a declared {r.language} affix",
                )
            )
