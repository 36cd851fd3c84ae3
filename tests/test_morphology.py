import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markermt.morphology import PROFILES, Morphology, MorphemeSequence, MorphologyError, MorphUnit, _join, tokenize
from markermt.network import load_network, serialize_network
from markermt.synth import parse_samples, synth_network
from markermt.translator import translate, word_items

from conftest import TRAVEL_CORPUS


def seqs(morph, language, word):
    return {s.forms for s in morph.segment(language, word)}


def test_korean_three_morpheme_eojeol(net):
    m = net.morphology
    result = m.segment("ko", "pha-il-tul-ul")
    assert len(result) == 1
    seq = result[0]
    assert seq.forms == ("pha-il", "tul", "ul")
    assert [u.role for u in seq.units] == ["root", "plural", "case-marker"]


def test_english_suffix_stripping(net):
    assert ("study", "s") in seqs(net.morphology, "en", "studies")


def test_korean_irregular_analysis(net):
    m = net.morphology
    result = m.segment("ko", "kowun")
    assert [(u.form, u.role) for u in result[0].units] == [("kop", "root"), ("un", "verb-ending")]


def test_bare_root(net):
    assert ("file",) in seqs(net.morphology, "en", "file")


def test_unknown_word_empty(net):
    assert net.morphology.segment("en", "zzz") == ()
    assert net.morphology.segment("ko", "zzz-zzz") == ()


def test_generate_regular_and_irregular(net):
    m = net.morphology
    assert m.word_for_morphemes("en", ("study", "s")) == "studies"
    assert m.word_for_morphemes("ko", ("kop", "un")) == "kowun"
    assert m.word_for_morphemes("en", ("file",)) == "file"
    assert m.word_for_morphemes("en", ("file", "s")) == "files"
    assert m.word_for_morphemes("ko", ("swu-ceng-ha", "yess", "ten")) == "swu-ceng-ha-yess-ten"
    assert m.word_for_morphemes("en", ("edit", "ed")) == "edited"


def test_generate_unknown_morpheme_names_unit(net):
    m = net.morphology
    with pytest.raises(MorphologyError, match="unknown morpheme 'zzz'"):
        m.word_for_morphemes("en", MorphemeSequence((MorphUnit("zzz", "root"),)).forms)
    with pytest.raises(MorphologyError, match="unknown morpheme 'qq'"):
        m.word_for_morphemes(
            "en", MorphemeSequence((MorphUnit("file", "root"), MorphUnit("qq", "suffix"))).forms
        )


def test_generate_rejects_bad_adjacency(net):
    m = net.morphology
    # plural cannot follow a case-marker in the fixture tables
    seq = MorphemeSequence(
        (MorphUnit("pha-il", "root"), MorphUnit("ul", "case-marker"), MorphUnit("tul", "plural")),
    )
    with pytest.raises(MorphologyError, match="cannot follow"):
        m.word_for_morphemes("ko", seq.forms)


def generate(m, language, morphemes):
    """``word_for_morphemes`` on one morpheme tuple: its surface or its
    error message."""
    try:
        return ("surface", m.word_for_morphemes(language, morphemes))
    except MorphologyError as exc:
        return ("error", str(exc))


def test_word_for_morphemes_generates_items_and_names_the_first_error(net):
    """Every stored item generates the word load made for it (``word_of``),
    and ``words`` holds those words casefolded, per language; a malformed
    tuple fails on its first undeclared affix, then an unknown root, then a
    bad adjacency."""
    nets = [net] + [load_network(synth_network(1000, 200, seed)) for seed in (1, 2)]
    for each in nets:
        m = each.morphology
        assert set(m.word_of) == set(each.lexicon)
        for item in each.lexicon.values():
            assert generate(m, item.language, item.morphemes) == ("surface", m.word_of[item.id]), item.id
        for language in PROFILES:
            folded = {m.word_of[it.id].casefold() for it in each.lexicon.values() if it.language == language}
            assert m.words[language] == folded
    malformed = [
        ("ko", ("zzz-zzz", "ul")),  # unknown root
        ("ko", ("pha-il", "qq")),  # undeclared affix
        ("ko", ("pha-il", "ul", "tul")),  # plural cannot follow a case-marker
        ("ko", ("pha-il", "ul", "tul", "qq")),  # undeclared affix after that break
        ("en", ("zzz", "qq")),  # unknown root and undeclared affix
        ("en", ("edit", "ed", "s")),  # suffix cannot follow suffix
    ]
    messages = [generate(net.morphology, language, morphemes) for language, morphemes in malformed]
    assert messages == [
        ("error", "unknown morpheme 'zzz-zzz'"),
        ("error", "unknown morpheme 'qq'"),
        ("error", "affix 'tul' (plural) cannot follow case-marker"),
        ("error", "unknown morpheme 'qq'"),
        ("error", "unknown morpheme 'qq'"),
        ("error", "affix 's' (suffix) cannot follow suffix"),
    ]


def test_case_insensitive_match_returns_stored_spelling(net):
    m = net.morphology
    result = m.segment("en", "kennedy")
    assert result[0].forms == ("Kennedy",)


def test_tokenize_question(net):
    words = tokenize("Would you tell me the way to Kennedy Park?")
    assert words == ("would", "you", "tell", "me", "the", "way", "to", "kennedy", "park")


def test_tokenize_korean_eojeols(net):
    words = tokenize("ken-ney-ti kong-wen")
    assert words == ("ken-ney-ti", "kong-wen")
    # both Eojeols resolve against the fixture lexicon
    for word in words:
        assert net.morphology.segment("ko", word)


def test_tokenize_empty_rejected():
    with pytest.raises(MorphologyError):
        tokenize("   ")
    with pytest.raises(MorphologyError):
        tokenize(" ? ")


def declared_affixes(net, language):
    """``({affix: role}, {(previous role, role)})`` of the language's raw
    affix declarations: its non-root affixes and the adjacency their
    ``after`` clauses declare."""
    roles, adjacency = {}, set()
    for a in net.affixes:
        if a.language == language and a.role != "root":
            roles[a.morpheme] = a.role
            adjacency.update((prev, a.role) for prev in a.after)
    return roles, adjacency


def grammatical_chains(net, language, max_affixes=2):
    """Every root plus affix chain the declared adjacency allows."""
    roots = list(net.morphology.roots[language].values())
    roles, adjacency = declared_affixes(net, language)
    chains = []

    def extend(units, prev_role, depth):
        chains.append(tuple(units))
        if depth == max_affixes:
            return
        for affix, role in roles.items():
            if (prev_role, role) in adjacency:
                extend(units + [MorphUnit(affix, role)], role, depth + 1)

    for root in roots:
        extend([MorphUnit(root, "root")], "root", 0)
    return chains


@pytest.mark.parametrize("language", ["ko", "en"])
def test_round_trip_exhaustive(net, language):
    """segment(generate(seq)) recovers seq for every grammatical combination."""
    m = net.morphology
    checked = 0
    for units in grammatical_chains(net, language):
        seq = MorphemeSequence(units)
        surface = m.word_for_morphemes(language, seq.forms)
        analyses = {s.forms for s in m.segment(language, surface)}
        assert seq.forms in analyses, f"{seq} -> {surface} -> {analyses}"
        checked += 1
    assert checked > 20


@pytest.mark.parametrize("language", ["ko", "en"])
def test_analysis_soundness(net, language):
    """Everything segment returns regenerates to the input surface."""
    m = net.morphology
    surfaces = set()
    for item in net.lexicon.values():
        if item.language == language:
            surfaces.add(m.word_for_morphemes(language, item.morphemes))
    for word in sorted(surfaces):
        for seq in m.segment(language, word):
            assert m.word_for_morphemes(language, seq.forms).casefold() == word.casefold()


def test_lexicon_item_round_trip(net):
    """Every shipped lexical item survives generate-then-segment."""
    m = net.morphology
    for item in net.lexicon.values():
        surface = m.word_for_morphemes(item.language, item.morphemes)
        analyses = {s.forms for s in m.segment(item.language, surface)}
        assert item.morphemes in analyses


def steps_by_affix(m, language):
    """``{affix: (rules, plain)}`` of each step of the successor table: the
    affix's rules as :func:`~markermt.morphology._join` takes them (None if
    it has none) and its joiner + affix surface.  An affix whose role may
    follow only roles that no affix of the language has, and not the root,
    has no step, and no word can carry it."""
    return {unit.form: (rules, plain) for entry in m._next[language].values()
            for unit, rules, plain, _ in entry[0]}


def attach_by_step(m, language, stem, affix):
    """``stem`` with ``affix`` attached as the successor table's step does."""
    rules, plain = steps_by_affix(m, language)[affix]
    return _join(stem, rules, plain) if rules else stem + plain


def language_rules(net, language):
    """``{(class, affix): surface}`` of the language's raw morphrules."""
    return {(r.root_class, r.affix): r.surface for r in net.morph_rules if r.language == language}


def attach_by_scan(rules, language, stem, affix):
    """Reference attach: scans every rule of ``rules`` (see
    :func:`language_rules`) and applies the longest class of ``affix``
    that ends the stem."""
    best = None
    for (cls_, afx), frag in rules.items():
        if afx == affix and stem.endswith(cls_):
            if best is None or len(cls_) > len(best[0]):
                best = (cls_, frag)
    if best is not None:
        return stem[: len(stem) - len(best[0])] + best[1]
    return stem + PROFILES[language].joiner + affix


def segment_by_scan(net, language, word):
    """Reference segmentation, frozen: a recursive search started from every
    root that, at each step, scans every declared affix for adjacency and
    every rule of the language for the boundary rewrite."""
    m = net.morphology
    rules = language_rules(net, language)
    roles, adjacency = declared_affixes(net, language)
    max_class = max((len(c) for c, _ in rules), default=0)
    target = word.casefold()
    if not target:
        return ()
    results, seen = [], set()

    def compatible(formed):
        stable = max(0, len(formed) - max_class)
        return stable <= len(target) and formed.casefold()[:stable] == target[:stable]

    def extend(units, formed, prev_role):
        if not compatible(formed):
            return
        if formed.casefold() == target:
            key = tuple(u.form for u in units)
            if key not in seen:
                seen.add(key)
                results.append(MorphemeSequence(tuple(units)))
        if len(units) > len(target) + 1:
            return
        for affix, role in roles.items():
            if (prev_role, role) in adjacency:
                surface = attach_by_scan(rules, language, formed, affix)
                extend(units + [MorphUnit(affix, role)], surface, role)

    for root in m.roots[language].values():
        extend([MorphUnit(root, "root")], root, "root")
    results.sort(key=lambda s: (-len(s.units[0].form), s.forms))
    return tuple(results)


AFFIX_VARIANTS = ("s", "ed", "-ul", "-un", "ies")


def near_surfaces(surfaces):
    """The surfaces, every prefix of each, and each with an affix appended."""
    words = set()
    for surface in surfaces:
        words.update(surface[:end] for end in range(len(surface) + 1))
        words.update(surface + affix for affix in AFFIX_VARIANTS)
    return sorted(words)


def assert_segment_matches_scan(net, language, words):
    for word in words:
        assert net.morphology.segment(language, word) == segment_by_scan(net, language, word), word


@pytest.mark.parametrize("language", ["ko", "en"])
def test_segment_matches_root_scan_on_travel_surfaces(net, language):
    m = net.morphology
    surfaces = [
        m.word_for_morphemes(language, MorphemeSequence(units).forms)
        for units in grammatical_chains(net, language)
    ]
    words = near_surfaces(surfaces + [w.upper() for w in surfaces[:20]])
    assert len(words) > 500
    assert_segment_matches_scan(net, language, words)


def test_segment_matches_root_scan_on_synth_samples():
    text = synth_network(300, 60, 5, samples=40)
    net = load_network(text)
    for direction, sentence in parse_samples(text):
        language = direction.split("-")[0]
        assert_segment_matches_scan(net, language, near_surfaces(sentence.split()))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_segment_matches_root_scan_on_random_words(net, data):
    m = net.morphology
    pieces = {"-"} | {ch for table in m.roots.values() for root in table for ch in root}
    pieces |= {affix for table in m.affixes.values() for affix in table}
    language = data.draw(st.sampled_from(["ko", "en"]))
    word = data.draw(st.lists(st.sampled_from(sorted(pieces)), max_size=8).map("".join))
    assert m.segment(language, word) == segment_by_scan(net, language, word)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_segment_matches_root_scan_on_rule_surfaces(net, data):
    """A root that ends in a rule class, cut back by up to two characters,
    then a rule surface (travel's are wun, ies, pping and ed) and up to two
    more pieces: the words on which boundary rewrites fire or nearly do."""
    m = net.morphology
    language = data.draw(st.sampled_from(["ko", "en"]))
    classes = tuple(r.root_class for r in net.morph_rules if r.language == language)
    roots = sorted(root for root in m.roots[language].values() if root.endswith(classes))
    root = data.draw(st.sampled_from(roots))
    root = root[: len(root) - data.draw(st.integers(0, 2))]
    surfaces = sorted(r.surface for r in net.morph_rules)
    pieces = sorted({"-", *surfaces, *m.affixes[language]})
    tail = data.draw(st.sampled_from(surfaces))
    tail += data.draw(st.lists(st.sampled_from(pieces), max_size=2).map("".join))
    word = data.draw(st.sampled_from([root + tail, (root + tail).upper()]))
    assert m.segment(language, word) == segment_by_scan(net, language, word)


@pytest.mark.parametrize(
    "language, word, forms",
    [
        ("ko", "kowun", ("kop", "un")),
        ("en", "studies", ("study", "s")),
        ("en", "stopping", ("stop", "ing")),
        ("en", "filed", ("file", "ed")),
    ],
)
def test_rule_surface_words_segment_through_their_rule(net, language, word, forms):
    readings = net.morphology.segment(language, word)
    assert forms in {s.forms for s in readings}
    assert readings == segment_by_scan(net, language, word)


def test_longest_rule_class_wins(travel_text):
    # declared after y+s, so only its longer class makes it win on "way"
    net = load_network(travel_text + "morphrule en ay+s -> ays\n")
    m = net.morphology
    assert m.word_for_morphemes("en", ("way", "s")) == "ways"
    assert m.word_for_morphemes("en", ("study", "s")) == "studies"
    for word in ("ways", "waies", "studies", "studys"):
        assert m.segment("en", word) == segment_by_scan(net, "en", word), word
    assert {s.forms for s in m.segment("en", "ways")} == {("way", "s")}
    assert m.segment("en", "waies") == ()


def test_rules_that_keep_the_length_stop_at_the_unit_bound(travel_text):
    # x may follow itself and adds nothing after an e, so "file" also reads
    # as file+x, file+x+x, ... up to len(word) + 2 units, where the search
    # stops
    extra = "affix en x role plural after root,plural\nmorphrule en e+x -> e\n"
    net = load_network(travel_text + extra)
    readings = net.morphology.segment("en", "file")
    assert [s.forms for s in readings] == [("file",) + ("x",) * k for k in range(6)]
    assert readings == segment_by_scan(net, "en", "file")


class CountingSteps(dict):
    """A successor table that counts its lookups: one per reading the
    search keeps and grows."""

    lookups = 0

    def __getitem__(self, role):
        self.lookups += 1
        return super().__getitem__(role)


def candidate_readings(m, language, word):
    """How many readings ``segment`` keeps while it searches ``word``."""
    saved = m._next[language]
    m._next[language] = steps = CountingSteps(saved)
    try:
        result = m.segment(language, word)
    finally:
        m._next[language] = saved
    return steps.lookups, result


@pytest.mark.parametrize("language", ["ko", "en"])
def test_segment_cost_does_not_grow_with_the_lexicon(language):
    """A synthetic network declares no affix, so a word's one root is
    matched and kept for no step: the search looks nothing up, whatever the
    size of the lexicon."""
    small = synth_network(1000, 200, 3, samples=10)
    # the first lexical word of a sample; every word of the small network's
    # lexicon is also in the large one
    word = next(
        sentence.split()[1]
        for direction, sentence in parse_samples(small)
        if direction.startswith(language)
    )
    counts = [
        candidate_readings(load_network(text).morphology, language, word)
        for text in (small, synth_network(4000, 800, 3, samples=10))
    ]
    assert counts[0][0] == 0 and counts[0][1]
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "language, word, kept",
    [
        # the shortest ko step adds 2 characters (p+un -> wun), and eti plus 2
        # is longer than the word plus max_class
        ("ko", "eti", 0),
        # kil is kept; kil-ul ends in a case marker, which nothing follows
        ("ko", "kil-ul", 1),
        # pha-il and pha-il-tul are kept: -ul (3 characters) still fits
        # after the plural
        ("ko", "pha-il-tul-ul", 2),
        # file is kept; files ends in a suffix, which nothing follows
        ("en", "files", 1),
    ],
)
def test_only_readings_that_a_step_still_fits_are_kept(net, language, word, kept):
    """A reading goes on the search stack only when some step of its role
    can still fit in the word: the lookups count the readings kept."""
    lookups, readings = candidate_readings(net.morphology, language, word)
    assert readings == segment_by_scan(net, language, word) != ()
    assert lookups == kept


def test_a_language_without_tables_has_no_segmentation(net):
    assert net.morphology.segment("fr", "files") == ()
    assert net.morphology.segment("fr", "") == ()


def corpus_rows():
    """``(direction, sentence, expected)`` of each travel corpus line."""
    return [
        line.split("\t")
        for line in TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


def test_rules_of_other_affixes_leave_translation_alone(net, travel_text):
    """2,000 rules of undeclared affixes give the same outputs and the same
    search: each affix is attached by its own rules only."""
    extra = "".join(f"morphrule ko p+zq{i} -> x\n" for i in range(2000))
    heavy = load_network(travel_text + extra)
    assert len(heavy.morph_rules) == len(net.morph_rules) + 2000
    assert heavy.morphology._next == net.morphology._next
    for direction, sentence, _ in corpus_rows():
        plain, loaded = (translate(n, sentence, direction) for n in (net, heavy))
        assert plain.status == "success"
        assert (loaded.status, loaded.target_sentence) == (plain.status, plain.target_sentence)
        source = direction.split("-")[0]
        for word in tokenize(sentence):
            assert candidate_readings(heavy.morphology, source, word) == candidate_readings(
                net.morphology, source, word
            )


# 2,000 rules on one declared affix whose classes no travel word ends with
HOSTILE_RULES = "".join(f"morphrule ko zq{i}+ul -> lul\n" for i in range(2000))


class CountingRules(dict):
    """A ``{class: surface}`` table that counts the classes probed."""

    probes = 0

    def get(self, cls_, default=None):
        self.probes += 1
        return super().get(cls_, default)


def test_many_rules_on_one_affix_leave_translation_alone(net, travel_text):
    """2,000 rules on ``ul``: the same outputs and readings, and one attach
    of ``ul`` probes one class per distinct class length, not per rule."""
    heavy = load_network(travel_text + HOSTILE_RULES)
    for direction, sentence, _ in corpus_rows():
        plain, loaded = (translate(n, sentence, direction) for n in (net, heavy))
        assert plain.status == "success"
        assert (loaded.status, loaded.target_sentence) == (plain.status, plain.target_sentence)
        source = direction.split("-")[0]
        assert_segment_matches_scan(heavy, source, tokenize(sentence))
    rules = language_rules(heavy, "ko")
    lengths = {len(cls_) for cls_, affix in rules if affix == "ul"}
    (order, table), plain = steps_by_affix(heavy.morphology, "ko")["ul"]
    counting = CountingRules(table)
    for stem in ("kil", "pha-il-tul", "zq7", "zq1999", "ezq1999", "zq"):
        counting.probes = 0
        assert _join(stem, (order, counting), plain) == attach_by_scan(rules, "ko", stem, "ul"), stem
        assert counting.probes <= len(lengths) == 4, stem


class CountingStep(tuple):
    """A successor step that counts how often it is unpacked: once for each
    reading that tries it."""

    tried = 0

    def __iter__(self):
        CountingStep.tried += 1
        return super().__iter__()


def steps_tried(m, language, word):
    """How many successor steps ``segment`` tries while it searches
    ``word``, found loose, by key or by class, and its readings."""
    saved = m._next[language]
    made = {}

    def counting(steps):
        return tuple(made.setdefault(id(step), CountingStep(step)) for step in steps)

    def counting_each(index):
        return {key: counting(found) for key, found in index.items()}

    m._next[language] = {
        role: (counting(steps), counting(loose), counting_each(keyed), lengths, ruled and counting_each(ruled), classes)
        for role, (steps, loose, keyed, lengths, ruled, classes) in saved.items()
    }
    CountingStep.tried = 0
    try:
        result = m.segment(language, word)
    finally:
        m._next[language] = saved
    return CountingStep.tried, result


def assert_tries_as_many_steps(net, wide, language):
    """Every sentence translates the same on ``net`` and ``wide``, and each
    ``language`` word of the travel corpus tries as many successor steps on
    both, with the same readings."""
    tried = 0
    for direction, sentence, _ in corpus_rows():
        plain, loaded = (translate(n, sentence, direction) for n in (net, wide))
        assert plain.status == "success"
        assert (loaded.status, loaded.target_sentence) == (plain.status, plain.target_sentence)
        if direction.startswith(language):
            for word in tokenize(sentence):
                counts = [steps_tried(n.morphology, language, word) for n in (net, wide)]
                assert counts[0] == counts[1], word
                tried += counts[0][0]
    assert tried > 0


# 2,000 case markers after the root and the plural that no travel word
# continues with
WIDE_AFFIXES = "".join(f"affix ko zq{i} role case-marker after root,plural\n" for i in range(2000))


def test_affixes_a_word_does_not_continue_with_are_never_tried(net, travel_text):
    """With 2,000 more case markers, each ko word of the travel corpus tries
    as many successor steps as before, with the same readings, and every
    sentence translates the same: a reading tries only the affixes whose
    rule-proof part the word continues with where the reading ends."""
    wide = load_network(travel_text + WIDE_AFFIXES)
    assert len(wide.morphology._next["ko"]["root"][0]) > 2000
    assert_tries_as_many_steps(net, wide, "ko")


# 2,000 suffixes, each with a rule: no travel word continues with one, and
# none ends with the class of its rule
WIDE_RULES = "".join(f"affix en zq{i} role suffix\nmorphrule en x+zq{i} -> zq{i}y\n" for i in range(2000))


def test_affixes_with_rules_a_word_does_not_fit_are_never_tried(net, travel_text):
    """With 2,000 more suffixes that carry rules, each en word of the travel
    corpus tries as many successor steps as before, with the same readings:
    a reading tries an affix with rules only where the word continues with
    its plain surface or one of its classes ends the reading."""
    wide = load_network(travel_text + WIDE_RULES)
    assert len(wide.morphology._next["en"]["root"][0]) > 2000
    assert_tries_as_many_steps(net, wide, "en")


def test_a_rule_class_is_matched_on_the_stored_surface():
    """A rule attaches by the stored spelling: ``boX + ab`` is ``boYab``, so
    ``boyab`` segments through the rule, though the folded reading ``box``
    ends with no class, and ``boxab`` does not segment."""
    net = load_network(
        "concept c\naffix en boX role root\naffix en ab role suffix\nmorphrule en X+ab -> Yab\n"
        "lex i en boX+ab isa c\ncs s en of c pair t : c(CX)\ncs t ko of c pair s : c(CX)\n"
    )
    assert [s.forms for s in net.morphology.segment("en", "boyab")] == [("boX", "ab")]
    for word in ("boyab", "BOYAB", "boxab"):
        assert net.morphology.segment("en", word) == segment_by_scan(net, "en", word), word
    assert word_items(net, "en", "boyab") == reference_word_items(net, "en", "boyab") == ["i"]


def test_a_root_that_casefolding_lengthens_segments_as_the_scans_do():
    """``ß`` folds to ``ss``, so a reading of it ends later folded than
    stored: ``-A`` must be found after ``ss``, not after ``s``.  Hypothesis
    draws this case only now and then."""
    net = load_network(
        "concept c\naffix ko ß role root\naffix ko A role suffix\nlex i ko ß+A isa c\n"
        "cs s ko of c pair t : c(CX)\ncs t en of c pair s : c(CX)\n"
    )
    for word in ("ß-A", "SS-A"):
        readings = net.morphology.segment("ko", word)
        assert [s.forms for s in readings] == [("ß", "A")]
        assert readings == segment_by_scan(net, "ko", word)
        assert word_items(net, "ko", word) == reference_word_items(net, "ko", word) == ["i"]


# a few pieces for random morphologies: case pairs, and a letter whose
# casefold is longer than itself
MORPH_PIECES = "abAß"
AFFIX_ROLES = ("suffix", "plural", "tense")


@st.composite
def random_morphologies(draw):
    """``(network, language, words, stems)`` over a random morphology:
    roles that may follow themselves or each other and roles that nothing
    follows, several rules on one affix with classes of equal and of
    different lengths (the empty class too) and surfaces that shrink, and
    roots and affixes in mixed case.  The words are surfaces of random root
    and affix chains, their upper-case forms and random strings."""
    language = draw(st.sampled_from(["ko", "en"]))
    piece = st.text(MORPH_PIECES, min_size=1, max_size=3)
    morphemes = draw(st.lists(piece, min_size=2, max_size=6, unique=True))
    split = draw(st.integers(1, len(morphemes) - 1))
    roots, affixes = morphemes[:split], morphemes[split:]
    lines = ["concept c"] + [f"affix {language} {root} role root" for root in roots]
    for affix in affixes:
        role = draw(st.sampled_from(AFFIX_ROLES))
        after = draw(st.lists(st.sampled_from(("root",) + AFFIX_ROLES), min_size=1, max_size=3,
                              unique=True))
        lines.append(f"affix {language} {affix} role {role} after {','.join(after)}")
    for affix in draw(st.lists(st.sampled_from(affixes), max_size=3, unique=True)):
        classes = st.lists(st.text(MORPH_PIECES, max_size=3), min_size=1, max_size=4, unique=True)
        for cls_ in draw(classes):
            lines.append(f"morphrule {language} {cls_}+{affix} -> {draw(piece)}")
    net = load_network("\n".join(lines))
    rules = language_rules(net, language)
    words = []
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.sampled_from(roots))
        for affix in draw(st.lists(st.sampled_from(affixes), max_size=3)):
            word = attach_by_scan(rules, language, word, affix)
        words += [word, word.upper()]
    words += draw(st.lists(st.text(MORPH_PIECES + "-", max_size=6), max_size=3))
    return net, language, words, words + roots + draw(st.lists(piece, max_size=3))


@settings(max_examples=300, deadline=None)
@given(case=random_morphologies())
def test_random_morphologies_segment_and_attach_as_the_scans_do(case):
    net, language, words, stems = case
    assert_segment_matches_scan(net, language, words)
    m, rules = net.morphology, language_rules(net, language)
    for stem in stems:
        for affix in steps_by_affix(m, language):
            expected = attach_by_scan(rules, language, stem, affix)
            assert attach_by_step(m, language, stem, affix) == expected, (stem, affix)


def test_segment_orders_readings_by_root_length_then_forms(travel_text):
    """``segment`` sorts by units, which is the order of their forms: every
    word of the travel corpus, both sides, keeps that order, also where an
    extra root and affixes give words several readings."""
    words = set()
    for line in TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            direction, sentence, expected = line.split("\t")
            source, target = direction.split("-")
            words.update((source, w) for w in tokenize(sentence))
            if expected != "*":  # a line that checks the status only
                words.update((target, w) for w in tokenize(expected))
    ambiguous = (
        "affix en Kenn role root\naffix en edy role plural after root\n"
        "affix en x role plural after root,plural\nmorphrule en e+x -> e\n"
    )
    several = 0
    for text in (travel_text, travel_text + ambiguous):
        m = load_network(text).morphology
        for language, word in sorted(words):
            readings = m.segment(language, word)
            assert readings, word
            assert list(readings) == sorted(readings, key=lambda s: (-len(s.forms[0]), s.forms)), word
            several += len(readings) > 1
    assert several > 1


# -- each item's word, made once at load ----------------------------------


class Counting:
    """Wraps a method of :class:`Morphology` and records the arguments of
    each call."""

    def __init__(self, monkeypatch, name):
        self.calls = []
        original = getattr(Morphology, name)

        def wrapper(morph, *args):
            self.calls.append(args)
            return original(morph, *args)

        monkeypatch.setattr(Morphology, name, wrapper)


def test_translation_generates_no_word(net, monkeypatch):
    """Realization reads each item's word: no ``translate`` of the travel
    corpus or of synth samples (default items and traces included) calls
    ``word_for_morphemes``."""
    synth = synth_network(1000, 200, 4, samples=40)
    nets = [(net, [row[:2] for row in corpus_rows()]), (load_network(synth), parse_samples(synth))]
    generate = Counting(monkeypatch, "word_for_morphemes")
    successes = 0
    for each, rows in nets:
        for direction, sentence in rows:
            result = translate(each, sentence, direction)
            assert result.trace
            successes += result.ok
    assert successes > 40
    assert generate.calls == []


def test_item_words_are_segmented_once_and_other_words_never(net, monkeypatch):
    """Over the travel corpus, each token that is some item's word takes one
    ``segment`` call, and a literal or other word (would, the, kanun,
    issnunci) takes none."""
    segment = Counting(monkeypatch, "segment")
    seen = set()
    for direction, sentence, _ in corpus_rows():
        source = direction.split("-")[0]
        words = tokenize(sentence)
        segment.calls.clear()
        assert translate(net, sentence, direction).ok
        assert segment.calls == [(source, w) for w in words if w in net.morphology.words[source]]
        seen.update(words)
    skipped = {"would", "the", "kanun", "issnunci"}
    assert skipped <= seen
    assert not skipped & (net.morphology.words["ko"] | net.morphology.words["en"])


def reference_word_items(net, language, word):
    """``word_items`` from the frozen scans, with no word filter: the items
    whose morphemes are those of a reading of ``segment_by_scan``, each
    once, in the order first found."""
    items = []
    for reading in segment_by_scan(net, language, word):
        for item in net.lexicon.values():
            if item.language == language and item.morphemes == reading.forms and item.id not in items:
                items.append(item.id)
    return items


@st.composite
def random_lexicons(draw):
    """``(network, language, words)``: a random morphology (see
    :func:`random_morphologies`) with lexical items on root and affix chains
    that adjacency allows (some repeated, some with a root in other case)
    and a literal.  The words are the items' words in both cases, the
    literal, and the random morphology's words and random strings."""
    base, language, words, _ = draw(random_morphologies())
    roots = sorted(base.morphology.roots[language].values())
    roles, adjacency = declared_affixes(base, language)
    lines = [serialize_network(base)]
    for i in range(draw(st.integers(1, 8))):
        root = draw(st.sampled_from(roots))
        morphemes, role = [draw(st.sampled_from([root, root.upper()]))], "root"
        for _ in range(draw(st.integers(0, 3))):
            allowed = sorted(a for a, r in roles.items() if (role, r) in adjacency)
            if not allowed:
                break
            morphemes.append(draw(st.sampled_from(allowed)))
            role = roles[morphemes[-1]]
        lines.append(f"lex i{i} {language} {'+'.join(morphemes)} isa c")
    literal = draw(st.text(MORPH_PIECES, min_size=1, max_size=4))
    other = "en" if language == "ko" else "ko"
    lines += [f'cs s {language} of c pair t : "{literal}"(CX) c(CX)', f"cs t {other} of c pair s : c(CX)"]
    net = load_network("\n".join(lines))
    items = list(net.morphology.word_of.values())
    words = items + [w.upper() for w in items] + [literal] + words
    words += draw(st.lists(st.text(MORPH_PIECES + "-", max_size=6), max_size=3))
    return net, language, words


@settings(max_examples=300, deadline=None)
@given(case=random_lexicons())
def test_word_items_skips_only_words_without_items(case):
    """The word filter is exact: ``word_items`` gives what the unfiltered
    scans give, on item words, literals and random strings."""
    net, language, words = case
    for word in words:
        assert word_items(net, language, word) == reference_word_items(net, language, word), word
