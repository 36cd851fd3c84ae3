import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markermt.morphology import MorphemeSequence, MorphologyError, MorphUnit, tokenize
from markermt.network import load_network
from markermt.synth import parse_samples, synth_network


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
        m.generate_word("en", MorphemeSequence("en", (MorphUnit("zzz", "root"),)))
    with pytest.raises(MorphologyError, match="unknown morpheme 'qq'"):
        m.generate_word(
            "en", MorphemeSequence("en", (MorphUnit("file", "root"), MorphUnit("qq", "suffix")))
        )


def test_generate_rejects_bad_adjacency(net):
    m = net.morphology
    # plural cannot follow a case-marker in the fixture tables
    seq = MorphemeSequence(
        "ko",
        (MorphUnit("pha-il", "root"), MorphUnit("ul", "case-marker"), MorphUnit("tul", "plural")),
    )
    with pytest.raises(MorphologyError, match="cannot follow"):
        m.generate_word("ko", seq)


def test_case_insensitive_match_returns_stored_spelling(net):
    m = net.morphology
    result = m.segment("en", "kennedy")
    assert result[0].forms == ("Kennedy",)


def test_tokenize_question(net):
    toks = tokenize("en", "Would you tell me the way to Kennedy Park?")
    assert toks.words == ("would", "you", "tell", "me", "the", "way", "to", "kennedy", "park")
    assert toks.terminal == "?"


def test_tokenize_korean_eojeols(net):
    toks = tokenize("ko", "ken-ney-ti kong-wen")
    assert toks.words == ("ken-ney-ti", "kong-wen")
    assert toks.terminal is None
    # both Eojeols resolve against the fixture lexicon
    for word in toks.words:
        assert net.morphology.segment("ko", word)


def test_tokenize_empty_rejected():
    with pytest.raises(MorphologyError):
        tokenize("en", "   ")
    with pytest.raises(MorphologyError):
        tokenize("en", " ? ")


def grammatical_chains(m, language, max_affixes=2):
    """Every root plus affix chain the adjacency table allows."""
    roots = list(m.roots[language].values())
    chains = []

    def extend(units, prev_role, depth):
        chains.append(tuple(units))
        if depth == max_affixes:
            return
        for affix, role in m.affixes[language].items():
            if (prev_role, role) in m.adjacency[language]:
                extend(units + [MorphUnit(affix, role)], role, depth + 1)

    for root in roots:
        extend([MorphUnit(root, "root")], "root", 0)
    return chains


@pytest.mark.parametrize("language", ["ko", "en"])
def test_round_trip_exhaustive(net, language):
    """segment(generate(seq)) recovers seq for every grammatical combination."""
    m = net.morphology
    checked = 0
    for units in grammatical_chains(m, language):
        seq = MorphemeSequence(language, units)
        surface = m.generate_word(language, seq)
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
            assert m.generate_word(language, seq).casefold() == word.casefold()


def test_lexicon_item_round_trip(net):
    """Every shipped lexical item survives generate-then-segment."""
    m = net.morphology
    for item in net.lexicon.values():
        surface = m.word_for_morphemes(item.language, item.morphemes)
        analyses = {s.forms for s in m.segment(item.language, surface)}
        assert item.morphemes in analyses


def segment_by_scan(m, language, word):
    """Reference segmentation: the affix search started from every root."""
    target = word.casefold()
    if not target:
        return ()
    results, seen = [], set()
    for root in m.roots[language].values():
        m._extend(language, target, [MorphUnit(root, "root")], root, "root", results, seen)
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


def assert_segment_matches_scan(m, language, words):
    for word in words:
        assert m.segment(language, word) == segment_by_scan(m, language, word), word


@pytest.mark.parametrize("language", ["ko", "en"])
def test_segment_matches_root_scan_on_travel_surfaces(net, language):
    m = net.morphology
    surfaces = [
        m.generate_word(language, MorphemeSequence(language, units))
        for units in grammatical_chains(m, language)
    ]
    words = near_surfaces(surfaces + [w.upper() for w in surfaces[:20]])
    assert len(words) > 500
    assert_segment_matches_scan(m, language, words)


def test_segment_matches_root_scan_on_synth_samples():
    text = synth_network(300, 60, 5, samples=40)
    m = load_network(text).morphology
    for direction, sentence in parse_samples(text):
        language = direction.split("-")[0]
        assert_segment_matches_scan(m, language, near_surfaces(sentence.split()))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_segment_matches_root_scan_on_random_words(net, data):
    m = net.morphology
    pieces = {"-"} | {ch for table in m.roots.values() for root in table for ch in root}
    pieces |= {affix for table in m.affixes.values() for affix in table}
    language = data.draw(st.sampled_from(["ko", "en"]))
    word = data.draw(st.lists(st.sampled_from(sorted(pieces)), max_size=8).map("".join))
    assert m.segment(language, word) == segment_by_scan(m, language, word)


def _extend_calls(m, language, word):
    calls = 0
    extend = m._extend

    def counting(*args):
        nonlocal calls
        calls += 1
        return extend(*args)

    m._extend = counting
    try:
        result = m.segment(language, word)
    finally:
        del m._extend
    return calls, result


@pytest.mark.parametrize("language", ["ko", "en"])
def test_segment_cost_does_not_grow_with_the_lexicon(language):
    small = synth_network(1000, 200, 3, samples=10)
    # the first lexical word of a sample; every word of the small network's
    # lexicon is also in the large one
    word = next(
        sentence.split()[1]
        for direction, sentence in parse_samples(small)
        if direction.startswith(language)
    )
    counts = [
        _extend_calls(load_network(text).morphology, language, word)
        for text in (small, synth_network(4000, 800, 3, samples=10))
    ]
    assert counts[0][1] and counts[0] == counts[1]
