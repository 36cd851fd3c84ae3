import copy
import dataclasses
import functools
import random
import re
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from markermt.markers import DirectionPlan
from markermt.network import (
    EN,
    KO,
    AffixDecl,
    ConceptNode,
    ConceptSequence,
    Diagnostic,
    ElementType,
    LexicalItem,
    MemoryNetwork,
    MorphRuleDecl,
    NetworkError,
    NetworkSyntaxError,
    SequenceElement,
    load_network,
    lookup_lexical,
    serialize_network,
    validate_network,
)
from markermt.synth import parse_samples, synth_network
from markermt.translator import NO_PARSE, SUCCESS, TOO_AMBIGUOUS, UNKNOWN_WORD, translate

from conftest import TRAVEL_CORPUS, TRAVEL_NET
from helpers import plain


def test_fixture_loads_fully_indexed(net):
    assert "ask-way" in net.concepts
    assert net.concepts["ask-way"].sentence_type == "question"
    assert net.sequences["kcs1"].paired == "ecs1"
    assert net.sequences["kcs1"].elements[0].etype == "OF"
    assert net.sequences["kcs1"].elements[2].literal == "kanun"
    assert net.morpheme_index["ko"][("pha-il", "tul", "ul")] == ("files-ko",)


def test_fixture_validates_clean(net):
    assert validate_network(net) == []


def test_lookup_exact_match(net):
    assert lookup_lexical(net, "ko", ("pha-il",)) == ("file-ko",)
    assert lookup_lexical(net, "en", ("way",)) == ("way-en",)
    assert lookup_lexical(net, "en", ("zzz",)) == ()
    # exact tuples only: prefix of a longer item does not match it
    assert lookup_lexical(net, "ko", ("pha-il", "tul")) == ()


def test_lookup_iff_item_exists(net):
    for item in net.lexicon.values():
        found = lookup_lexical(net, item.language, item.morphemes)
        assert item.id in found


def test_serialize_round_trip(net):
    for network in (net, load_network(synth_network(1000, 200, 1))):
        text = serialize_network(network)
        reloaded = load_network(text)
        assert reloaded.concepts == network.concepts
        assert reloaded.lexicon == network.lexicon
        assert reloaded.sequences == network.sequences
        assert reloaded.affixes == network.affixes
        assert reloaded.morph_rules == network.morph_rules
        assert serialize_network(reloaded) == text


def _token(el):
    return el.label() + (f"={el.default_item}" if el.default_item else "")


def test_identical_element_tokens_share_one_record():
    net = load_network(synth_network(1000, 200, 1))
    elements = [el for cs in net.sequences.values() for el in cs.elements]
    first = {}
    for el in elements:
        assert first.setdefault(_token(el), el) is el
    assert len(first) < len(elements)  # some token does repeat


@pytest.mark.parametrize("which", ["travel", "synth"])
def test_each_declared_name_is_one_string(travel_text, which):
    # every reference to a name declared on an earlier line is that
    # declaration's id string; an element is read at its token's first line
    text = travel_text if which == "travel" else synth_network(1000, 200, 3)
    net = load_network(text)
    tables = {"concept": net.concepts, "lex": net.lexicon, "cs": net.sequences}
    declared = {head: set() for head in tables}
    first_use: set[str] = set()
    shared = 0
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens or tokens[0] not in tables:
            continue
        head, name = tokens[0], tokens[1]
        record = tables[head][name]
        if head == "concept":
            refs = [("concept", parent) for parent in record.parents]
        elif head == "lex":
            refs = [("concept", record.concept)]
        else:
            refs = [("concept", record.owner), ("cs", record.paired)]
            for token, el in zip(tokens[8:], record.elements):
                if token not in first_use:
                    first_use.add(token)
                    refs += [("concept", el.concept), ("lex", el.default_item)]
        for kind, ref in refs:
            if ref in declared[kind]:
                assert ref is tables[kind][ref].id, (line, ref)
                shared += 1
        declared[head].add(name)
    assert shared > len(net.lexicon)
    languages = [r.language for table in (net.lexicon, net.sequences) for r in table.values()]
    languages += [r.language for r in net.affixes + net.morph_rules]
    assert all(language is KO or language is EN for language in languages)


def test_declaration_records_are_immutable(net):
    cs = next(iter(net.sequences.values()))
    records = [
        next(iter(net.concepts.values())),
        next(iter(net.lexicon.values())),
        cs,
        cs.elements[0],
    ]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_keyword_built_network_equals_loaded_one():
    text = (
        "concept thing\nconcept a isa thing\nconcept top sentence-type statement\n"
        "lex k-a ko wa isa a\nlex e-a en va isa a\n"
        "cs s ko of top pair t : thing(CX)\n"
        'cs t en of top pair s : "the"(CX) thing(CX)=e-a\n'
    )
    net = MemoryNetwork()
    net.concepts["thing"] = ConceptNode(id="thing")
    net.concepts["a"] = ConceptNode(id="a", parents=("thing",))
    net.concepts["top"] = ConceptNode(id="top", sentence_type="statement")
    net.lexicon["k-a"] = LexicalItem(id="k-a", language="ko", morphemes=("wa",), concept="a")
    net.lexicon["e-a"] = LexicalItem(id="e-a", language="en", morphemes=("va",), concept="a")
    net.sequences["s"] = ConceptSequence(
        id="s",
        language="ko",
        owner="top",
        elements=(SequenceElement(etype="CX", concept="thing"),),
        paired="t",
    )
    net.sequences["t"] = ConceptSequence(
        id="t",
        language="en",
        owner="top",
        elements=(
            SequenceElement(etype="CX", literal="the"),
            SequenceElement(etype="CX", concept="thing", default_item="e-a"),
        ),
        paired="s",
    )
    net.build_indexes()
    loaded = load_network(text)
    assert (net.concepts, net.lexicon, net.sequences) == (
        loaded.concepts,
        loaded.lexicon,
        loaded.sequences,
    )
    # the loaded network shares one string per name: no derived table may
    # depend on which string objects the records hold
    tables = ["morpheme_index", "items_of", "ancestors", "items_below", "sequences_below"]
    tables += ["layouts", "literals", "sequence_order", "counterparts", "plans"]
    for name in tables:
        assert plain(getattr(net, name)) == plain(getattr(loaded, name)), name
    assert plain(vars(net.morphology)) == plain(vars(loaded.morphology))
    assert validate_network(net) == []
    result = translate(net, "wa", "ko-en")
    assert result.ok and result.target_sentence == "The va."


def test_empty_file_rejected():
    with pytest.raises(NetworkError, match="no concepts"):
        load_network("")


def test_self_pairing_rejected():
    text = "concept a\nlex l ko w isa a\ncs s ko of a pair s : a(CX)\n"
    with pytest.raises(NetworkError, match="pairing must cross languages"):
        load_network(text)


def test_same_language_pairing_rejected():
    text = (
        "concept a\nlex l ko w isa a\n"
        "cs s1 ko of a pair s2 : a(CX)\n"
        "cs s2 ko of a pair s1 : a(CX)\n"
    )
    with pytest.raises(NetworkError, match="cross languages"):
        load_network(text)


def test_duplicate_id_rejected():
    with pytest.raises(NetworkError, match="duplicate concept id 'a'"):
        load_network("concept a\nconcept a\n")


def test_dangling_reference_rejected():
    with pytest.raises(NetworkError, match="dangling concept reference 'ghost'"):
        load_network("concept a\nlex l ko w isa ghost\n")


def test_syntax_error_reports_line():
    with pytest.raises(NetworkError, match="line 2"):
        load_network("concept a\nfrobnicate b\n")


def test_bad_element_rejected():
    with pytest.raises(NetworkError, match="bad element"):
        load_network("concept a\ncs s ko of a pair s : a(ZZ)\n")


def test_undeclared_affix_in_item_rejected():
    text = "concept a\nlex l ko w+qq isa a\n"
    with pytest.raises(NetworkError, match="undeclared affix 'qq'"):
        load_network(text)


def test_item_whose_affixes_break_adjacency_rejected(travel_text):
    # validated clean and crashed in translate when edit-en was generated
    text = travel_text.replace("lex edit-en en edit+ed isa edit", "lex edit-en en edit+ed+s isa edit")
    with pytest.raises(NetworkError) as err:
        load_network(text)
    assert str(err.value) == "lexical item 'edit-en': affix 's' (suffix) cannot follow suffix"


def test_undeclared_affix_reported_before_an_earlier_adjacency_break():
    text = (
        "concept a\naffix ko tul role plural\naffix ko ul role case-marker after plural\n"
        "lex l1 ko w+ul isa a\nlex l2 ko v+qq isa a\n"
    )
    with pytest.raises(NetworkError) as err:
        load_network(text)
    assert str(err.value) == "lexical item 'l2' uses undeclared affix 'qq'"


def test_default_item_language_must_match_sequence():
    text = (
        "concept a\nlex ka ko wa isa a\nlex ea en va isa a\n"
        "cs s1 ko of a pair s2 : a(OX)=ea a(CX)\n"
        "cs s2 en of a pair s1 : a(CX)\n"
    )
    with pytest.raises(NetworkError, match="must be a ko item"):
        load_network(text)


def test_duplicate_affix_rejected():
    text = "concept a\naffix ko ul role case-marker\naffix ko ul role suffix\n"
    with pytest.raises(NetworkError) as err:
        load_network(text)
    assert str(err.value) == "duplicate affix 'ul' for ko (line 3)"


def test_duplicate_morphrule_rejected():
    text = "concept a\nmorphrule ko C+ul -> lul\nmorphrule ko C+ul -> ul\n"
    with pytest.raises(NetworkError) as err:
        load_network(text)
    assert str(err.value) == "duplicate morphrule 'C+ul' for ko (line 3)"


def test_many_affixes_and_morphrules_load_in_linear_time():
    # a duplicate check that scans the earlier declarations takes tens of
    # seconds here
    n = 20_000
    lines = ["concept a"]
    lines += [f"affix ko x{i} role suffix" for i in range(n)]
    lines += [f"morphrule ko c{i}+x{i} -> y{i}" for i in range(n)]
    started = time.perf_counter()
    net = load_network("\n".join(lines))
    elapsed = time.perf_counter() - started
    assert (len(net.affixes), len(net.morph_rules)) == (n, n)
    assert elapsed < 3.0, f"load took {elapsed:.2f}s"


def test_long_groups_load_in_linear_time():
    # groups grown one id at a time as tuples take tens of seconds here:
    # n homonyms of one concept, and n roots under one stable prefix (the
    # 6-letter rule class cuts every root of up to 6 letters to "")
    n = 20_000
    lines = ["concept a", "concept top", "affix ko ul role case-marker"]
    lines += ["morphrule ko abcdef+ul -> x", "lex e en v isa a"]
    lines += [f"lex k{i} ko w isa a" for i in range(n)]
    lines += [f"lex r{i} ko w{i} isa a" for i in range(n)]
    lines += ["cs s ko of top pair t : a(CX)", "cs t en of top pair s : a(CX)"]
    started = time.perf_counter()
    net = load_network("\n".join(lines))
    elapsed = time.perf_counter() - started
    assert len(net.morpheme_index["ko"][("w",)]) == n
    assert len(net.items_of[("ko", "a")]) == len(net.items_below[("ko", "a")]) == 2 * n
    assert len(net.morphology._roots_by_stable["ko"][""]) == n + 1
    assert elapsed < 3.0, f"load took {elapsed:.2f}s"


def test_all_omissible_sequence_rejected_at_load():
    text = (
        "concept a\nlex l ko w isa a\nlex e en v isa a\n"
        "cs s1 ko of a pair s2 : a(OF)\n"
        "cs s2 en of a pair s1 : a(CX)\n"
    )
    with pytest.raises(NetworkError, match="every element is omissible"):
        load_network(text)


# each malformed line: the loader's message, and the line and column of a
# syntax error ("concept a" first, so only the line under test is at fault)
LOAD_ERRORS = [
    ("   frob b", "line 2, column 4: unknown declaration 'frob'", 4),
    ("\tfrob b", "line 2, column 2: unknown declaration 'frob'", 2),
    ("concept", "line 2: truncated declaration", None),
    ("concept b isa", "line 2: truncated declaration", None),
    ("lex l ko w isa", "line 2: truncated declaration", None),
    ("cs s ko of a pair t", "line 2: truncated declaration", None),
    ("affix ko ul role", "line 2: truncated declaration", None),
    ("morphrule ko a+ul ->", "line 2: truncated declaration", None),
    ("lex l ko w iza a", "line 2: expected 'isa' in lex declaration", None),
    ("cs s ko of a pair t : a(ZZ)", "line 2: bad element 'a(ZZ)'", None),
    # '#' starts a comment even inside a literal
    ('cs s ko of a pair t : "a#b"(CX)', "line 2: bad element '\"a'", None),
    ("concept b junk", "line 2: unexpected token 'junk'", None),
    # a clause given twice is rejected, not overwritten by the second
    ("concept b isa a isa a", "line 2: unexpected token 'isa'", None),
    ("concept b sentence-type question sentence-type statement", "line 2: unexpected token 'sentence-type'", None),
    ("lex l ko w isa a junk", "line 2: unexpected token 'junk'", None),
    ("affix ko ul role case-marker junk", "line 2: unexpected token 'junk'", None),
    ("affix ko ul role case-marker after root junk", "line 2: unexpected token 'junk'", None),
    ("morphrule ko a+ul -> b junk", "line 2: unexpected token 'junk'", None),
    ("affix ko ul rule case-marker", "line 2: expected 'role' in affix declaration", None),
    ("morphrule ko aul -> lul", "line 2: expected 'morphrule <lang> <class>+<affix> -> <surface>'", None),
    ("cs s ko off a pair t : a(CX)", "line 2: expected 'cs <id> <lang> of <cn> pair <cs> : ...'", None),
    ("cs s ko of a pair t ; a(CX)", "line 2: expected ':' before element list", None),
    ("cs s ko of a pair t :", "line 2: sequence with no elements", None),
]


@pytest.mark.parametrize("line, message, column", LOAD_ERRORS)
def test_loader_error_is_pinned(line, message, column):
    with pytest.raises(NetworkSyntaxError) as err:
        load_network(f"concept a\n{line}\n")
    assert (str(err.value), err.value.line, err.value.column) == (message, 2, column)


@pytest.mark.parametrize(
    "text, message",
    [
        ("concept a\nlex l ko w isa ghost\n", "dangling concept reference 'ghost' (line 2)"),
        ("concept a\ncs s ko of a pair t : a(CX)=ghost\n", "dangling lexical reference 'ghost' (line 2)"),
        ("concept a\ncs s ko of a pair ghost : a(CX)\n", "dangling sequence reference 'ghost' (line 2)"),
        ("concept a isa b\n", "dangling concept reference 'b' (line 1)"),
        ("concept a\nlex l ko w isa a\nlex l ko v isa a\n", "duplicate lexical id 'l' (line 3)"),
        ("concept a\ncs s ko of a pair t : a(CX)\ncs s en of a pair t : a(CX)\n", "duplicate sequence id 's' (line 3)"),
        ("# only a comment\n", "no concepts declared"),
        # rules the build checks, for a loaded declaration naming its line
        ("concept a\nlex l jp w isa a\n", "bad language 'jp' (line 2)"),
        ("concept a\ncs s jp of a pair t : a(CX)\n", "bad language 'jp' (line 2)"),
        ("concept a\naffix jp ul role case-marker\n", "bad language 'jp' (line 2)"),
        ("concept a\nmorphrule jp a+ul -> lul\n", "bad language 'jp' (line 2)"),
        ("concept a\nlex l ko w++x isa a\n", "empty morpheme (line 2)"),
        ("concept a\nconcept b sentence-type maybe\n", "bad sentence-type 'maybe' (line 2)"),
        ("concept a\naffix ko ul role nonsense\n", "bad role 'nonsense' (line 2)"),
        ("concept a\naffix ko ul role case-marker after x\n", "bad role 'x' (line 2)"),
    ],
)
def test_loader_reference_error_is_pinned(text, message):
    with pytest.raises(NetworkError) as err:
        load_network(text)
    assert str(err.value) == message and not isinstance(err.value, NetworkSyntaxError)


ACCEPTED = (
    "concept thing\nconcept a isa thing\nconcept top sentence-type statement\n"
    "lex k-a ko wa isa a\nlex e-a en va isa a\n"
    "affix ko ul role case-marker after root\nmorphrule ko a+ul -> lul\n"
    "cs s ko of top pair t : thing(CX)\n"
    'cs t en of top pair s : "the"(CX) thing(CX)=e-a\n'
)


@pytest.mark.parametrize(
    "form",
    [
        lambda text: text.replace("\n", '  # a note, with "a#b"(CX) in it\n'),
        lambda text: text.replace(" ", "\t"),
        lambda text: text.replace("\n", "\n\n \t\n"),
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace(" ", "\t").replace("\n", "  # note\r\n"),
    ],
    ids=["comments", "tabs", "blank-lines", "crlf", "all"],
)
def test_accepted_forms_load_the_same_network(form):
    expected = serialize_network(load_network(ACCEPTED))
    assert serialize_network(load_network(form(ACCEPTED))) == expected


# -- validator mutation tests: each broken invariant yields a diagnostic ----


def _codes(diags):
    return {d.code for d in diags}


def _handbuilt(*records, build=True):
    """A network of ``records`` built in code: ``build_indexes`` checks
    their declarations, with no line to name, unless ``build`` is false.
    A record with the id of an earlier one takes its place."""
    net = MemoryNetwork()
    tables = {ConceptNode: net.concepts, LexicalItem: net.lexicon, ConceptSequence: net.sequences}
    for record in records:
        if isinstance(record, (AffixDecl, MorphRuleDecl)):
            (net.affixes if isinstance(record, AffixDecl) else net.morph_rules).append(record)
        else:
            tables[type(record)][record.id] = record
    if build:
        net.build_indexes()
    return net


A_CX = SequenceElement(etype="CX", concept="a")


def _a_pair(ko_paired="t", en_paired="s", en_language=EN, parents=(), owner="top",
            item_concept="a", en_elements=(A_CX,), extra=(), build=True):
    """Concept ``a`` (with ``parents``) and its items, the ko one isa
    ``item_concept``, and a ko sequence ``a(CX)`` and an en sequence
    ``en_elements`` of ``owner``, paired as given; ``extra`` records too.
    ``build`` as for :func:`_handbuilt`."""
    return _handbuilt(
        ConceptNode(id="a", parents=parents),
        ConceptNode(id="top"),
        LexicalItem(id="ka", language=KO, morphemes=("wa",), concept=item_concept),
        LexicalItem(id="ea", language=EN, morphemes=("va",), concept="a"),
        ConceptSequence(id="s", language=KO, owner=owner, elements=(A_CX,), paired=ko_paired),
        ConceptSequence(id="t", language=en_language, owner=owner, elements=en_elements, paired=en_paired),
        *extra,
        build=build,
    )


def _isa_self_loop(travel):
    return load_network(travel + "\nconcept zz isa zz\n")


def _isa_two_cycle(travel):
    return load_network(travel + "\nconcept z1 isa z2\nconcept z2 isa z1\n")


def _asymmetric_pairing(travel):
    return load_network(travel.replace("cs kcs-loc ko of kennedy-park pair ecs-loc",
                                       "cs kcs-loc ko of kennedy-park pair ecs1"))


def _english_free_element(travel):
    return load_network(travel.replace('"you"(CX) edit(CX) "the"(CX) files(CX)',
                                       '"you"(CX) edit(CX) "the"(CX) files(OF)'))


def _unreachable_filler(travel):
    return load_network(travel + (
        "\nconcept ghost\nconcept ghostx\n"
        "cs kcs9 ko of ghost pair ecs9 : ghostx(CX)\n"
        "cs ecs9 en of ghost pair kcs9 : ghostx(CX)\n"
    ))


# target requires concept b but the source side can never supply it
UNGENERATABLE = (
    "concept a\nconcept b\n"
    "lex ka ko wa isa a\nlex ea en va isa a\n"
    "lex kb ko wb isa b\nlex eb en vb isa b\n"
    "concept top\n"
    "cs s1 ko of top pair s2 : a(CX)\n"
    "cs s2 en of top pair s1 : a(CX) b(CX)\n"
)

OMISSIBLE_CYCLE = (
    "concept a\nlex ka ko wa isa a\nlex ea en va isa a\n"
    "concept n1\nconcept n2\n"
    "cs c1 ko of n1 pair m1 : a(CX) n2(OF)\n"
    "cs m1 en of n1 pair c1 : a(CX)\n"
    "cs c2 ko of n2 pair m2 : a(CX) n1(OF)\n"
    "cs m2 en of n2 pair c2 : a(CX)\n"
)


def test_isa_self_loop_diagnosed(travel_text):
    assert "isa-cycle" in _codes(validate_network(_isa_self_loop(travel_text)))


def test_isa_two_cycle_diagnosed(travel_text):
    assert "isa-cycle" in _codes(validate_network(_isa_two_cycle(travel_text)))


def test_asymmetric_pairing_diagnosed(travel_text):
    assert "asymmetric-pairing" in _codes(validate_network(_asymmetric_pairing(travel_text)))


def test_english_free_element_diagnosed(travel_text):
    diags = validate_network(_english_free_element(travel_text))
    assert "english-cse-type" in _codes(diags)
    assert any("must be CX" in d.message for d in diags)


def test_unreachable_filler_diagnosed(travel_text):
    assert "unreachable-filler" in _codes(validate_network(_unreachable_filler(travel_text)))


def test_ungeneratable_target_diagnosed():
    assert "ungeneratable-element" in _codes(validate_network(load_network(UNGENERATABLE)))


def test_ungeneratable_target_translates_to_a_generation_note():
    result = translate(load_network(UNGENERATABLE), "wa", "ko-en")
    assert result.status == NO_PARSE
    assert result.trace[-1].line() == "note - generation required element s2#1 (b) has no source fill tok=0"


def test_omissible_reference_cycle_diagnosed():
    assert "omissible-cycle" in _codes(validate_network(load_network(OMISSIBLE_CYCLE)))


DEEP = 3000


def _deep_isa_chain(closed):
    # declared child-first, so one walk from c0 descends the whole chain
    lines = [f"concept c{i} isa c{i + 1}" for i in range(DEEP)]
    lines.append(f"concept c{DEEP}" + (" isa c0" if closed else ""))
    return "\n".join(lines)


@pytest.mark.parametrize("closed", [False, True])
def test_deep_isa_chain_validates(closed):
    cycle = " -> ".join(f"c{i}" for i in [*range(DEEP + 1), 0])
    expected = [Diagnostic("isa-cycle", f"IS-A cycle: {cycle}")] if closed else []
    assert validate_network(load_network(_deep_isa_chain(closed))) == expected


def _deep_omissible_reference_chain(closed):
    lines = ["concept a", "lex ka ko wa isa a", "lex ea en va isa a"]
    for i in range(DEEP + 1):
        nxt = f" n{i + 1}(OX)" if i < DEEP else (" n0(OX)" if closed else "")
        lines += [
            f"concept n{i}",
            f"cs c{i} ko of n{i} pair m{i} : a(CX){nxt}",
            f"cs m{i} en of n{i} pair c{i} : a(CX)",
        ]
    return "\n".join(lines)


@pytest.mark.parametrize("closed", [False, True])
def test_deep_omissible_reference_chain_validates(closed):
    cycle = Diagnostic("omissible-cycle", "all-omissible sequence reference cycle through 'c0'")
    expected = [cycle] if closed else []
    assert validate_network(load_network(_deep_omissible_reference_chain(closed))) == expected


def _supply_net(source: str, target: str):
    return load_network(
        "concept a\nconcept top\n"
        "lex ka ko wa isa a\nlex ea en va isa a\n"
        f"cs s1 ko of top pair s2 : {source}\n"
        f"cs s2 en of top pair s1 : {target}\n"
    )


def test_target_element_without_its_own_counterpart_diagnosed():
    # one source a cannot supply two target a's, though both lie below it
    diags = validate_network(_supply_net("a(CX)", "a(CX) a(CX)"))
    assert [d.code for d in diags] == ["ungeneratable-element"]
    assert "'s2' element 1 (a) has no source counterpart in 's1'" in diags[0].message


def test_target_element_supplied_only_by_an_omissible_counterpart_diagnosed():
    diags = validate_network(_supply_net('"x"(CX) a(OX)', '"y"(CX) a(CX)'))
    assert [d.code for d in diags] == ["ungeneratable-element"]
    assert "only the omissible counterpart 's1' element 1" in diags[0].message
    # a default item closes the gap
    assert validate_network(_supply_net('"x"(CX) a(OX)', '"y"(CX) a(CX)=ea')) == []


def _dead_morphrules(travel):
    # zq is no affix, tul is a ko affix only, and zr is declared as a root
    return load_network(
        travel
        + "morphrule ko p+zq -> x\nmorphrule en y+tul -> x\n"
        + "affix ko zr role root\nmorphrule ko p+zr -> x\n"
    )


def test_morphrule_of_no_declared_affix_diagnosed(travel_text):
    net = _dead_morphrules(travel_text)
    dead = [("p+zq", "ko", "zq"), ("y+tul", "en", "tul"), ("p+zr", "ko", "zr")]
    assert validate_network(net) == [
        Diagnostic(
            "dead-morphrule",
            f"morphrule '{rule}' ({lang}) never applies: '{affix}' is not a declared {lang} affix",
        )
        for rule, lang, affix in dead
    ]
    assert net.morphology.segment("ko", "kox") == ()


def _dead_affixes(travel):
    # no ko affix has role suffix, so zz can follow nothing a word carries;
    # zy and zx follow only each other's roles, which no root reaches
    return load_network(
        travel
        + "affix ko zz role tense after suffix\n"
        + "affix en zy role tense after case-marker\naffix en zx role case-marker after tense\n"
    )


def test_affix_no_word_can_carry_diagnosed(travel_text):
    net = _dead_affixes(travel_text)
    dead = [("zz", "ko", "tense"), ("zy", "en", "tense"), ("zx", "en", "case-marker")]
    assert validate_network(net) == [
        Diagnostic(
            "dead-affix",
            f"affix '{affix}' ({lang}, {role}) is never attached: no word reaches a role that {role} may follow",
        )
        for affix, lang, role in dead
    ]
    assert net.morphology.segment("ko", "kil-zz") == ()
    assert validate_network(load_network(travel_text + "affix ko zz role tense after plural\n")) == []


# a lexical fill of a is realized by an en item of a; the en sequence a
# owns does not supply one, so translating "wa" could only end no-parse
ONLY_A_TARGET_SEQUENCE = (
    "concept a\nconcept top\n"
    "lex wa ko wa isa a\n"
    'cs pa ko of a pair qa : "x"(CX)\n'
    'cs qa en of a pair pa : "y"(CX)\n'
    "cs s ko of top pair t : a(CX)\n"
    "cs t en of top pair s : a(CX)\n"
)


def test_concept_with_only_a_target_sequence_is_unpaired():
    assert validate_network(load_network(ONLY_A_TARGET_SEQUENCE)) == [
        Diagnostic("unpaired-concept", "concept 'a' has ko item 'wa' but no en realization")
    ]


# each declaration that building a network rejects, wherever it was made:
# the message names the declaration where a loaded one's names the line
# (test_loaded_declaration_is_rejected_at_its_own_line).  The
# first eight were validate diagnostics of a network built in code; only the
# loader checked the next four, so a Korean default item of an English
# sequence, or an element of type ZZ (read as CX), validated clean.  The
# loader alone checked the last nine values too: a record in jp or an item
# with no morpheme crashed the build, and a sentence type 'maybe', an empty
# morpheme or an affix role outside ROLES built and translated wrongly.  A
# second affix or morphrule of one key built too, keeping the last role with
# both after lists, or the last rule
REJECTED_DECLARATIONS = [
    pytest.param(dict(owner="ghost"), "dangling concept reference 'ghost' (sequence 's')",
                 id="undeclared owner"),
    pytest.param(dict(en_elements=(A_CX, SequenceElement(etype="CX", concept="b", default_item="nope")),
                      extra=(ConceptNode(id="b"),)),
                 "dangling lexical reference 'nope' (sequence 't')", id="undeclared default item"),
    pytest.param(dict(en_elements=(A_CX, SequenceElement(etype="CX", concept="ghost"))),
                 "dangling concept reference 'ghost' (sequence 't')", id="undeclared element concept"),
    pytest.param(dict(item_concept="ghost"), "dangling concept reference 'ghost' (lexical item 'ka')",
                 id="undeclared item concept"),
    pytest.param(dict(parents=("ghost",)), "dangling concept reference 'ghost' (concept 'a')",
                 id="dangling parent"),
    pytest.param(dict(ko_paired="nowhere"), "dangling sequence reference 'nowhere' (sequence 's')",
                 id="dangling pair"),
    pytest.param(dict(en_language=KO), "pairing must cross languages: 's' is paired with 't'",
                 id="pairing within a language"),
    pytest.param(dict(extra=(ConceptSequence("s", KO, "top", (SequenceElement("OF", "a"),), "t"),)),
                 "sequence 's' accepts the empty string: every element is omissible",
                 id="every element omissible"),
    pytest.param(dict(en_elements=(SequenceElement(etype="CX", concept="a", default_item="ka"),)),
                 "default item 'ka' of 't' must be a en item", id="default item of the other language"),
    pytest.param(dict(en_elements=(SequenceElement("ZZ", "a"),)),
                 "bad element SequenceElement(etype='ZZ', concept='a', literal=None, default_item=None)"
                 " in sequence 't'", id="element type ZZ"),
    pytest.param(dict(en_elements=(A_CX, SequenceElement("CX"))),
                 "bad element SequenceElement(etype='CX', concept=None, literal=None, default_item=None)"
                 " in sequence 't'", id="element with neither concept nor literal"),
    pytest.param(dict(en_elements=(SequenceElement("CX", "a", "x"),)),
                 "bad element SequenceElement(etype='CX', concept='a', literal='x', default_item=None)"
                 " in sequence 't'", id="element with both concept and literal"),
    pytest.param(dict(extra=(LexicalItem("ka", "jp", ("wa",), "a"),)),
                 "bad language 'jp' (lexical item 'ka')", id="item language jp"),
    pytest.param(dict(en_language="jp"), "bad language 'jp' (sequence 't')", id="sequence language jp"),
    pytest.param(dict(extra=(AffixDecl("jp", "ul", "case-marker"),)),
                 "bad language 'jp' (affix 'ul')", id="affix language jp"),
    pytest.param(dict(extra=(MorphRuleDecl("jp", "p", "ul", "lul"),)),
                 "bad language 'jp' (morphrule 'p+ul')", id="morphrule language jp"),
    pytest.param(dict(extra=(ConceptNode("top", sentence_type="maybe"),)),
                 "bad sentence-type 'maybe' (concept 'top')", id="sentence type maybe"),
    pytest.param(dict(extra=(LexicalItem("ka", KO, (), "a"),)),
                 "empty morpheme (lexical item 'ka')", id="item with no morpheme"),
    pytest.param(dict(extra=(LexicalItem("ka", KO, ("",), "a"),)),
                 "empty morpheme (lexical item 'ka')", id="item with an empty morpheme"),
    pytest.param(dict(extra=(AffixDecl(KO, "ul", "object"),)),
                 "bad role 'object' (affix 'ul')", id="affix role outside ROLES"),
    pytest.param(dict(extra=(AffixDecl(KO, "ul", "case-marker", ("root", "object")),)),
                 "bad role 'object' (affix 'ul')", id="after role outside ROLES"),
    pytest.param(dict(extra=(AffixDecl(KO, "ul", "case-marker"), AffixDecl(KO, "ul", "plural", ("root", "plural")))),
                 "duplicate affix 'ul' for ko", id="affix declared twice"),
    pytest.param(dict(extra=(AffixDecl(KO, "ul", "case-marker"), MorphRuleDecl(KO, "p", "ul", "lul"),
                             MorphRuleDecl(KO, "p", "ul", "pul"))),
                 "duplicate morphrule 'p+ul' for ko", id="morphrule declared twice"),
]


@pytest.mark.parametrize("changes, message", REJECTED_DECLARATIONS)
def test_build_rejects_declaration(changes, message):
    assert validate_network(_a_pair()) == []
    with pytest.raises(NetworkError) as err:
        _a_pair(**changes)
    assert str(err.value) == message


# the REJECTED_DECLARATIONS cases that a network file can express, each
# with the start of the line at fault (the last line that starts so)
AT_FAULT = {
    "undeclared owner": "cs s ",
    "undeclared default item": "cs t ",
    "undeclared element concept": "cs t ",
    "undeclared item concept": "lex ka ",
    "dangling parent": "concept a ",
    "dangling pair": "cs s ",
    "pairing within a language": "cs s ",
    "every element omissible": "cs s ",
    "default item of the other language": "cs t ",
    "item language jp": "lex ka ",
    "sequence language jp": "cs t ",
    "affix language jp": "affix jp ul ",
    "morphrule language jp": "morphrule jp p+ul ",
    "sentence type maybe": "concept top ",
    "affix role outside ROLES": "affix ko ul ",
    "after role outside ROLES": "affix ko ul ",
    "affix declared twice": "affix ko ul ",
    "morphrule declared twice": "morphrule ko p+ul ",
}
EXPRESSIBLE = [pytest.param(*case.values, AT_FAULT[case.id], id=case.id)
               for case in REJECTED_DECLARATIONS if case.id in AT_FAULT]


@pytest.mark.parametrize("changes, message, at_fault", EXPRESSIBLE)
def test_loaded_declaration_is_rejected_at_its_own_line(changes, message, at_fault):
    # one rule, one message: the file's names the line where the one built
    # in code names the declaration
    assert len(EXPRESSIBLE) == len(AT_FAULT)
    text = serialize_network(_a_pair(**changes, build=False))
    line = max(n for n, decl in enumerate(text.splitlines(), start=1) if decl.startswith(at_fault))
    rule = re.sub(r" \((concept|lexical item|sequence|affix|morphrule) '[^']*'\)$", "", message)
    with pytest.raises(NetworkError) as err:
        load_network(text)
    assert str(err.value) == f"{rule} (line {line})"


def test_each_rejection_names_its_own_line():
    text = "concept a\naffix ko ul role object\naffix ko ul role case-marker\n"
    cases = [
        (text, "bad role 'object' (line 2)"),
        (text.replace("role object", "role plural"), "duplicate affix 'ul' for ko (line 3)"),
        # of several faults, the first in declaration kind order: items
        # before affixes, whatever their lines
        (text + "lex l ko w isa ghost\n", "dangling concept reference 'ghost' (line 4)"),
    ]
    for source, message in cases:
        with pytest.raises(NetworkError) as err:
            load_network(source)
        assert str(err.value) == message


# -- validate's golden file -------------------------------------------------

GOLDEN_VALIDATE = Path(__file__).parent / "data" / "validate.golden"

VALIDATE_CODES = {
    "isa-cycle", "asymmetric-pairing", "english-cse-type", "unreachable-filler",
    "unpaired-concept", "ungeneratable-element", "omissible-cycle", "dead-affix",
    "dead-morphrule",
}

MUTATION_SEEDS = 300


def _validator_networks(travel):
    """Each invalid network of the validator tests above, by name."""
    return [
        ("isa self loop", _isa_self_loop(travel)),
        ("isa two-cycle", _isa_two_cycle(travel)),
        ("asymmetric pairing", _asymmetric_pairing(travel)),
        ("English free element", _english_free_element(travel)),
        ("unreachable filler", _unreachable_filler(travel)),
        ("ungeneratable target", load_network(UNGENERATABLE)),
        ("omissible reference cycle", load_network(OMISSIBLE_CYCLE)),
        ("deep IS-A chain, closed", load_network(_deep_isa_chain(True))),
        ("deep omissible reference chain, closed", load_network(_deep_omissible_reference_chain(True))),
        ("target a(CX) a(CX) from a(CX)", _supply_net("a(CX)", "a(CX) a(CX)")),
        ("target a(CX) from a(OX)", _supply_net('"x"(CX) a(OX)', '"y"(CX) a(CX)')),
        ("dead morphrules", _dead_morphrules(travel)),
        ("dead affixes", _dead_affixes(travel)),
        ("concept with only a target sequence", load_network(ONLY_A_TARGET_SEQUENCE)),
    ]


def _edit_for_validate(rng, lines):
    """One to three edits of ``lines`` aimed at validate, drawn from
    ``rng``: flip an element type, drop a ``lex`` line, retarget a ``pair``
    or add an IS-A edge.  Returns the lines and a note of each edit."""
    def pick(kind):
        return rng.choice([i for i, line in enumerate(lines) if line.startswith(kind + " ")])

    notes = []
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["flip", "drop", "retarget", "isa"])
        if op == "drop":
            i = pick("lex")
            notes.append(f"drop lex {lines[i].split()[1]}")
            del lines[i]
            continue
        i = pick("concept" if op == "isa" else "cs")
        tokens = lines[i].split()
        if op == "flip":
            k = rng.randrange(8, len(tokens))
            etype = rng.choice(ElementType.ALL)
            tokens[k] = re.sub(r"\((CX|CF|OX|OF)\)", f"({etype})", tokens[k])
            notes.append(f"{tokens[1]} element {k - 8} to {etype}")
        elif op == "retarget":
            tokens[6] = lines[pick("cs")].split()[1]
            notes.append(f"{tokens[1]} pairs {tokens[6]}")
        else:
            parent = lines[pick("concept")].split()[1]
            if "isa" in tokens:
                tokens[tokens.index("isa") + 1] += "," + parent
            else:
                tokens[2:2] = ["isa", parent]
            notes.append(f"{tokens[1]} isa {parent}")
        lines[i] = " ".join(tokens)
    return lines, notes


def _mutated_networks(travel):
    """The networks ``_edit_for_validate`` makes of travel.net (even seeds)
    and of ``synth_network(200, 40, s)`` (odd seeds) that load and draw a
    diagnostic, by name."""
    sources = {"travel.net": travel}
    for seed in range(MUTATION_SEEDS):
        rng = random.Random(seed)
        name = "travel.net" if seed % 2 == 0 else f"synth_network(200, 40, {seed % 3 + 1})"
        if name not in sources:
            sources[name] = synth_network(200, 40, seed % 3 + 1)
        lines, notes = _edit_for_validate(rng, sources[name].splitlines())
        try:
            net = load_network("\n".join(lines))
        except NetworkError:
            continue
        if validate_network(net):
            yield f"{name} seed {seed}: {'; '.join(notes)}", net


def _validate_golden_lines(travel):
    """Validate's diagnostics as ``validate.golden`` holds them, each case a
    ``# <case>`` line and then its ``code: message`` lines or ``network
    ok``: two clean networks, each invalid network of the tests above, and
    each seeded mutation that loads and draws a diagnostic."""
    clean = [
        ("travel.net", load_network(travel)),
        ("synth_network(1000, 200, 1)", load_network(synth_network(1000, 200, 1))),
    ]
    lines = []
    cases = clean + _validator_networks(travel) + list(_mutated_networks(travel))
    for name, network in cases:
        diags = validate_network(network)
        lines.append(f"# {name}")
        lines.extend(str(d) for d in diags)
        if not diags:
            lines.append("network ok")
    return lines


def test_readme_lists_each_validate_code_once():
    """The README's code table (the rows whose first cell is a code in
    backquotes) has one row per code validate reports, and no other."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \|", readme, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == VALIDATE_CODES


def test_validate_matches_golden_file(travel_text):
    got = _validate_golden_lines(travel_text)
    expected = GOLDEN_VALIDATE.read_text(encoding="utf-8").splitlines()
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"line {i}"
    assert len(got) == len(expected)
    assert sum(" seed " in line for line in got if line.startswith("# ")) >= 100
    assert {line.split(":")[0] for line in got if not line.startswith("# ")} == VALIDATE_CODES | {"network ok"}


# -- the frozen network ---------------------------------------------------


def _corpus_rows():
    lines = TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
    return [line.split("\t")[:2] for line in lines if line and not line.startswith("#")]


def _outcomes(net, rows):
    outcomes = []
    for direction, sentence in rows:
        r = translate(net, sentence, direction)
        trace = [event.line() for event in r.trace]
        outcomes.append((r.status, r.target_sentence, repr(r.concept_tree), trace))
    return outcomes


def _snapshot(net):
    """A deep copy of every attribute of ``net`` and of its morphology, the
    read-only tables as plain dicts."""
    return copy.deepcopy(plain(dict(vars(net), morphology=vars(net.morphology))))


def test_threads_share_one_network(travel_text):
    rows = _corpus_rows()
    serial = _outcomes(load_network(travel_text), rows)
    net = load_network(travel_text)
    results = [None] * 4

    def work(k):  # each thread starts at a different sentence
        results[k] = _outcomes(net, rows[k:] + rows[:k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, outcomes in enumerate(results):
        assert outcomes == serial[k:] + serial[:k]


def test_translation_writes_no_network_table(travel_text):
    synth = synth_network(1000, 200, 42)
    for text, rows in ((travel_text, _corpus_rows()), (synth, parse_samples(synth))):
        net = load_network(text)
        before = _snapshot(net)
        outcomes = _outcomes(net, rows)  # every result's trace read too
        assert any(status == "success" for status, *_ in outcomes)
        assert all(trace[0].startswith("predict ") for *_, trace in outcomes)
        assert _snapshot(net) == before


@pytest.mark.parametrize(
    "name", ["morpheme_index", "items_of", "ancestors", "items_below", "sequences_below", "literals", "plans"]
)
def test_network_tables_are_read_only(net, name):
    table = getattr(net, name)
    key = next(iter(table))
    with pytest.raises(TypeError):
        table[key] = table[key]
    values = list(table.values())
    if name == "morpheme_index":  # one read-only table per language
        assert set(table) == {KO, EN}
        for inner in table.values():
            key = next(iter(inner))
            with pytest.raises(TypeError):
                inner[key] = inner[key]
        values = [group for inner in table.values() for group in inner.values()]
    assert all(isinstance(value, (tuple, frozenset, DirectionPlan)) for value in values)


@pytest.mark.parametrize("name, kind", [("word_of", str), ("words", frozenset)])
def test_morphology_word_tables_are_read_only(net, name, kind):
    table = getattr(net.morphology, name)
    key = next(iter(table))
    with pytest.raises(TypeError):
        table[key] = table[key]
    with pytest.raises(TypeError):
        del table[key]
    assert all(isinstance(value, kind) for value in table.values())


@pytest.mark.parametrize("name", ["slots_by_literal", "starts_by_concept", "filler_bit", "left_corner"])
def test_plan_tables_are_read_only(travel_text, name):
    # a network of its own: a write that succeeds must not reach other tests
    for plan in load_network(travel_text).plans.values():
        table = getattr(plan, name)
        with pytest.raises(TypeError):
            table["new"] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, name, dict(table))


# -- mutated network files ------------------------------------------------

STATUSES = {SUCCESS, NO_PARSE, UNKNOWN_WORD, TOO_AMBIGUOUS}


@functools.lru_cache(maxsize=None)
def _mutation_source(seed):
    """Network text and its sentences: travel.net and its corpus for seed 0,
    else ``synth_network(200, 40, seed)`` and its samples."""
    if seed == 0:
        return TRAVEL_NET.read_text(encoding="utf-8"), tuple(map(tuple, _corpus_rows()))
    text = synth_network(200, 40, seed)
    return text, tuple(parse_samples(text))


def _mutate(data, lines):
    """Drop, duplicate, swap or edit lines, or edit one token of a line:
    drop it, double it, take one from another line or write junk."""
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        j = data.draw(st.integers(0, len(lines) - 1), label="other line")
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(" ")
            k = data.draw(st.integers(0, len(tokens) - 1), label="token")
            edit = data.draw(st.sampled_from(["drop", "double", "borrow", "junk"]))
            if edit == "drop":
                del tokens[k]
            elif edit == "double":
                tokens.insert(k, tokens[k])
            elif edit == "borrow":
                tokens[k] = data.draw(st.sampled_from(lines[j].split() or [""]))
            else:
                tokens[k] = data.draw(st.text(alphabet='ab#+,()"=:-CXOF \t', max_size=6))
            lines[i] = " ".join(tokens)
    return lines


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_network_files_load_validate_and_translate(data):
    text, rows = _mutation_source(data.draw(st.integers(0, 4), label="source"))
    mutated = "\n".join(_mutate(data, text.splitlines()))
    try:
        net = load_network(mutated)
    except NetworkError:
        event("load error")
        return
    if validate_network(net):
        event("diagnosed")
        return
    event("translated")

    def check(sentence, direction):
        # a validate-clean network has no generation gap: no trace ends in a note
        result = translate(net, sentence, direction)
        assert result.status in STATUSES
        assert all(e.event != "note" for e in result.trace), sentence

    start = data.draw(st.integers(0, max(0, len(rows) - 8)), label="first sentence")
    for direction, sentence in rows[start : start + 8]:
        check(sentence, direction)
    # token strings of the network's words and literals, and junk
    vocabulary = sorted({*net.morphology.word_of.values(), *net.literals[KO], *net.literals[EN]})
    junk = st.text(alphabet='abkw-+#"?.!,', min_size=1, max_size=6)
    token = st.one_of(st.sampled_from(vocabulary), junk) if vocabulary else junk
    for _ in range(data.draw(st.integers(1, 4), label="token strings")):
        direction = data.draw(st.sampled_from(["ko-en", "en-ko"]), label="direction")
        tokens = data.draw(st.lists(token, min_size=1, max_size=12), label="tokens")
        check(" ".join(tokens), direction)
