import re
from pathlib import Path

import pytest

import markermt.markers
import markermt.translator
from markermt.morphology import tokenize
from markermt.network import load_network, lookup_lexical, validate_network
from markermt.oracle import recognize_oracle
from markermt.translator import (
    parse_direction,
    reverse_direction,
    round_trip,
    translate,
    trees_isomorphic,
)

ENGLISH = "Would you tell me the way to Kennedy Park?"
KOREAN = "ce-eykey ken-ney-ti kong-wen kanun kil-ul allyecwu-si-keyssupnikka?"


def test_direction_parsing():
    assert parse_direction("en-ko") == ("en", "ko")
    assert reverse_direction("ko-en") == "en-ko"
    for bad in ("en", "en-en", "fr-ko", "enko"):
        with pytest.raises(ValueError):
            parse_direction(bad)


def test_forward_translation(net):
    result = translate(net, ENGLISH, "en-ko")
    assert result.ok
    assert result.target_sentence == KOREAN
    assert result.concept_tree.concept == "ask-way"
    assert {result.concept_tree.source_cs, result.concept_tree.target_cs} == {"ecs1", "kcs1"}


def test_reverse_translation(net):
    result = translate(net, KOREAN, "ko-en")
    assert result.ok
    assert result.target_sentence == ENGLISH


def test_round_trip_isomorphic(net):
    forward, back = round_trip(net, ENGLISH, "en-ko")
    assert back.ok
    assert back.target_sentence == ENGLISH
    assert trees_isomorphic(forward.concept_tree, back.concept_tree)


def test_round_trip_requires_forward_success(net):
    with pytest.raises(ValueError, match="forward translation failed"):
        round_trip(net, "xqz zzz", "en-ko")


def test_unknown_word_position(net):
    result = translate(net, "xqz zzz", "en-ko")
    assert result.status == "unknown-word"
    assert result.error_position == 1
    result = translate(net, "would xqz", "en-ko")
    assert result.error_position == 2


def test_no_parse(net):
    result = translate(net, "way the you would", "en-ko")
    assert result.status == "no-parse"
    assert result.target_sentence == ""
    assert result.concept_tree is None


def test_empty_sentence_is_no_parse(net):
    assert translate(net, "   ", "en-ko").status == "no-parse"


def test_statement_punctuation_and_capitalization(net):
    result = translate(net, "pha-il-tul-ul swu-ceng-ha-yess-supnita.", "ko-en")
    assert result.ok
    assert result.target_sentence == "You edited the files."


def test_question_restored_without_input_punctuation(net):
    result = translate(net, "Would you tell me the way to Kennedy Park", "en-ko")
    assert result.ok
    assert result.target_sentence.endswith("?")


def test_omitted_subject_restored_by_default(net):
    korean = "ken-ney-ti kong-wen kanun kil-ul allyecwu-si-keyssupnikka?"
    forward, back = round_trip(net, korean, "ko-en")
    assert forward.target_sentence == ENGLISH
    assert " me " in f" {forward.target_sentence} "
    # GP-only generation: a generate event with no activation of any me item
    defaults = [
        e for e in forward.trace
        if e.event == "generate" and e.binding is None and e.location == "cs:ecs1#3"
    ]
    assert defaults
    me_activations = [
        e for e in forward.trace if e.event == "activate" and "me-" in e.location
    ]
    assert not me_activations
    # the restored subject survives the way back and the trees still align
    assert trees_isomorphic(forward.concept_tree, back.concept_tree)


def test_free_order_variants_generate_identical_target(net):
    declared = "ce-eykey eti ken-ney-ti kong-wen issnunci allyecwu-si-keyssupnikka?"
    scrambled = "ce-eykey ken-ney-ti kong-wen eti issnunci allyecwu-si-keyssupnikka?"
    r1 = translate(net, declared, "ko-en")
    r2 = translate(net, scrambled, "ko-en")
    assert r1.ok and r2.ok
    assert r1.target_sentence == r2.target_sentence == "Would you tell me where the Kennedy Park is?"


def test_concept_tree_leaves_are_spans_or_defaults(net):
    result = translate(net, ENGLISH, "en-ko")

    def check(node):
        for fill in node.fills:
            if fill.kind == "sub":
                check(fill.child)
            elif fill.kind in ("lex", "lit"):
                assert fill.span is not None
            elif fill.kind == "default":
                assert fill.item is not None
    check(result.concept_tree)


def test_target_sentence_resegments(net):
    """Every generated word re-tokenizes and re-segments against the target
    side (surface well-formedness)."""
    cases = [(ENGLISH, "en-ko", "ko"), (KOREAN, "ko-en", "en")]
    for sentence, direction, target in cases:
        result = translate(net, sentence, direction)
        assert result.ok
        toks = tokenize(target, result.target_sentence)
        for word in toks.words:
            readings = net.morphology.segment(target, word)
            has_item = any(lookup_lexical(net, target, s.forms) for s in readings)
            is_literal = word in net.literals(target)
            assert has_item or is_literal, f"unparseable generated word {word!r}"


def test_trace_is_deterministic(net):
    t1 = translate(net, ENGLISH, "en-ko").trace
    t2 = translate(net, ENGLISH, "en-ko").trace
    assert [e.line() for e in t1] == [e.line() for e in t2]


@pytest.mark.parametrize(
    "sentence",
    [ENGLISH, "xqz zzz", "way the you would"],
    ids=["success", "unknown-word", "no-parse"],
)
def test_session_state_is_emptied(net, sentence):
    result = translate(net, sentence, "en-ko", keep_state=True)
    assert result.debug_state is not None
    assert result.debug_state.is_empty()


def test_no_direction_conditionals_outside_profiles():
    """Both directions run the same machinery; only the morphology profile
    table may dispatch on a concrete language tag."""
    for module in (markermt.translator, markermt.markers):
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert not re.search(r'["\'](ko|en)["\']', source), module.__name__


# Both omissible elements of the Korean sequence are omitted, so the one
# cat3 fill must go to the required last English element, not to se#3, the
# element that has a default (minimal form of a failing synth-8k sample).
GAP_NETWORK = """
concept cat1
concept cat2
concept cat3
concept top sentence-type statement
lex k1 ko ka-ka isa cat1
lex e1 en vaa isa cat1
lex k2 ko ko-ko isa cat2
lex e2 en voo isa cat2
lex k3 ko ki-ki isa cat3
lex e3 en vii isa cat3
cs sk ko of top pair se : "wx"(CX) cat1(CX) cat2(OF) cat3(OX) cat3(CX)
cs se en of top pair sk : "vx"(CX) cat1(CX) cat2(CX)=e2 cat3(CX)=e3 cat3(CX)
"""
GAP_INPUT = "wx ka-ka ki-ki"


def test_generation_gap_network_is_valid_and_accepts_the_input():
    net = load_network(GAP_NETWORK)
    assert validate_network(net) == []
    assert recognize_oracle(net, net.sequences["sk"], GAP_INPUT.split())


@pytest.mark.xfail(strict=True, reason="realization binds the cat3 fill to the defaulted element")
def test_generation_gap_with_omitted_elements_translates():
    result = translate(load_network(GAP_NETWORK), GAP_INPUT, "ko-en")
    assert result.status == "success", [e.line() for e in result.trace if e.event == "note"]
