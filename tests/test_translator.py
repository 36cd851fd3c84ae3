import argparse
import collections
import hashlib
import re
from pathlib import Path

import pytest

import markermt.cli
import markermt.markers
import markermt.translator
from markermt.morphology import MorphemeSequence, MorphUnit, tokenize
from markermt.network import load_network, lookup_lexical, validate_network
from markermt.oracle import recognize_oracle
from markermt.synth import parse_samples, synth_network
from markermt.translator import (
    TreeFill,
    TreeNode,
    parse_direction,
    reverse_direction,
    round_trip,
    translate,
    trees_isomorphic,
)

from conftest import TRAVEL_CORPUS, TRAVEL_NET
from helpers import closed_sessions, deep_chain, mini_net, multi_parent_probe, planned_markers, run_engine

ENGLISH = "Would you tell me the way to Kennedy Park?"
KOREAN = "ce-eykey ken-ney-ti kong-wen kanun kil-ul allyecwu-si-keyssupnikka?"


def test_direction_parsing():
    assert parse_direction("en-ko") == ("en", "ko")
    assert reverse_direction("ko-en") == "en-ko"
    for bad in ("en", "en-en", "fr-ko", "enko"):
        with pytest.raises(ValueError):
            parse_direction(bad)


def test_readings_are_taken_in_declaration_order():
    # both readings of "w" fill s's one element; the chart keeps the first,
    # so the output follows the declaration order, not the item ids
    net = load_network(
        "\n".join(
            [
                "concept x",
                "concept p isa x",
                "concept q isa x",
                "concept top sentence-type statement",
                "lex z-q ko w isa q",
                "lex a-p ko w isa p",
                "lex e-p en vp isa p",
                "lex e-q en vq isa q",
                "cs s ko of top pair t : x(CX)",
                "cs t en of top pair s : x(CX)",
            ]
        )
    )
    assert translate(net, "w", "ko-en").target_sentence == "Vq."
    state = run_engine(net, ["w"])
    assert state.best_result(1).fills[0].item == "z-q"
    state.close()


def test_concept_generates_its_first_target_item():
    # a has two en items and two ko items; the one declared later has the
    # id that sorts first, so neither the last item nor the smallest id
    # gives the declared first
    net = mini_net("a(CX)", extra="lex d-a en vz isa a\nlex j-a ko wz isa a")
    assert translate(net, "wa", "ko-en").target_sentence == "Va"
    assert translate(net, "va", "en-ko").target_sentence == "wa"
    assert translate(net, "vz", "en-ko").target_sentence == "wa"


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


def test_a_missing_tree_is_isomorphic_only_to_a_missing_tree(net):
    tree = translate(net, ENGLISH, "en-ko").concept_tree
    assert tree is not None
    assert not trees_isomorphic(tree, None)
    assert not trees_isomorphic(None, tree)
    assert trees_isomorphic(None, None)


def test_round_trip_requires_forward_success(net):
    with pytest.raises(ValueError, match="forward translation failed"):
        round_trip(net, "xqz zzz", "en-ko")


def test_round_trip_mismatches_are_counted():
    # every sample round-trips, but three back-trees differ from their
    # forward tree: the Korean output keeps two words of one concept in the
    # forward order, and parsing it back, the chart keeps the derivation
    # made first, which gives the free element the later word.  The list
    # also pins the chart's packing order; a change that fixes a mismatch
    # shortens it.
    mismatches = []
    for seed in range(36, 44):
        text = synth_network(1000, 200, seed)
        net = load_network(text)
        for direction, sentence in parse_samples(text):
            forward, back = round_trip(net, sentence, direction)
            assert back.ok, (seed, sentence)
            if not trees_isomorphic(forward.concept_tree, back.concept_tree):
                mismatches.append((seed, direction, sentence))
    assert mismatches == [
        (38, "en-ko", "v27x napika mesaka cemuka"),
        (39, "en-ko", "v71x lepuka homuka cipoka komoka"),
        (42, "en-ko", "v81x hakoka makuka maseka kenika"),
    ]


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
        for word in tokenize(result.target_sentence):
            readings = net.morphology.segment(target, word)
            has_item = any(lookup_lexical(net, target, s.forms) for s in readings)
            is_literal = word in net.literals[target]
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
def test_session_state_is_emptied(net, sentence, monkeypatch):
    closed = closed_sessions(monkeypatch)
    translate(net, sentence, "en-ko")
    [(state, _)] = closed
    assert not state.markers and not state.instances and not state.agenda


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


def test_generation_gap_with_omitted_elements_translates():
    result = translate(load_network(GAP_NETWORK), GAP_INPUT, "ko-en")
    assert result.status == "success", [e.line() for e in result.trace if e.event == "note"]


def test_synth_sample_with_both_omissible_elements_omitted_translates():
    # sk78 is "w78x"(CX) cat139(CX) cat69(OF) cat213(OX) cat213(CX); the input
    # omits both omissible elements, like GAP_INPUT above
    net = load_network(synth_network(8000, 1600, 2003911559))
    result = translate(net, "w78x ki-si-ko me-cu-ki", "ko-en")
    assert result.ok, [e.line() for e in result.trace if e.event == "note"]


def test_omissible_target_element_without_a_source_fill_is_dropped():
    # en t has no counterpart for ko s's omissible b, so realization leaves it out
    net = load_network(
        "\n".join(
            [
                "concept a",
                "concept b",
                "concept top sentence-type statement",
                "lex ka ko wa isa a",
                "lex ea en va isa a",
                "lex kb ko wb isa b",
                "lex eb en vb isa b",
                "cs s ko of top pair t : a(CX) b(OX)",
                "cs t en of top pair s : a(CX)",
            ]
        )
    )
    assert validate_network(net) == []
    result = translate(net, "va", "en-ko")
    assert result.target_sentence == "wa."
    assert [fill.filler for fill in result.concept_tree.fills] == ["a"]


# a and b are both under x, and ko fills them in either order
PROBE_NETWORK = """
concept x
concept a isa x
concept b isa x
concept top sentence-type statement
lex ka ko wa isa a
lex ea en va isa a
lex kb ko wb isa b
lex eb en vb isa b
cs s ko of top pair t : a(CF) b(CF)
cs t en of top pair s : x(CX) x(CX)
"""


def _chain_generate_lines(state, winner):
    """``generate`` lines of the winner and its ancestors: the mirror emits
    them right after the ``collide`` that made the instance."""
    chain = set()
    inst = winner
    while inst is not None:
        chain.add(inst.id)
        inst = state.instances[inst.parent] if inst.parent is not None else None
    lines, owner = [], None
    for event in state.trace:
        if event.event == "collide" and event.location.startswith("inst:"):
            owner = int(event.location[5:].split("@")[0])
        elif event.event == "generate" and owner in chain:
            lines.append(f"{event.event} {event.marker} {event.location} {event.binding}")
    return lines


def test_trace_binds_target_elements_as_the_output_does():
    net = load_network(PROBE_NETWORK)
    assert translate(net, "wb wa", "ko-en").target_sentence == "Va vb."
    state = run_engine(net, ["wb", "wa"])
    lines = _chain_generate_lines(state, state.best_result(2))
    state.close()
    assert lines == ["generate GA cs:t#0 item:ka@1", "generate GA cs:t#1 item:kb@0"]


def test_free_order_target_element_takes_the_fill_of_its_own_concept():
    # one free-order network of the benchmark: thing > m0 > m0a, m0b and
    # thing > m2 > m2b; the en sequence lists the deepest fillers first
    lines = [
        "concept thing",
        "concept s sentence-type statement",
        "concept m0 isa thing",
        "concept m2 isa thing",
    ]
    for leaf, parent, syllable in (("m0a", "m0", "ka"), ("m0b", "m0", "ki"), ("m2b", "m2", "na")):
        lines += [
            f"concept {leaf} isa {parent}",
            f"lex k{leaf} ko {syllable}-{syllable} isa {leaf}",
            f"lex e{leaf} en {syllable}{syllable}n isa {leaf}",
        ]
    lines += [
        "lex km0a1 ko ke-ke isa m0a",
        "cs ks ko of s pair es : thing(CF) m0(CF) m0a(CF) m2b(CF)",
        "cs es en of s pair ks : m0a(CX) m2b(CX) m0(CX) thing(CX)",
    ]
    net = load_network("\n".join(lines))
    result = translate(net, "ki-ki na-na ke-ke ka-ka", "ko-en")
    assert result.ok
    m0_fill = result.concept_tree.fills[1]
    assert m0_fill.filler == "m0"
    words = result.target_sentence.rstrip(".").lower().split()
    assert words[2] == net.lexicon[net.items_of[("en", m0_fill.item_concept)][0]].morphemes[0]


GOLDEN_TRACE = Path(__file__).parent / "data" / "travel.trace"


def test_travel_traces_match_golden_file(net):
    """Trace lines are a documented interface: the corpus's traces, one
    ``TraceEvent.line()`` per line, must not drift."""
    lines = TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
    got = []
    for line in lines:
        if line and not line.startswith("#"):
            direction, sentence, _ = line.split("\t")
            got.extend(e.line() for e in translate(net, sentence, direction).trace)
    expected = GOLDEN_TRACE.read_text(encoding="utf-8").splitlines()
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"line {i}"
    assert len(got) == len(expected)


GOLDEN_TREES = Path(__file__).parent / "data" / "travel.trees"


def test_travel_concept_trees_match_golden_file(net):
    """The ``repr`` of each corpus line's concept tree, one per line, must
    not drift, whatever record type the tree is built from."""
    got = []
    for line in TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            direction, sentence, _ = line.split("\t")
            result = translate(net, sentence, direction)
            assert result.ok, sentence
            got.append(repr(result.concept_tree))
    expected = GOLDEN_TREES.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"line {i}"


GOLDEN_WITHDRAW = Path(__file__).parent / "data" / "withdraw.trace"

# (test sequence, ko sentence): a start past a run of omissible fixed
# elements, an extension past one, a start on a free element and a dead
# token mid-sentence, the moves that withdraw or skip a prediction
WITHDRAW_CASES = [
    ("b(OX) c(OX) a(CX) d(CX)", "wa wd"),
    ("b(OX) c(OX) a(CX) d(CX)", "wc wa wd"),
    ("a(CX) b(OX) c(OX) d(CX)", "wa wd"),
    ("a(CX) b(OX) c(OX) d(CX)", "wa wc wd"),
    ("e(OF) b(OX) a(CX)", "we wa"),
    ("e(OF) b(OX) a(CX)", "wa we"),
    ("c(OX) e(OF) a(CX) b(CX)", "wa wd we wb"),
    ("a(CX) c(OX) e(OF) b(CX)", "wa wd we wb"),
]


def test_withdraw_traces_match_golden_file():
    """The traces of the withdraw cases, each after a ``# sequence |
    sentence | status`` line, must not drift: the travel corpus withdraws
    no prediction."""
    got = []
    for shape, sentence in WITHDRAW_CASES:
        result = translate(mini_net(shape), sentence, "ko-en")
        got.append(f"# {shape} | {sentence} | {result.status}")
        got.extend(e.line() for e in result.trace)
    expected = GOLDEN_WITHDRAW.read_text(encoding="utf-8").splitlines()
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"line {i}"
    assert len(got) == len(expected)
    assert sum(line.startswith("withdraw ") for line in got) == 9
    assert sum(line.startswith("dead ") for line in got) == 4


GOLDEN_STATUS = Path(__file__).parent / "data" / "status.trace"

# a ko word whose target sequence needs an en item for concept a, which has
# none: the parse succeeds and realization ends in a generation note
GAP_NET = "\n".join([
    "concept top sentence-type statement",
    "concept a",
    "lex wa ko wa isa a",
    'cs pa ko of a pair qa : "zz"(CX)',
    'cs qa en of a pair pa : "yy"(CX)',
    "cs s ko of top pair t : a(CX)",
    "cs t en of top pair s : a(CX)",
])


def test_status_traces_match_golden_file(net):
    """The traces of the statuses no other golden file covers, each after a
    ``# direction | sentence | status`` line, must not drift.  The
    too-ambiguous trace runs to thousands of lines, so its header line
    pins its line count and sha256 instead."""
    cases = [
        (net, "en-ko", "the way xqz"),
        (net, "en-ko", "way the you would"),
        (load_network(GAP_NET), "ko-en", "wa"),
    ]
    got = []
    for network, direction, sentence in cases:
        result = translate(network, sentence, direction)
        got.append(f"# {direction} | {sentence} | {result.status}")
        got.extend(e.line() for e in result.trace)
    sentence = " ".join(["wl"] * 13)
    result = translate(load_network(multi_parent_probe(13)), sentence, "ko-en")
    lines = [e.line() for e in result.trace]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    got.append(f"# ko-en | {sentence} | {result.status} | {len(lines)} lines sha256 {digest}")
    expected = GOLDEN_STATUS.read_text(encoding="utf-8").splitlines()
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"line {i}"
    assert len(got) == len(expected)
    statuses = [line.split(" | ")[2] for line in got if line.startswith("# ")]
    assert statuses == ["unknown-word", "no-parse", "no-parse", "too-ambiguous"]
    assert "note - generation concept 'a' has no en lexical item for t tok=0" in got


PlainNode = collections.namedtuple("TreeNode", TreeNode._fields)
PlainFill = collections.namedtuple("TreeFill", TreeFill._fields)


def _plain_tree(node: TreeNode):
    """The tree as plain named tuples, which ``repr`` prints recursively."""
    fills = tuple(
        PlainFill(*fill[:-1], None if fill.child is None else _plain_tree(fill.child))
        for fill in node.fills
    )
    return PlainNode(*node[:-1], fills)


def test_tree_repr_is_the_default_named_tuple_repr(net):
    runs = []
    for line in TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            direction, sentence, _ = line.split("\t")
            runs.append((net, direction, sentence))
    synth = synth_network(1000, 200, 1)
    network = load_network(synth)
    runs += [(network, d, text) for d, text in parse_samples(synth)]
    for network, direction, sentence in runs:
        tree = translate(network, sentence, direction).concept_tree
        plain = _plain_tree(tree)
        assert repr(tree) == repr(plain), sentence
        assert [repr(fill) for fill in tree.fills] == [repr(fill) for fill in plain.fills]
    one = TreeNode("c", "s", "t", (TreeFill("a", None, "CX", "lex", "k-a", "a", (0, 1)),))
    assert repr(one) == repr(_plain_tree(one)) and repr(one).endswith("span=(0, 1), child=None),))")
    assert repr(TreeNode("c", "s", "t", ())) == "TreeNode(concept='c', source_cs='s', target_cs='t', fills=())"


def test_records_are_their_own_classes_with_named_tuple_reprs(net):
    """The engine builds its records with ``tuple.__new__``: each chart
    instance, fill, reading and unit is still of its class, with the
    field-named repr of a named tuple."""
    kinds = set()
    for line in TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            direction, sentence, _ = line.split("\t")
            _, instances, readings, _, _ = translate(net, sentence, direction)._session
            assert instances
            fills = [fill for inst in instances for fill in inst.fills if fill is not None]
            fills += [fill for queued in readings for _, fill in queued]
            assert {type(inst) for inst in instances} == {markermt.markers.CsInstance}
            assert {type(fill) for fill in fills} == {markermt.markers.Fill}
            kinds.update(fill.kind for fill in fills)
            assert repr(instances[0]).startswith(f"CsInstance(id=0, cs={instances[0].cs!r}, start=")
            source = direction.split("-")[0]
            for word in tokenize(sentence):
                for seq in net.morphology.segment(source, word):
                    assert type(seq) is MorphemeSequence
                    assert {type(unit) for unit in seq.units} == {MorphUnit}
                    assert repr(seq) == f"MorphemeSequence(units={seq.units!r})"
                    assert repr(seq.units[0]) == f"MorphUnit(form={seq.forms[0]!r}, role='root')"
    assert kinds == {"lex", "lit", "sub"}


def _count_trace_events(monkeypatch) -> list:
    """Put a counting ``TraceEvent`` into the engine: the returned list
    grows by one per event object built from then on."""
    built = []
    real = markermt.markers.TraceEvent

    def counting(*fields):
        built.append(fields)
        return real(*fields)

    monkeypatch.setattr(markermt.markers, "TraceEvent", counting)
    return built


def test_trace_is_built_when_first_read(monkeypatch):
    text = synth_network(1000, 200, 1)
    net = load_network(text)
    direction, sentence = parse_samples(text)[0]
    built = _count_trace_events(monkeypatch)
    closed = closed_sessions(monkeypatch)
    result = translate(net, sentence, direction)
    assert result.ok
    assert built == []
    trace = result.trace
    assert len(built) == len(trace)
    assert len(closed) == 1  # translate's session: the read opens none
    prefix = [e for e in trace if e.token < 0]
    assert trace[: len(prefix)] == tuple(prefix) and len(prefix) < len(trace)
    assert result.trace is trace
    # the predict prefix places each of the plan's markers once
    assert {(e.event, e.binding, e.token) for e in prefix} == {("predict", None, -1)}
    assert len(set(prefix)) == len(prefix)
    slots, items, heads = [], [], []
    for e in prefix:
        site, _, where = e.location.partition(":")
        cs_id, _, idx = where.rpartition("#")
        if site == "lex":
            items.append(where)
        elif e.marker == "AP":
            slots.append((cs_id, int(idx)))
        else:
            assert idx == "0"
            heads.append(cs_id)
    assert (slots, items, heads) == planned_markers(net, *parse_direction(direction))


def _count_tree_records(monkeypatch) -> list:
    """Count the concept tree's records: the returned list grows by the
    class name of each :class:`TreeNode` and :class:`TreeFill` built from
    then on."""
    built = []
    for cls in (TreeNode, TreeFill):
        def counting(record_cls, *fields, real=cls.__new__):
            built.append(record_cls.__name__)
            return real(record_cls, *fields)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return built


def _tree_records(tree) -> int:
    nodes, count = [tree], 0
    for node in nodes:
        count += 1 + len(node.fills)
        nodes += [f.child for f in node.fills if f.child is not None]
    return count


def test_tree_is_built_when_first_read(net, monkeypatch, capsys):
    """``translate`` realizes only the text; the first ``concept_tree`` read
    walks the kept chart once more and keeps the tree.  A result that did
    not succeed reads None and builds nothing."""
    text = synth_network(1000, 200, 1)
    network = load_network(text)
    direction, sentence = parse_samples(text)[0]
    built = _count_tree_records(monkeypatch)
    closed = closed_sessions(monkeypatch)
    result = translate(network, sentence, direction)
    assert result.ok and built == [] and len(closed) == 1
    tree = result.concept_tree
    assert "TreeNode" in built and len(built) == _tree_records(tree)
    assert len(closed) == 1  # translate's session: the read opens none
    assert result.concept_tree is tree and len(built) == _tree_records(tree)
    # reading the trace first gives the same tree and trace as the reverse order
    runs = [(network, direction, sentence), (net, "en-ko", ENGLISH), (net, "ko-en", KOREAN)]
    for network, direction, sentence in runs:
        tree_first, trace_first = translate(network, sentence, direction), translate(network, sentence, direction)
        tree = tree_first.concept_tree
        trace = trace_first.trace
        del built[:]
        assert repr(trace_first.concept_tree) == repr(tree) and built == []  # kept by the trace read
        assert [e.line() for e in tree_first.trace] == [e.line() for e in trace]
        assert tree_first.concept_tree is tree
    # nothing but success has a tree
    failed = [
        translate(net, "the way xqz", "en-ko"),
        translate(net, "way the you would", "en-ko"),
        translate(load_network(GAP_NET), "wa", "ko-en"),
        translate(load_network(multi_parent_probe(13)), " ".join(["wl"] * 13), "ko-en"),
    ]
    del built[:]
    assert [r.status for r in failed] == ["unknown-word", "no-parse", "no-parse", "too-ambiguous"]
    assert [r.concept_tree for r in failed] == [None] * 4 and built == []
    # nor does a corpus run build one
    monkeypatch.setattr(markermt.cli, "load_network", lambda text: net)
    args = argparse.Namespace(network=str(TRAVEL_NET), corpus=str(TRAVEL_CORPUS))
    assert markermt.cli.cmd_corpus(args) == 0
    assert capsys.readouterr().out.endswith(" passed, 0 failed\n")
    assert built == []


def test_load_builds_no_trace_events(monkeypatch):
    text = synth_network(1000, 200, 1)
    built = _count_trace_events(monkeypatch)
    net = load_network(text)
    assert len(net.plans) == 2
    assert built == []


@pytest.mark.parametrize(
    "sentence",
    [ENGLISH, "the way xqz", "way the you would"],
    ids=["success", "unknown-word", "no-parse"],
)
def test_closed_session_keeps_the_result_trace(net, sentence, monkeypatch):
    """``close`` empties the session, and the result still reads its whole
    trace, up to the sentence's last activated token, from the chart it
    kept."""
    closed = closed_sessions(monkeypatch, lambda state: len(state.readings))
    result = translate(net, sentence, "en-ko")
    [(session, tokens)] = closed
    assert not session.markers and not session.instances and not session.agenda
    trace = result.trace
    assert len(closed) == 1
    assert trace[-1].token == tokens - 1 >= 0
    assert {e.token for e in trace} == set(range(-1, tokens))


STATUS_CASES = [  # direction, sentence, status; the last on multi_parent_probe(13)
    ("en-ko", ENGLISH, "success"),
    ("en-ko", "the way xqz", "unknown-word"),
    ("en-ko", "way the you would", "no-parse"),
    ("ko-en", " ".join(["wl"] * 13), "too-ambiguous"),
]


@pytest.mark.parametrize("direction, sentence, status", STATUS_CASES, ids=[case[2] for case in STATUS_CASES])
def test_translate_session_records_nothing(net, direction, sentence, status, monkeypatch):
    """The session ``translate`` closes places no marker of its own, and no
    trace event is built, whatever the status."""
    network = load_network(multi_parent_probe(13)) if status == "too-ambiguous" else net
    built = _count_trace_events(monkeypatch)
    closed = closed_sessions(monkeypatch, lambda state: len(state.markers))
    assert translate(network, sentence, direction).status == status
    [(_, count)] = closed
    assert count == sum(map(len, planned_markers(network, *parse_direction(direction))))
    assert built == []


def test_trace_read_opens_no_session(net, monkeypatch):
    """A trace is read from the chart the result kept: reading the traces
    of the synth samples and of the status cases, the golden file's
    sentences among them, makes and closes no session."""
    synth = synth_network(1000, 200, 1)
    network = load_network(synth)
    runs = [(network, d, text) for d, text in parse_samples(synth)]
    runs += [(net, direction, sentence) for direction, sentence, _ in STATUS_CASES[1:3]]
    runs += [(load_network(GAP_NET), "ko-en", "wa"), (load_network(multi_parent_probe(13)), *STATUS_CASES[3][:2])]
    results = [translate(network, sentence, direction) for network, direction, sentence in runs]
    made = []
    real_init = markermt.markers.MarkerState.__init__

    def counting_init(state, *args):
        made.append(state)
        real_init(state, *args)

    monkeypatch.setattr(markermt.markers.MarkerState, "__init__", counting_init)
    closed = closed_sessions(monkeypatch)
    traces = [result.trace for result in results]
    assert made == [] and closed == []
    assert all(trace for trace in traces)
    assert all(result.trace is trace for result, trace in zip(results, traces))
    assert {r.status for r in results} == {"success", "unknown-word", "no-parse", "too-ambiguous"}


def test_corpus_builds_no_trace_events(net, monkeypatch, capsys):
    monkeypatch.setattr(markermt.cli, "load_network", lambda text: net)
    built = _count_trace_events(monkeypatch)
    args = argparse.Namespace(network=str(TRAVEL_NET), corpus=str(TRAVEL_CORPUS))
    assert markermt.cli.cmd_corpus(args) == 0
    assert capsys.readouterr().out.endswith(" passed, 0 failed\n")
    assert built == []


@pytest.mark.parametrize("depth", [1200, 3000])
def test_deep_nesting_translates(depth):
    net = load_network(deep_chain(depth))
    assert validate_network(net) == []
    result = translate(net, "w0", "ko-en")
    assert (result.status, result.target_sentence) == ("success", "V0")
    node = result.concept_tree
    for i in range(depth, 0, -1):
        assert (node.concept, node.source_cs) == (f"c{i}", f"k{i}")
        node, leaf = node.fills[0].child, node.fills[0]
    assert node is None and leaf.item == "k-c0"
    tree = result.concept_tree
    assert trees_isomorphic(tree, tree)
    assert not trees_isomorphic(tree, tree.fills[0].child)
    text = repr(tree)
    assert text.startswith(f"TreeNode(concept='c{depth}'") and text.count("TreeNode(") == depth


def test_unrealized_sub_instance_does_not_break_isomorphism():
    # n's sub-instance fills s1 but supplies no element of t1, so its fill
    # has no child node (validate flags the network; translate still runs)
    net = load_network("""
concept a
concept n
concept top sentence-type statement
lex ka ko wa isa a
lex ea en va isa a
cs s1 ko of top pair t1 : a(CX) n(CX)
cs t1 en of top pair s1 : a(CX)
cs sn ko of n pair tn : a(CX)
cs tn en of n pair sn : a(CX)
""")
    result = translate(net, "wa wa", "ko-en")
    assert (result.status, result.target_sentence) == ("success", "Va.")
    tree = result.concept_tree
    assert (tree.fills[1].kind, tree.fills[1].child) == ("sub", None)
    assert trees_isomorphic(tree, tree)
