import collections
import copy
import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markermt.markers import (
    AA,
    GA,
    MAX_INSTANCES,
    CsInstance,
    Fill,
    MarkerState,
    TraceEvent,
)
from markermt.network import (
    DIRECTIONS,
    ConceptNode,
    ConceptSequence,
    ElementType,
    LexicalItem,
    MemoryNetwork,
    SequenceElement,
    load_network,
)
from markermt.morphology import tokenize
from markermt.synth import parse_samples, synth_network
from markermt.translator import TOO_AMBIGUOUS, reverse_direction, translate, word_items

from conftest import TRAVEL_CORPUS
from helpers import (
    closed_sessions,
    engine_accepts,
    free_order_sentences,
    is_accepted,
    mini_net,
    multi_parent_probe,
    plain,
    planned_markers,
    run_engine,
)


def predicted_elements(net, cs_id):
    """The elements of ``cs_id`` the ko-en initial prediction puts AP on."""
    slots, _, _ = planned_markers(net, "ko", "en")
    return {idx for slot_cs, idx in slots if slot_cs == cs_id}


def test_initial_prediction_free_and_first_fixed(net):
    # me(OF) is predicted alongside the first fixed element location(CX)
    assert predicted_elements(net, "kcs1") == {0, 1}
    assert predicted_elements(net, "kcs2") == {0, 1, 2}
    _, items, heads = planned_markers(net, "ko", "en")
    # prediction reaches the lexical items below the predicted fillers
    assert {"me-ko", "park-ko"} <= set(items)
    # GP sits on the first element of every target sequence
    assert "ecs1" in heads


def test_initial_prediction_fixed_only():
    net = mini_net("a(CX) b(CX)")
    assert predicted_elements(net, "test") == {0}
    _, items, _ = planned_markers(net, "ko", "en")
    assert "k-a" in items and "k-b" not in items


def test_initial_prediction_omissible_lookahead():
    net = mini_net("c(OX) a(CX)")
    assert predicted_elements(net, "test") == {0, 1}


def test_initial_slots_transitive_omissible_run():
    net = mini_net("b(OX) c(OX) a(CX) d(CX)")
    assert sorted(predicted_elements(net, "test")) == [0, 1, 2]


def test_fixed_frontier_stops_at_required():
    # no free element: what the cursor waits for is its fixed run
    net = mini_net("b(OX) a(CX) c(OX) d(CX)")
    layout = net.layouts["test"]
    assert layout.free_mask == 0
    assert layout.merged[0] == (0, 1)
    assert layout.merged[2] == (2, 3)


def test_single_element_accepts_in_one_step():
    net = mini_net("a(CX)")
    assert engine_accepts(net, "test", ["wa"])
    assert not engine_accepts(net, "test", ["wb"])


def test_omissible_fixed_skipped_with_withdrawn_prediction():
    net = mini_net("c(OX) a(CX)")
    state = run_engine(net, ["wa"])
    accepted = [i for i in state.instances if is_accepted(net, i) and i.cs == "test"]
    assert accepted, "instance must accept with the omissible element skipped"
    assert accepted[0].fills[0] is None and accepted[0].cursor > 0
    withdraws = [e for e in state.trace if e.event == "withdraw"]
    assert withdraws and "#0" in withdraws[0].location
    state.close()
    # the omissible element can still be filled when its token shows up first
    assert engine_accepts(net, "test", ["wc", "wa"])


def test_withdrawn_and_unfilled_elements_are_both_not_filled():
    """An omitted element has no fill, whether its prediction was withdrawn
    (fixed ``c``) or it was never filled (free ``e``), and the tree gives
    both the kind ``omitted``."""
    net = mini_net("c(OX) e(OF) a(CX)")
    state = run_engine(net, ["wa"])
    accepted = [i for i in state.instances if is_accepted(net, i) and i.cs == "test"]
    assert [i.fills for i in accepted] == [(None, None, Fill("lex", 0, 1, "k-a", "a"))]
    assert [e.location for e in state.trace if e.event == "withdraw"] == [f"inst:{accepted[0].id}@test#0"]
    state.close()
    result = translate(net, "wa", "ko-en")
    assert result.ok
    assert [(f.filler, f.kind) for f in result.concept_tree.fills] == [("c", "omitted"), ("e", "omitted"), ("a", "lex")]


def test_free_required_fills_out_of_order():
    net = mini_net("b(CF) a(CX)")
    assert engine_accepts(net, "test", ["wb", "wa"])
    assert engine_accepts(net, "test", ["wa", "wb"])
    assert not engine_accepts(net, "test", ["wa"])


def test_free_omissible_both_ways():
    net = mini_net("e(OF) a(CX) b(CX)")
    assert engine_accepts(net, "test", ["wa", "wb"])          # omitted
    assert engine_accepts(net, "test", ["we", "wa", "wb"])    # sentence-initial
    assert engine_accepts(net, "test", ["wa", "we", "wb"])    # interleaved
    assert not engine_accepts(net, "test", ["we", "wb"])


def test_free_elements_never_withdrawn(net):
    state = run_engine(
        net,
        ["ce-eykey", "ken-ney-ti", "kong-wen", "kanun", "kil-ul", "allyecwu-si-keyssupnikka"],
    )
    for event in state.trace:
        if event.event != "withdraw":
            continue
        _, rest = event.location.split("@", 1)
        cs_id, idx = rest.split("#")
        element = net.sequences[cs_id].elements[int(idx)]
        assert not ElementType.free(element.etype), "free elements stay predicted"
    state.close()


def test_shift_cursor_strictly_increments(net):
    """On an all-fixed sequence the winning lineage consumes one element per
    token, so cursors run 1..n like shift steps."""
    tokens = ["you", "edited", "the", "files"]
    state = run_engine(net, tokens, source="en", target="ko")
    winner = state.best_result(len(tokens))
    assert winner is not None and winner.cs == "ecs3"
    cursors = []
    inst = winner
    while inst is not None:
        cursors.append(inst.cursor)
        inst = state.instances[inst.parent] if inst.parent is not None else None
    assert cursors[::-1] == [1, 2, 3, 4]
    state.close()


def test_dead_activation_keeps_session_alive():
    net = mini_net("a(CX) b(CX)")
    state = run_engine(net, ["wb"])  # b is not predicted at the start
    assert any(e.event == "dead" for e in state.trace)
    assert all(i.cs != "test" or not is_accepted(net, i) for i in state.instances)
    state.close()


def test_activation_with_no_prediction_is_not_fatal(net):
    # mid-sentence garden path: unusable token recorded, later tokens continue
    state = run_engine(net, ["kanun", "ken-ney-ti", "kong-wen"])
    dead = [e for e in state.trace if e.event == "dead"]
    assert dead and dead[0].token == 0
    assert any(is_accepted(net, i) and i.cs == "kcs-loc" for i in state.instances)
    state.close()


def test_satisfied_requires_required_fills():
    net = mini_net("a(CX) b(CF) c(OX)")
    required = net.layouts["test"].required

    def satisfied(filled):
        return filled & required == required

    assert not satisfied(0b001)  # CF unfilled
    assert satisfied(0b011)      # OX implicitly omitted
    assert satisfied(0b111)


ELEMENT_TYPES = {"CX": (False, False), "CF": (False, True), "OX": (True, False), "OF": (True, True)}


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(ELEMENT_TYPES)), st.sampled_from("abc")),
        min_size=1,
        max_size=8,
    )
)
def test_layout_reads_the_element_types(elements):
    # the plain reading: (omissible, free) per code, then a left-to-right scan
    etypes = [t for t, _ in elements]
    if all(ELEMENT_TYPES[t][0] for t in etypes):
        etypes = ["CX"] + etypes[1:]  # a sequence must not accept the empty string
    fillers = [c for _, c in elements]
    net = mini_net(" ".join(f"{c}({t})" for c, t in zip(fillers, etypes)))
    layout = net.layouts["test"]
    n = len(etypes)
    omissible = [ELEMENT_TYPES[t][0] for t in etypes]
    free = [ELEMENT_TYPES[t][1] for t in etypes]
    assert layout.free_mask == sum(2**i for i in range(n) if free[i])
    assert layout.required == sum(2**i for i in range(n) if not omissible[i])
    assert len(layout.merged) == n + 1
    frontier = []
    for cursor in range(n + 1):
        expected = []
        for i in range(cursor, n):
            if free[i]:
                continue
            expected.append(i)
            if not omissible[i]:
                break
        frontier.append(expected)
        # waiting at the cursor: its fixed frontier and every free element
        assert layout.merged[cursor] == tuple(i for i in range(n) if free[i] or i in expected), cursor
        # the free elements left out: the fixed frontier
        fixed = tuple(i for i in layout.merged[cursor] if not layout.free_mask >> i & 1)
        assert fixed == tuple(expected), cursor
    # a start fills i first: the cursor stays at 0 for a free i, else moves
    # past it; it predicts what waits there but i, so every other free
    # element too
    for i in range(n):
        after = frontier[0 if free[i] else i + 1]
        start = tuple(j for j in layout.merged[0 if free[i] else i + 1] if j != i)
        assert start == tuple(j for j in range(n) if j != i and (free[j] or j in after)), i
    # a twin: the last earlier free element of the same type and filler
    twins = [
        max((j for j in range(i) if free[i] and (etypes[j], fillers[j]) == (etypes[i], fillers[i])), default=None)
        for i in range(n)
    ]
    assert layout.twin_pairs == tuple((i, j) for i, j in enumerate(twins) if j is not None)


def test_a_start_at_a_free_element_predicts_the_fixed_elements_before_it():
    # wb fills the free b first: the cursor stays at 0, so the new instance
    # predicts a; c is predicted, with its item, only once wa fills a
    result = translate(mini_net("a(CX) b(CF) c(CX)"), "wb wa wc", "ko-en")
    assert result.ok
    lines = {tok: [e.line() for e in result.trace if e.token == tok] for tok in range(3)}
    assert "predict AP inst:0@test#0 - tok=0" in lines[0]
    assert not any(line.startswith("predict AP inst:0@test#2 ") for line in lines[0])
    assert "predict AP lex:k-c - tok=1" in lines[1]
    assert [e.token for e in result.trace if e.location == "lex:k-c" and e.event == "predict"] == [1]


def test_layouts_are_read_only_and_shared_per_signature():
    net = mini_net(
        "a(CX) b(CF) c(OX)",
        extra="\n".join(
            [
                "cs same ko of top pair mirror : c(CX) d(CF) e(OX)",
                "cs twin ko of top pair mirror : a(CX) b(CF) b(CF)",
                "cs other ko of top pair mirror : a(CX) b(CF) c(CF)",
            ]
        ),
    )
    layouts = net.layouts
    with pytest.raises(TypeError):
        layouts["test"] = layouts["same"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        layouts["test"].required = 0
    # equal element types and twins: one object; equal types but different
    # twins: two
    assert layouts["test"] is layouts["same"]
    assert layouts["twin"].twin_pairs == ((2, 1),)
    assert layouts["twin"] is not layouts["other"]
    assert layouts["twin"].merged == layouts["other"].merged


def test_markers_sit_on_legal_sites(net):
    """A session's markers are its plan's: AP on slots of source sequences
    and on source items, GP only on element 0 of target sequences."""
    lines = TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines if line and not line.startswith("#")]
    runs = [(direction, sentence) for direction, sentence, _ in rows]
    runs += [(reverse_direction(d), out) for d, _, out in rows if out != "*"]
    assert {d for d, _ in runs} == {"ko-en", "en-ko"}
    for direction, sentence in runs:
        source, target = direction.split("-")
        words = tokenize(sentence)
        state = run_engine(net, words, source, target)
        assert state.best_result(len(words)) is not None, sentence
        assert state.markers is net.plans[(source, target)]
        state.close()
    for source, target in DIRECTIONS:
        slots, items, heads = planned_markers(net, source, target)
        assert {net.sequences[cs_id].language for cs_id, _ in slots} == {source}
        assert {net.lexicon[item_id].language for item_id in items} == {source}
        assert {net.sequences[cs_id].language for cs_id in heads} == {target}


def _corpus_runs(net):
    """``(network, direction, sentence)`` of the travel corpus and of the
    samples of ``synth_network(1000, 200, 1)``."""
    lines = TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines if line and not line.startswith("#")]
    runs = [(net, direction, sentence) for direction, sentence, _ in rows]
    synth = synth_network(1000, 200, 1)
    network = load_network(synth)
    return runs + [(network, d, text) for d, text in parse_samples(synth)]


def _own_markers(trace, target_language):
    """The lexical items a trace predicts after the initial prediction and
    the ``(target item, token)`` pairs of its GA activations, in order."""
    predicted, generated = [], []
    for e in trace:
        if e.event == "predict" and e.location.startswith("lex:") and e.token >= 0:
            predicted.append(e.location[4:])
        elif (e.event, e.marker) == ("activate", GA):
            assert e.binding == f"tok{e.token}" and target_language(e.location[4:]), e
            generated.append((e.location[4:], e.token))
    return predicted, generated


def test_trace_agrees_with_the_chart(net, monkeypatch):
    """The trace tells of the chart the translation read: its instance
    collisions name each instance once, in id order, and its ``accept``
    events exactly the accepted ones; also where the chart outgrew its
    budget, over the travel corpus, the synth samples and the
    too-ambiguous probe."""
    runs = _corpus_runs(net)
    runs.append((load_network(multi_parent_probe(13)), "ko-en", " ".join(["wl"] * 13)))
    closed = closed_sessions(monkeypatch, lambda state: list(state.instances))
    for network, direction, sentence in runs:
        result = translate(network, sentence, direction)
        [(_, chart)] = closed
        closed.clear()
        made = [e.location[5:].partition("#")[0] for e in result.trace
                if e.event == "collide" and e.location.startswith("inst:")]
        assert made == [f"{inst.id}@{inst.cs}" for inst in chart], sentence
        accepted = [e.binding for e in result.trace if e.event == "accept"]
        assert accepted == [f"inst:{inst.id}" for inst in chart if is_accepted(network, inst)], sentence
    assert result.status == TOO_AMBIGUOUS and made[-1] == f"{MAX_INSTANCES - 1}@s"


def test_session_markers_never_overlap_the_plan(net):
    """A session's trace predicts only items the plan does not, each once,
    and puts GA only on target items, each once per token; the session's
    markers are its plan."""
    lines = TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines if line and not line.startswith("#")]
    runs = [(net, direction.split("-"), sentence) for direction, sentence, _ in rows]
    runs.append((load_network(multi_parent_probe(5)), ("ko", "en"), "wl wl wl wl wl"))
    for network, (source, target), sentence in runs:
        words = tokenize(sentence)
        state = run_engine(network, words, source, target)
        predicted, generated = _own_markers(state.trace, lambda item: network.lexicon[item].language == target)
        _, planned, _ = planned_markers(network, source, target)
        assert not set(predicted) & set(planned), words
        assert len(predicted) == len(set(predicted)) and len(generated) == len(set(generated))
        assert generated
        assert state.markers is state.plan
        state.close()


def test_translated_sessions_never_record_a_plan_key(net):
    """Whole translations, realization included, over the travel corpus
    and the synth samples: none of the lexical items a trace predicts after
    the initial prediction is one the plan predicts."""
    predicted_any = False
    for network, direction, sentence in _corpus_runs(net):
        result = translate(network, sentence, direction)
        assert result.ok and result.trace, sentence
        predicted, _ = _own_markers(result.trace, lambda item: True)
        _, planned, _ = planned_markers(network, *direction.split("-"))
        overlap = set(predicted) & set(planned)
        assert not overlap, (sentence, sorted(overlap)[:3])
        predicted_any |= bool(predicted)
    assert predicted_any


def test_session_marker_sets_agree_with_the_trace(net, monkeypatch):
    """Just before ``translate`` closes its session, the session's markers
    are its plan and no more, and count the initial prediction's markers.
    Its trace names each lexical prediction beyond the plan once and each
    GA pair once, on items of the target language."""
    runs = _corpus_runs(net)
    runs.append((load_network(multi_parent_probe(5)), "ko-en", "wl wl wl wl wl"))
    closed = closed_sessions(monkeypatch, lambda state: (state.markers, len(state.markers)))
    for network, direction, sentence in runs:
        source, target = direction.split("-")
        result = translate(network, sentence, direction)
        assert result.ok, sentence
        [(session, (markers, count))] = closed
        closed.clear()
        assert markers is session.plan
        assert count == sum(map(len, planned_markers(network, source, target)))
        predicted, generated = _own_markers(result.trace, lambda item: network.lexicon[item].language == target)
        assert len(predicted) == len(set(predicted)) and len(generated) == len(set(generated)), sentence
        assert generated, sentence


def test_chart_records_are_immutable_and_keep_their_formats():
    fill = Fill(kind="lex", start=2, end=3, item="k-a", concept="a")
    inst = CsInstance(0, "test", 0, 1, (fill,), 1, 1, None)
    event = TraceEvent("collide", AA, "inst:0@test#0", fill.binding(), 2)
    for record, field in ((fill, "kind"), (inst, "filled"), (event, "token")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert event.line() == "collide AA inst:0@test#0 item:k-a@2 tok=2"
    assert TraceEvent("dead", None, "tok:4", None, 4).line() == "dead - tok:4 - tok=4"
    assert [f.binding() for f in (fill, Fill("lit", 5, 6), Fill("sub", 0, 3, sub=7))] == [
        "item:k-a@2", "tok5", "inst:7",
    ]


def test_agenda_quiescent_between_tokens(net):
    state = MarkerState(net, "en", "ko")
    state.initial_prediction()
    for i, word in enumerate(["you", "edited"]):
        literal = word if word in net.literals["en"] else None
        state.activate(word_items(net, "en", word), i, literal=literal)
        state.step_collisions()
        assert not state.agenda
    state.close()


def test_deterministic_trace(net):
    tokens = ["ce-eykey", "ken-ney-ti", "kong-wen", "kanun", "kil-ul", "allyecwu-si-keyssupnikka"]
    s1 = run_engine(net, tokens)
    s2 = run_engine(net, tokens)
    assert [e.line() for e in s1.trace] == [e.line() for e in s2.trace]
    s1.close()
    s2.close()


def test_close_empties_state(net):
    state = run_engine(net, ["ken-ney-ti", "kong-wen"])
    assert state.instances and state.markers
    state.close()
    assert not state.instances and not state.markers and not state.agenda


def test_ambiguous_result_prefers_declaration_order():
    # two sequences accept the same sentence; the earlier declaration wins
    lines = []
    for c in "ab":
        lines.append(f"concept {c}")
        lines.append(f"lex k-{c} ko w{c} isa {c}")
        lines.append(f"lex e-{c} en v{c} isa {c}")
    lines.append("concept n1")
    lines.append("concept n2")
    lines.append("cs first ko of n1 pair m1 : a(CX) b(CX)")
    lines.append("cs m1 en of n1 pair first : a(CX) b(CX)")
    lines.append("cs second ko of n2 pair m2 : a(CX) b(CX)")
    lines.append("cs m2 en of n2 pair second : a(CX) b(CX)")
    net = load_network("\n".join(lines))
    state = run_engine(net, ["wa", "wb"])
    winner = state.best_result(2)
    assert winner is not None and winner.cs == "first"
    state.close()


def test_shared_plan_does_not_leak_between_sessions(travel_text):
    net = load_network(travel_text)
    run_engine(net, ["ken-ney-ti", "kong-wen", "kanun", "kil-ul"]).close()
    tokens = ["ce-eykey", "ken-ney-ti", "kong-wen", "eti", "issnunci", "allyecwu-si-keyssupnikka"]
    reused = run_engine(net, tokens)
    fresh = run_engine(load_network(travel_text), tokens)
    assert reused.markers is net.plans[("ko", "en")]
    assert plain(reused.markers) == plain(fresh.markers)
    assert len(reused.markers) == len(fresh.markers)
    assert [e.line() for e in reused.trace] == [e.line() for e in fresh.trace]
    reused.close()
    fresh.close()


def test_plan_unchanged_by_translation(travel_text):
    net = load_network(travel_text)
    before = copy.deepcopy(plain(net.plans))
    lines = TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines if line and not line.startswith("#")]
    assert len(rows) == 10
    for direction, sentence, _ in rows:
        assert translate(net, sentence, direction).ok
    assert plain(net.plans) == before


def test_plan_markers_count_and_iterate_as_placed(net):
    """A session's markers count as the initial prediction places them,
    and its trace's ``predict`` prefix lists each of them once."""
    state = MarkerState(net, "ko", "en")
    assert len(state.markers) == 0
    state.initial_prediction()
    slots, items, heads = planned_markers(net, "ko", "en")
    assert len(state.markers) == len(slots) + len(items) + len(heads)
    prefix = [e for e in state.trace if e.token < 0]
    assert len(prefix) == len(set(prefix)) == len(state.markers)
    assert len(heads) == sum(1 for cs in net.sequences.values() if cs.language == "en")
    state.close()
    assert len(state.markers) == 0 and state.markers == ()


def test_plan_length_counts_the_trace_prefix(net):
    """``len`` of a plan, which the benchmark reads as a session's marker
    count, is the number of ``tok=-1`` events of a trace of its direction,
    on the travel network and on ``synth_network(1000, 200, 1)``."""
    checked = set()
    for network, direction, sentence in _corpus_runs(net):
        key = (id(network), direction)
        if key in checked:
            continue
        checked.add(key)
        trace = translate(network, sentence, direction).trace
        assert len(network.plans[tuple(direction.split("-"))]) == sum(e.token == -1 for e in trace), direction
        assert any(e.token >= 0 for e in trace)
    assert len(checked) == 2 * len(DIRECTIONS)


def test_handbuilt_network_translates():
    net = MemoryNetwork()
    for concept in ("a", "top"):
        net.concepts[concept] = ConceptNode(id=concept)
    net.lexicon["k-a"] = LexicalItem(id="k-a", language="ko", morphemes=("wa",), concept="a")
    net.lexicon["e-a"] = LexicalItem(id="e-a", language="en", morphemes=("va",), concept="a")
    element = (SequenceElement(etype="CX", concept="a"),)
    net.sequences["s1"] = ConceptSequence(
        id="s1", language="ko", owner="top", elements=element, paired="s2"
    )
    net.sequences["s2"] = ConceptSequence(
        id="s2", language="en", owner="top", elements=element, paired="s1"
    )
    net.build_indexes()
    result = translate(net, "wa", "ko-en")
    assert result.ok and result.target_sentence == "Va"


def _identical_free_net(k: int):
    return load_network(
        "\n".join(
            [
                "concept a",
                "concept top sentence-type statement",
                "lex k-a ko wa isa a",
                "lex e-a en va isa a",
                "cs s ko of top pair t : " + " ".join(["a(CF)"] * k),
                "cs t en of top pair s : " + " ".join(["a(CX)"] * k),
            ]
        )
    )


@pytest.mark.parametrize("k", range(3, 9))
def test_identical_free_elements_fill_in_index_order(k):
    # one instance per number of elements filled, not one per permutation,
    # and none starting after the first word, which nothing predicts: k in all
    result = translate(_identical_free_net(k), " ".join(["wa"] * k), "ko-en")
    assert result.ok and result.target_sentence == "Va" + " va" * (k - 1) + "."
    collides = [e for e in result.trace if e.event == "collide" and e.location.startswith("inst:")]
    assert len(collides) == k


def test_twin_slots_are_predicted_but_start_no_instance():
    net = mini_net('a(CF) b(CX) a(CF) a(OF) "q0"(CF) "q0"(CF)')
    assert net.layouts["test"].twin_pairs == ((2, 0), (5, 4))
    plan = net.plans[("ko", "en")]
    assert {("test", i) for i in range(6) if i != 1} <= set(planned_markers(net, "ko", "en")[0])
    assert plan.starts_by_concept["a"] == (("test", 0), ("test", 3))
    assert plan.slots_by_literal["q0"] == (("test", 4),)
    state = run_engine(net, ["wa", "q0"])
    filled = {
        (inst.start, tuple(i for i, f in enumerate(inst.fills) if f is not None))
        for inst in state.instances
    }
    # the q0 start at token 1 is pruned: the instances ending there take q0
    # into their own element 4, and none has an element that top fills
    assert filled == {(0, (0,)), (0, (3,)), (0, (0, 4)), (0, (3, 4))}
    state.close()


def test_start_slots_merge_every_parent_in_declaration_order():
    # l isa q,p: the start slots of q and p interleave across and within
    # sequences, so neither parent's slots come first as a block
    net = load_network(
        "\n".join(
            [
                "concept p",
                "concept q",
                "concept l isa q,p",
                "concept top",
                "lex k-l ko wl isa l",
                "lex e-l en vl isa l",
                "cs z ko of top pair ez : q(CX)",
                'cs y ko of top pair ey : p(CF) "x"(CX) q(CF) p(OF)',
                "cs x ko of top pair ex : p(CX)",
                "cs ez en of top pair z : q(CX)",
                "cs ey en of top pair y : p(CX) q(CX)",
                "cs ex en of top pair x : p(CX)",
            ]
        )
    )
    starts = net.plans[("ko", "en")].starts_by_concept
    assert starts == {"l": (("z", 0), ("y", 0), ("y", 2), ("y", 3), ("x", 0))}
    state = run_engine(net, ["wl"])
    # the word starts one instance per slot, in the table's order
    started = [(inst.cs, inst.filled.bit_length() - 1) for inst in state.instances]
    assert started == list(starts["l"])
    state.close()


def test_lexical_prediction_table_is_items_below_minus_the_plan():
    text = synth_network(1000, 200, 42)
    net = load_network(text)
    for (source, target), plan in net.plans.items():
        fillers = list(dict.fromkeys(
            el.concept
            for cs in net.sequences.values()
            if cs.language == source
            for el in cs.elements
            if el.literal is None
        ))
        assert list(plan.filler_bit) == fillers
        items = [it for it in net.lexicon.values() if it.language == source]
        for concept in fillers:
            below = [it.id for it in items if concept in net.ancestors[it.concept]]
            assert net.items_below[(source, concept)] == tuple(below)
    # after the initial prediction, a trace predicts the items below each
    # filler its instance predictions name, in that order, that the plan
    # does not, each once
    added = 0
    for direction, sentence in parse_samples(text):
        source, target = direction.split("-")
        planned = set(planned_markers(net, source, target)[1])
        trace = translate(net, sentence, direction).trace
        expected = []
        for e in trace:
            if e.event == "predict" and e.location.startswith("inst:"):
                cs_id, _, idx = e.location.partition("@")[2].rpartition("#")
                el = net.sequences[cs_id].elements[int(idx)]
                if el.literal is None:
                    expected += [i for i in net.items_below[(source, el.concept)] if i not in planned]
        predicted, _ = _own_markers(trace, lambda item: True)
        assert predicted == list(dict.fromkeys(expected)), sentence
        added += len(predicted)
    assert added


def test_trace_walks_each_filler_once(monkeypatch):
    """A trace predicts a filler's lexical items each time an instance
    predicts the filler, but reads its ``items_below`` once, and the plan's
    fillers, whose items the initial prediction placed, only there."""
    text = synth_network(1000, 200, 1)
    net = load_network(text)
    walks = collections.Counter()

    class CountingBelow(dict):
        def __getitem__(self, key):
            walks[key] += 1
            return super().__getitem__(key)

    monkeypatch.setattr(net, "items_below", CountingBelow(net.items_below))
    walked = named = 0
    for direction, sentence in parse_samples(text):
        source, target = direction.split("-")
        slots, _, _ = planned_markers(net, source, target)
        fillers = {net.sequences[cs_id].elements[idx].concept for cs_id, idx in slots} - {None}
        state = run_engine(net, tokenize(sentence), source, target)
        assert state.best_result(len(tokenize(sentence))) is not None, sentence
        walks.clear()
        trace = state.trace
        assert max(walks.values(), default=0) <= 1, sentence
        walked += sum(walks.values()) - len(fillers)
        for e in trace:
            if e.event == "predict" and e.location.startswith("inst:"):
                cs_id, _, idx = e.location.partition("@")[2].rpartition("#")
                named += net.sequences[cs_id].elements[int(idx)].literal is None
        state.close()
    assert 0 < walked < named


def _instance_collides(result):
    return [e for e in result.trace if e.event == "collide" and e.location.startswith("inst:")]


@pytest.mark.parametrize("k", range(3, 9))
def test_distinct_free_elements_pack_by_filled_set(k):
    # one instance per (start, end, set of filled elements), not one per
    # order in which the word filled them: at most k * 2^k
    result = translate(load_network(multi_parent_probe(k)), " ".join(["wl"] * k), "ko-en")
    assert result.ok and result.target_sentence == "Vl" + " vl" * (k - 1) + "."
    assert len(_instance_collides(result)) <= k * 2**k


def test_instance_budget_ends_the_sentence_too_ambiguous():
    # k = 13 needs 2^13 - 1 instances at token 0 alone
    result = translate(load_network(multi_parent_probe(13)), " ".join(["wl"] * 13), "ko-en")
    assert result.status == TOO_AMBIGUOUS and result.target_sentence == ""
    assert len(_instance_collides(result)) == MAX_INSTANCES


def test_probe_below_the_budget_succeeds_quickly():
    # k = 12 needs 2^12 - 1 instances at token 0 and none after it; the
    # unfiltered chart outgrew MAX_INSTANCES here
    net = load_network(multi_parent_probe(12))
    started = time.perf_counter()
    result = translate(net, " ".join(["wl"] * 12), "ko-en")
    elapsed = time.perf_counter() - started
    assert result.ok and result.target_sentence == "Vl" + " vl" * 11 + "."
    assert elapsed < 0.2


def _chart(net, words, source, target):
    """The keys of the instances anchored at token 0, in creation order,
    and the number of instances in all."""
    state = run_engine(net, words, source, target)
    keys = [(i.cs, i.end, i.cursor, i.filled) for i in state.instances if i.start == 0]
    size = len(state.instances)
    state.close()
    return keys, size


def test_filter_keeps_the_start0_chart(net, monkeypatch):
    """Instances anchored at token 0, the only ones a result is taken
    from, are the same and come in the same order with and without the
    left-corner filter; the filter only drops instances after token 0."""
    lines = TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
    runs = [(net, *line.split("\t")[:2]) for line in lines if line and not line.startswith("#")]
    for seed in (1, 7, 42):
        synth = synth_network(1000, 200, seed)
        network = load_network(synth)
        runs += [(network, d, text) for d, text in parse_samples(synth)]
    runs = [(network, d.split("-"), tokenize(text)) for network, d, text in runs]
    filtered = [_chart(network, words, *pair) for network, pair, words in runs]
    column = MarkerState._column
    monkeypatch.setattr(MarkerState, "_column", lambda self, ending: (column(self, ending)[0], None))
    unfiltered = [_chart(network, words, *pair) for network, pair, words in runs]
    for (keys, size), (all_keys, all_size), (_, _, words) in zip(filtered, unfiltered, runs):
        assert keys == all_keys and size <= all_size, words
    assert sum(size for _, size in filtered) < sum(size for _, size in unfiltered)


def test_left_corner_table_is_the_fixed_point(net):
    """The one-pass table equals the naive fixed point: a start slot's
    owner passes its left corners down to every concept that starts it."""
    cyclic = mini_net(
        "a(CX) d(CX)",
        extra="\n".join(
            [
                "cs sd ko of d pair sdm : e(OF) a(CX)",
                "cs se ko of e pair sem : d(CX) b(CX)",
                "cs sdm en of d pair sd : a(CX)",
                "cs sem en of e pair se : b(CX)",
            ]
        ),
    )
    for network in (net, cyclic, load_network(synth_network(1000, 200, 7, samples=0))):
        for (source, _), plan in network.plans.items():
            bit = plan.filler_bit
            owners = {cs.owner for cs in network.sequences.values() if cs.language == source}
            fillers = {
                el.concept
                for cs in network.sequences.values()
                if cs.language == source
                for el in cs.elements
                if el.literal is None
            }
            assert set(bit) == fillers and set(plan.left_corner) == owners
            want = {o: sum(bit[a] for a in network.ancestors[o] if a in bit) for o in owners}
            changed = True
            while changed:
                changed = False
                for owner in owners:
                    for cs_id, _ in plan.starts_by_concept.get(owner, ()):
                        more = want[owner] | want[network.sequences[cs_id].owner]
                        if more != want[owner]:
                            want[owner], changed = more, True
            assert plan.left_corner == want
    plan = cyclic.plans[("ko", "en")]
    assert plan.left_corner["d"] == plan.left_corner["e"] == plan.filler_bit["d"] | plan.filler_bit["e"]


def test_token_whose_starts_are_all_pruned_is_dead():
    # wc can only start "side", and the instance ending at token 1 predicts
    # b, which no instance of side (owner e) can fill: token 1 is dead.
    # Nothing ends at token 2, so wc starts side there as a fragment.
    net = mini_net(
        "a(CX) b(CX)",
        extra="cs side ko of e pair sidem : c(CX) d(OX)\ncs sidem en of e pair side : c(CX)",
    )
    state = run_engine(net, ["wa", "wc", "wc"])
    assert [e.token for e in state.trace if e.event == "dead"] == [1]
    assert {(i.cs, i.start) for i in state.instances} == {("test", 0), ("side", 2)}
    state.close()


# The inner ko sequence is a free-order shape in which one word (wmu, m2a)
# fills either m2 or m2a, so two accepted inner instances with different
# filled sets share one span; the outer sequence, declared first so that it
# is the result, takes the inner owner x as its element 0.
SHARED_SPAN_NETWORK = """
concept thing
concept s sentence-type statement
concept x
concept m0 isa thing
concept m1 isa thing
concept m2 isa thing
concept m0a isa m0
concept m0b isa m0
concept m1a isa m1
concept m1b isa m1
concept m2a isa m2
lex k-m0a ko wka isa m0a
lex k-m0b ko wko isa m0b
lex k-m1a ko wma isa m1a
lex k-m1b ko wmi isa m1b
lex k-m2a ko wmu isa m2a
lex e-m0a en vka isa m0a
lex e-m0b en vko isa m0b
lex e-m1a en vma isa m1a
lex e-m1b en vmi isa m1b
lex e-m2a en vmu isa m2a
cs outer ko of s pair outerm : x(CX)
cs outerm en of s pair outer : x(CX)
cs inner ko of x pair innerm : m0(CF) m1(CF) m2(OF) m0a(CF) m1b(CF) m2a(OF)
cs innerm en of x pair inner : m0a(CX) m1b(CX) m0(CX) m1(CX) m2(CX)=e-m2a m2a(CX)=e-m2a
"""


def test_repeated_accepted_span_feeds_its_parent_once():
    """Accepted instances of one sequence over one span make one parent
    instance between them: the parent's chart key does not depend on which
    of them fills its element.  Each still has its own ``accept`` event."""
    net = load_network(SHARED_SPAN_NETWORK)
    words = ["wko", "wmi", "wka", "wmu", "wma"]
    state = run_engine(net, words)
    inner = [i for i in state.instances if i.cs == "inner" and is_accepted(net, i)]
    assert [(i.start, i.end) for i in inner] == [(0, 5), (0, 5)]
    assert inner[0].filled != inner[1].filled
    outer = [i for i in state.instances if i.cs == "outer" and (i.start, i.end) == (0, 5)]
    assert len(outer) == 1 and outer[0].fills[0].sub == inner[0].id
    accepts = [e.line() for e in state.trace if e.event == "accept" and e.location == "cn:x"]
    assert accepts == [f"accept AA cn:x inst:{sub.id} tok=4" for sub in inner]
    collides = [e for e in state.trace if e.event == "collide" and "@outer#0" in e.location]
    assert [(e.binding, e.token) for e in collides] == [(f"inst:{inner[0].id}", 4)]
    state.close()
    result = translate(net, " ".join(words), "ko-en")
    assert result.ok and result.target_sentence == "Vka vmi vko vma vmu vmu."


# wmu fills either m2 or m2a of one sequence, so "wk wmu" has two accepted
# full-span parses of it, tied on span and sequence; they realize in
# different orders
TIED_NETWORK = """
concept thing
concept s sentence-type statement
concept m0 isa thing
concept m2 isa thing
concept m2a isa m2
lex k-m0 ko wk isa m0
lex k-m2a ko wmu isa m2a
lex e-m0 en vk isa m0
lex e-m2a en vmu isa m2a
cs tied ko of s pair tiedm : m0(CF) m2(OF) m2a(OF)
cs tiedm en of s pair tied : m2(OX) m0(CX) m2a(OX)
"""


def test_tied_full_span_parses_pick_the_first_created():
    net = load_network(TIED_NETWORK)
    state = run_engine(net, ["wk", "wmu"])
    tied = [i for i in state.instances if (i.start, i.end) == (0, 2) and is_accepted(net, i)]
    assert [i.cs for i in tied] == ["tied", "tied"] and tied[0].filled != tied[1].filled
    assert state.best_result(2) is tied[0]
    state.close()
    result = translate(net, "wk wmu", "ko-en")
    assert result.target_sentence == "Vmu vk."
    assert [(f.filler, f.kind) for f in result.concept_tree.fills] == [("m0", "lex"), ("m2", "lex"), ("m2a", "omitted")]


def test_column_is_final_when_built(net):
    """The column built when each token is activated equals the one
    computed afresh, from every instance that ends at its position, once
    the sentence has ended: the instances the previous token made are all
    that ever end there."""
    lines = TRAVEL_CORPUS.read_text(encoding="utf-8").splitlines()
    runs = [(net, *line.split("\t")[:2]) for line in lines if line and not line.startswith("#")]
    free = free_order_sentences(1)
    networks = {text: load_network(text) for text in dict.fromkeys(text for text, _ in free)}
    runs += [(networks[text], "ko-en", sentence) for text, sentence in free]
    synth = synth_network(1000, 200, 1)
    network = load_network(synth)
    runs += [(network, d, text) for d, text in parse_samples(synth)]
    checked = 0
    for network, direction, text in runs:
        source, target = direction.split("-")
        words = tokenize(text)
        state = run_engine(network, words, source, target)
        assert len(state._columns) == len(words)
        for pos, column in enumerate(state._columns):
            ending = [inst for inst in state.instances if inst.end == pos]
            assert state._column(ending) == column, (text, pos)
        checked += len(state._columns)
        state.close()
    assert checked > len(runs)
