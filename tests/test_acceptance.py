"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines.
"""

import io
import random
import sys
import time
from contextlib import contextmanager

from markermt.cli import main
from markermt.network import load_network, validate_network
from markermt.oracle import recognize_oracle
from markermt.synth import parse_samples, synth_network
from markermt.translator import round_trip, translate, trees_isomorphic

from conftest import TRAVEL_NET
from helpers import closed_sessions, engine_accepts, is_accepted, mini_net, random_case, random_tokens, run_engine

ENGLISH = "Would you tell me the way to Kennedy Park?"
KOREAN = "ce-eykey ken-ney-ti kong-wen kanun kil-ul allyecwu-si-keyssupnikka?"


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_fixture_round_trip(net):
    with criterion(1, "fixture sentence round-trips exactly, trees isomorphic, < 1 s"):
        start = time.perf_counter()
        forward, back = round_trip(net, ENGLISH, "en-ko")
        elapsed = time.perf_counter() - start
        assert forward.ok and forward.target_sentence == KOREAN
        assert back.ok and back.target_sentence == ENGLISH
        assert trees_isomorphic(forward.concept_tree, back.concept_tree)
        assert elapsed < 1.0, f"round trip took {elapsed:.2f}s"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "engine equals brute-force recognizer on >= 1000 random cases, < 30 s"):
        rng = random.Random(20240817)
        start = time.perf_counter()
        disagreements = 0
        for case in range(1000):
            case_net, specs, alphabet = random_case(rng)
            tokens = random_tokens(rng, specs, alphabet, case % 3)
            want = recognize_oracle(case_net, case_net.sequences["test"], tokens)
            got = engine_accepts(case_net, "test", tokens)
            if want != got:
                disagreements += 1
        elapsed = time.perf_counter() - start
        assert disagreements == 0, f"{disagreements} disagreements"
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_criterion_3a_free_required_out_of_position(net):
    with criterion(3, "(a) CF element accepted out of its declared fixed-order position"):
        scrambled = "ce-eykey ken-ney-ti kong-wen eti issnunci allyecwu-si-keyssupnikka?"
        result = translate(net, scrambled, "ko-en")
        assert result.ok
        assert result.target_sentence == "Would you tell me where the Kennedy Park is?"


def test_criterion_3b_omissible_fixed_skip_withdraws_prediction():
    with criterion(3, "(b) OX element skipped when the next element activates, prediction withdrawn"):
        case_net = mini_net("c(OX) a(CX)")
        state = run_engine(case_net, ["wa"])
        accepted = [
            i for i in state.instances
            if is_accepted(case_net, i) and i.cs == "test" and i.start == 0 and i.end == 1
        ]
        assert accepted and accepted[0].fills[0] is None and accepted[0].cursor > 0
        withdraws = [e for e in state.trace if e.event == "withdraw"]
        state.close()
        assert withdraws, "withdrawn prediction must appear in the trace"
        assert "#0" in withdraws[0].location


def test_criterion_3c_omissible_free_omitted_and_initial(net):
    with criterion(3, "(c) OF element omitted in one input and filled sentence-initially in another"):
        without = "ken-ney-ti kong-wen kanun kil-ul allyecwu-si-keyssupnikka?"
        with_subject = KOREAN
        r1 = translate(net, without, "ko-en")
        r2 = translate(net, with_subject, "ko-en")
        assert r1.ok and r2.ok
        subject_fill = [f for f in r2.concept_tree.fills if f.filler == "me"]
        assert subject_fill and subject_fill[0].kind == "lex"
        assert subject_fill[0].span == (0, 1), "subject filled at the first token"
        omitted = [f for f in r1.concept_tree.fills if f.filler == "me" and f.kind == "omitted"]
        assert omitted, "subject recorded as omitted when absent"


def test_criterion_4_morphology(net):
    with criterion(4, "segmentation and generation match the documented forms; round trip holds"):
        m = net.morphology
        analyses = m.segment("ko", "pha-il-tul-ul")
        assert len(analyses) == 1 and analyses[0].forms == ("pha-il", "tul", "ul")
        assert [u.role for u in analyses[0].units] == ["root", "plural", "case-marker"]
        assert m.word_for_morphemes("en", ("study", "s")) == "studies"
        assert m.word_for_morphemes("ko", ("kop", "un")) == "kowun"
        from test_morphology import grammatical_chains
        from markermt.morphology import MorphemeSequence

        for language in ("ko", "en"):
            for units in grammatical_chains(net, language):
                seq = MorphemeSequence(units)
                surface = m.word_for_morphemes(language, seq.forms)
                assert seq.forms in {s.forms for s in m.segment(language, surface)}


def test_criterion_5_default_generation_without_source(net):
    with criterion(5, "omitted subject back-translates through GP-only default generation"):
        korean = "ken-ney-ti kong-wen kanun kil-ul allyecwu-si-keyssupnikka?"
        result = translate(net, korean, "ko-en")
        assert result.ok
        assert result.target_sentence == ENGLISH
        generates = [
            e for e in result.trace
            if e.event == "generate" and e.location == "cs:ecs1#3" and e.binding is None
        ]
        assert generates, "default element must be generated with only a GP marker"
        activations = [
            e for e in result.trace
            if e.event == "activate" and ("lex:me-ko" in e.location or "lex:me-en" in e.location)
        ]
        assert not activations, "no activation may exist for the default-generated element"


def test_criterion_6_scale_and_latency():
    with criterion(6, "synth 1000 200 42 validates; mean latency < 100 ms over 100 sentences"):
        text = synth_network(1000, 200, 42, samples=100)
        net = load_network(text)
        assert validate_network(net) == []
        samples = parse_samples(text)
        assert len(samples) == 100
        timings = []
        for direction, sentence in samples:
            start = time.perf_counter()
            result = translate(net, sentence, direction)
            timings.append(time.perf_counter() - start)
            assert result.ok, f"{direction} {sentence!r} -> {result.status}"
        mean_ms = 1000 * sum(timings) / len(timings)
        assert mean_ms < 100.0, f"mean latency {mean_ms:.1f} ms"


def test_criterion_7_repl_hygiene_and_stability(net, monkeypatch, capsys):
    with criterion(7, "100-sentence REPL leaves empty marker state; first and last traces identical"):
        sentences = [
            ENGLISH,
            "You edited the files.",
            "Would you tell me where the Kennedy Park is?",
        ]
        lines = [":trace on", ENGLISH, ":trace off"]
        lines += [sentences[i % len(sentences)] for i in range(98)]
        lines += [":trace on", ENGLISH, ":quit"]
        closed = closed_sessions(monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["repl", str(TRAVEL_NET), "--dir", "en-ko"]) == 0
        stdout = capsys.readouterr().out
        # one session per sentence; a printed trace is read from the result
        assert len(closed) == 100
        assert not any(state.markers or state.instances or state.agenda for state, _ in closed)

        events = [
            line.removeprefix("> ")
            for line in stdout.splitlines()
            if line.removeprefix("> ").split(" ")[0]
            in ("predict", "activate", "collide", "accept", "generate", "dead", "withdraw", "note")
        ]
        assert events and len(events) % 2 == 0
        half = len(events) // 2
        assert events[:half] == events[half:], "same sentence must trace identically at session start and end"
