"""The benchmark's three workloads, generated from a seed.

A workload is a list of network texts plus a pool of sentences, each tied
to one network and carrying the reference the bench checks the result
against.  Nothing here is timed: references (the oracle's verdicts
included) are computed while the inputs are built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from markermt import load_network
from markermt.oracle import recognize_oracle
from markermt.synth import parse_samples, synth_network

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "markermt" / "fixtures"

SUCCESS = "success"
NO_PARSE = "no-parse"


@dataclass(frozen=True)
class Sentence:
    net: int  # index into Workload.networks
    direction: str
    text: str
    status: str  # the status the translation must end in
    output: str | None  # the exact target sentence, or None when not compared


@dataclass(frozen=True)
class Workload:
    networks: tuple[str, ...]  # network file texts
    sentences: tuple[Sentence, ...]
    # set-up and validate repetitions per run
    setup_reps: int
    validate_reps: int


def travel_dialog(seed: int) -> Workload:
    """The shipped travel network and its hand-checked corpus."""
    del seed  # the fixed corpus is the input; the seed orders the replay
    text = (FIXTURES / "travel.net").read_text(encoding="utf-8")
    sentences = []
    for line in (FIXTURES / "travel.corpus").read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        direction, source, expected = line.split("\t")
        sentences.append(
            Sentence(0, direction, source, SUCCESS, None if expected == "*" else expected)
        )
    return Workload((text,), tuple(sentences), setup_reps=15, validate_reps=15)


def synth_8k(seed: int) -> Workload:
    """A synthetic 8000/1600 network and its sample sentences."""
    text = synth_network(8000, 1600, seed)
    sentences = tuple(
        Sentence(0, direction, source, SUCCESS, None) for direction, source in parse_samples(text)
    )
    return Workload((text,), sentences, setup_reps=5, validate_reps=5)


# free-order networks share one IS-A tree: thing > m0..m2 > two leaves each
# (m0a, m0b, ...), two ko/en word pairs per leaf.  Each shape below is the
# one ko sequence of one network; its fillers repeat or overlap through IS-A.
# The networks are the same for every seed, so set-up and validate do the
# same work; the seed picks the inputs.
FREE_SHAPES = (
    "m0:CF m1:CF m0a:CF m1b:OF",
    "thing:CF m0:CF m0a:CF m2b:CF",
    "m0:CF m0:CF m1:CF m2a:CF m0b:OF",
    "thing:CF m1:CF m2:OF m1a:CF m2b:CF",
    "thing:CF thing:CF m0:CF m1a:CF m2a:OF",
    "m0:CF m1:CF m2:OF m0a:CF m1b:CF m2a:OF",
    "thing:CF m0:CF m0:CF m0a:CF m1a:CF m2b:OF",
    "thing:CF thing:CF m1:CF m2:CF m1b:CF m2a:CF",
)
FREE_SENTENCES = 36  # inputs per network
FREE_CORRUPTIONS = ("replace", "drop", "insert")
FREE_MIDS = ("m0", "m1", "m2")
SYLLABLES = [c + v for c in "kmnpstlch" for v in "aeiou"]


def _free_network(shape: str):
    """The network text for ``shape``, its ko words per leaf, and the etype
    and accepted leaves of each ko element."""
    lines = ["concept thing", "concept s sentence-type statement"]
    words: dict[str, list[str]] = {}
    syllables = iter(SYLLABLES)
    for m in FREE_MIDS:
        lines.append(f"concept {m} isa thing")
        for leaf in (m + "a", m + "b"):
            lines.append(f"concept {leaf} isa {m}")
            words[leaf] = []
            for i, syl in zip(range(2), syllables):
                lines.append(f"lex k{leaf}{i} ko {syl}-{syl} isa {leaf}")
                lines.append(f"lex e{leaf}{i} en {syl}{syl}n isa {leaf}")
                words[leaf].append(f"{syl}-{syl}")

    elems = []  # (filler, etype, depth, leaves below)
    for part in shape.split():
        filler, etype = part.split(":")
        below = [leaf for leaf in words if leaf.startswith(filler) or filler == "thing"]
        depth = 0 if filler == "thing" else 1 if filler in FREE_MIDS else 2
        elems.append((filler, etype, depth, below))
    lines.append("cs ks ko of s pair es : " + " ".join(f"{f}({t})" for f, t, _, _ in elems))
    # English is fixed-order CX.  Deepest fillers come first and the
    # defaulted counterparts of omissible elements last, so the realizer's
    # first-fit assignment always finds every required fill.
    ordered = sorted(elems, key=lambda e: (e[1] == "OF", -e[2]))
    lines.append(
        "cs es en of s pair ks : "
        + " ".join(
            f"{f}(CX)" + (f"=e{below[0]}0" if t == "OF" else "") for f, t, _, below in ordered
        )
    )
    return "\n".join(lines) + "\n", words, [(t, below) for _, t, _, below in elems]


def free_order(seed: int) -> Workload:
    """Scrambled and corrupted inputs to small free-order networks.

    The leaf each token reads as rotates through its element's leaves; even
    inputs keep their OF elements, odd ones drop them, and every fourth
    input has one word replaced, dropped or inserted.  The seed picks the
    word of each leaf, the token order and the corruptions."""
    rng = random.Random(seed)
    texts, sentences = [], []
    for shape in FREE_SHAPES:
        text, words, spec = _free_network(shape)
        net = load_network(text)
        all_words = [w for ws in words.values() for w in ws]
        for k in range(FREE_SENTENCES):
            tokens = [
                rng.choice(words[below[(k + i) % len(below)]])
                for i, (etype, below) in enumerate(spec)
                if etype == "CF" or k % 2 == 0
            ]
            rng.shuffle(tokens)
            if k % 4 == 1:
                at = rng.randrange(len(tokens))
                corruption = FREE_CORRUPTIONS[k // 4 % len(FREE_CORRUPTIONS)]
                if corruption == "replace":
                    tokens[at] = rng.choice(all_words)
                elif corruption == "drop":
                    tokens.pop(at)
                else:
                    tokens.insert(at, rng.choice(all_words))
            ok = recognize_oracle(net, net.sequences["ks"], tokens)
            sentences.append(
                Sentence(len(texts), "ko-en", " ".join(tokens), SUCCESS if ok else NO_PARSE, None)
            )
        texts.append(text)
    return Workload(tuple(texts), tuple(sentences), setup_reps=11, validate_reps=11)


WORKLOADS = {
    "travel-dialog": travel_dialog,
    "synth-8k": synth_8k,
    "free-order": free_order,
}
