"""Marker-engine acceptance must equal the brute-force recognizer.

The full 1000-case sweep lives in the acceptance suite; this module keeps a
fast seeded sample plus an exhaustive sweep over small tricky shapes.
"""

import itertools
import random
import time

from markermt.network import ElementType
from markermt.oracle import recognize_oracle

from helpers import engine_accepts, mini_net, random_case, random_tokens


def test_random_sample_agrees():
    rng = random.Random(2024)
    for case in range(300):
        net, specs, alphabet = random_case(rng)
        tokens = random_tokens(rng, specs, alphabet, case % 3)
        want = recognize_oracle(net, net.sequences["test"], tokens)
        got = engine_accepts(net, "test", tokens)
        assert want == got, f"{[s[:2] for s in specs]} on {tokens}: oracle={want} engine={got}"


EXHAUSTIVE_SHAPES = [
    "a(CX) b(CX)",
    "a(OX) b(CX)",
    "a(CF) b(CX)",
    "a(OF) b(CF)",
    "a(OF) a(CF)",        # same filler on two free elements
    "a(OX) a(OX) b(CX)",  # omissible run sharing a filler
    "a(CF) b(OX) a(CX)",
    '"q0"(OX) a(CX) b(OF)',
    # identical free elements (twins), which fill in index order only
    "a(CF) a(CF) a(CF)",
    "a(OF) a(OF) b(CX)",
    "a(CF) a(OF) a(CF)",
    '"q0"(CF) "q0"(CF) a(OX)',
]


def _agree_on_every_input(shapes, alphabet, extra=""):
    """Engine against oracle on every input of one to four words."""
    for shape in shapes:
        net = mini_net(shape, extra=extra)
        cs = net.sequences["test"]
        for n in range(1, 5):
            for tokens in itertools.product(alphabet, repeat=n):
                want = recognize_oracle(net, cs, list(tokens))
                got = engine_accepts(net, "test", list(tokens))
                assert want == got, f"{shape} on {tokens}: oracle={want} engine={got}"


def test_exhaustive_small_shapes():
    _agree_on_every_input(EXHAUSTIVE_SHAPES, ["wa", "wb", "q0"])


# word wf reads as f, which sits below both a and b, so it can fill
# either of two distinct elements
MULTI_PARENT = "concept f isa a,b\nlex k-f ko wf isa f\nlex e-f en vf isa f"
MULTI_PARENT_SHAPES = [
    "a(CF) b(CF)",
    "a(OF) b(CF) a(CX)",
    "a(CF) b(CF) a(OF)",
    "a(OF) b(OF) b(CX)",
    "a(CX) b(CF) a(CF)",
    "a(CF) a(CF) b(CF)",
    '"q0"(OX) a(CF) b(OF)',
]


def test_exhaustive_multi_parent_shapes():
    _agree_on_every_input(MULTI_PARENT_SHAPES, ["wa", "wb", "wf", "q0"], MULTI_PARENT)


# concept d also owns a sequence, so an element filled by d can span one
# token (wd, or wa alone) or two (wa wb)
NESTED = "cs sub ko of d pair subm : a(CX) b(OX)\ncs subm en of d pair sub : a(CX)"
NESTED_SHAPES = [
    "d(CX) c(CX)",
    "d(CF) c(CF)",
    "d(OX) b(CX)",
    "c(CF) d(OF) b(CX)",
]


def test_exhaustive_nested_shapes():
    _agree_on_every_input(NESTED_SHAPES, ["wa", "wb", "wc", "wd"], NESTED)


def _twin_shape(rng: random.Random) -> str:
    """A random 2-5 element shape in which one free element is repeated."""
    fillers = ["a", "b", '"q0"']
    elements = [
        f"{rng.choice(fillers)}({rng.choice(ElementType.ALL)})" for _ in range(rng.randint(0, 3))
    ]
    twin = f"{rng.choice(fillers)}({rng.choice(('CF', 'OF'))})"
    for _ in range(rng.choice((2, 2, 3))):
        elements.insert(rng.randint(0, len(elements)), twin)
    if all(ElementType.omissible(e[-3:-1]) for e in elements):
        elements.insert(rng.randint(0, len(elements)), "b(CX)")
    return " ".join(elements)


def test_random_shapes_with_repeated_free_fillers_agree():
    rng = random.Random(1970)
    alphabet = ["wa", "wb", "q0"]
    for _ in range(150):
        shape = _twin_shape(rng)
        net = mini_net(shape)
        cs = net.sequences["test"]
        words = [{"a": "wa", "b": "wb"}.get(e[0], "q0") for e in shape.split()]
        inputs = [[rng.choice(alphabet) for _ in range(rng.randint(1, 5))] for _ in range(4)]
        for _ in range(4):
            kept = [w for w in words if rng.random() < 0.8] or words
            rng.shuffle(kept)
            inputs.append(kept)
        for tokens in inputs:
            want = recognize_oracle(net, cs, tokens)
            got = engine_accepts(net, "test", tokens)
            assert want == got, f"{shape} on {tokens}: oracle={want} engine={got}"


def _nested_case(rng: random.Random):
    """A network whose ``test`` reaches sequences two or three levels down,
    and the ko shape of each of its sequences by owner.  ``sd`` (owner d)
    opens with an element filled by e, which owns ``se``; at depth 3 ``se``
    opens with c, which owns ``sc``.  Element types are random, so three
    opening elements in four are omissible or free, and an instance of a
    deeper sequence can start wherever its owner is a left corner of what
    is predicted."""

    def shape(first, fillers, size):
        elements = [first] + [rng.choice(fillers) for _ in range(size)]
        elements = [(filler, rng.choice(ElementType.ALL)) for filler in elements]
        if all(ElementType.omissible(etype) for _, etype in elements):
            elements[-1] = (elements[-1][0], "CX")
        return elements

    depth = rng.choice((2, 3))
    shapes = {
        "d": shape("e", ["a", "b"], rng.randint(0, 2)),
        "e": shape("c" if depth == 3 else "a", ["a", "b"], 1),
    }
    if depth == 3:
        shapes["c"] = shape("a", ["b", '"q0"'], rng.randint(0, 1))
    top = shape(rng.choice("abcd"), ["a", "b", "c", "d"], rng.randint(0, 1))
    top.insert(rng.randint(1, len(top)), ("d", rng.choice(ElementType.ALL)))
    shapes["top"] = top
    lines = []
    for owner, elements in shapes.items():
        if owner != "top":
            body = " ".join(f"{f}({t})" for f, t in elements)
            lines.append(f"cs s{owner} ko of {owner} pair s{owner}m : {body}")
            lines.append(f"cs s{owner}m en of {owner} pair s{owner} : a(CX)")
    return mini_net(" ".join(f"{f}({t})" for f, t in top), "\n".join(lines)), shapes


def _expand(rng: random.Random, shapes, owner) -> list[str]:
    """Words for one member of the sequence of ``owner``, in element order,
    omissible elements dropped at random; a filler that owns a sequence is
    read as its own word or expanded."""
    words = []
    for filler, etype in shapes[owner]:
        if ElementType.omissible(etype) and rng.random() < 0.4:
            continue
        if filler.startswith('"'):
            words.append(filler.strip('"'))
        elif filler in shapes and rng.random() < 0.7:
            words += _expand(rng, shapes, filler)
        else:
            words.append(f"w{filler}")
    return words


def test_seeded_nested_sweep_agrees():
    rng = random.Random(1986)
    alphabet = ["wa", "wb", "wc", "wd", "we", "q0"]
    started = time.perf_counter()
    accepted = 0
    for _ in range(200):
        net, shapes = _nested_case(rng)
        cs = net.sequences["test"]
        inputs = [[rng.choice(alphabet) for _ in range(rng.randint(2, 4))]]
        for _ in range(4):
            tokens = _expand(rng, shapes, "top")
            if rng.random() < 0.3 and len(tokens) > 1:
                at = rng.randrange(len(tokens) - 1)
                tokens[at : at + 2] = tokens[at + 1], tokens[at]
            inputs.append(tokens[:5])
        for tokens in inputs:
            want = recognize_oracle(net, cs, tokens)
            got = engine_accepts(net, "test", tokens)
            assert want == got, f"{shapes} on {tokens}: oracle={want} engine={got}"
            accepted += want
    assert accepted > 500
    assert time.perf_counter() - started < 30
