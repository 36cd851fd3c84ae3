"""Shared helpers: drive the marker engine directly and build mini networks."""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import random
import sys
from pathlib import Path
from types import MappingProxyType

from markermt.markers import DirectionPlan, MarkerState, initial_predictions
from markermt.network import ElementType, load_network
from markermt.translator import word_items


def run_engine(net, tokens, source="ko", target="en") -> MarkerState:
    """Feed surface tokens through a session and return it unclosed."""
    state = MarkerState(net, source, target)
    state.initial_prediction()
    literals = net.literals[source]
    for i, word in enumerate(tokens):
        literal = word if word in literals else None
        state.activate(word_items(net, source, word), i, literal=literal)
        state.step_collisions()
    return state


def planned_markers(net, source, target) -> tuple[list, list, list]:
    """The markers of the initial prediction of ``source`` to ``target``,
    in the order :func:`~markermt.markers.initial_predictions` yields them:
    the ``(cs id, index)`` slots and the lexical item ids under AP, and the
    target sequence ids whose element 0 holds GP."""
    sites: dict[str, list] = {"cse": [], "lex": [], "tcse": []}
    for site, what in initial_predictions(net, source, target, set(), set()):
        sites[site].append(what)
    return sites["cse"], sites["lex"], sites["tcse"]


def closed_sessions(monkeypatch, check=lambda state: None) -> list:
    """Make ``MarkerState.close`` append ``(session, check(session))`` to
    the returned list, ``check`` run just before ``close`` empties the
    session."""
    closed = []
    real_close = MarkerState.close

    def checking_close(state):
        closed.append((state, check(state)))
        real_close(state)

    monkeypatch.setattr(MarkerState, "close", checking_close)
    return closed


def plain(value):
    """``value`` in a form ``copy.deepcopy`` can copy, as strict under
    ``==``: read-only mappings become dicts, and a :class:`DirectionPlan`
    its class and a dict of its fields, recursively."""
    if isinstance(value, (dict, MappingProxyType)):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, DirectionPlan):
        fields = {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return (DirectionPlan, fields)
    return value


def cli_env() -> dict[str, str]:
    """The environment for a ``python -m markermt`` child: this one, with
    the checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def free_order_sentences(seed: int) -> list[tuple[str, str]]:
    """``(network text, ko sentence)`` of every input of the benchmark's
    free-order workload for ``seed`` (bench/workloads.py)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    workload = workloads.free_order(seed)
    return [(workload.networks[s.net], s.text) for s in workload.sentences]


def is_accepted(net, inst) -> bool:
    """Whether a chart instance has every required element filled."""
    required = net.layouts[inst.cs].required
    return inst.filled & required == required


def engine_accepts(net, cs_id, tokens, source="ko", target="en") -> bool:
    state = run_engine(net, tokens, source, target)
    ok = any(
        is_accepted(net, inst)
        and inst.cs == cs_id
        and inst.start == 0
        and inst.end == len(tokens)
        for inst in state.instances
    )
    state.close()
    return ok


def mini_net(elements: str, extra: str = ""):
    """Network with one ko test sequence over concepts a..e and literals.

    ``elements`` is the element list of the test sequence, e.g.
    ``a(CX) b(OX) c(CX)``; each single-letter concept x has ko word ``wx``
    and en word ``vx``.
    """
    lines = []
    for c in "abcde":
        lines.append(f"concept {c}")
        lines.append(f"lex k-{c} ko w{c} isa {c}")
        lines.append(f"lex e-{c} en v{c} isa {c}")
    lines.append("concept top")
    lines.append(f"cs test ko of top pair mirror : {elements}")
    lines.append("cs mirror en of top pair test : a(CX)")
    if extra:
        lines.append(extra)
    return load_network("\n".join(lines))


def deep_chain(depth: int) -> str:
    """Network text in which ``w0`` nests ``depth`` sequences: c_i owns ko
    k_i and en e_i, both ``c_{i-1}(CX)``, top sequences first."""
    lines = ["concept c0", "lex k-c0 ko w0 isa c0", "lex e-c0 en v0 isa c0"]
    lines += [f"concept c{i}" for i in range(1, depth + 1)]
    for i in range(depth, 0, -1):
        lines += [
            f"cs k{i} ko of c{i} pair e{i} : c{i - 1}(CX)",
            f"cs e{i} en of c{i} pair k{i} : c{i - 1}(CX)",
        ]
    return "\n".join(lines)


def multi_parent_probe(k: int) -> str:
    """Network text whose ko sequence has k distinct free elements
    ``m0(CF) .. m(k-1)(CF)`` that one word fills: ``wl`` reads as concept
    ``l isa m0,..,m(k-1)``.  Input: k copies of ``wl``."""
    parents = [f"m{i}" for i in range(k)]
    lines = [f"concept {m}" for m in parents]
    lines += [
        "concept top sentence-type statement",
        "concept l isa " + ",".join(parents),
        "lex k-l ko wl isa l",
        "lex e-l en vl isa l",
        "cs s ko of top pair t : " + " ".join(f"{m}(CF)" for m in parents),
        "cs t en of top pair s : " + " ".join(f"{m}(CX)" for m in parents),
    ]
    return "\n".join(lines)


def random_case(rng: random.Random):
    """One random (network, test sequence, element specs, alphabet) tuple."""
    n_concepts = rng.randint(2, 4)
    n_elements = rng.randint(1, 6)
    lines = []
    for i in range(n_concepts):
        lines.append(f"concept x{i}")
        lines.append(f"lex kx{i} ko w{i} isa x{i}")
        lines.append(f"lex ex{i} en v{i} isa x{i}")
    lines.append("concept top")
    specs = []  # (filler-or-literal, etype, surface word)
    for j in range(n_elements):
        etype = rng.choice(ElementType.ALL)
        if rng.random() < 0.2:
            specs.append((f'"q{j}"', etype, f"q{j}"))
        else:
            c = rng.randrange(n_concepts)
            specs.append((f"x{c}", etype, f"w{c}"))
    if not any(t in ("CX", "CF") for _, t, _ in specs):
        filler, _, word = specs[0]
        specs[0] = (filler, "CX", word)
    lines.append("cs test ko of top pair mirror : " + " ".join(f"{f}({t})" for f, t, _ in specs))
    lines.append("cs mirror en of top pair test : x0(CX)")
    net = load_network("\n".join(lines))
    alphabet = [f"w{i}" for i in range(n_concepts)] + [w for f, _, w in specs if f.startswith('"')]
    return net, specs, alphabet


def random_tokens(rng: random.Random, specs, alphabet, mode: int) -> list[str]:
    if mode == 0:
        return [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
    tokens = [w for _, t, w in specs if not ElementType.omissible(t) or rng.random() < 0.6]
    if mode == 2 and len(tokens) > 1:
        rng.shuffle(tokens)
    if rng.random() < 0.3 and tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(alphabet)
    return tokens or [rng.choice(alphabet)]
