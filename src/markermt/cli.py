"""Command line interface: translate, repl, validate, corpus, synth."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from markermt.markers import MAX_INSTANCES
from markermt.network import DIRECTIONS, NetworkError, load_network, validate_network
from markermt.synth import synth_network
from markermt.translator import (
    NO_PARSE,
    SUCCESS,
    TOO_AMBIGUOUS,
    UNKNOWN_WORD,
    reverse_direction,
    translate,
)

EXIT_OK = 0
EXIT_NO_PARSE = 1
EXIT_UNKNOWN_WORD = 2
EXIT_NETWORK = 3
EXIT_TOO_AMBIGUOUS = 4

_STATUS_EXIT = {
    SUCCESS: EXIT_OK,
    NO_PARSE: EXIT_NO_PARSE,
    UNKNOWN_WORD: EXIT_UNKNOWN_WORD,
    TOO_AMBIGUOUS: EXIT_TOO_AMBIGUOUS,
}

def _load(path: str):
    try:
        return load_network(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read network: {exc}", file=sys.stderr)
    except NetworkError as exc:
        print(f"network error: {exc}", file=sys.stderr)
    return None


def cmd_translate(args) -> int:
    net = _load(args.network)
    if net is None:
        return EXIT_NETWORK
    result = translate(net, args.sentence, args.dir)
    if args.trace:
        for event in result.trace:
            print(event.line(), file=sys.stderr)
    if result.ok:
        print(result.target_sentence)
        return EXIT_OK
    if result.status == UNKNOWN_WORD:
        print(f"unknown word at token {result.error_position}", file=sys.stderr)
    elif result.status == TOO_AMBIGUOUS:
        print(f"too ambiguous: more than {MAX_INSTANCES} chart instances", file=sys.stderr)
    else:
        print("no parse", file=sys.stderr)
    return _STATUS_EXIT[result.status]


def cmd_validate(args) -> int:
    net = _load(args.network)
    if net is None:
        return EXIT_NETWORK
    diagnostics = validate_network(net)
    for d in diagnostics:
        print(d)
    print(f"{len(diagnostics)} problem(s)" if diagnostics else "network ok")
    return EXIT_OK if not diagnostics else EXIT_NO_PARSE


def cmd_corpus(args) -> int:
    net = _load(args.network)
    if net is None:
        return EXIT_NETWORK
    try:
        lines = Path(args.corpus).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    passed = failed = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            print(f"line {lineno}: FAIL malformed entry")
            failed += 1
            continue
        direction, source, expected = parts
        try:
            result = translate(net, source, direction)
        except ValueError as exc:
            print(f"line {lineno}: FAIL {exc}")
            failed += 1
            continue
        if expected == "*":
            good = result.ok
        else:
            good = result.ok and result.target_sentence == expected
        if good:
            print(f"line {lineno}: ok {source!r} -> {result.target_sentence!r}")
            passed += 1
        else:
            got = result.target_sentence if result.ok else result.status
            print(f"line {lineno}: FAIL {source!r} -> {got!r} (expected {expected!r})")
            failed += 1
    print(f"{passed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_NO_PARSE


def cmd_synth(args) -> int:
    try:
        sys.stdout.write(synth_network(args.lexical_pairs, args.cs_pairs, args.seed,
                                       samples=args.samples))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NO_PARSE
    return EXIT_OK


# each REPL command, matched on its whole first word, and its usage
REPL_USAGE = {":dir": ":dir ko-en|en-ko", ":trace": ":trace on|off", ":history": ":history", ":quit": ":quit"}


def cmd_repl(args) -> int:
    net = _load(args.network)
    if net is None:
        return EXIT_NETWORK
    direction = args.dir
    show_trace = False
    history: list[tuple[str, str, str]] = []

    print(f"direction {direction}; :dir, :trace on|off, :history, :quit")
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line.startswith(":"):
            command, *rest = line.split()
            if command not in REPL_USAGE:
                print(f"unknown command {command}")
            elif command == ":quit" and not rest:
                break
            elif command == ":history" and not rest:
                for i, (d, src, out) in enumerate(history, start=1):
                    print(f"{i}. [{d}] {src} => {out}")
            elif command == ":trace" and rest in (["on"], ["off"]):
                show_trace = rest == ["on"]
                print(f"trace {rest[0]}")
            elif command == ":dir" and len(rest) == 1 and "-" in rest[0]:
                try:
                    reverse_direction(rest[0])
                except ValueError as exc:
                    print(exc)
                else:
                    direction = rest[0]
                    print(f"direction {direction}")
            else:  # a known command with the wrong arguments changes nothing
                print(f"usage: {REPL_USAGE[command]}")
            continue

        result = translate(net, line, direction)
        if show_trace:
            for event in result.trace:
                print(event.line())
        if result.ok:
            print(result.target_sentence)
            history.append((direction, line, result.target_sentence))
        else:
            suffix = f" at token {result.error_position}" if result.error_position else ""
            print(f"[{result.status}{suffix}]")
            history.append((direction, line, f"<{result.status}>"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markermt",
        description="Bidirectional memory-based dialog translation (Korean/English, "
        "Yale romanization for Korean).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    directions = [f"{src}-{tgt}" for src, tgt in DIRECTIONS]

    p = sub.add_parser(
        "translate",
        help="translate one sentence",
        epilog="exit codes: 0 success, 1 no parse, 2 unknown word, 3 network error, "
        f"4 too ambiguous (more than {MAX_INSTANCES} chart instances)",
    )
    p.add_argument("network", help="network file path")
    p.add_argument("sentence", help="source sentence")
    p.add_argument("--dir", required=True, choices=directions, help="direction")
    p.add_argument("--trace", action="store_true", help="print marker events to stderr")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("repl", help="interactive translation loop")
    p.add_argument("network")
    p.add_argument("--dir", default="en-ko", choices=directions)
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser(
        "validate",
        help="load a network and report diagnostics",
        epilog="exit codes: 0 network ok, 1 one or more diagnostics, 3 network unreadable "
        "or unloadable",
    )
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "corpus",
        help="run a tab-separated test corpus",
        epilog="exit codes: 0 every line passed, 1 any line failed, 3 network or corpus "
        "file unreadable (or network unloadable)",
    )
    p.add_argument("network")
    p.add_argument("corpus", help="lines of: direction<TAB>source<TAB>expected-or-*")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser(
        "synth",
        help="emit a deterministic synthetic network on stdout",
        epilog="exit codes: 0 network written, 1 a count below 1 (nothing written)",
    )
    p.add_argument("lexical_pairs", type=int)
    p.add_argument("cs_pairs", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("--samples", type=int, default=100, help="sample sentences to append")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
