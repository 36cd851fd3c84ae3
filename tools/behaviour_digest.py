"""One sha256 per input group over what the translator does with each input.

Run from the root of a checkout:

    python3 tools/behaviour_digest.py > tests/data/behaviour.digest
    python3 tools/behaviour_digest.py travel free-order   # some groups only

Each output line is ``<group> <sentences> <sha256>``.  The hash covers, per
sentence in workload order, the status, the target sentence, the concept
tree's ``repr`` and every trace line.  The groups are the benchmark's
inputs (bench/workloads.py, imported, not changed): the travel corpus,
synth-8k seeds 1, 7, 42, 901 and 2003911559, and free-order seeds 801-810,
3,390 sentences in all.  A change that keeps every line equal keeps the
translator's observable behaviour on them byte-identical.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from markermt import load_network  # noqa: E402
from markermt.translator import translate  # noqa: E402

GROUPS = {
    "travel": ("travel_dialog", (0,)),
    "synth-8k": ("synth_8k", (1, 7, 42, 901, 2003911559)),
    "free-order": ("free_order", tuple(range(801, 811))),
}


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def digest(group: str) -> tuple[int, str]:
    """The sentence count and sha256 of one group."""
    name, seeds = GROUPS[group]
    make = getattr(_workloads(), name)
    sha, count = hashlib.sha256(), 0
    for seed in seeds:
        workload = make(seed)
        nets = [load_network(text) for text in workload.networks]
        for sentence in workload.sentences:
            result = translate(nets[sentence.net], sentence.text, sentence.direction)
            lines = [result.status, result.target_sentence, repr(result.concept_tree)]
            lines += [event.line() for event in result.trace]
            sha.update(("\n".join(lines) + "\n\0").encode("utf-8"))
            count += 1
    return count, sha.hexdigest()


def main(argv: list[str]) -> int:
    for group in argv or GROUPS:
        if group not in GROUPS:
            print(f"unknown group {group!r}; groups: {', '.join(GROUPS)}", file=sys.stderr)
            return 2
        count, hexdigest = digest(group)
        print(f"{group} {count} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
