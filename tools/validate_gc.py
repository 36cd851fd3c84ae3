"""Garbage collections that land inside ``validate_network``, per generation.

Run from the root of a checkout:

    python3 tools/validate_gc.py

Each network (the shipped travel.net and ``synth_network(8000, 1600, 1)``)
is loaded in a fresh interpreter and then validated with a ``gc.callbacks``
hook installed.  Each output line is ``<gen0> <gen1> <gen2> <network>``: the
collections of each generation that started while validate ran.  How many
objects load leaves young decides where the collector runs, so a change to
load can move validate's time without touching validate; these counts show
whether it did.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from markermt import load_network, validate_network  # noqa: E402
from markermt.synth import synth_network  # noqa: E402

NETWORKS = {
    "travel.net": lambda: (ROOT / "src" / "markermt" / "fixtures" / "travel.net").read_text(encoding="utf-8"),
    "synth_network(8000, 1600, 1)": lambda: synth_network(8000, 1600, 1),
}


def collections(name: str) -> list[int]:
    """Load the network ``name`` in this process, then count, per
    generation, the collections that start while it is validated."""
    net = load_network(NETWORKS[name]())
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        validate_network(net)
    finally:
        gc.callbacks.remove(count)
    return counts


def main(argv: list[str]) -> int:
    if argv:  # one network, in this process
        print(*collections(argv[0]), argv[0])
        return 0
    for name in NETWORKS:
        child = subprocess.run([sys.executable, __file__, name], capture_output=True, text=True, check=True)
        sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
