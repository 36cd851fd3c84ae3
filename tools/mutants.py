"""Mutation check of the tier-1 suite: each catalogued mutant must make it fail.

Run from the root of a checkout:

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only the named ones

Each entry of ``MUTANTS`` names one file of the checkout, an exact snippet
that occurs in it once, the replacement that makes the mutant, and why the
mutant is worth catching.  The tool copies the checkout to a temporary
directory for each mutant (the checkout itself is never written), applies
the replacement there and runs tier-1 on the copy with ``-x``, as CI runs
it but stopping at the first failure, with no tracer, and without the
catalogue's own check (``OWN_CHECK``), which no mutated copy can pass.  It
prints one line per mutant, ``killed <name>: <first failing test>`` or
``survived <name>: <reason>``, and exits 1 if any mutant survived, 2 if an
entry's snippet does not occur exactly once (the catalogue has gone
stale), else 0.  A killed mutant costs the run up to its first failure; a
survivor costs a whole tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# the catalogue's own tier-1 check fails on every mutated copy, which no
# longer holds its snippet, so it is left out of the mutant runs
OWN_CHECK = "tests/test_mutants.py::test_every_catalogued_snippet_occurs_once"
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    snippet: str
    replacement: str
    reason: str


MUTANTS = (
    Mutant(
        "emit-last-target-item",
        "src/markermt/translator.py",
        "return net.morphology.word_of[items[0]]",
        "return net.morphology.word_of[items[-1]]",
        "a concept with two target items must generate the first one declared",
    ),
    Mutant(
        "winner-ties-to-last-created",
        "src/markermt/markers.py",
        "order[cs.id] < order[best.cs]",
        "order[cs.id] <= order[best.cs]",
        "tied full-span parses of one sequence must pick the instance created first",
    ),
    Mutant(
        "rule-steps-keyed-as-plain",
        "src/markermt/morphology.py",
        "for cls_ in rules[1] if rules else ():",
        "for cls_ in ():",
        "a step with rules may rewrite the reading it follows, so segment must try it where one of"
        " its classes ends the reading: kop + un surfaces as kowun",
    ),
    Mutant(
        "rule-steps-not-keyed",
        "src/markermt/morphology.py",
        "keyed.setdefault(key, []).append(step)",
        "rules or keyed.setdefault(key, []).append(step)",
        "a step with rules attaches plainly where none of its classes ends the reading, so segment"
        " must try it where the word continues with it: edit + ed surfaces as edited",
    ),
    Mutant(
        "rule-class-of-the-folded-reading",
        "src/markermt/morphology.py",
        "ruled.get(formed[at - length :], ())",
        "ruled.get(folded[at - length :], ())",
        "a rule matches its class on the stored spelling, so segment must look the class up there:"
        " boX + ab surfaces as boYab under X+ab -> Yab",
    ),
    Mutant(
        "reading-kept-that-no-step-fits",
        "src/markermt/morphology.py",
        "if not grows or len(surface) + least > room:",
        "if not grows:",
        "a reading that no step of its role can still fit in the word must not be kept for the"
        " search: it would cost a lookup and find nothing",
    ),
    Mutant(
        "successor-lookup-at-the-stored-length",
        "src/markermt/morphology.py",
        "if len(folded) > at:",
        "if False:",
        "a reading that casefolding lengthens (ß folds to ss) must find its affixes where it ends"
        " folded",
    ),
    Mutant(
        "build-keeps-a-second-affix",
        "src/markermt/network.py",
        "if (a.language, a.morpheme) in affixes:",
        "if False:",
        "two affixes of one language and morpheme must be rejected, loaded or built in code: the"
        " morphology would keep the last role with both after lists",
    ),
    Mutant(
        "build-keeps-an-all-omissible-sequence",
        "src/markermt/network.py",
        "if not ElementType.omissible(el.etype):\n                break",
        "if True:\n                break",
        "a sequence whose every element is omissible accepts the empty string and must be rejected,"
        " loaded or built in code",
    ),
    Mutant(
        "oracle-derives-a-span-again",
        "src/markermt/oracle.py",
        "if key in visiting:",
        "if False:",
        "the oracle must not derive one span through one sequence twice in one derivation: a unary"
        " cycle would nest until MAX_DEPTH",
    ),
)


def check_catalogue(root: Path = ROOT) -> list[str]:
    """One message per entry whose snippet does not occur exactly once in
    its file under ``root``."""
    stale = []
    for m in MUTANTS:
        count = (root / m.file).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            stale.append(f"{m.name}: the snippet occurs {count} times in {m.file}")
    return stale


def first_failure(output: str) -> str:
    """The first ``FAILED`` or ``ERROR`` test of a pytest summary, or the
    last output line where there is none."""
    lines = output.splitlines()
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return lines[-1] if lines else "(no output)"


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply ``mutant`` to a temporary copy of the checkout and run tier-1
    there: ``(killed, first failing test)``."""
    with tempfile.TemporaryDirectory(prefix="markermt-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        path = copy / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        src = str(copy / "src")
        path_var = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path_var if path_var else src)
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--deselect", OWN_CHECK],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    return done.returncode != 0, first_failure(done.stdout + done.stderr)


def main(argv: list[str]) -> int:
    stale = check_catalogue()
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    if not chosen:
        print(f"no mutant named {' '.join(argv)}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        killed, failure = run(mutant)
        if killed:
            print(f"killed {mutant.name}: {failure}", flush=True)
        else:
            survived += 1
            print(f"survived {mutant.name}: {mutant.reason}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
