"""Physical and code lines of each file of ``src/markermt``, and their totals.

Run from the root of a checkout:

    python3 tools/src_lines.py

Each output line is ``<lines> <code> <file>``; the last is the totals.  A
code line is one that holds a token other than a comment, a blank-line
``NL`` or a docstring (a statement that is nothing but a string); a token
that spans lines, such as a call split over several, makes each of its
lines a code line.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """The physical and the code lines of one Python source text."""
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the significant tokens of the current statement
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):  # not a docstring
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(text.splitlines()), len(code)


def main() -> int:
    total_lines = total_code = 0
    for path in sorted((ROOT / "src" / "markermt").glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines} {code} {path.relative_to(ROOT)}")
    print(f"{total_lines} {total_code} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
