import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SNIPPET = '''"""A module docstring
over two lines."""

# a comment
total = sum(
    (1, 2),  # a trailing comment
    start=0,
)


def half(x):
    """A function docstring."""

    return x / 2
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # code: the four lines of the call, ``def`` and ``return``
    assert _tool().count(SNIPPET) == (14, 6)


def test_totals_are_the_sum_of_the_files(capsys):
    assert _tool().main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][2] == "total" and all(row[2].startswith("src/markermt/") for row in rows[:-1])
    assert [int(n) for n in rows[-1][:2]] == [sum(int(row[i]) for row in rows[:-1]) for i in (0, 1)]
