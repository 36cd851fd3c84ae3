import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tool  # its named tuple looks its module up
    spec.loader.exec_module(tool)
    return tool


def test_every_catalogued_snippet_occurs_once():
    tool = _tool()
    assert tool.OWN_CHECK.endswith("::" + test_every_catalogued_snippet_occurs_once.__name__)
    assert tool.MUTANTS and tool.check_catalogue() == []
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    assert all(m.snippet != m.replacement and m.reason for m in tool.MUTANTS)


def test_stale_snippet_is_reported(tmp_path):
    tool = _tool()
    texts = {}
    for m in tool.MUTANTS:
        texts[m.file] = texts.get(m.file, "") + m.snippet * 2
    for file, text in texts.items():
        path = tmp_path / file
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    stale = tool.check_catalogue(tmp_path)
    assert len(stale) == len(tool.MUTANTS) and all("occurs 2 times" in line for line in stale)


def test_first_failure_is_the_first_failing_test():
    summary = "..F\nFAILED tests/a.py::test_x - AssertionError: no\nERROR tests/b.py::test_y\n1 failed"
    assert _tool().first_failure(summary) == "tests/a.py::test_x"
    assert _tool().first_failure("E   ImportError\n1 error") == "1 error"
