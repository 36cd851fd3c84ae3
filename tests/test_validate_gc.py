import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("validate_gc", ROOT / "tools" / "validate_gc.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_network_prints_a_count_per_generation(capsys):
    tool = _tool()
    assert tool.main(["travel.net"]) == 0
    *counts, name = capsys.readouterr().out.split()
    assert name == "travel.net"
    assert len(counts) == 3 and all(count.isdigit() for count in counts)
