import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_travel_digest_matches_the_committed_one():
    # the whole file is checked by CI (tools/behaviour_digest.py, ~35 s);
    # its travel group is cheap enough to check here
    spec = importlib.util.spec_from_file_location("behaviour_digest", ROOT / "tools" / "behaviour_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    committed = (ROOT / "tests" / "data" / "behaviour.digest").read_text(encoding="utf-8").splitlines()
    assert [line.split()[0] for line in committed] == list(tool.GROUPS)
    count, sha = tool.digest("travel")
    assert f"travel {count} {sha}" == committed[0]
