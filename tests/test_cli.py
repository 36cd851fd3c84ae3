import io
import subprocess
import sys

import pytest

from markermt.cli import main
from markermt.network import load_network, validate_network
from markermt.synth import parse_samples
from markermt.translator import translate

from conftest import TRAVEL_CORPUS, TRAVEL_NET
from helpers import cli_env, multi_parent_probe

ENGLISH = "Would you tell me the way to Kennedy Park?"
KOREAN = "ce-eykey ken-ney-ti kong-wen kanun kil-ul allyecwu-si-keyssupnikka?"


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "markermt", *args],
        env=cli_env(),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc


def test_translate_success(capsys):
    code = main(["translate", str(TRAVEL_NET), ENGLISH, "--dir", "en-ko"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.strip() == KOREAN


def test_translate_trace_goes_to_stderr(capsys):
    code = main(["translate", str(TRAVEL_NET), ENGLISH, "--dir", "en-ko", "--trace"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.strip() == KOREAN
    assert "predict AP" in out.err and "accept AA" in out.err


def test_translate_no_parse_exit_1(capsys):
    code = main(["translate", str(TRAVEL_NET), "way the you would", "--dir", "en-ko"])
    out = capsys.readouterr()
    assert code == 1
    assert "no parse" in out.err


def test_translate_unknown_word_exit_2(capsys):
    code = main(["translate", str(TRAVEL_NET), "xqz", "--dir", "en-ko"])
    out = capsys.readouterr()
    assert code == 2
    assert "token 1" in out.err


def test_translate_missing_network_exit_3(capsys):
    code = main(["translate", "/no/such/file.net", "hello", "--dir", "en-ko"])
    assert code == 3


def test_translate_network_with_affix_adjacency_break_exit_3(tmp_path, travel_text):
    bad = tmp_path / "bad.net"
    bad.write_text(travel_text.replace("lex edit-en en edit+ed isa edit", "lex edit-en en edit+ed+s isa edit"))
    proc = run_cli(["translate", str(bad), "pha-il-tul-ul swu-ceng-ha-yess-supnita.", "--dir", "ko-en"])
    assert proc.returncode == 3
    assert proc.stderr == "network error: lexical item 'edit-en': affix 's' (suffix) cannot follow suffix\n"


def test_translate_bad_network_error_in_process(tmp_path, capsys):
    # the message goes to the sys.stderr of the call, not of the import
    bad = tmp_path / "bad.net"
    bad.write_text("frobnicate x\n")
    code = main(["translate", str(bad), "hello", "--dir", "en-ko"])
    assert code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "network error: line 1, column 1: unknown declaration 'frobnicate'\n"


@pytest.mark.parametrize("command", [["translate", str(TRAVEL_NET), "hello"], ["repl", str(TRAVEL_NET)]])
@pytest.mark.parametrize("direction", ["ko-ko", "xx-yy", "en"])
def test_bad_direction_is_a_usage_error(command, direction):
    proc = run_cli([*command, "--dir", direction])
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ")
    assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr


def test_network_not_utf8_exit_3(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_bytes(b"concept a\xff\n")
    for command in (["validate", str(bad)], ["translate", str(bad), "hello", "--dir", "en-ko"]):
        proc = run_cli(command)
        assert proc.returncode == 3
        assert proc.stderr.startswith("cannot read network: ") and "Traceback" not in proc.stderr


def test_corpus_not_utf8_exit_3(tmp_path):
    corpus = tmp_path / "bad.corpus"
    corpus.write_bytes(b"en-ko\thello\t*\xff\n")
    proc = run_cli(["corpus", str(TRAVEL_NET), str(corpus)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("cannot read corpus: ") and "Traceback" not in proc.stderr


def test_translate_too_ambiguous_exit_4(tmp_path, capsys):
    probe = tmp_path / "probe.net"
    probe.write_text(multi_parent_probe(13))
    code = main(["translate", str(probe), " ".join(["wl"] * 13), "--dir", "ko-en"])
    assert code == 4
    assert "too ambiguous" in capsys.readouterr().err


def test_corpus_counts_too_ambiguous_as_failure(tmp_path, capsys):
    probe = tmp_path / "probe.net"
    probe.write_text(multi_parent_probe(13))
    corpus = tmp_path / "probe.corpus"
    corpus.write_text("ko-en\t" + " ".join(["wl"] * 13) + "\t*\n")
    code = main(["corpus", str(probe), str(corpus)])
    out = capsys.readouterr().out
    assert code == 1
    assert "'too-ambiguous'" in out and "0 passed, 1 failed" in out


def test_validate_clean(capsys):
    assert main(["validate", str(TRAVEL_NET)]) == 0
    assert "network ok" in capsys.readouterr().out


def test_validate_reports_diagnostics(tmp_path, capsys, travel_text):
    bad = tmp_path / "bad.net"
    bad.write_text(travel_text + "\nconcept zz isa zz\n")
    assert main(["validate", str(bad)]) == 1
    assert "isa-cycle" in capsys.readouterr().out


def test_corpus_all_pass(capsys):
    code = main(["corpus", str(TRAVEL_NET), str(TRAVEL_CORPUS)])
    out = capsys.readouterr().out
    assert code == 0
    assert "10 passed, 0 failed" in out


def test_corpus_wrong_expected_fails(tmp_path, capsys):
    corpus = tmp_path / "bad.corpus"
    corpus.write_text("en-ko\tYou edited the files.\twrong expectation\n")
    code = main(["corpus", str(TRAVEL_NET), str(corpus)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "0 passed, 1 failed" in out


def test_corpus_malformed_line_counts_as_failure(tmp_path, capsys):
    corpus = tmp_path / "bad.corpus"
    corpus.write_text("only-two\tfields\n")
    code = main(["corpus", str(TRAVEL_NET), str(corpus)])
    assert code == 1
    assert "malformed" in capsys.readouterr().out


def test_corpus_empty(tmp_path, capsys):
    corpus = tmp_path / "empty.corpus"
    corpus.write_text("# nothing here\n")
    code = main(["corpus", str(TRAVEL_NET), str(corpus)])
    assert code == 0
    assert "0 passed, 0 failed" in capsys.readouterr().out


def test_synth_minimal(capsys):
    assert main(["synth", "1", "1", "7"]) == 0
    text = capsys.readouterr().out
    net = load_network(text)
    assert validate_network(net) == []


def test_synth_count_below_one_exits_1(capsys):
    assert main(["synth", "0", "1", "1"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "counts must be >= 1\n")


def test_synth_help_names_its_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--help"])
    assert "exit codes: 0 network written, 1 a count below 1" in " ".join(capsys.readouterr().out.split())


def test_synth_deterministic(capsys):
    main(["synth", "50", "10", "42"])
    first = capsys.readouterr().out
    main(["synth", "50", "10", "42"])
    second = capsys.readouterr().out
    assert first == second
    assert first != ""


def test_synth_validates_and_samples_translate(capsys):
    assert main(["synth", "60", "12", "3", "--samples", "6"]) == 0
    text = capsys.readouterr().out
    net = load_network(text)
    assert validate_network(net) == []
    samples = parse_samples(text)
    assert len(samples) == 6
    for direction, sentence in samples:
        assert translate(net, sentence, direction).ok


def test_repl_session():
    script = (
        ":dir ko-en\n"
        f"{KOREAN}\n"
        ":dir en-ko\n"
        f"{ENGLISH}\n"
        ":history\n"
        ":quit\n"
    )
    proc = run_cli(["repl", str(TRAVEL_NET)], stdin=script)
    assert proc.returncode == 0
    assert ENGLISH in proc.stdout
    assert KOREAN in proc.stdout
    assert "1. [ko-en]" in proc.stdout


@pytest.mark.parametrize(
    "command, message",
    [(":dir xx-yy", "bad direction 'xx-yy', expected one of ko-en, en-ko"),
     (":dir", "usage: :dir ko-en|en-ko"),
     (":dir ko", "usage: :dir ko-en|en-ko")],
)
def test_repl_bad_dir_keeps_the_direction(command, message, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{command}\n{KOREAN}\n:quit\n"))
    assert main(["repl", str(TRAVEL_NET), "--dir", "ko-en"]) == 0
    # one reply per prompt: the message, then the ko-en translation
    assert capsys.readouterr().out.split("> ")[1:] == [f"{message}\n", f"{ENGLISH}\n", ""]


@pytest.mark.parametrize(
    "command, message",
    [(":trace", "usage: :trace on|off"),
     (":trace maybe", "usage: :trace on|off"),
     (":trace on off", "usage: :trace on|off"),
     (":tracex on", "unknown command :tracex"),
     (":dirx en-ko", "unknown command :dirx"),
     (":history x", "usage: :history"),
     (":quit now", "usage: :quit"),
     (":", "unknown command :")],
)
def test_repl_bad_command_changes_nothing(command, message, monkeypatch, capsys):
    # each command is matched on its whole first word: a near miss is
    # unknown, and a known one with the wrong arguments prints its usage
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{command}\n{KOREAN}\n:quit\n"))
    assert main(["repl", str(TRAVEL_NET), "--dir", "ko-en"]) == 0
    # one reply per prompt: the message, then the untraced ko-en translation
    assert capsys.readouterr().out.split("> ")[1:] == [f"{message}\n", f"{ENGLISH}\n", ""]


def test_repl_bare_trace_keeps_tracing_on(net, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(f":trace on\n:trace\n{KOREAN}\n:quit\n"))
    assert main(["repl", str(TRAVEL_NET), "--dir", "ko-en"]) == 0
    traced = [e.line() for e in translate(net, KOREAN, "ko-en").trace]
    replies = ["trace on\n", "usage: :trace on|off\n", "\n".join([*traced, ENGLISH, ""]), ""]
    assert capsys.readouterr().out.split("> ")[1:] == replies


def test_repl_survives_failures_and_reports_status():
    script = "xqz zzz\nway the you would\n:quit\n"
    proc = run_cli(["repl", str(TRAVEL_NET), "--dir", "en-ko"], stdin=script)
    assert proc.returncode == 0
    assert "[unknown-word at token 1]" in proc.stdout
    assert "[no-parse]" in proc.stdout


def test_repl_trace_matches_translator_trace(net):
    script = f":trace on\n{ENGLISH}\n:quit\n"
    proc = run_cli(["repl", str(TRAVEL_NET), "--dir", "en-ko"], stdin=script)
    expected = [e.line() for e in translate(net, ENGLISH, "en-ko").trace]
    events = [
        line.removeprefix("> ")
        for line in proc.stdout.splitlines()
        if line.removeprefix("> ").split(" ")[0]
        in ("predict", "activate", "collide", "accept", "generate", "dead", "withdraw", "note")
    ]
    assert events == expected
