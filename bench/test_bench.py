"""Tests for the benchmark's own arithmetic and instrumentation.

Run with ``python -m pytest bench`` from the root of a checkout.
"""

import dataclasses
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    assert spans.percentile(range(1, 101), 90) == 90
    assert spans.percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        spans.percentile(range(1, 100), 90)
    with pytest.raises(ValueError):
        spans.percentile(range(1, 20), 50)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert spans.percentile(values, 90) == 5.0
    assert spans.percentile(values, 50) == 3.0


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    tracer.enter("translate")  # 0
    tracer.enter("a")  # 1
    tracer.enter("b")  # 2
    tracer.exit()  # 3: b took 1
    tracer.exit()  # 4: a took 3, 2 of it its own
    tracer.enter("c")  # 5
    tracer.exit()  # 6: c took 1
    tracer.exit()  # 10: translate took 10
    assert tracer.total == {"translate": 10, "a": 3, "b": 1, "c": 1}
    assert tracer.self_time == {"translate": 6, "a": 2, "b": 1, "c": 1}
    assert tracer.children == {"translate": 2, "a": 1, "b": 0, "c": 0}
    assert tracer.corrected_self_time("translate", 0.5) == 5


def test_child_cost_is_small_and_not_negative():
    cost = spans.Tracer().child_cost(calls=200, tries=2)
    assert 0 <= cost < 1e-3


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer(clock=FakeClock(0, 2))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("translate", boom)
    assert tracer.total["translate"] == 2
    assert not tracer._stack


def test_checker_compares_repeats_per_network(capsys):
    def result(target):
        return run.Outcome(workloads.SUCCESS, target)

    on = [workloads.Sentence(net, "ko-en", "ka-ka", workloads.SUCCESS, None) for net in (0, 1)]
    checker = run.Checker()
    checker.check(on[0], result("x"))
    checker.check(on[1], result("y"))
    checker.check(on[0], result("x"))
    assert checker.failed == 0
    checker.check(on[1], result("z"))
    assert (checker.attempted, checker.failed) == (4, 1)
    assert "earlier 'y'" in capsys.readouterr().err


def test_checker_reports_the_trace_notes_of_a_mismatch(capsys):
    from markermt.markers import TraceEvent

    Result = dataclasses.make_dataclass("Result", ["status", "target_sentence", "trace"])
    note = TraceEvent("note", None, "generation", "required element t#1 (x) has no source fill", 1)
    sentence = workloads.Sentence(0, "ko-en", "ka-ka", workloads.SUCCESS, None)
    checker = run.Checker()
    checker.check(sentence, Result(workloads.NO_PARSE, "", (note,)))
    assert checker.failed == 1
    assert "expected success (generation: required element t#1" in capsys.readouterr().err


def test_long_validate_repetitions_use_the_probes_taken_alongside():
    from speed import REFERENCE_S

    during = [(t, REFERENCE_S * f) for t, f in [(9, 9.0), (11, 2.0), (12, 4.0), (13, 2.0)]]
    assert run.validate_time({"start": 10, "end": 10.5, "scale": 2.0}, during) == 1.0
    assert run.validate_time({"start": 10, "end": 14, "scale": 9.0}, during) == 2.0


def test_wrappers_are_removed_before_untraced_calls():
    originals = [vars(owner)[attr] for owner, attr, _ in spans.Tracer.TARGETS]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert spans.Tracer.installed()
            raise RuntimeError("leave the block early")
    assert not spans.Tracer.installed()
    assert [vars(owner)[attr] for owner, attr, _ in spans.Tracer.TARGETS] == originals


def test_wrapped_layers_time_and_count_one_translation():
    from markermt import load_network, translate

    net = load_network((workloads.FIXTURES / "travel.net").read_text(encoding="utf-8"))
    tracer = spans.Tracer()
    with tracer:
        result = tracer.span("translate", translate, net, "ken-ney-ti kong-wen", "ko-en")
    assert result.target_sentence == "Kennedy Park"
    counts = tracer.take_counts()
    assert counts["morphology.words"] == 2
    assert counts["markers.instances"] > 0 and counts["markers.markers"] > 0
    assert set(run.TIMED_LAYERS) - {"morphology.generate"} <= set(tracer.total)
    assert tracer.self_time["translate"] < tracer.total["translate"]
    assert not tracer.take_counts()


@pytest.mark.parametrize("name", ["travel-dialog", "free-order"])
def test_counters_repeat_between_traced_runs(name):
    workload = dataclasses.replace(workloads.WORKLOADS[name](3), setup_reps=1)
    counters = [m for m, unit in run.PER_LAYER.items() if unit in ("count", "ratio")]
    runs = []
    for _ in range(2):
        metrics, attempted, failed, repeatable, _ = run.per_layer(workload, 3, 0.01)
        assert failed == 0 and repeatable and attempted > 0
        runs.append({m: metrics[m] for m in counters})
    assert runs[0] == runs[1]
    assert runs[0]["markers.instances"] > 0


def test_refuses_to_run_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "travel-dialog", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
