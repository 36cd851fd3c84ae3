"""markermt benchmark: closed-loop translation from one caller on one thread.

Run from the root of a checkout:

    python3 bench/run.py --workload travel-dialog --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each sentence is sent after the previous one returns, as ``markermt
corpus`` and the REPL do.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a separate traced phase.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_SENTENCES = 100  # p90 needs ten samples beyond it
COUNT_SENTENCES = 40  # traced sentences whose counters are reported
CHILD_TIMEOUT = 600  # seconds, per workload under --workload all
HASH_SEED = "0"
WORKLOADS = ("travel-dialog", "synth-8k", "free-order")

END_TO_END = {
    "setup_s": "s",
    "validate_s": "s",
    "translate_p50_ms": "ms",
    "translate_p90_ms": "ms",
    "translate_mean_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "markers.init_ms": "ms",
    "markers.predict_ms": "ms",
    "markers.collide_ms": "ms",
    "markers.close_ms": "ms",
    "markers.markers": "count",
    "markers.instances": "count",
    "markers.accept_ratio": "ratio",
    "markers.trace_events": "count",
    "markers.predict_events": "count",
    "morphology.segment_ms": "ms",
    "morphology.analyses_per_word": "count",
    "morphology.generate_ms": "ms",
    "network.lookup_ms": "ms",
    "network.readings_per_word": "count",
    "network.load_s": "s",
    "translator.first_translate_s": "s",
    "translator.translate_ms": "ms",
    "translator.self_ms": "ms",
    "translator.covered_pct": "%",
    "trace_overhead_pct": "%",
}
TIMED_LAYERS = ("markers.init", "markers.predict", "markers.collide", "markers.close",
                "morphology.segment", "morphology.generate", "network.lookup")


clock = time.perf_counter


class Outcome(NamedTuple):
    """The part of a translation result that a fresh-process repetition
    reports back."""

    status: str
    target_sentence: str


class Checker:
    """Compares each result with its sentence's reference and with the
    sentence's first output, and counts mismatches; every mismatch is
    reported on standard error."""

    def __init__(self):
        self.first_output: dict[tuple[int, str, str], str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, sentence, result) -> None:
        self.attempted += 1
        problem = None
        if result.status != sentence.status:
            problem = f"status {result.status}, expected {sentence.status}"
        elif sentence.output is not None and result.target_sentence != sentence.output:
            problem = f"output {result.target_sentence!r}, expected {sentence.output!r}"
        else:
            key = (sentence.net, sentence.direction, sentence.text)
            first = self.first_output.setdefault(key, result.target_sentence)
            if result.target_sentence != first:
                problem = f"output {result.target_sentence!r}, earlier {first!r}"
        if problem is not None:
            self.failed += 1
            # the trace's notes say why a translation failed, e.g. a generation gap
            notes = [f"{e.location}: {e.binding}" for e in getattr(result, "trace", ())
                     if e.event == "note"]
            if notes:
                problem += f" ({'; '.join(notes)})"
            print(f"mismatch [{sentence.direction}] {sentence.text!r}: {problem}", file=sys.stderr)


def replay(workload, seed: int):
    """Endless seeded replay of the workload's sentences: each pass is a
    fresh shuffle of the whole pool."""
    rng = random.Random(f"replay-{seed}")
    pool = list(workload.sentences)
    while True:
        rng.shuffle(pool)
        yield from pool


def first_sentences(workload):
    """The first sentence of each network, in pool order."""
    firsts = {}
    for sentence in workload.sentences:
        firsts.setdefault(sentence.net, sentence)
    return [firsts[i] for i in range(len(workload.networks))]


def fresh_repetition(mode: str, workload, probes=None) -> dict:
    """One set-up or validate repetition in a new interpreter.

    Repeating them in one process made each a little slower than the last
    (freed networks leave the heap fragmented: on synth-8k the first
    translate went 0.44, 0.62, 0.82 s), and a one-shot ``markermt
    translate`` user starts from a fresh heap too.  With a ``probes`` list,
    this process probes every ``PROBE_EVERY`` while the child runs and
    appends (clock, probe seconds) pairs to it."""
    from speed import PROBE_EVERY, probe

    payload = json.dumps({
        "networks": workload.networks,
        "firsts": [[s.net, s.direction, s.text] for s in first_sentences(workload)],
    })
    # --workload, --seed and --seconds are required but unused by a repetition
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", "all",
               "--seed", "0", "--seconds", "0", "--repetition", mode]
    child = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    streams = []
    talker = threading.Thread(target=lambda: streams.extend(child.communicate(payload)))
    talker.start()
    deadline = clock() + CHILD_TIMEOUT
    while talker.is_alive() and clock() < deadline:
        if probes is not None:
            probes.append((clock(), probe()))
        talker.join(PROBE_EVERY)
    if talker.is_alive():
        child.kill()
        talker.join()
        raise RuntimeError(f"{mode} repetition timed out after {CHILD_TIMEOUT} s")
    out, err = streams
    if child.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"{mode} repetition exited with {child.returncode}")
    return json.loads(out)


def repetition(mode: str) -> int:
    """The child side of :func:`fresh_repetition`: reads the networks and
    first sentences on standard input and prints its times as JSON."""
    from markermt import load_network, translate, validate_network
    from speed import Scaler

    data = json.load(sys.stdin)
    scaler = Scaler()
    if mode == "setup":
        start = clock()
        nets = [load_network(text) for text in data["networks"]]
        load = (clock() - start) * scaler.since_last()
        start = clock()
        results = [translate(nets[net], text, direction)
                   for net, direction, text in data["firsts"]]
        first = (clock() - start) * scaler.since_last()
        out = {"load": load, "first": first,
               "results": [[r.status, r.target_sentence] for r in results]}
    else:
        nets = [load_network(text) for text in data["networks"]]
        scaler.since_last()
        start = clock()
        diagnostics = [validate_network(net) for net in nets]
        end = clock()
        out = {"start": start, "end": end, "scale": scaler.since_last(),
               "problems": [str(d) for diags in diagnostics for d in diags]}
    print(json.dumps(out))
    return 0


def measure_setup(workload, checker):
    """Set-up times, each repetition in a fresh process: (load, first
    translate) pairs, scaled.  Every first translation is checked."""
    firsts = first_sentences(workload)
    times = []
    for _ in range(workload.setup_reps):
        out = fresh_repetition("setup", workload)
        times.append((out["load"], out["first"]))
        for sentence, (status, target) in zip(firsts, out["results"]):
            checker.check(sentence, Outcome(status, target))
    return times


def load_warm(workload, checker):
    """The networks for the closed loop, each with its first sentence
    translated so lazy caches are filled."""
    from markermt import load_network, translate

    nets = [load_network(text) for text in workload.networks]
    for sentence in first_sentences(workload):
        checker.check(sentence, translate(nets[sentence.net], sentence.text, sentence.direction))
    return nets


def closed_loop(nets, order, seconds, checker, scaler):
    """Translate sentences back to back until ``seconds`` have passed and at
    least ``MIN_SENTENCES`` were timed; returns the scaled latencies."""
    from markermt import translate

    latencies = []
    scaler.since_last()
    deadline = clock() + seconds
    while clock() < deadline or len(latencies) + scaler.pending < MIN_SENTENCES:
        sentence = next(order)
        net = nets[sentence.net]
        start = clock()
        result = translate(net, sentence.text, sentence.direction)
        latencies += scaler.add(clock() - start)
        checker.check(sentence, result)
    return latencies + scaler.flush()


def measure_validate(workload):
    """Scaled validate times, each repetition in a fresh process.  Any
    diagnostic makes the run incorrect."""
    times, problems = [], []
    for _ in range(workload.validate_reps):
        during = []
        out = fresh_repetition("validate", workload, during)
        times.append(validate_time(out, during))
        problems = out["problems"]
    for problem in problems:
        print(f"validate: {problem}", file=sys.stderr)
    return times, not problems


def validate_time(out, during) -> float:
    """One validate repetition in reference-speed seconds.  One longer than
    ``LOCAL_MAX_S`` outlasts the child's probes around it, so it is scaled
    by the probes this process took while it ran (``during``: clock, probe
    pairs; the clock is shared by both processes)."""
    from speed import LOCAL_MAX_S, factor

    start, end = out["start"], out["end"]
    if end - start <= LOCAL_MAX_S:
        return (end - start) * out["scale"]
    return (end - start) * factor([p for t, p in during if start <= t <= end])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(workload, seed, seconds):
    from spans import percentile
    from speed import Scaler

    checker = Checker()
    validates, valid = measure_validate(workload)
    setups = measure_setup(workload, checker)
    nets = load_warm(workload, checker)
    scaler = Scaler()
    latencies = closed_loop(nets, replay(workload, seed), seconds, checker, scaler)
    metrics = {
        "setup_s": statistics.median(load + first for load, first in setups),
        # 36 synth-8k repetitions, resampled in sets of 5, spread 6% between
        # sets by their median and 8% by their fastest
        "validate_s": statistics.median(validates),
        "translate_p50_ms": 1000 * statistics.median(latencies),
        "translate_p90_ms": 1000 * percentile(latencies, 90),
        "translate_mean_ms": 1000 * statistics.fmean(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"timed_sentences": len(latencies), "setup_reps": len(setups),
               "validate_reps": len(validates), "probes": len(scaler.probes),
               "probe_median_s": statistics.median(scaler.probes)}
    return metrics, checker.attempted, checker.failed, valid, samples


def per_layer(workload, seed, seconds):
    """Each sentence is translated twice, untraced and traced, in alternating
    order, so the tracing overhead compares the same sentences."""
    from markermt import translate
    from spans import Tracer
    from speed import Scaler, factor

    checker = Checker()
    setups = measure_setup(workload, checker)
    nets = load_warm(workload, checker)
    scaler = Scaler()
    tracer = Tracer()
    untraced_s = 0.0
    window = Counter()  # counters of the first COUNT_SENTENCES sentences
    first_counts = {}  # sentence -> its counters when first traced
    repeatable = True
    n = 0
    deadline = clock() + seconds
    for sentence in replay(workload, seed):
        if n >= COUNT_SENTENCES and clock() >= deadline:
            break
        net = nets[sentence.net]
        for traced in (False, True) if n % 2 == 0 else (True, False):
            if traced:
                with tracer:
                    result = tracer.span("translate", translate, net, sentence.text,
                                         sentence.direction)
                counts = tracer.take_counts()
                counts.update(trace_counts(result))
                if first_counts.setdefault(sentence, counts) != counts:
                    repeatable = False
                    print(f"counters differ between repeats of {sentence.text!r}",
                          file=sys.stderr)
                if n < COUNT_SENTENCES:
                    window.update(counts)
            else:
                if Tracer.installed():
                    raise RuntimeError("layer wrappers left installed in an untraced call")
                start = clock()
                result = translate(net, sentence.text, sentence.direction)
                untraced_s += clock() - start
            checker.check(sentence, result)
        scaler.tick()
        n += 1

    # span times are scaled to the reference speed by the run's median probe
    scale = factor(scaler.probes)
    total, own = tracer.total, tracer.self_time
    translate_self = tracer.corrected_self_time("translate", tracer.child_cost())
    w = COUNT_SENTENCES
    words = max(1, window["morphology.words"])
    metrics = {f"{name}_ms": 1000 * scale * total[name] / n for name in TIMED_LAYERS}
    metrics.update({
        "markers.markers": window["markers.markers"] / w,
        "markers.instances": window["markers.instances"] / w,
        "markers.accept_ratio": window["markers.accept_events"] / max(1, window["markers.instances"]),
        "markers.trace_events": window["markers.trace_events"] / w,
        "markers.predict_events": window["markers.predict_events"] / w,
        "morphology.analyses_per_word": window["morphology.analyses"] / words,
        "network.readings_per_word": window["network.readings"] / words,
        "network.load_s": statistics.median(load for load, _ in setups),
        "translator.first_translate_s": statistics.median(first for _, first in setups),
        "translator.translate_ms": 1000 * scale * total["translate"] / n,
        "translator.self_ms": 1000 * scale * translate_self / n,
        "translator.covered_pct": 100 * (1 - own["translate"] / total["translate"]),
        "trace_overhead_pct": 100 * (total["translate"] / untraced_s - 1),
    })
    samples = {"sentences": n, "counted_sentences": w, "setup_reps": len(setups),
               "probes": len(scaler.probes), "probe_median_s": statistics.median(scaler.probes)}
    return metrics, checker.attempted, checker.failed, repeatable, samples


def trace_counts(result) -> Counter:
    counts = Counter({"markers.trace_events": len(result.trace)})
    for event in result.trace:
        if event.event in ("predict", "accept"):
            counts[f"markers.{event.event}_events"] += 1
    return counts


def git_commit():
    """The checkout's commit; None outside a git work tree or without git."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def environment(args, samples):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    measure, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    metrics, attempted, failed, checks_ok, samples = measure(workload, args.seed, args.seconds)
    samples["sentences_attempted"] = attempted
    print("env " + json.dumps(environment(args, samples), sort_keys=True))
    print(f"{args.workload} failed_share {failed / attempted:.6g} share "
          f"({failed} of {attempted} sentences)")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, so each
    reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repetition", choices=["setup", "validate"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "markermt" / "__init__.py").is_file():
        print(f"no markermt sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing is salted per process, and validate times alone
        # moved by 13% with the salt; every run uses the same one
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path.insert(0, str(SRC))
    if args.repetition:
        return repetition(args.repetition)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
