"""The benchmark workloads: ``short``, ``long`` and ``rules``.

Each workload is closed-loop: one process, one thread, one operation at a
time.  An operation is a training run, a ``predict`` call or a CLI command.
Inputs come only from ``inputs`` and the workload seed.

* ``short`` trains on the 500-sentence synthetic corpus with the acceptance
  configuration until a held-out F1 target holds, then saves and reloads the
  model and parses a fresh sentence set.  Time is spread over the model,
  heads, loop glue and matching; the parse phase runs the model forward only.
* ``long`` trains on sentences joined from four synthetic graphs (16-24
  tokens, 32-48 queries), where the O(n^3) assignment, the Python loops of
  ``matcher.build_problem`` and the O(n^2) edge heads take most of a step.
* ``rules`` runs ``rules-infer`` (eds) and ``preprocess`` (amr, artificial
  anchoring of flavor-2 graphs) through ``cli.run``: only cli, graph,
  transform, rules and hitting work here, so model or matcher changes should
  leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager

from mrparse import cli, graph, scorer, trainer

import inputs
from tracer import BoundaryTimer

clock = time.perf_counter

SETUP_REPEATS = 5

# short: the acceptance corpus and configuration.  The acceptance target
# (labels/anchors >= 0.95, edges >= 0.90) takes 18-22 epochs, 80-100 s on a
# 2-vCPU Xeon virtual machine, too long for the benchmark's time budget, so
# the run stops at a lower target on the same learning curve, reached after
# 8-11 epochs for seeds 1-20.
SHORT_CORPUS = 500
SHORT_EPOCH_CAP = 30
SHORT_TARGET = {"labels": 0.6, "anchors": 0.6, "edges": 0.5}
# Fresh sentences parsed once each; 1200 samples leave 12 above p99.
PARSE_SET = 1200
PARSE_F1_FLOOR = {"labels": 0.5, "anchors": 0.5, "edges": 0.4}
ROUND_TRIP_SENTENCES = 20
OVERHEAD_EPOCHS = 2

# long: joined graphs; epochs repeat until the run's seconds are used.
LONG_GRAPHS = 44
LONG_EVAL_FRACTION = 0.1
LONG_MIN_EPOCHS = 3
LONG_EPOCH_CAP = 1000

# rules: corpus sizes of the two timed commands.  How long they take depends
# on the corpus (coefficient of variation 7-9% between corpora of one size),
# so each run draws RULES_CORPORA small corpora, cycles through them, and the
# median covers all of them.
RULES_EDS_GRAPHS = 125
RULES_AMR_GRAPHS = 50
RULES_CORPORA = 12

# Every run prints every end-to-end metric, so each is defined for all three
# workloads:
#   setup_s      median of SETUP_REPEATS set-ups: trainer.prepare (short,
#                long); `mrparse validate` of every input file (rules).
#   task_s       one unit of the workload's task: training until the F1 target
#                (short); one training epoch, evaluation included, median over
#                epochs (long); one rules-infer plus one amr preprocess, median
#                over repetitions (rules).
#   items_per_s  items through the task's inner loop per second, set-up and
#                evaluation excluded: training sentence steps, median over
#                epochs (short, long); graphs through both commands (rules).
# All three are reference seconds (see Calibration): wall time on a shared
# host drifts by up to 1.6x between stretches of seconds to minutes (the same
# pure-Python loop takes 8 ms in one stretch and 12 ms in the next), far more
# than the bounds allow.  Raw wall seconds and the workload-specific figures
# (epochs to target, F1, parse latency, per-command seconds) go into the
# report as "figures".
END_TO_END_UNITS = {
    "setup_s": "s",
    "task_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

CALIBRATION_LOOP = 100_000
REFERENCE_LOOP_S = 0.010


# Boundaries each workload must pass through at least once when traced; a
# boundary that never fires means a binding escaped the wrappers.
EXPECTED_BOUNDARIES = {
    "short": (
        "trainer.prepare", "trainer.forward_sentence", "trainer.match_queries",
        "trainer.sentence_losses", "trainer.AdamW.step", "trainer.evaluate",
        "trainer.predict", "trainer.train", "model.encode_forward",
        "model.block_forward", "model.block_backward", "model.encode_backward",
        "model.queries_backward", "model.add_grad", "model.load_params",
        "matcher.build_problem", "matcher.optimal_assignment", "matcher.break_ties",
        "kernels.max_score_assignment", "heads.mos_forward_batch",
        "heads.mos_backward_batch", "heads.anchor_head", "heads.anchor_loss",
        "heads.biaffine_forward", "balance.update_loss_weights",
        "rules.build_problem", "rules.enumerate_applicable_rules",
        "rules.minimal_rule_set", "rules.apply_rule", "rules.decode_label",
        "hitting.minimal_hitting_set", "transform.preprocess",
        "transform.reinvert_edges_for_top", "transform.eds_merge_anchors",
        "scorer.score_pair", "graph.serialize_graph"),
    "long": (
        "trainer.prepare", "trainer.forward_sentence", "trainer.match_queries",
        "trainer.sentence_losses", "trainer.AdamW.step", "trainer.evaluate",
        "trainer.train", "matcher.build_problem", "matcher.optimal_assignment",
        "matcher.break_ties", "kernels.max_score_assignment",
        "heads.biaffine_forward", "model.block_backward"),
    "rules": (
        "cli.run", "graph.parse_graph", "graph.serialize_graph",
        "transform.preprocess", "transform.eds_merge_anchors",
        "rules.build_problem", "rules.enumerate_applicable_rules",
        "rules.minimal_rule_set", "rules.anchor_flavor2_corpus",
        "hitting.minimal_hitting_set"),
}


@dataclass
class Outcome:
    """What one pass of a workload measured and whether its outputs held."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    figures: dict = field(default_factory=dict)   # the workload's own numbers
    notes: dict = field(default_factory=dict)     # diagnostics for the report
    # Seconds a fixed amount of the workload's work took; the traced run
    # compares it with an untraced pass to report the tracing overhead.
    basis_s: float = 0.0

    def operation(self, ok: bool, problem: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def check(self, ok: bool, problem: str):
        """An output check; a failed check counts as one failed operation."""
        if not ok:
            self.failed = min(self.failed + 1, max(self.attempted, 1))
            self.problems.append(problem)

    def finish(self):
        self.metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.metrics["ok_frac"] = (self.attempted - self.failed) / max(self.attempted, 1)


class Calibration:
    """Readings of the host's speed, taken between timed intervals.

    A reading is the median time of three runs of a fixed pure-Python loop
    (CALIBRATION_LOOP iterations).  Readings are taken before and after every
    timed interval, never inside one, and ``reference_s`` converts the
    interval to reference seconds: the time it would take on a host where
    the loop runs in REFERENCE_LOOP_S.
    """

    def __init__(self):
        self.readings: list[float] = []

    def read(self) -> int:
        """Take a reading; returns its index."""
        loops = []
        for _ in range(3):
            begin = clock()
            total = 0
            for i in range(CALIBRATION_LOOP):
                total += i * i % 7
            loops.append(clock() - begin)
        self.readings.append(statistics.median(loops))
        return len(self.readings) - 1

    def reference_s(self, seconds: float, before: int, after: int) -> float:
        """``seconds`` measured between two readings, in reference seconds."""
        return seconds * 2.0 * REFERENCE_LOOP_S / (self.readings[before]
                                                   + self.readings[after])


Measure = Callable[[], ContextManager]


class _Enough(Exception):
    """Raised from on_epoch to end a time-bounded training run."""


@dataclass
class _Epoch:
    wall: float        # seconds, evaluation included
    step: float        # seconds of sentence steps, evaluation excluded
    before: int        # calibration readings around the epoch
    after: int


class _Epochs:
    """``on_epoch`` callback that times each epoch between two readings.

    ``trainer.train`` runs prepare, then the epochs; the first epoch is timed
    from the end of that prepare.  After each epoch a reading is taken and
    the next epoch is timed from its end.  With a ``deadline`` training ends
    (by raising _Enough) once ``min_epochs`` epochs are done and the deadline
    has passed.
    """

    def __init__(self, calibration: Calibration, deadline: float = math.inf,
                 min_epochs: int = 1):
        self.calibration = calibration
        self.deadline = deadline
        self.min_epochs = min_epochs
        self.records: list[dict] = []
        self.ends: list[float] = []
        self.resumes: list[float] = []
        self.readings: list[int] = []
        self.before_train = -1

    def __call__(self, record: dict):
        self.ends.append(clock())
        self.records.append(record)
        self.readings.append(self.calibration.read())
        self.resumes.append(clock())
        if len(self.records) >= self.min_epochs and self.ends[-1] >= self.deadline:
            raise _Enough

    def epochs(self, prepare_end: float,
               evaluations: list[tuple[float, float]]) -> list[_Epoch]:
        begins = [prepare_end] + self.resumes[:-1]
        befores = [self.before_train] + self.readings[:-1]
        return [_Epoch(wall=end - begin, step=end - begin - (eval_end - eval_start),
                       before=before, after=after)
                for begin, end, (eval_start, eval_end), before, after
                in zip(begins, self.ends, evaluations, befores, self.readings)]


def _train_timed(config, graphs, calibration: Calibration, epoch_clock: _Epochs,
                 setup_repeats: int):
    """Set-up prepares, then trainer.train, each prepare between two readings.

    Returns the model (None when ended by the deadline), the reference
    seconds of every prepare, the in-train prepare's raw interval, and the
    per-epoch timings.
    """
    timer = BoundaryTimer()
    timer.install(trainer, "prepare")
    timer.install(trainer, "evaluate")
    marks = [calibration.read()]
    try:
        for _ in range(setup_repeats - 1):
            trainer.prepare(config, graphs)
            marks.append(calibration.read())
        epoch_clock.before_train = marks[-1]
        try:
            trained, _ = trainer.train(config, graphs, on_epoch=epoch_clock)
        except _Enough:
            trained = None
    finally:
        timer.uninstall()
    prepares = timer.intervals["prepare"]
    brackets = list(zip(marks, marks[1:])) + [(marks[-1], epoch_clock.readings[0])]
    setups = [calibration.reference_s(end - begin, before, after)
              for (begin, end), (before, after) in zip(prepares, brackets)]
    epochs = epoch_clock.epochs(prepares[-1][1], timer.intervals["evaluate"])
    return trained, setups, prepares[-1], epochs


# ---------------------------------------------------------------------------
# short

def run_short(seed: int, seconds: float, measure: Measure, workdir: str,
              overhead_only: bool = False) -> Outcome:
    """Train to the target, then parse fresh sentences with the reloaded model.

    The task sets the run's length; ``seconds`` is not used.  With
    ``overhead_only`` the pass stops after OVERHEAD_EPOCHS epochs and
    reports only their time, the basis for the tracing overhead.
    """
    out = Outcome()
    graphs = inputs.train_corpus(seed, SHORT_CORPUS)
    parse_gold = inputs.parse_set(seed, PARSE_SET)
    epochs = OVERHEAD_EPOCHS if overhead_only else SHORT_EPOCH_CAP
    config = trainer.TrainConfig(seed=seed, epochs=epochs, corpus_size=SHORT_CORPUS,
                                 stop_when=dict(SHORT_TARGET))
    num_train = len(trainer.split_corpus(graphs, config.eval_fraction)[0])
    calibration = Calibration()
    epoch_clock = _Epochs(calibration)
    with measure():
        trained, setups, (prep_begin, prep_end), timed = _train_timed(
            config, graphs, calibration, epoch_clock,
            1 if overhead_only else SETUP_REPEATS)
        # training time: the in-train prepare, then every epoch
        reference = [calibration.reference_s(prep_end - prep_begin,
                                             epoch_clock.before_train, timed[0].after)]
        reference += [calibration.reference_s(e.wall, e.before, e.after) for e in timed]
        out.basis_s = sum(reference[:1 + OVERHEAD_EPOCHS])
        if overhead_only:
            return out
        records = epoch_clock.records
        final = records[-1]["f1"]
        reached = all(final[name] >= value for name, value in SHORT_TARGET.items())
        out.operation(reached, f"target {SHORT_TARGET} not reached in "
                               f"{len(records)} epochs: {final}")

        model_path = os.path.join(workdir, "short-model.bin")
        trained.save(model_path)
        loaded = trainer.TrainedModel.load(model_path)
        latencies, predictions, parse_wall = _parse_phase(loaded, parse_gold, out)

    rates = [num_train / calibration.reference_s(e.step, e.before, e.after) for e in timed]
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "task_s": sum(reference),
        "items_per_s": statistics.median(rates),
    })
    out.figures.update({
        "time_to_target_s": (prep_end - prep_begin) + sum(e.wall for e in timed),
        "epochs_to_target": len(records),
        "train_sent_per_s": statistics.median(num_train / e.step for e in timed),
        "f1_labels": final["labels"],
        "f1_anchors": final["anchors"],
        "f1_edges": final["edges"],
        "parse_sent_per_s": len(latencies) / parse_wall,
        "parse_p50_ms": 1000.0 * percentiles[49],
        "parse_p99_ms": 1000.0 * percentiles[98],
        "parse_samples": len(latencies),
        "calibration_ms": 1000.0 * statistics.fmean(calibration.readings),
    })
    out.notes.update({"train_sentences": num_train, "epoch_rates_reference": rates,
                      "epoch_f1": [record["f1"] for record in records],
                      "calibration_ms": [1000.0 * r for r in calibration.readings]})

    # output checks, outside the measured region
    report = scorer.aggregate(scorer.score_pair(g, p)
                              for g, p in zip(parse_gold, predictions))
    parse_f1 = {name: report.metrics[name].f1 for name in PARSE_F1_FLOOR}
    out.notes["parse_f1"] = parse_f1
    out.check(all(parse_f1[n] >= floor for n, floor in PARSE_F1_FLOOR.items()),
              f"parse-set F1 {parse_f1} below floor {PARSE_F1_FLOOR}")
    same = all(graph.serialize_graph(trainer.predict(trained, g.input))
               == graph.serialize_graph(trainer.predict(loaded, g.input))
               for g in parse_gold[:ROUND_TRIP_SENTENCES])
    out.check(same, "reloaded model parses differently from the trained one")
    return out


def _parse_phase(model: trainer.TrainedModel, gold: list[graph.Graph], out: Outcome):
    """One ``predict`` plus ``serialize_graph`` per gold sentence.

    Returns the latencies, the predicted graphs and the phase's wall time.
    """
    latencies: list[float] = []
    predictions: list[graph.Graph] = []
    start = clock()
    for g in gold:
        begin = clock()
        try:
            pred = trainer.predict(model, g.input)
            graph.serialize_graph(pred)
        except Exception as exc:  # one failed operation; the loop goes on
            out.operation(False, f"predict {g.id}: {exc!r}")
            pred = graph.Graph(id=g.id, framework=g.framework, flavor=g.flavor,
                               input=g.input)
        else:
            out.operation(True)
        latencies.append(clock() - begin)
        predictions.append(pred)
    return latencies, predictions, clock() - start


# ---------------------------------------------------------------------------
# long

def run_long(seed: int, seconds: float, measure: Measure, workdir: str,
             overhead_only: bool = False) -> Outcome:
    """Train on joined graphs for ``seconds`` (whole epochs, at least three)."""
    out = Outcome()
    graphs = inputs.long_corpus(seed, LONG_GRAPHS)
    config = trainer.TrainConfig(seed=seed, epochs=LONG_EPOCH_CAP,
                                 corpus_size=LONG_GRAPHS,
                                 eval_fraction=LONG_EVAL_FRACTION)
    num_train = len(trainer.split_corpus(graphs, config.eval_fraction)[0])
    calibration = Calibration()
    epoch_clock = _Epochs(calibration, min_epochs=LONG_MIN_EPOCHS)
    with measure():
        epoch_clock.deadline = clock() + seconds
        _, setups, _, timed = _train_timed(config, graphs, calibration, epoch_clock,
                                           SETUP_REPEATS)
    epoch_s = statistics.median(calibration.reference_s(e.wall, e.before, e.after)
                                for e in timed)
    rates = [num_train / calibration.reference_s(e.step, e.before, e.after) for e in timed]
    out.basis_s = epoch_s
    records = epoch_clock.records
    finite = all(math.isfinite(v) for r in records for v in r["losses"].values())
    out.operation(finite, "non-finite epoch loss")
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "task_s": epoch_s,
        "items_per_s": statistics.median(rates),
    })
    tokens = [len(g.tokens) for g in graphs]
    out.figures.update({
        "train_sent_per_s": statistics.median(num_train / e.step for e in timed),
        "epoch_s": statistics.median(e.wall for e in timed),
        "epochs": len(records), "tokens_min": min(tokens), "tokens_max": max(tokens),
        "calibration_ms": 1000.0 * statistics.fmean(calibration.readings)})
    out.notes.update({"train_sentences": num_train, "epoch_rates_reference": rates,
                      "final_losses": records[-1]["losses"],
                      "calibration_ms": [1000.0 * r for r in calibration.readings]})
    return out


# ---------------------------------------------------------------------------
# rules

def _cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.run in-process with its stdout and stderr captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_graphs(graphs: list[graph.Graph], path: str):
    with open(path, "w", encoding="utf-8") as handle:
        for g in graphs:
            handle.write(graph.serialize_graph(g) + "\n")


def run_rules(seed: int, seconds: float, measure: Measure, workdir: str,
              overhead_only: bool = False) -> Outcome:
    """Alternate ``rules-infer`` (eds) and ``preprocess`` (amr) for ``seconds``.

    Repetition i works on corpus i mod RULES_CORPORA; every corpus runs at
    least once.
    """
    out = Outcome()
    files = []
    for k in range(RULES_CORPORA):
        eds = inputs.rules_corpus(seed, RULES_EDS_GRAPHS, k)
        amr = inputs.unanchored_amr(eds[:RULES_AMR_GRAPHS])
        paths = {name: os.path.join(workdir, f"{name}-{k}")
                 for name in ("eds.jsonl", "amr.jsonl", "eds.rules", "amr.out.jsonl")}
        _write_graphs(eds, paths["eds.jsonl"])
        _write_graphs(amr, paths["amr.jsonl"])
        files.append(paths)
    sink = os.path.join(workdir, "sink.txt")

    calibration = Calibration()
    setups: list[float] = []
    infer: list[float] = []
    anchor: list[float] = []
    pairs: list[float] = []
    with measure():
        before = calibration.read()
        for _ in range(SETUP_REPEATS):
            begin = clock()
            codes = [_cli(["validate", "--input", paths[name], "--output", sink])[0]
                     for paths in files for name in ("eds.jsonl", "amr.jsonl")]
            elapsed = clock() - begin
            after = calibration.read()
            setups.append(calibration.reference_s(elapsed, before, after))
            before = after
            for code in codes:
                out.operation(code == 0, f"validate exited {code}")
        deadline = clock() + seconds
        while len(infer) < RULES_CORPORA or (clock() < deadline and not overhead_only):
            paths = files[len(infer) % RULES_CORPORA]
            begin = clock()
            code, stdout, stderr = _cli(["rules-infer", "--framework", "eds",
                                         "--input", paths["eds.jsonl"],
                                         "--rule-table", paths["eds.rules"]])
            infer.append(clock() - begin)
            counts = json.loads(stdout) if code == 0 else {}
            out.operation(code == 0 and counts.get("rules", 0) >= 1,
                          f"rules-infer exited {code}: {stderr.strip()}")
            middle = calibration.read()

            begin = clock()
            code, _, stderr = _cli(["preprocess", "--framework", "amr",
                                    "--input", paths["amr.jsonl"],
                                    "--output", paths["amr.out.jsonl"]])
            anchor.append(clock() - begin)
            out.operation(code == 0, f"preprocess amr exited {code}: {stderr.strip()}")
            after = calibration.read()
            pairs.append(calibration.reference_s(infer[-1], before, middle)
                         + calibration.reference_s(anchor[-1], middle, after))
            before = after
    pair_s = statistics.median(pairs)
    out.basis_s = pair_s
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "task_s": pair_s,
        "items_per_s": (RULES_EDS_GRAPHS + RULES_AMR_GRAPHS) / pair_s,
    })
    out.figures.update({"rules_infer_s": statistics.median(infer),
                        "amr_anchor_s": statistics.median(anchor),
                        "eds_graphs": RULES_EDS_GRAPHS, "amr_graphs": RULES_AMR_GRAPHS,
                        "corpora": RULES_CORPORA, "repetitions": len(infer),
                        "calibration_ms": 1000.0 * statistics.fmean(calibration.readings)})
    out.notes.update({"rules_infer_runs": infer, "amr_anchor_runs": anchor,
                      "calibration_ms": [1000.0 * r for r in calibration.readings]})
    if overhead_only:
        return out

    # output checks, outside the measured region
    for paths in files:
        code, _, stderr = _cli(["rules-apply", "--framework", "eds",
                                "--input", paths["eds.jsonl"],
                                "--rule-table", paths["eds.rules"], "--output", sink])
        out.operation(code == 0, f"rules-apply: the rule table leaves nodes "
                                 f"unencoded: {stderr.strip()}")
        lines = [line for line in _read(paths["amr.out.jsonl"]).splitlines()
                 if line.strip()]
        problems = [f"{g.id}: {v.message}" for g in map(graph.parse_graph, lines)
                    for v in graph.validate(g)]
        out.check(len(lines) == RULES_AMR_GRAPHS and not problems,
                  f"amr output: {len(lines)} graphs for {RULES_AMR_GRAPHS} inputs, "
                  f"violations {problems[:3]}")
    return out


WORKLOADS = {"short": run_short, "long": run_long, "rules": run_rules}
