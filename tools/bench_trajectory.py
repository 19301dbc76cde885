#!/usr/bin/env python3
"""Append one before/after row per change to the BENCH_*.json trajectory.

Usage, from the root of the repository:

    python3 tools/bench_trajectory.py --base <parent revision>

The base revision is extracted with ``git archive`` into a temporary
directory; the change is the working tree (tracked files and untracked files
that are not ignored), copied into another.  For each workload the script
runs ``perfbench/run.py --seed 1 --seconds 15 --trace 0`` in both checkouts
as subprocesses, ``PAIRS`` times, the base first in odd pairs and the change
first in even ones, reads each run's
``.perfbench_out/report-*.json`` and appends one row to
``BENCH_<workload>.json``: both revisions, every run's end-to-end metrics,
calibration readings and checks (on ``short`` also its epochs to target and
final F1), each side's ``wc -l src/mrparse/*.py`` total, and per side the
median and quartiles of each end-to-end metric, with the numbers of pairs in
which the change was strictly better and strictly worse and two verdicts:
``gain_shown`` (better in at least nine tenths of the pairs, and the medians
apart by more than the base's interquartile range) and ``worse_than_bound``
(the change's median worse than the base's by more than the metric's
``bound`` in ``BENCHMARK.json``, relative to the base).

It then runs the acceptance configuration (500 synthetic sentences, stop at
held-out labels/anchors F1 >= 0.95 and edges >= 0.90, at most 30 epochs) for
each of ``ACCEPTANCE_SEEDS`` in both checkouts, again alternating the
order, and appends one row to ``BENCH_acceptance.json`` with the epochs, the
wall seconds, the calibration readings around the run and all five final F1
of each run, and the rate in sentences/s at which ``mrparse predict``, run in
process, parses ``PARSE_SENTENCES`` parse-set sentences with the trained
model (best of ``PARSE_REPEATS``).

Rows are only ever appended; numbers are never copied by hand.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHORT_FIGURES = ("epochs_to_target", "f1_labels", "f1_anchors", "f1_edges")
WORKLOADS = ("short", "long", "rules")
PAIRS = 5
SEED = 1
SECONDS = 15
ACCEPTANCE_SEEDS = (1, 2, 3, 4, 5)

# Runs inside a checkout: train with the acceptance config, then parse
# PARSE_SENTENCES parse-set sentences with ``mrparse predict`` in process (best
# of PARSE_REPEATS), and print one JSON line.  The calibration loop is
# perfbench's, so the wall seconds can be set against the host's speed the way
# the benchmark does it.
PARSE_SENTENCES = 1200
PARSE_REPEATS = 3
ACCEPTANCE_SCRIPT = r"""
import json, os, sys, tempfile, time
sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.join(os.getcwd(), "perfbench")]
from mrparse import cli, trainer
import inputs
from workloads import Calibration
seed, sentences, repeats = (int(arg) for arg in sys.argv[1:4])
config = trainer.TrainConfig(seed=seed, epochs=30, corpus_size=500,
                             stop_when={"labels": 0.95, "anchors": 0.95, "edges": 0.90})
calibration = Calibration()
before = calibration.read()
start = time.perf_counter()
trained, records = trainer.train(config)
wall = time.perf_counter() - start
after = calibration.read()
final = records[-1]["f1"]
with tempfile.TemporaryDirectory() as work:
    checkpoint, text = os.path.join(work, "model.ckpt"), os.path.join(work, "input.txt")
    trained.save(checkpoint)
    with open(text, "w", encoding="utf-8") as handle:
        handle.writelines(g.input + "\n" for g in inputs.parse_set(seed, sentences))
    parse_s = []
    for _ in range(repeats):
        start = time.perf_counter()
        code = cli.run(["predict", "--checkpoint", checkpoint, "--input", text,
                        "--output", os.devnull])
        parse_s.append(time.perf_counter() - start)
        if code:
            raise SystemExit(f"predict exited {code}")
print(json.dumps({
    "seed": seed, "epochs": len(records), "wall_s": wall,
    "reference_s": calibration.reference_s(wall, before, after),
    "calibration_ms": [1000.0 * r for r in calibration.readings],
    "reached": all(final[k] >= v for k, v in config.stop_when.items()),
    "f1": final, "parse_sentences_per_s": sentences / min(parse_s)}))
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _archive(revision: str, into: str):
    """Extract revision's tree into the directory."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def _copy_worktree(into: str):
    """Copy the tracked and the untracked, not ignored files of the working tree."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a deleted tracked file is still listed
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def _side(label: str, revision: str | None, work: str) -> dict:
    """A checkout of the revision, or of the working tree when it is None."""
    path = os.path.join(work, label)
    os.makedirs(path)
    if revision is None:
        _copy_worktree(path)
        status = _git("status", "--porcelain", "--untracked-files=no")
        described = _git("rev-parse", "HEAD") + (" + working tree" if status else "")
    else:
        _archive(revision, path)
        described = _git("rev-parse", revision)
    return {"label": label, "revision": described, "path": path,
            "src_lines": _src_lines(path)}


def _src_lines(checkout: str) -> int:
    """What ``wc -l src/mrparse/*.py`` totals in the checkout: its newlines."""
    package = os.path.join(checkout, "src", "mrparse")
    total = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                total += handle.read().count(b"\n")
    return total


def _environment() -> dict:
    """Subprocesses see no PYTHONPATH: perfbench imports its own checkout's src."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def _perfbench_run(side: dict, workload: str) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=side["path"], env=_environment(),
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{side['label']} {workload} exited "
                         f"{done.returncode}: {done.stderr.strip()}")
    path = os.path.join(side["path"], ".perfbench_out",
                        f"report-{workload}-seed{SEED}-trace0.json")
    with open(path) as handle:
        report = json.load(handle)
    result = report["result"]
    run = {"metrics": {name: metric["value"]
                       for name, metric in result["metrics"].items()},
           "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "problems": report["problems"],
           "calibration_ms": report["notes"].get("calibration_ms"),
           "src_sha256": report["environment"].get("src_sha256")}
    if workload == "short":
        run.update({name: report["figures"][name] for name in SHORT_FIGURES})
    return run


def _acceptance_run(side: dict, seed: int) -> dict:
    done = subprocess.run([sys.executable, "-c", ACCEPTANCE_SCRIPT, str(seed),
                           str(PARSE_SENTENCES), str(PARSE_REPEATS)],
                          cwd=side["path"], env=_environment(), capture_output=True,
                          text=True)
    if done.returncode:
        raise SystemExit(f"{side['label']} acceptance seed {seed} exited "
                         f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Median and quartiles of every end-to-end metric on each side, the
    pairs in which the change was strictly better and strictly worse (a tie
    counts for neither side), and the two verdicts on the medians: a gain is
    shown, and the change is worse than the metric's bound."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        base = [pair["base"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        better = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        worse = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        base_q, change_q = _quartiles(base), _quartiles(change)
        gain = sign * (change_q["median"] - base_q["median"])
        out[name] = {"base": base_q, "change": change_q,
                     "change_better_pairs": better, "change_worse_pairs": worse,
                     "pairs": len(pairs),
                     "gain_shown": better >= 0.9 * len(pairs)
                     and gain > base_q["q3"] - base_q["q1"],
                     "worse_than_bound": -gain > metric["bound"] * abs(base_q["median"])}
    return out


def _append(path: str, row: dict):
    rows = []
    if os.path.exists(path):
        with open(path) as handle:
            rows = json.load(handle)
    rows.append(row)
    text = json.dumps(rows, indent=1)
    # a list of numbers on one line: the calibration readings run to hundreds
    text = re.sub(r"\[\s+([^\[\]{}\"]*?)\s+\]",
                  lambda match: "[" + " ".join(match.group(1).split()) + "]", text)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(f"bench_trajectory: appended row {len(rows)} to {path}", file=sys.stderr)


def _host() -> dict:
    return {"python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    args = parser.parse_args()

    work = tempfile.mkdtemp(prefix="bench-trajectory-")
    try:
        base = _side("base", args.base, work)
        change = _side("change", None, work)
        with open(os.path.join(change["path"], "BENCHMARK.json")) as handle:
            metrics = json.load(handle)["end_to_end"]
        revisions = {side["label"]: side["revision"] for side in (base, change)}
        src_lines = {side["label"]: side["src_lines"] for side in (base, change)}
        started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        for workload in WORKLOADS:
            pairs = []
            for k in range(PAIRS):
                order = (base, change) if k % 2 == 0 else (change, base)
                pair = {"seed": SEED, "first": order[0]["label"]}
                for side in order:
                    pair[side["label"]] = _perfbench_run(side, workload)
                pairs.append(pair)
            _append(os.path.join(ROOT, f"BENCH_{workload}.json"), {
                "revisions": revisions, "src_lines": src_lines, "started": started,
                "host": _host(),
                "command": f"perfbench/run.py --workload {workload} --seed {SEED} "
                           f"--seconds {SECONDS} --trace 0",
                "summary": _summary(pairs, metrics), "pairs": pairs})
        runs = []
        for k, seed in enumerate(ACCEPTANCE_SEEDS):
            order = (base, change) if k % 2 == 0 else (change, base)
            run = {"seed": seed, "first": order[0]["label"]}
            for side in order:
                run[side["label"]] = _acceptance_run(side, seed)
            runs.append(run)
        _append(os.path.join(ROOT, "BENCH_acceptance.json"), {
            "revisions": revisions, "src_lines": src_lines, "started": started,
            "host": _host(),
            "config": "TrainConfig(seed=s, epochs=30, corpus_size=500, stop_when="
                      "{labels: 0.95, anchors: 0.95, edges: 0.90})",
            "runs": runs})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
