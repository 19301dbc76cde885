"""The benchmark's layer hooks run against real training and parsing calls.

perfbench/layers.py wraps mrparse boundaries and reads their arguments and
results (build_problem's MatchProblem, break_ties' edge-loss callback).  A
signature change that breaks a hook fails here, not only in a traced
benchmark run.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import layers  # noqa: E402
from mrparse import trainer  # noqa: E402
from test_trainer import tiny_config  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_layer_hooks_count_real_calls():
    tracer = Tracer(op_roots=layers.OP_ROOTS)
    tracer.install(layers.boundaries())
    try:
        trained, _ = trainer.train(tiny_config())
        trainer.predict(trained, "the cat is diving")
    finally:
        tracer.uninstall()
    assert tracer.counters["matcher.real_targets"] > 0
    assert tracer.counters["matcher.queries"] > 0
    calls = tracer.calls()
    assert calls["trainer.predict"] == 1
    assert calls["matcher.break_ties"] == calls["matcher.build_problem"] > 0
