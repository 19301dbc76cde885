"""The benchmark's layer hooks run against real training and parsing calls.

perfbench/layers.py wraps mrparse boundaries and reads their arguments and
results (build_problem's MatchProblem, break_ties' assignment and edge-loss
callback, the second and third arguments).  A signature change that breaks a
hook fails here, not only in a traced benchmark run.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import layers  # noqa: E402
from mrparse import trainer  # noqa: E402
from test_trainer import oversized_tie_graphs, tiny_config, twin_node_graphs  # noqa: E402
from tracer import Tracer  # noqa: E402


def traced(run):
    """The tracer after run() with every layer boundary installed."""
    tracer = Tracer(op_roots=layers.OP_ROOTS)
    tracer.install(layers.boundaries())
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer


def test_layer_hooks_count_real_calls():
    def run():
        trained, _ = trainer.train(tiny_config())
        trainer.predict(trained, "the cat is diving")

    tracer = traced(run)
    assert tracer.counters["matcher.real_targets"] > 0
    assert tracer.counters["matcher.queries"] > 0
    calls = tracer.calls()
    assert calls["trainer.predict"] == 1
    assert calls["matcher.break_ties"] == calls["matcher.build_problem"] > 0


def test_tie_break_hooks_see_real_ties():
    # every sentence holds a twin pair, so the edge-loss callback runs; the
    # fallback counter reads break_ties' assignment argument and result
    tracer = traced(lambda: trainer.train(tiny_config(corpus_size=40),
                                          graphs=twin_node_graphs()))
    assert tracer.counters["matcher.edge_nll.calls"] > 0
    assert tracer.counters["matcher.tie_fallbacks"] == 0
    assert tracer.calls()["matcher.break_ties"] == tracer.calls()["matcher.build_problem"]


def test_tie_fallback_hook_counts_warnings():
    # one group past the bound in every sentence: each match a fallback
    tracer = traced(lambda: trainer.train(tiny_config(queries_per_token=5),
                                          graphs=oversized_tie_graphs()))
    assert tracer.counters["matcher.tie_fallbacks"] == tracer.calls()["matcher.break_ties"] > 0
    assert tracer.counters["matcher.edge_nll.calls"] == 0
