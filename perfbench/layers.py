"""The mrparse layer boundaries the traced run wraps, and its per-layer metrics.

A boundary is a public function through which callers enter a module of
``src/mrparse``.  Every boundary reports its self seconds (``<name>.s``) and
its call count (``<name>.calls``); a few hooks add counters that explain a
layer's work (``kernels.assignment_n3``) or its silent fallbacks
(``matcher.tie_fallbacks``, ``balance.warnings``).
"""

from __future__ import annotations

from mrparse import (balance, cli, graph, heads, hitting, kernels, matcher, model,
                     rules, scorer, trainer, transform)

from tracer import LEAF, Boundary

# Spans that start a new operation id: one sentence step, one parse, one
# command.  Spans opened inside them share its id.
OP_ROOTS = ("trainer.forward_sentence", "trainer.predict", "cli.run")


def _count_problem(tracer, args, kwargs, problem):
    tracer.counters["matcher.real_targets"] += problem.num_real_targets
    tracer.counters["matcher.queries"] += problem.label_score.shape[0]


def _count_edge_nll(tracer, args, kwargs):
    """Replace break_ties' edge-loss callback by one that counts its calls."""
    args = list(args)
    if len(args) > 2:
        callback, slot = args[2], 2
    else:
        callback, slot = kwargs["edge_loglik"], "edge_loglik"

    def counted(perm):
        tracer.counters["matcher.edge_nll.calls"] += 1
        return callback(perm)

    if slot == 2:
        args[2] = counted
    else:
        kwargs = dict(kwargs, edge_loglik=counted)
    return tuple(args), kwargs


def _count_fallbacks(tracer, args, kwargs, assignment):
    before = args[1] if len(args) > 1 else kwargs["assignment"]
    tracer.counters["matcher.tie_fallbacks"] += \
        len(assignment.warnings) - len(before.warnings)


def _count_n3(tracer, args, kwargs, perm):
    tracer.counters["kernels.assignment_n3"] += len(perm) ** 3


def _count_balance_warnings(tracer, args, kwargs, result):
    tracer.counters["balance.warnings"] += len(result[1])


def boundaries() -> list[Boundary]:
    B = Boundary
    return [
        B(trainer, "prepare", "trainer.prepare"),
        B(trainer, "forward_sentence", "trainer.forward_sentence"),
        B(trainer, "match_queries", "trainer.match_queries"),
        B(trainer, "sentence_losses", "trainer.sentence_losses"),
        B(trainer.AdamW, "step", "trainer.AdamW.step"),
        B(trainer, "evaluate", "trainer.evaluate"),
        B(trainer, "predict", "trainer.predict"),
        B(trainer, "train", "trainer.train"),
        B(model, "encode_forward", "model.encode_forward"),
        B(model, "block_forward", "model.block_forward"),
        B(model, "block_backward", "model.block_backward"),
        B(model, "encode_backward", "model.encode_backward"),
        B(model, "queries_backward", "model.queries_backward"),
        B(model, "add_grad", "model.add_grad", LEAF),
        B(model, "load_params", "model.load_params"),
        B(matcher, "build_problem", "matcher.build_problem", hook=_count_problem),
        B(matcher, "optimal_assignment", "matcher.optimal_assignment"),
        B(matcher, "break_ties", "matcher.break_ties", hook=_count_fallbacks,
          wrap_args=_count_edge_nll),
        B(kernels, "max_score_assignment", "kernels.max_score_assignment",
          hook=_count_n3),
        B(heads, "mos_forward_batch", "heads.mos_forward_batch"),
        B(heads, "mos_backward_batch", "heads.mos_backward_batch"),
        B(heads, "anchor_head", "heads.anchor_head"),
        B(heads, "anchor_loss", "heads.anchor_loss"),
        B(heads, "biaffine_forward", "heads.biaffine_forward", LEAF),
        B(balance, "update_loss_weights", "balance.update_loss_weights",
          hook=_count_balance_warnings),
        B(rules, "build_problem", "rules.build_problem"),
        B(rules, "enumerate_applicable_rules", "rules.enumerate_applicable_rules", LEAF),
        B(rules, "minimal_rule_set", "rules.minimal_rule_set"),
        B(rules, "apply_rule", "rules.apply_rule", LEAF),
        B(rules, "anchor_flavor2_corpus", "rules.anchor_flavor2_corpus"),
        B(rules, "decode_label", "rules.decode_label"),
        B(hitting, "minimal_hitting_set", "hitting.minimal_hitting_set"),
        B(transform, "preprocess", "transform.preprocess"),
        B(transform, "fold_property_nodes", "transform.fold_property_nodes"),
        B(transform, "reinvert_edges_for_top", "transform.reinvert_edges_for_top"),
        B(transform, "eds_merge_anchors", "transform.eds_merge_anchors"),
        B(scorer, "score_pair", "scorer.score_pair"),
        B(graph, "parse_graph", "graph.parse_graph"),
        B(graph, "serialize_graph", "graph.serialize_graph"),
        B(cli, "run", "cli.run"),
    ]


BOUNDARY_NAMES = tuple(b.name for b in boundaries())

# Per-layer metrics besides <boundary>.s and <boundary>.calls.
EXTRA_METRICS = (
    ("matcher.edge_nll.calls", "count"),
    ("matcher.tie_fallbacks", "count"),
    ("matcher.real_match_ratio", "ratio"),
    ("kernels.assignment_n3", "count"),
    ("balance.warnings", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run prints, in print order."""
    units = {}
    for name in BOUNDARY_NAMES:
        units[name + ".s"] = "s"
        units[name + ".calls"] = "count"
    units.update(EXTRA_METRICS)
    return units


def per_layer_values(tracer, overhead_s: float, overhead_frac: float) -> dict[str, float]:
    self_s = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters
    values = {}
    for name in BOUNDARY_NAMES:
        values[name + ".s"] = self_s.get(name, 0.0)
        values[name + ".calls"] = calls.get(name, 0)
    queries = counters["matcher.queries"]
    values.update({
        "matcher.edge_nll.calls": counters["matcher.edge_nll.calls"],
        "matcher.tie_fallbacks": counters["matcher.tie_fallbacks"],
        "matcher.real_match_ratio":
            counters["matcher.real_targets"] / queries if queries else 0.0,
        "kernels.assignment_n3": counters["kernels.assignment_n3"],
        "balance.warnings": counters["balance.warnings"],
        "trace.spans": len(tracer.span_start),
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": overhead_frac,
    })
    return values
