"""Tests of the benchmark's own code: input generators, tracer, metric tables.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from mrparse.graph import parse_graph, serialize_graph, validate  # noqa: E402
from tracer import LEAF, Boundary, TraceError, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# input generators

def _assert_consistent(g):
    assert validate(g) == []
    assert parse_graph(serialize_graph(g)) == g
    for token in g.tokens:
        assert g.input[token.start:token.end] == token.form
    for node in g.nodes:
        for anchor in node.anchors:
            assert 0 <= anchor.start < anchor.end <= len(g.input)


def test_long_graphs_join_four_sentences():
    parts = 4
    base = inputs.corpus.synth_corpus(inputs.child_seed(3, "long"), 6 * parts)
    joined = inputs.long_corpus(3, 6, parts)
    assert len(joined) == 6
    for i, g in enumerate(joined):
        _assert_consistent(g)
        group = base[i * parts:(i + 1) * parts]
        assert g.input == " ".join(p.input for p in group)
        assert [n.id for n in g.nodes] == list(range(len(g.nodes)))
        assert len(g.nodes) == sum(len(p.nodes) for p in group)
        assert len(g.edges) == sum(len(p.edges) for p in group)
        assert 16 <= len(g.tokens) <= 24
        # only the first part's top survives, renumbered into place
        assert g.top_ids() == group[0].top_ids()
        # every node keeps its label and the text under its anchors
        flat = [(n, p) for p in group for n in p.nodes]
        for node, (orig, part) in zip(g.nodes, flat):
            assert node.label == orig.label
            assert [g.input[a.start:a.end] for a in node.anchors] == \
                [part.input[a.start:a.end] for a in orig.anchors]
        # edges connect the same labels as in the parts
        assert sorted((g.nodes[e.source].label, e.label, g.nodes[e.target].label)
                      for e in g.edges) == sorted(
            (p.node_by_id(e.source).label, e.label, p.node_by_id(e.target).label)
            for p in group for e in p.edges)


def test_unanchored_amr_drops_every_anchor():
    eds = inputs.rules_corpus(5, 20)
    amr = inputs.unanchored_amr(eds)
    for before, after in zip(eds, amr):
        _assert_consistent(after)
        assert (after.framework, after.flavor) == ("amr", 2)
        assert all(node.anchors == () for node in after.nodes)
        assert [n.label for n in after.nodes] == [n.label for n in before.nodes]
        assert after.edges == before.edges


def test_generators_are_seeded():
    def dump(graphs):
        return [serialize_graph(g) for g in graphs]

    for make in (inputs.train_corpus, inputs.parse_set, inputs.rules_corpus,
                 inputs.long_corpus):
        assert dump(make(7, 5)) == dump(make(7, 5))
        assert dump(make(7, 5)) != dump(make(8, 5))
    for g in inputs.parse_set(7, 20) + inputs.train_corpus(7, 20):
        _assert_consistent(g)
    # the parse set is drawn apart from the training corpus of the same seed
    assert dump(inputs.parse_set(7, 5)) != dump(inputs.train_corpus(7, 5))


def test_train_corpus_is_the_acceptance_corpus():
    assert [serialize_graph(g) for g in inputs.train_corpus(1, 10)] == \
        [serialize_graph(g) for g in inputs.corpus.synth_corpus(1, 10)]


# ---------------------------------------------------------------------------
# tracer

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


MOD_SOURCE = """
from toypkg import clock

def leaf():
    clock.now += 3.0

def inner():
    clock.now += 2.0

def outer():
    clock.now += 1.0
    inner()                 # bare-name call inside the module
    clock.now += 1.0
    other.call_inner()      # reaches inner through another module's alias
    leaf()
    clock.now += 1.0
"""

OTHER_SOURCE = """
from toypkg.mod import inner

def call_inner():
    inner()
"""


@pytest.fixture
def toy():
    """A throwaway package whose functions advance a fake clock."""
    names = ("toypkg", "toypkg.mod", "toypkg.other")
    saved = {name: sys.modules.get(name) for name in names}
    package = types.ModuleType("toypkg")
    package.clock = FakeClock()
    mod = types.ModuleType("toypkg.mod")
    other = types.ModuleType("toypkg.other")
    sys.modules.update(zip(names, (package, mod, other)))
    exec(MOD_SOURCE, mod.__dict__)
    exec(OTHER_SOURCE, other.__dict__)
    mod.other = other
    yield package.clock, mod, other
    for name, module in saved.items():
        if module is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = module


def _toy_boundaries(mod):
    return [Boundary(mod, "outer", "mod.outer"), Boundary(mod, "inner", "mod.inner"),
            Boundary(mod, "leaf", "mod.leaf", LEAF)]


def test_self_time_of_nested_calls(toy):
    clock, mod, other = toy
    tracer = Tracer(clock=clock)
    tracer.install(_toy_boundaries(mod), package="toypkg")
    try:
        mod.outer()
    finally:
        tracer.uninstall()
    # outer spans 1+2+1+2+3+1 = 10; its children cover 2+2 (inner) + 3 (leaf)
    assert tracer.self_times() == {"mod.outer": 3.0, "mod.inner": 4.0, "mod.leaf": 3.0}
    assert tracer.calls() == {"mod.outer": 1, "mod.inner": 2, "mod.leaf": 1}
    assert len(tracer.span_start) == 3           # the leaf is not stored as a span
    assert list(tracer.span_parent) == [-1, 0, 0]


def test_install_rewrites_aliases_and_uninstall_restores(toy):
    clock, mod, other = toy
    originals = (mod.outer, mod.inner, mod.leaf)
    tracer = Tracer(clock=clock)
    tracer.install(_toy_boundaries(mod), package="toypkg")
    assert other.inner is mod.inner is not originals[1]
    tracer.uninstall()
    assert (mod.outer, mod.inner, mod.leaf) == originals
    assert other.inner is originals[1]


def test_install_refuses_missing_boundary(toy):
    clock, mod, _ = toy
    with pytest.raises(TraceError):
        Tracer(clock=clock).install([Boundary(mod, "absent", "mod.absent")],
                                    package="toypkg")


def test_span_inside_leaf_is_an_error(toy):
    clock, mod, _ = toy
    tracer = Tracer(clock=clock)
    tracer.install([Boundary(mod, "inner", "mod.inner"),
                    Boundary(mod, "outer", "mod.outer", LEAF)], package="toypkg")
    try:
        with pytest.raises(TraceError):
            mod.outer()
    finally:
        tracer.uninstall()


def test_operation_ids_follow_roots(toy):
    clock, mod, _ = toy
    tracer = Tracer(op_roots=("mod.outer",), clock=clock)
    tracer.install(_toy_boundaries(mod), package="toypkg")
    try:
        mod.outer()
        mod.inner()
        mod.outer()
    finally:
        tracer.uninstall()
    # spans: outer, inner, inner | inner | outer, inner, inner
    assert list(tracer.span_op) == [0, 0, 0, 0, 1, 1, 1]


def test_mrparse_boundaries_install_cleanly():
    tracer = Tracer()
    tracer.install(layers.boundaries())
    tracer.uninstall()
    assert len(set(layers.BOUNDARY_NAMES)) == len(layers.BOUNDARY_NAMES)
    for name in (n for names in workloads.EXPECTED_BOUNDARIES.values() for n in names):
        assert name in layers.BOUNDARY_NAMES


# ---------------------------------------------------------------------------
# metric tables

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layers.per_layer_metric_units()
