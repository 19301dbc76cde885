import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrparse.graph import Anchor, Edge, Graph, Node, load_graphs
from mrparse.transform import (GraphStructureError, TransformError,
                               drg_reduce_binary_relations, eds_merge_anchors,
                               fold_property_nodes, load_framework_config,
                               nodeify_properties, normalize_inverted_edges,
                               preprocess, reinvert_edges_for_top, ucca_augment)
from conftest import fixture_path


def count_nodes_edges_props(g):
    # independent walker used as the counting oracle
    return (len(g.nodes), len(g.edges), sum(len(n.properties) for n in g.nodes))


def created_ids(before, after):
    """The ids of the nodes a transform added: those before lacks."""
    return {n.id for n in after.nodes} - {n.id for n in before.nodes}


@pytest.fixture
def amr_fig():
    return load_graphs(fixture_path("amr.jsonl"))[0]


def test_nodeify_figure_example(amr_fig):
    out = nodeify_properties(amr_fig)
    created = out.node_by_id(5)
    assert created.label == "2"
    assert created.anchors == amr_fig.node_by_id(0).anchors
    assert Edge(source=0, target=5, label="quant") in out.edges
    assert out.node_by_id(0).properties == ()
    # (0, "quant", 5): node 5 is the one created node, and 0 -> 5 quant its one edge
    assert created_ids(amr_fig, out) == {5}
    assert [e for e in out.edges if 5 in (e.source, e.target)] == [Edge(0, 5, "quant")]


def test_nodeify_no_properties_identity():
    g = Graph(id="g", framework="eds", flavor=1, input="x",
              nodes=(Node(0, "a"),))
    out = nodeify_properties(g)
    assert out == g
    assert created_ids(g, out) == set()


def test_nodeify_counts():
    g = Graph(id="g", framework="eds", flavor=1, input="x",
              nodes=(Node(0, "a", properties=(("p", "1"), ("q", "2"), ("r", "3"))),
                     Node(1, "b")))
    before = count_nodes_edges_props(g)
    out = nodeify_properties(g)
    after = count_nodes_edges_props(out)
    assert after == (before[0] + 3, before[1] + 3, 0)
    # created ids lie above every id of g, so they are the ids g lacks
    assert sorted(created_ids(g, out)) == [2, 3, 4]


def test_fold_round_trip(amr_fig):
    out = nodeify_properties(amr_fig)
    assert fold_property_nodes(out, created_ids(amr_fig, out)) == amr_fig


def test_deinvert_basic():
    g = Graph(id="g", framework="amr", flavor=2, input="x",
              nodes=(Node(0, "a"), Node(1, "b")),
              edges=(Edge(0, 1, "ARG0-of"),))
    out, deinverted = normalize_inverted_edges(g)
    assert out.edges == (Edge(1, 0, "ARG0"),)
    assert deinverted == (0,)


def test_deinvert_alias():
    g = Graph(id="g", framework="amr", flavor=2, input="x",
              nodes=(Node(0, "a"), Node(1, "b")),
              edges=(Edge(0, 1, "mod"),))
    out, deinverted = normalize_inverted_edges(g)
    assert out.edges == (Edge(1, 0, "domain"),)
    assert deinverted == (0,)


def test_deinvert_no_suffix_identity():
    g = Graph(id="g", framework="amr", flavor=2, input="x",
              nodes=(Node(0, "a"), Node(1, "b")),
              edges=(Edge(0, 1, "ARG0"),))
    out, deinverted = normalize_inverted_edges(g)
    assert out == g
    assert deinverted == ()


def test_deinvert_idempotent(all_fixture_graphs):
    for g in all_fixture_graphs:
        once, _ = normalize_inverted_edges(g)
        twice, deinverted = normalize_inverted_edges(once)
        assert once == twice
        assert deinverted == ()


def test_ucca_single_node_leaf():
    g = Graph(id="g", framework="ucca", flavor=1, input="hi",
              nodes=(Node(0, anchors=(Anchor(0, 2),)),))
    out = ucca_augment(g)
    assert out.nodes[0].label == "leaf"


def test_ucca_parent_anchor_union():
    g = Graph(id="g", framework="ucca", flavor=1, input="ab cd efg",
              nodes=(Node(0), Node(1, anchors=(Anchor(0, 3),)),
                     Node(2, anchors=(Anchor(4, 8),))),
              edges=(Edge(0, 1, "A"), Edge(0, 2, "B")))
    out = ucca_augment(g)
    assert out.node_by_id(0).label == "inner"
    assert out.node_by_id(0).anchors == (Anchor(0, 3), Anchor(4, 8))


def test_ucca_chain_inner_labels():
    g = Graph(id="g", framework="ucca", flavor=1, input="abc",
              nodes=(Node(0), Node(1), Node(2, anchors=(Anchor(0, 3),))),
              edges=(Edge(0, 1, "A"), Edge(1, 2, "B")))
    out = ucca_augment(g)
    assert [out.node_by_id(i).label for i in (0, 1, 2)] == ["inner", "inner", "leaf"]
    # anchor monotonicity: parents carry a superset of each child's anchors
    for edge in out.edges:
        parent = set(out.node_by_id(edge.source).anchors)
        child = set(out.node_by_id(edge.target).anchors)
        assert child <= parent


def test_ucca_cycle_error():
    g = Graph(id="g", framework="ucca", flavor=1, input="ab",
              nodes=(Node(0), Node(1)),
              edges=(Edge(0, 1, "A"), Edge(1, 0, "B")))
    with pytest.raises(GraphStructureError, match="cycle through node 0"):
        ucca_augment(g)


def test_ucca_chain_deeper_than_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    g = Graph(id="g", framework="ucca", flavor=1, input="abc",
              nodes=tuple(Node(i) for i in range(depth))
              + (Node(depth, anchors=(Anchor(0, 3),)),),
              edges=tuple(Edge(i, i + 1, "A") for i in range(depth)))
    out = preprocess("ucca", g)
    assert all(n.label == "inner" and n.anchors == (Anchor(0, 3),)
               for n in out.nodes[:depth])
    assert out.nodes[depth].label == "leaf"


def test_ucca_shared_child_anchors_every_parent():
    # a node reached from two parents is walked once and feeds both
    g = Graph(id="g", framework="ucca", flavor=1, input="ab cd",
              nodes=(Node(0), Node(1), Node(2), Node(3, anchors=(Anchor(0, 2),)),
                     Node(4, anchors=(Anchor(3, 5),))),
              edges=(Edge(0, 2, "A"), Edge(1, 2, "A"), Edge(2, 3, "B"), Edge(1, 4, "C")))
    out = ucca_augment(g)
    assert [out.node_by_id(i).anchors for i in range(3)] == [
        (Anchor(0, 2),), (Anchor(0, 2), Anchor(3, 5)), (Anchor(0, 2),)]


def test_drg_reduce_path():
    g = Graph(id="g", framework="drg", flavor=2, input="x",
              nodes=(Node(0, "sleep"), Node(1, "cat"), Node(2, "Agent")),
              edges=(Edge(0, 2, "arg1"), Edge(2, 1, "arg2")))
    out = drg_reduce_binary_relations(g, {"Agent"})
    assert len(out.nodes) == 2
    assert out.edges == (Edge(0, 1, "Agent"),)


def test_drg_reduce_no_relations_identity():
    g = Graph(id="g", framework="drg", flavor=2, input="x",
              nodes=(Node(0, "a"), Node(1, "b")), edges=(Edge(0, 1, "r"),))
    assert drg_reduce_binary_relations(g, {"Agent"}) == g


def test_drg_reduce_bad_degree():
    g = Graph(id="g", framework="drg", flavor=2, input="x",
              nodes=(Node(0, "R"), Node(1, "a"), Node(2, "b")),
              edges=(Edge(0, 1, "x"), Edge(0, 2, "y")))
    with pytest.raises(GraphStructureError) as err:
        drg_reduce_binary_relations(g, {"R"})
    assert "0" in str(err.value)


def test_eds_merge_anchors():
    g = Graph(id="g", framework="eds", flavor=1, input="abcdefghi",
              nodes=(Node(0, "x", anchors=(Anchor(0, 2), Anchor(5, 9))),
                     Node(1, "y", anchors=(Anchor(1, 3),)),
                     Node(2, "z")))
    out = eds_merge_anchors(g)
    assert out.node_by_id(0).anchors == (Anchor(0, 9),)
    assert out.node_by_id(1).anchors == (Anchor(1, 3),)
    assert out.node_by_id(2).anchors == ()


def test_preprocess_amr_figure(amr_fig):
    out = preprocess("amr", amr_fig)
    labels = sorted(e.label for e in out.edges)
    assert labels == ["ARG1", "domain", "domain", "domain", "quant"]
    # the fixture's three inverted edges and one alias, each reversed
    assert set(out.edges) == {Edge(1, 0, "domain"), Edge(2, 1, "domain"),
                              Edge(3, 1, "ARG1"), Edge(4, 0, "domain"),
                              Edge(0, 5, "quant")}
    assert out.node_by_id(5).label == "2"


def test_preprocess_ptg_keeps_properties():
    g = load_graphs(fixture_path("ptg.jsonl"))[0]
    assert preprocess("ptg", g) is g


def test_preprocess_ucca():
    g = load_graphs(fixture_path("ucca.jsonl"))[0]
    out = preprocess("ucca", g)
    assert {n.label for n in out.nodes} == {"leaf", "inner"}


def test_preprocess_drg_uses_config():
    g = load_graphs(fixture_path("drg.jsonl"))[0]
    out = preprocess("drg", g, frozenset({"Agent"}))
    assert Edge(0, 1, "Agent") in out.edges


def test_preprocess_eds_merges():
    g = load_graphs(fixture_path("eds.jsonl"))[1]
    out = preprocess("eds", g)
    assert out.node_by_id(0).anchors == (Anchor(0, 9),)


@pytest.mark.parametrize("framework", ["amr", "drg", "eds", "ptg", "ucca"])
def test_preprocess_returns_a_graph(framework):
    for g in load_graphs(fixture_path(f"{framework}.jsonl")):
        assert type(preprocess(framework, g)) is Graph


def test_framework_config_file(tmp_path):
    path = tmp_path / "fw.cfg"
    path.write_text("# demo\ndrg_relations = Agent, Theme\n\ndrg_relations = Cause\n")
    assert load_framework_config(str(path)) == frozenset({"Agent", "Theme", "Cause"})


_KEYS = st.sampled_from(["alias.mod", "drg_relations"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text() | st.builds("{} = {}".format, _KEYS, st.text()),
                max_size=4).map("\n".join))
def test_load_framework_config_returns_or_raises_transform_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("config") / "fw.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_framework_config(str(path)), frozenset)
    except TransformError:
        pass


def test_reinvert_restores_tree_direction():
    # normalized: person->dog poss; top jump reaches dog, person needs flip
    g = Graph(id="g", framework="eds", flavor=1, input="x",
              nodes=(Node(0, "_the_q"), Node(1, "_dog_n"), Node(2, "person"),
                     Node(3, "jump", is_top=True)),
              edges=(Edge(0, 1, "BV"), Edge(3, 1, "ARG1"), Edge(2, 1, "poss")))
    out = reinvert_edges_for_top(g, invertible_labels={"poss"})
    assert Edge(1, 2, "poss-of") in out.edges
    assert Edge(0, 1, "BV") in out.edges  # not eligible, kept as-is


def test_reinvert_alias_restored():
    g = Graph(id="g", framework="amr", flavor=2, input="x",
              nodes=(Node(0, "duo", is_top=True), Node(1, "comedy")),
              edges=(Edge(1, 0, "domain"),))
    out = reinvert_edges_for_top(g, invertible_labels={"domain"})
    assert out.edges == (Edge(0, 1, "mod"),)


def test_fold_property_nodes():
    g = Graph(id="g", framework="eds", flavor=1, input="x",
              nodes=(Node(0, "_cat_n", anchors=(Anchor(0, 1),)),
                     Node(1, "pl", anchors=(Anchor(0, 1),))),
              edges=(Edge(0, 1, "num"),))
    out = fold_property_nodes(g, {1})
    assert len(out.nodes) == 1
    assert out.nodes[0].properties == (("num", "pl"),)
    assert out.edges == ()


# a graph none of the five transforms below has anything to change in: no
# properties, no inverted label, every node reached along its edges from the
# top, no node with more than one anchor, and no foldable property node
_UNCHANGED = Graph(id="g", framework="eds", flavor=1, input="ab cd",
                   nodes=(Node(0, "x", anchors=(Anchor(0, 2),), is_top=True),
                          Node(1, "y", anchors=(Anchor(3, 5),)), Node(2, "z")),
                   edges=(Edge(0, 1, "ARG1"), Edge(1, 2, "flag")))


@pytest.mark.parametrize("transform", [
    nodeify_properties,
    lambda g: normalize_inverted_edges(g)[0],
    eds_merge_anchors,
    # every label of the graph eligible
    lambda g: reinvert_edges_for_top(g, invertible_labels={"ARG1", "flag"}),
    lambda g: fold_property_nodes(g, {0}),
    lambda g: fold_property_nodes(g, set()),
], ids=["nodeify", "deinvert", "eds_merge", "reinvert", "fold", "fold_no_flags"])
def test_nothing_to_change_returns_the_input(transform):
    assert transform(_UNCHANGED) is _UNCHANGED


def test_eds_merge_keeps_single_anchor_nodes():
    g = Graph(id="g", framework="eds", flavor=1, input="abcdefghi",
              nodes=(Node(0, "x", anchors=(Anchor(0, 2), Anchor(5, 9))),
                     Node(1, "y", anchors=(Anchor(1, 3),)), Node(2, "z")))
    out = eds_merge_anchors(g)
    assert out.nodes[0] != g.nodes[0]
    assert out.nodes[1] is g.nodes[1] and out.nodes[2] is g.nodes[2]
