import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrparse import cli
from mrparse.graph import (Anchor, Edge, Graph, GraphError, GraphParseError,
                           GraphSchemaError, Node, Token, parse_graph, read_graphs,
                           serialize_graph, validate, whitespace_tokens)
from oracles import reference_parse_graph


def test_minimal_graph():
    g = parse_graph('{"id":"g","flavor":2,"framework":"amr","input":"hi",'
                    '"nodes":[{"id":0,"label":"x"}],"edges":[]}')
    assert len(g.nodes) == 1
    assert g.nodes[0].label == "x"
    assert g.edges == ()


def test_property_parallel_arrays():
    g = parse_graph('{"id":"g","flavor":2,"framework":"amr","input":"s",'
                    '"nodes":[{"id":0,"label":"person","properties":["quant"],'
                    '"values":["2"]}],"edges":[]}')
    assert g.nodes[0].properties == (("quant", "2"),)


def test_edge_cites_missing_node():
    line = ('{"id":"g","flavor":1,"framework":"eds","input":"s",'
            '"nodes":[{"id":0}],"edges":[{"source":0,"target":7,"label":"L"}]}')
    with pytest.raises(GraphSchemaError) as err:
        parse_graph(line)
    assert "7" in str(err.value)


def test_malformed_json_reports_byte_offset():
    with pytest.raises(GraphParseError) as err:
        parse_graph('{"id": "abé", !}')
    assert err.value.byte_offset is not None
    assert err.value.byte_offset > 0


def test_unknown_fields_round_trip():
    line = ('{"id":"g","flavor":1,"framework":"eds","input":"s","version":1.1,'
            '"time":"2020-06-22","nodes":[{"id":0,"label":"x","custom":[1,2]}],'
            '"edges":[]}')
    g = parse_graph(line)
    again = parse_graph(serialize_graph(g))
    assert g == again
    assert dict(g.extras)["version"] == 1.1
    assert dict(g.nodes[0].extras)["custom"] == [1, 2]


def test_empty_nodes_serialization():
    g = Graph(id="g", framework="eds", flavor=1, input="s")
    obj = json.loads(serialize_graph(g))
    assert obj["nodes"] == []


def test_parallel_edges_preserved_in_order():
    g = Graph(id="g", framework="ucca", flavor=1, input="s",
              nodes=(Node(0), Node(1)),
              edges=(Edge(0, 1, "A"), Edge(0, 1, "B"), Edge(0, 1, "A")))
    again = parse_graph(serialize_graph(g))
    assert [e.label for e in again.edges] == ["A", "B", "A"]
    assert again == g


def test_fixture_round_trip(all_fixture_graphs):
    for g in all_fixture_graphs:
        assert parse_graph(serialize_graph(g)) == g


def test_anchors_emitted_sorted():
    node = Node(0, "x", anchors=(Anchor(5, 9), Anchor(0, 2)))
    assert node.anchors == (Anchor(0, 2), Anchor(5, 9))
    assert Node(0, anchors=[Anchor(1, 2)]).anchors == (Anchor(1, 2),)


def test_records_are_values():
    # equal records hash equal, by the hash of their field tuple
    assert hash(Anchor(1, 2)) == hash(Anchor(1, 2)) == hash((1, 2))
    nodes = [Node(0, "x", anchors=(Anchor(3, 4), Anchor(0, 1))),
             Node(0, "x", anchors=(Anchor(0, 1), Anchor(3, 4)))]
    assert nodes[0] == nodes[1] and hash(nodes[0]) == hash(nodes[1])
    assert len(set(nodes)) == 1 and {nodes[0]: "a"}[nodes[1]] == "a"
    edges = {Edge(0, 1, "A"), Edge(0, 1, "A"), Edge(0, 1, "B")}
    assert edges == {Edge(0, 1, "A"), Edge(0, 1, "B")}
    assert sorted([Anchor(2, 3), Anchor(0, 5), Anchor(0, 1)]) == [
        Anchor(0, 1), Anchor(0, 5), Anchor(2, 3)]

    token = Token("Hi", 0, 2, "hi")
    node = Node(0, "x", anchors=(Anchor(0, 2),))
    edge = Edge(0, 1, "A")
    g = Graph("g", "eds", 1, "Hi", (node, Node(1)), (edge,), (token,))
    assert dataclasses.replace(Anchor(0, 2), end=3) == Anchor(0, 3)
    assert dataclasses.replace(token, start=1, end=3) == Token("Hi", 1, 3, "hi")
    assert dataclasses.replace(edge, target=0) == Edge(0, 0, "A")
    assert dataclasses.replace(g, framework="amr", flavor=2).nodes == g.nodes
    # replace runs __post_init__, so the anchors come back in canonical order
    moved = dataclasses.replace(node, anchors=(Anchor(5, 6), Anchor(0, 2)))
    assert moved.anchors == (Anchor(0, 2), Anchor(5, 6))
    assert node.anchors == (Anchor(0, 2),)


def test_read_graphs_keeps_the_error_attributes():
    with pytest.raises(GraphParseError) as err:
        list(read_graphs(["\n", '{"id": 1, bad']))
    assert str(err.value) == ("line 2: Expecting property name enclosed in double "
                              "quotes (byte offset 10)")
    assert err.value.byte_offset == 10
    line = '{"id":"g","flavor":1,"framework":"eds","input":"s","nodes":[{"id":"q"}]}'
    with pytest.raises(GraphSchemaError) as err:
        list(read_graphs([line]))
    assert str(err.value) == "line 1: nodes.id: must be an integer"
    assert err.value.field_name == "nodes.id"


@pytest.mark.parametrize("field", ["tops", "nodes", "edges"])
@pytest.mark.parametrize("value", [0, "", False, {}, 7, "x", True, {"id": 0}])
def test_non_array_tops_nodes_edges_rejected(field, value):
    obj = {"id": "g", "flavor": 1, "framework": "eds", "input": "ab",
           "nodes": [{"id": 0}], field: value}
    with pytest.raises(GraphSchemaError, match=f"^{field}: {field} must be an array$"):
        parse_graph(json.dumps(obj))


def test_validate_ok(all_fixture_graphs):
    for g in all_fixture_graphs:
        assert validate(g) == []


def test_validate_anchor_range():
    g = Graph(id="g", framework="eds", flavor=1, input="abcdef",
              nodes=(Node(0, "x", anchors=(Anchor(5, 3),)),))
    violations = validate(g)
    assert len(violations) == 1
    assert violations[0].rule == "anchor range"


def test_validate_anchor_bounds_flavor1():
    g = Graph(id="g", framework="eds", flavor=1, input="ab",
              nodes=(Node(0, "x", anchors=(Anchor(0, 9),)),))
    assert [v.rule for v in validate(g)] == ["anchor bounds"]


def test_validate_duplicate_node_ids():
    g = Graph(id="g", framework="eds", flavor=1, input="ab",
              nodes=(Node(0), Node(0), Node(0)))
    assert sum(v.rule == "node id unique" for v in validate(g)) == 2


def test_validate_duplicate_property_attribute():
    g = Graph(id="g", framework="ptg", flavor=1, input="ab",
              nodes=(Node(0, "x", properties=(("a", "1"), ("a", "2"))),))
    assert [v.rule for v in validate(g)] == ["property attribute unique"]


def test_validate_dangling_edge():
    g = Graph(id="g", framework="eds", flavor=1, input="ab",
              nodes=(Node(0),), edges=(Edge(0, 3, "L"),))
    assert [v.rule for v in validate(g)] == ["edge endpoints exist"]


@pytest.mark.parametrize("flavor, start, end, ok", [
    (1, 0, 2, True), (1, 2, 2, True), (1, 0, 0, True), (1, 5, 2, False),
    (1, -1, 1, False), (1, 0, 3, False), (2, 0, 3, True), (2, 5, 2, False)])
def test_validate_token_range(flavor, start, end, ok):
    g = Graph(id="g", framework="eds", flavor=flavor, input="ab",
              tokens=(Token("ab", 0, 2, "ab"), Token("x", start, end, "x")))
    violations = validate(g)
    assert [(v.rule, v.subject) for v in violations] == ([] if ok else
                                                          [("token range", "token 1")])


def test_whitespace_tokens_spans_and_lemmas():
    tokens = whitespace_tokens("The cat  sat")
    assert [(t.form, t.start, t.end, t.lemma) for t in tokens] == [
        ("The", 0, 3, "the"), ("cat", 4, 7, "cat"), ("sat", 9, 12, "sat")]


_labels = st.one_of(st.none(), st.text(min_size=1, max_size=6))
# unknown fields, kept opaquely: at most one, named outside every known key
_extras = st.dictionaries(st.sampled_from(["note", "x"]), st.integers(0, 3),
                          max_size=1).map(lambda d: tuple(d.items()))


@st.composite
def graphs(draw):
    text = draw(st.text(min_size=1, max_size=20))
    n = draw(st.integers(min_value=0, max_value=5))
    nodes = []
    for i in range(n):
        anchors = []
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, max(len(text) - 1, 0)))
            end = draw(st.integers(start + 1, len(text))) if start < len(text) else None
            if end is not None:
                anchors.append(Anchor(start, end))
        props = draw(st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.text(max_size=3)),
            max_size=2, unique_by=lambda kv: kv[0]))
        nodes.append(Node(id=i, label=draw(_labels), properties=tuple(props),
                          anchors=tuple(anchors),
                          is_top=draw(st.booleans()), extras=draw(_extras)))
    edges = []
    if n:
        for _ in range(draw(st.integers(0, 4))):
            edges.append(Edge(draw(st.integers(0, n - 1)),
                              draw(st.integers(0, n - 1)),
                              draw(st.sampled_from(["A", "B-of", "mod"])),
                              extras=draw(_extras)))
    tokens = draw(st.sampled_from([None, whitespace_tokens(text)]))
    return Graph(id=draw(st.text(min_size=1, max_size=4)), framework="eds",
                 flavor=1, input=text, nodes=tuple(nodes), edges=tuple(edges),
                 tokens=tokens, extras=draw(_extras))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_round_trip_property(g):
    assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_validate_total(g):
    validate(g)  # must never raise


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2),
                                                                inner, max_size=2),
    max_leaves=4)
_integer_fields = {
    "node id": lambda obj, v: obj["nodes"][0].update(id=v),
    "top": lambda obj, v: obj.update(tops=[v]),
    "edge source": lambda obj, v: obj["edges"][0].update(source=v),
    "edge target": lambda obj, v: obj["edges"][0].update(target=v),
    "flavor": lambda obj, v: obj.update(flavor=v),
    "anchor from": lambda obj, v: obj["nodes"][0]["anchors"][0].update({"from": v}),
    "anchor to": lambda obj, v: obj["nodes"][0]["anchors"][0].update(to=v),
    "token from": lambda obj, v: obj["tokens"][0].update({"from": v}),
    "token to": lambda obj, v: obj["tokens"][0].update(to=v),
}


def _integer_field_line(field, value) -> str:
    obj = {"id": "g", "flavor": 1, "framework": "eds", "input": "ab", "tops": [0],
           "nodes": [{"id": 0, "anchors": [{"from": 0, "to": 2}]}, {"id": 1}],
           "edges": [{"source": 0, "target": 1, "label": "L"}],
           "tokens": [{"form": "ab", "from": 0, "to": 2}]}
    _integer_fields[field](obj, value)
    return json.dumps(obj)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_integer_fields)), _json_values)
def test_integer_fields_parse_or_raise_graph_error(field, value):
    try:
        g = parse_graph(_integer_field_line(field, value))
    except GraphError:
        assert type(value) is not int or field in ("node id", "top", "edge source",
                                                   "edge target", "flavor")
        return
    assert type(value) is int
    assert parse_graph(serialize_graph(g)) == g


_structural_fields = {
    "anchors": lambda obj, v: obj["nodes"][0].update(anchors=v),
    "graph id": lambda obj, v: obj.update(id=v),
    "properties": lambda obj, v: obj["nodes"][0].update(properties=v),
    "values": lambda obj, v: obj["nodes"][0].update(values=v),
    "property pairs": lambda obj, v: obj["nodes"][0].update(properties=v, values=v),
    "tokens": lambda obj, v: obj.update(tokens=v),
    "token form": lambda obj, v: obj["tokens"][0].update(form=v),
    "token lemma": lambda obj, v: obj["tokens"][0].update(lemma=v),
    "edge attributes": lambda obj, v: obj["edges"][0].update(attributes=v),
    "edge values": lambda obj, v: obj["edges"][0].update(values=v),
    "tops": lambda obj, v: obj.update(tops=v),
    "nodes": lambda obj, v: obj.update(nodes=v),
    "edges": lambda obj, v: obj.update(edges=v),
}
_well_formed = st.sampled_from([None, 7, "g", [], [0], ["q"], [{"from": 0, "to": 2}],
                                [{"form": "ab", "from": 0, "to": 2}], [{"form": "Ab"}],
                                [{"form": "ab", "from": 1}], [{"id": 0}],
                                [{"source": 0, "target": 0, "label": "r"}]])


def _structural_field_line(field, value) -> str:
    obj = {"id": "g", "flavor": 1, "framework": "eds", "input": "ab", "tops": [0],
           "nodes": [{"id": 0, "label": "x", "anchors": [{"from": 0, "to": 2}],
                      "properties": ["p"], "values": ["v"]}],
           "edges": [{"source": 0, "target": 0, "label": "r",
                      "attributes": ["remote"], "values": [True]}],
           "tokens": [{"form": "ab", "from": 0, "to": 2, "lemma": "ab"}]}
    _structural_fields[field](obj, value)
    return json.dumps(obj)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_structural_fields)), _json_values | _well_formed)
def test_structural_fields_parse_or_exit_two(tmp_path_factory, field, value):
    line = _structural_field_line(field, value)
    try:
        g = parse_graph(line)
    except GraphError as exc:
        error = str(exc)
    else:
        error = None
        assert parse_graph(serialize_graph(g)) == g
    if field == "graph id":
        assert (error is None) == (type(value) in (str, int))
    elif field in ("tops", "nodes", "edges") and not (value is None
                                                     or isinstance(value, list)):
        assert error == f"{field}: {field} must be an array"
    elif field in ("anchors", "tokens", "tops", "nodes", "edges") and error is None:
        assert value is None or isinstance(value, list)
    elif field in ("token form", "token lemma"):
        assert (error is None) == (type(value) is str)
    elif field == "property pairs":
        # names and values both text, checked names first
        assert (error is None) == (value is None or (type(value) is list and all(
            type(v) is str for v in value)))
    elif field in ("properties", "values", "edge attributes"):
        # text names and property values, parallel to one given entry
        assert (error is None) == (type(value) is list and len(value) == 1
                                   and type(value[0]) is str)
    elif field == "edge values":
        # any JSON value, written back as it was read
        assert (error is None) == (type(value) is list and len(value) == 1)
    path = tmp_path_factory.getbasetemp() / "structural.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    code, out, err = _cli(["validate", "--input", str(path)])
    assert code in (0, 2) and err == ""
    if error is not None:
        assert out.splitlines() == [f"line 1: parse: {error}",
                                    "validated 0 graphs, 1 violations"]
    code, out, err = _cli(["preprocess", "--framework", "eds", "--input", str(path),
                           "--output", str(path.with_suffix(".out"))])
    assert code == (0 if error is None else 2)
    if code:
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "data"
    else:
        assert err == ""


def _outcome(parse, line):
    """The parsed graph, or the type and message of the GraphError raised."""
    try:
        return parse(line)
    except GraphError as exc:
        return type(exc), str(exc)


def _strict_array_error(line):
    """The outcome parse_graph owes a line whose tops, nodes or edges is
    present, not null and not an array, which the reference parser read as
    empty when falsy; None for any other line."""
    obj = json.loads(line)
    for field in ("tops", "nodes", "edges"):
        if obj.get(field) is not None and not isinstance(obj[field], list):
            return GraphSchemaError, f"{field}: {field} must be an array"
    return None


_HEAD = '{"id":"g","flavor":1,"framework":"eds","input":"ab cd",'


@settings(max_examples=300, deadline=None)
@example(_HEAD + '"tokens":[{"form":"Ab","from":3},{"form":"cd"},{"form":"x","to":1}]}')
@example(_HEAD + '"nodes":[{"id":0,"properties":[1],"values":[2]}]}')
@example(_HEAD + '"nodes":[{"id":0,"note":1,"a":2}],"edges":[{"source":0,"target":0,'
         '"label":"r","z":[]}],"b":3}')
@example(_HEAD + '"tops":[5,3],"nodes":[]}')
@given(st.one_of(
    graphs().map(serialize_graph),
    st.builds(_integer_field_line, st.sampled_from(sorted(_integer_fields)),
              _json_values),
    st.builds(_structural_field_line, st.sampled_from(sorted(_structural_fields)),
              _json_values | _well_formed)))
def test_parse_graph_matches_reference(line):
    expected = _strict_array_error(line) or _outcome(reference_parse_graph, line)
    assert _outcome(parse_graph, line) == expected
