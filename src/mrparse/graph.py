"""Data model, JSON Lines serialization and validation for MRP-style semantic graphs.

The wire format is the MRP 2020 graph interchange format: one JSON object per
line with the fields ``id``, ``flavor``, ``framework``, ``input``, ``tops``,
``nodes`` and ``edges``.  Character offsets count Unicode scalar values.
Unknown fields are preserved opaquely so that parse/serialize round-trips.
Text fields must be JSON strings: labels, property names and values, edge
attribute names, token forms and lemmas; anything else is a GraphSchemaError
naming the field.  Edge attribute values may be any JSON value (UCCA's
``remote`` is ``true``) and are written back as they were read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

FRAMEWORKS = ("amr", "drg", "eds", "ptg", "ucca")


class GraphError(Exception):
    """Base class for graph parsing/serialization errors."""


class GraphParseError(GraphError):
    """Malformed JSON input; carries the byte offset of the failure."""

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class GraphSchemaError(GraphError):
    """Structurally valid JSON that violates the interchange schema."""

    def __init__(self, message: str, field_name: str | None = None):
        if field_name is not None:
            message = f"{field_name}: {message}"
        super().__init__(message)
        self.field_name = field_name


@dataclass(frozen=True, order=True)
class Anchor:
    """Character span [start, end) of the input sentence."""

    start: int
    end: int


@dataclass(frozen=True)
class Token:
    """Surface token with its character span and lemma."""

    form: str
    start: int
    end: int
    lemma: str


@dataclass(frozen=True)
class Node:
    id: int
    label: Optional[str] = None
    properties: tuple[tuple[str, str], ...] = ()
    anchors: tuple[Anchor, ...] = ()
    is_top: bool = False
    extras: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        # canonical order: anchors behave as a set, emitted sorted by span
        object.__setattr__(self, "anchors", tuple(sorted(self.anchors)))


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    label: str
    attributes: tuple[tuple[str, Any], ...] = ()
    extras: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class Graph:
    id: str
    framework: str
    flavor: int
    input: str
    nodes: tuple[Node, ...] = ()
    edges: tuple[Edge, ...] = ()
    tokens: Optional[tuple[Token, ...]] = None
    extras: tuple[tuple[str, Any], ...] = ()

    def node_by_id(self, node_id: int) -> Node:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(node_id)

    def top_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.is_top)

    def next_node_id(self) -> int:
        return max((n.id for n in self.nodes), default=-1) + 1


@dataclass(frozen=True)
class Violation:
    """A broken invariant; names the offending node/edge and the rule."""

    rule: str
    subject: str
    message: str


def whitespace_tokens(text: str) -> tuple[Token, ...]:
    """Tokenize on whitespace, lemma defaulting to the lowercased form."""
    tokens = []
    pos = 0
    for form in text.split():
        start = text.index(form, pos)
        end = start + len(form)
        tokens.append(Token(form=form, start=start, end=end, lemma=form.lower()))
        pos = end
    return tuple(tokens)


def graph_tokens(g: Graph) -> tuple[Token, ...]:
    """The graph's tokens, or the whitespace tokens of its input if it has none."""
    return g.tokens if g.tokens is not None else whitespace_tokens(g.input)


def anchored_token_indices(node: Node, tokens: Sequence[Token]) -> list[int]:
    """Indices of the tokens whose span overlaps one of the node's anchors."""
    hit = []
    for i, token in enumerate(tokens):
        for anchor in node.anchors:
            if token.start < anchor.end and anchor.start < token.end:
                hit.append(i)
                break
    return hit


def _require(condition: bool, message: str, field_name: str):
    if not condition:
        raise GraphSchemaError(message, field_name)


def _integer(value: Any, field_name: str) -> int:
    """value, which must be a JSON integer: not a boolean, float or string."""
    if type(value) is not int:
        raise GraphSchemaError("must be an integer", field_name)
    return value


def _text(value: Any, field_name: str) -> str:
    """value, which must be a JSON string."""
    if type(value) is not str:
        raise GraphSchemaError("must be text", field_name)
    return value


def _pairs_from_parallel(obj: dict, names_key: str, values_key: str, where: str):
    """(name, value) pairs of two parallel arrays; names must be text."""
    names = obj.get(names_key)
    values = obj.get(values_key)
    if names is None and values is None:
        return ()
    _require(isinstance(names, list) and isinstance(values, list),
             f"{names_key}/{values_key} must be parallel arrays", where)
    _require(len(names) == len(values),
             f"{names_key} and {values_key} differ in length", where)
    return tuple((_text(n, where), v) for n, v in zip(names, values))


_NODE_KEYS = {"id", "label", "properties", "values", "anchors"}
_EDGE_KEYS = {"source", "target", "label", "attributes", "values"}
_GRAPH_KEYS = {"id", "flavor", "framework", "input", "tops", "nodes", "edges", "tokens"}


def _parse_node(obj: Any, tops: set[int]) -> Node:
    _require(isinstance(obj, dict), "node must be an object", "nodes")
    node_id = _integer(obj.get("id"), "nodes.id")
    anchors = []
    anchors_raw = obj.get("anchors")
    _require(anchors_raw is None or isinstance(anchors_raw, list),
             "anchors must be an array", "nodes.anchors")
    for a in anchors_raw or ():
        _require(isinstance(a, dict) and "from" in a and "to" in a,
                 "anchor must carry 'from' and 'to'", "nodes.anchors")
        anchors.append(Anchor(_integer(a["from"], "nodes.anchors.from"),
                              _integer(a["to"], "nodes.anchors.to")))
    label = obj.get("label")
    _require(label is None or isinstance(label, str), "label must be text", "nodes.label")
    properties = tuple((k, _text(v, "nodes.values")) for k, v in
                       _pairs_from_parallel(obj, "properties", "values", "nodes.properties"))
    extras = tuple(sorted((k, v) for k, v in obj.items() if k not in _NODE_KEYS))
    return Node(id=node_id, label=label, properties=properties,
                anchors=tuple(anchors), is_top=node_id in tops, extras=extras)


def _parse_edge(obj: Any, node_ids: set[int]) -> Edge:
    _require(isinstance(obj, dict), "edge must be an object", "edges")
    for endpoint in ("source", "target"):
        if _integer(obj.get(endpoint), f"edges.{endpoint}") not in node_ids:
            raise GraphSchemaError(f"edge cites nonexistent node id {obj[endpoint]}",
                                   f"edges.{endpoint}")
    label = obj.get("label")
    _require(isinstance(label, str), "edge label must be text", "edges.label")
    attributes = _pairs_from_parallel(obj, "attributes", "values", "edges.attributes")
    extras = tuple(sorted((k, v) for k, v in obj.items() if k not in _EDGE_KEYS))
    return Edge(source=obj["source"], target=obj["target"], label=label,
                attributes=attributes, extras=extras)


def _parse_token(obj: Any) -> Token:
    _require(isinstance(obj, dict) and "form" in obj, "token must carry 'form'", "tokens")
    form = _text(obj["form"], "tokens.form")
    start = _integer(obj["from"], "tokens.from") if "from" in obj else 0
    end = _integer(obj["to"], "tokens.to") if "to" in obj else start + len(form)
    lemma = _text(obj["lemma"], "tokens.lemma") if "lemma" in obj else form.lower()
    return Token(form=form, start=start, end=end, lemma=lemma)


def parse_graph(line: str) -> Graph:
    """Parse one JSON Lines object into a Graph.

    Raises GraphParseError (with byte offset) on malformed JSON and
    GraphSchemaError (naming the field) on schema violations, including edges
    citing nonexistent node ids.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        byte_offset = len(line[:exc.pos].encode("utf-8"))
        raise GraphParseError(exc.msg, byte_offset) from None
    _require(isinstance(obj, dict), "top-level value must be an object", "<root>")
    _require(type(obj.get("id")) in (str, int), "graph id required", "id")
    framework = obj.get("framework")
    _require(framework in FRAMEWORKS, f"framework must be one of {FRAMEWORKS}", "framework")
    flavor = obj.get("flavor")
    _require(_integer(flavor, "flavor") in (1, 2), "flavor must be 1 or 2", "flavor")
    text = obj.get("input")
    _require(isinstance(text, str), "input sentence required", "input")

    tops_raw = obj.get("tops") or ()
    _require(isinstance(tops_raw, (list, tuple)), "tops must be an array", "tops")
    tops = set()
    for t in tops_raw:
        tops.add(_integer(t, "tops"))

    nodes_raw = obj.get("nodes") or ()
    _require(isinstance(nodes_raw, (list, tuple)), "nodes must be an array", "nodes")
    nodes = tuple(_parse_node(n, tops) for n in nodes_raw)
    node_ids = {n.id for n in nodes}
    for t in tops:
        if t not in node_ids:
            raise GraphSchemaError(f"top cites nonexistent node id {t}", "tops")

    edges_raw = obj.get("edges") or ()
    _require(isinstance(edges_raw, (list, tuple)), "edges must be an array", "edges")
    edges = tuple(_parse_edge(e, node_ids) for e in edges_raw)

    tokens = None
    if obj.get("tokens") is not None:
        _require(isinstance(obj["tokens"], list), "tokens must be an array", "tokens")
        tokens = tuple(_parse_token(t) for t in obj["tokens"])

    extras = tuple(sorted((k, v) for k, v in obj.items() if k not in _GRAPH_KEYS))
    return Graph(id=str(obj["id"]), framework=framework, flavor=flavor, input=text,
                 nodes=nodes, edges=edges, tokens=tokens, extras=extras)


def _node_to_obj(node: Node) -> dict:
    obj: dict[str, Any] = {"id": node.id}
    if node.label is not None:
        obj["label"] = node.label
    if node.properties:
        obj["properties"] = [k for k, _ in node.properties]
        obj["values"] = [v for _, v in node.properties]
    if node.anchors:
        obj["anchors"] = [{"from": a.start, "to": a.end} for a in node.anchors]
    obj.update(dict(node.extras))
    return obj


def _edge_to_obj(edge: Edge) -> dict:
    obj: dict[str, Any] = {"source": edge.source, "target": edge.target, "label": edge.label}
    if edge.attributes:
        obj["attributes"] = [k for k, _ in edge.attributes]
        obj["values"] = [v for _, v in edge.attributes]
    obj.update(dict(edge.extras))
    return obj


def serialize_graph(g: Graph) -> str:
    """Serialize a Graph to one JSON line; inverse of parse_graph."""
    obj: dict[str, Any] = {"id": g.id, "flavor": g.flavor, "framework": g.framework,
                           "input": g.input}
    tops = g.top_ids()
    if tops:
        obj["tops"] = list(tops)
    obj["nodes"] = [_node_to_obj(n) for n in g.nodes]
    obj["edges"] = [_edge_to_obj(e) for e in g.edges]
    if g.tokens is not None:
        obj["tokens"] = [{"form": t.form, "from": t.start, "to": t.end, "lemma": t.lemma}
                         for t in g.tokens]
    obj.update(dict(g.extras))
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def validate(g: Graph) -> list[Violation]:
    """Check all type invariants; violations are data, never exceptions."""
    violations = []
    seen: set[int] = set()
    for node in g.nodes:
        subject = f"node {node.id}"
        if node.id in seen:
            violations.append(Violation("node id unique", subject, "duplicate node id"))
        seen.add(node.id)
        attrs = [k for k, _ in node.properties]
        for name in sorted(set(a for a in attrs if attrs.count(a) > 1)):
            violations.append(Violation("property attribute unique", subject,
                                        f"duplicate property attribute {name!r}"))
        for anchor in node.anchors:
            if not (0 <= anchor.start < anchor.end):
                violations.append(Violation("anchor range", subject,
                                            f"bad anchor [{anchor.start},{anchor.end})"))
            elif g.flavor == 1 and anchor.end > len(g.input):
                violations.append(Violation("anchor bounds", subject,
                                            f"anchor [{anchor.start},{anchor.end}) "
                                            f"exceeds input length {len(g.input)}"))
    node_ids = {n.id for n in g.nodes}
    for i, edge in enumerate(g.edges):
        subject = f"edge {i} ({edge.source}->{edge.target})"
        for endpoint in (edge.source, edge.target):
            if endpoint not in node_ids:
                violations.append(Violation("edge endpoints exist", subject,
                                            f"unknown node id {endpoint}"))
    return violations


def read_graphs(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a JSONL stream, skipping blank lines; errors carry line numbers."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield parse_graph(line)
        except GraphError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None


def load_graphs(path: str) -> list[Graph]:
    with open(path, encoding="utf-8") as handle:
        return list(read_graphs(handle))
