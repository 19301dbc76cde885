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


# The graph records are slotted value dataclasses, not frozen ones, so building
# one calls no object.__setattr__. They compare and hash by field, and nothing
# changes one in place (tests/test_dead_code.py checks): use dataclasses.replace.
@dataclass(slots=True, unsafe_hash=True, order=True)
class Anchor:
    """Character span [start, end) of the input sentence."""

    start: int
    end: int


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """Surface token with its character span and lemma."""

    form: str
    start: int
    end: int
    lemma: str


@dataclass(slots=True, unsafe_hash=True)
class Node:
    id: int
    label: Optional[str] = None
    properties: tuple[tuple[str, str], ...] = ()
    anchors: tuple[Anchor, ...] = ()
    is_top: bool = False
    extras: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        # canonical order: anchors behave as a set, emitted sorted by span; a
        # tuple of at most one anchor is already in that order
        anchors = self.anchors
        if type(anchors) is not tuple or len(anchors) > 1:
            self.anchors = tuple(sorted(anchors))


@dataclass(slots=True, unsafe_hash=True)
class Edge:
    source: int
    target: int
    label: str
    attributes: tuple[tuple[str, Any], ...] = ()
    extras: tuple[tuple[str, Any], ...] = ()


@dataclass(slots=True, unsafe_hash=True)
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


def _array(value: Any, name: str) -> list:
    """value, which must be a JSON array or absent (None, read as empty)."""
    if value is None:
        return []
    if type(value) is not list:
        raise GraphSchemaError(f"{name} must be an array", name)
    return value


def _pairs_from_parallel(obj: dict, names_key: str, where: str,
                         values_where: str | None = None) -> tuple:
    """(name, value) pairs of the parallel arrays names_key and "values".

    Names must be text, all of them checked before any value; values must be
    text too when values_where names their field.
    """
    names = obj.get(names_key)
    values = obj.get("values")
    if names is None and values is None:
        return ()
    if not (isinstance(names, list) and isinstance(values, list)):
        raise GraphSchemaError(f"{names_key}/values must be parallel arrays", where)
    if len(names) != len(values):
        raise GraphSchemaError(f"{names_key} and values differ in length", where)
    for name in names:
        if type(name) is not str:
            raise GraphSchemaError("must be text", where)
    if values_where is not None:
        for value in values:
            if type(value) is not str:
                raise GraphSchemaError("must be text", values_where)
    return tuple(zip(names, values))


def _extras(obj: dict, known: set[str]) -> tuple[tuple[str, Any], ...]:
    """The fields outside known, sorted by name."""
    if obj.keys() <= known:
        return ()
    return tuple(sorted((k, v) for k, v in obj.items() if k not in known))


_NODE_KEYS = {"id", "label", "properties", "values", "anchors"}
_EDGE_KEYS = {"source", "target", "label", "attributes", "values"}
_GRAPH_KEYS = {"id", "flavor", "framework", "input", "tops", "nodes", "edges", "tokens"}


def parse_graph(line: str) -> Graph:
    """Parse one JSON Lines object into a Graph.

    Raises GraphParseError on malformed JSON (with byte offset) or JSON
    nested too deeply for the parser, and GraphSchemaError (naming the
    field) on schema violations, including edges citing nonexistent node
    ids.  tops, nodes and edges must be arrays when present; an absent or
    null one is empty.  The checks run in field order: graph fields, tops,
    then each node, edge and token in one pass.  The records are built
    with positional arguments, which cost less per call than keywords, and
    being slotted and not frozen, each costs about a plain class's __init__.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        byte_offset = len(line[:exc.pos].encode("utf-8"))
        raise GraphParseError(exc.msg, byte_offset) from None
    except RecursionError:
        raise GraphParseError("nested too deeply") from None
    if not isinstance(obj, dict):
        raise GraphSchemaError("top-level value must be an object", "<root>")
    if type(obj.get("id")) not in (str, int):
        raise GraphSchemaError("graph id required", "id")
    framework = obj.get("framework")
    if framework not in FRAMEWORKS:
        raise GraphSchemaError(f"framework must be one of {FRAMEWORKS}", "framework")
    flavor = obj.get("flavor")
    if type(flavor) is not int:
        raise GraphSchemaError("must be an integer", "flavor")
    if flavor not in (1, 2):
        raise GraphSchemaError("flavor must be 1 or 2", "flavor")
    text = obj.get("input")
    if not isinstance(text, str):
        raise GraphSchemaError("input sentence required", "input")

    tops = set()
    for t in _array(obj.get("tops"), "tops"):
        if type(t) is not int:
            raise GraphSchemaError("must be an integer", "tops")
        tops.add(t)

    nodes = []
    node_ids = set()
    for n in _array(obj.get("nodes"), "nodes"):
        if not isinstance(n, dict):
            raise GraphSchemaError("node must be an object", "nodes")
        node_id = n.get("id")
        if type(node_id) is not int:
            raise GraphSchemaError("must be an integer", "nodes.id")
        anchors = []
        anchors_raw = n.get("anchors")
        if anchors_raw is not None:
            if not isinstance(anchors_raw, list):
                raise GraphSchemaError("anchors must be an array", "nodes.anchors")
            for a in anchors_raw:
                if not (isinstance(a, dict) and "from" in a and "to" in a):
                    raise GraphSchemaError("anchor must carry 'from' and 'to'",
                                           "nodes.anchors")
                start, end = a["from"], a["to"]
                if type(start) is not int:
                    raise GraphSchemaError("must be an integer", "nodes.anchors.from")
                if type(end) is not int:
                    raise GraphSchemaError("must be an integer", "nodes.anchors.to")
                anchors.append(Anchor(start, end))
        label = n.get("label")
        if not (label is None or isinstance(label, str)):
            raise GraphSchemaError("label must be text", "nodes.label")
        properties = _pairs_from_parallel(n, "properties", "nodes.properties",
                                          "nodes.values")
        nodes.append(Node(node_id, label, properties, tuple(anchors), node_id in tops,
                          _extras(n, _NODE_KEYS)))
        node_ids.add(node_id)
    for t in tops:
        if t not in node_ids:
            raise GraphSchemaError(f"top cites nonexistent node id {t}", "tops")

    edges = []
    for e in _array(obj.get("edges"), "edges"):
        if not isinstance(e, dict):
            raise GraphSchemaError("edge must be an object", "edges")
        source, target = e.get("source"), e.get("target")
        for endpoint, node_id in (("source", source), ("target", target)):
            if type(node_id) is not int:
                raise GraphSchemaError("must be an integer", f"edges.{endpoint}")
            if node_id not in node_ids:
                raise GraphSchemaError(f"edge cites nonexistent node id {node_id}",
                                       f"edges.{endpoint}")
        label = e.get("label")
        if not isinstance(label, str):
            raise GraphSchemaError("edge label must be text", "edges.label")
        edges.append(Edge(source, target, label,
                          _pairs_from_parallel(e, "attributes", "edges.attributes"),
                          _extras(e, _EDGE_KEYS)))

    tokens = None
    tokens_raw = obj.get("tokens")
    if tokens_raw is not None:
        if not isinstance(tokens_raw, list):
            raise GraphSchemaError("tokens must be an array", "tokens")
        tokens = []
        for t in tokens_raw:
            if not (isinstance(t, dict) and "form" in t):
                raise GraphSchemaError("token must carry 'form'", "tokens")
            form = t["form"]
            if type(form) is not str:
                raise GraphSchemaError("must be text", "tokens.form")
            start = t.get("from", 0)
            if type(start) is not int:
                raise GraphSchemaError("must be an integer", "tokens.from")
            end = t["to"] if "to" in t else start + len(form)
            if type(end) is not int:
                raise GraphSchemaError("must be an integer", "tokens.to")
            lemma = t["lemma"] if "lemma" in t else form.lower()
            if type(lemma) is not str:
                raise GraphSchemaError("must be text", "tokens.lemma")
            tokens.append(Token(form, start, end, lemma))
        tokens = tuple(tokens)

    return Graph(str(obj["id"]), framework, flavor, text, tuple(nodes), tuple(edges),
                 tokens, _extras(obj, _GRAPH_KEYS))


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
    # subjects are formatted only for the violations found
    for node in g.nodes:
        if node.id in seen:
            violations.append(Violation("node id unique", f"node {node.id}",
                                        "duplicate node id"))
        seen.add(node.id)
        if len(node.properties) > 1:
            attrs = [k for k, _ in node.properties]
            for name in sorted(set(a for a in attrs if attrs.count(a) > 1)):
                violations.append(Violation("property attribute unique", f"node {node.id}",
                                            f"duplicate property attribute {name!r}"))
        for anchor in node.anchors:
            if not (0 <= anchor.start < anchor.end):
                violations.append(Violation("anchor range", f"node {node.id}",
                                            f"bad anchor [{anchor.start},{anchor.end})"))
            elif g.flavor == 1 and anchor.end > len(g.input):
                violations.append(Violation("anchor bounds", f"node {node.id}",
                                            f"anchor [{anchor.start},{anchor.end}) "
                                            f"exceeds input length {len(g.input)}"))
    node_ids = {n.id for n in g.nodes}
    for i, edge in enumerate(g.edges):
        for endpoint in (edge.source, edge.target):
            if endpoint not in node_ids:
                violations.append(Violation("edge endpoints exist",
                                            f"edge {i} ({edge.source}->{edge.target})",
                                            f"unknown node id {endpoint}"))
    # token spans follow the anchor rules, but a token may be empty
    for i, token in enumerate(g.tokens or ()):
        if not (0 <= token.start <= token.end):
            violations.append(Violation("token range", f"token {i}",
                                        f"bad token span [{token.start},{token.end})"))
        elif g.flavor == 1 and token.end > len(g.input):
            violations.append(Violation("token range", f"token {i}",
                                        f"token [{token.start},{token.end}) "
                                        f"exceeds input length {len(g.input)}"))
    return violations


def read_graphs(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a JSONL stream, skipping blank lines; an error is parse_graph's,
    its message prefixed with the line number."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield parse_graph(line)
        except GraphError as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise exc from None


def load_graphs(path: str) -> list[Graph]:
    with open(path, encoding="utf-8") as handle:
        return list(read_graphs(handle))
