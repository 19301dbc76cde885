"""Framework-specific graph canonicalization and its inverses.

Pre-processing turns property pairs into nodes, normalizes inverted edge
labels, reduces binary-relation nodes (DRG), merges anchors into one
continuous span (EDS) and augments unlabeled UCCA nodes.  Decoding undoes
the first two without a trace (fold_property_nodes, reinvert_edges_for_top);
merged anchors stay merged.
"""

from __future__ import annotations

from dataclasses import replace

from .graph import Anchor, Edge, Graph, Node

INVERSION_SUFFIX = "-of"
INVERSION_ALIASES = {"mod": "domain-of"}
# inverted label -> the alias emitted for it, the inverse of INVERSION_ALIASES
_ALIASED = {inverted: plain for plain, inverted in INVERSION_ALIASES.items()}


class TransformError(Exception):
    pass


class GraphStructureError(TransformError):
    pass


def load_framework_config(path: str) -> frozenset[str]:
    """Read a framework config file and return its DRG relation labels.

    Format: one ``key = value`` pair per line, ``#`` comments.  The one key
    is ``drg_relations`` (comma-separated label list, repeatable); any other
    key raises TransformError.  The inverted-edge convention (suffix ``-of``,
    ``mod`` for ``domain-of``) is fixed, not configured.
    """
    relations: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise TransformError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key != "drg_relations":
                raise TransformError(f"{path}:{lineno}: unknown key {key!r}")
            relations.update(v.strip() for v in value.split(",") if v.strip())
    return frozenset(relations)


def nodeify_properties(g: Graph) -> Graph:
    """Convert every (attribute, value) property into a child node.

    The new node takes the value as its label and a copy of the parent's
    anchors, and is connected by a parent->child edge labeled with the
    attribute.  Created nodes take ids above every id of g, so they are
    the nodes whose ids g lacks.  A graph without properties is returned
    as it is.
    """
    if not any(node.properties for node in g.nodes):
        return g
    nodes = []
    new_nodes = []
    new_edges = []
    next_id = g.next_node_id()
    for node in g.nodes:
        if not node.properties:
            nodes.append(node)
            continue
        for attribute, value in node.properties:
            created = Node(id=next_id, label=value, anchors=node.anchors)
            new_nodes.append(created)
            new_edges.append(Edge(source=node.id, target=created.id, label=attribute))
            next_id += 1
        nodes.append(replace(node, properties=()))
    return replace(g, nodes=tuple(nodes) + tuple(new_nodes), edges=g.edges + tuple(new_edges))


def normalize_inverted_edges(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Reverse edges whose label (or its INVERSION_ALIASES alias) ends with
    INVERSION_SUFFIX; returns the graph and the indices of the reversed edges.

    An edge a->b labeled "X-of" becomes b->a labeled "X", and one labeled
    "mod" becomes b->a labeled "domain".  A graph with no edge to reverse is
    returned as it is.
    """
    edges = []
    deinverted = []
    for i, edge in enumerate(g.edges):
        label = INVERSION_ALIASES.get(edge.label, edge.label)
        if label.endswith(INVERSION_SUFFIX) and len(label) > len(INVERSION_SUFFIX):
            edges.append(Edge(source=edge.target, target=edge.source,
                              label=label[:-len(INVERSION_SUFFIX)],
                              attributes=edge.attributes, extras=edge.extras))
            deinverted.append(i)
        else:
            edges.append(edge)
    return (replace(g, edges=tuple(edges)) if deinverted else g), tuple(deinverted)


def reinvert_edges_for_top(g: Graph, invertible_labels: set[str]) -> Graph:
    """Restore inverted edge labels where needed for top-rooted reachability.

    Walks the graph from its top nodes treating edges as undirected; an
    edge with one of invertible_labels (the labels de-inverted during
    preprocessing) first reached against its direction is emitted reversed
    with INVERSION_SUFFIX appended, or its INVERSION_ALIASES alias when the
    inverted label has one.  Other edges keep their normalized direction,
    and a graph with no edge to reverse is returned as it is.
    """
    outgoing: dict[int, list[int]] = {n.id: [] for n in g.nodes}
    incoming: dict[int, list[int]] = {n.id: [] for n in g.nodes}
    for i, edge in enumerate(g.edges):
        outgoing[edge.source].append(i)
        incoming[edge.target].append(i)

    visited = set(g.top_ids())
    queue = sorted(visited)
    to_invert: set[int] = set()
    while queue:
        current = queue.pop(0)
        for i in outgoing[current]:
            other = g.edges[i].target
            if other not in visited:
                visited.add(other)
                queue.append(other)
        for i in incoming[current]:
            other = g.edges[i].source
            if other not in visited:
                visited.add(other)
                queue.append(other)
                if g.edges[i].label in invertible_labels:
                    to_invert.add(i)
    if not to_invert:
        return g

    edges = []
    for i, edge in enumerate(g.edges):
        if i in to_invert:
            inverted = edge.label + INVERSION_SUFFIX
            inverted = _ALIASED.get(inverted, inverted)
            edges.append(Edge(source=edge.target, target=edge.source, label=inverted,
                              attributes=edge.attributes, extras=edge.extras))
        else:
            edges.append(edge)
    return replace(g, edges=tuple(edges))


def ucca_augment(g: Graph) -> Graph:
    """Label UCCA nodes leaf/inner and anchor inner nodes to their leaves.

    Nodes without outgoing edges become "leaf"; all others become "inner" and
    are anchored to the union of the anchors of their descendant leaves.
    Raises GraphStructureError on cycles.
    """
    children: dict[int, list[int]] = {n.id: [] for n in g.nodes}
    for edge in g.edges:
        children[edge.source].append(edge.target)

    own = {node.id: node.anchors for node in g.nodes}
    anchors: dict[int, frozenset[Anchor]] = {}
    for root in g.nodes:
        if root.id in anchors:
            continue
        # explicit-stack post-order walk: (node id, index of its next child)
        stack, on_stack = [(root.id, 0)], {root.id}
        while stack:
            node_id, i = stack[-1]
            if i < len(children[node_id]):
                stack[-1] = (node_id, i + 1)
                child = children[node_id][i]
                if child in on_stack:
                    raise GraphStructureError(f"cycle through node {child}")
                if child not in anchors:
                    stack.append((child, 0))
                    on_stack.add(child)
                continue
            stack.pop()
            on_stack.discard(node_id)
            anchors[node_id] = frozenset(own[node_id]).union(
                *(anchors[child] for child in children[node_id]))
    nodes = tuple(
        replace(node,
                label="leaf" if not children[node.id] else "inner",
                anchors=node.anchors if not children[node.id]
                else tuple(sorted(anchors[node.id])))
        for node in g.nodes)
    return replace(g, nodes=nodes)


def drg_reduce_binary_relations(g: Graph, relation_labels: frozenset[str] | set[str]) -> Graph:
    """Replace binary-relation nodes with a single labeled edge.

    A node whose label is in relation_labels must have exactly one incoming
    and one outgoing edge; it is deleted and replaced by an edge from its
    predecessor to its successor carrying the node's label.
    """
    relation_ids = [n.id for n in g.nodes if n.label in relation_labels]
    nodes = list(g.nodes)
    edges = list(g.edges)
    for node_id in relation_ids:
        incoming = [e for e in edges if e.target == node_id]
        outgoing = [e for e in edges if e.source == node_id]
        if len(incoming) != 1 or len(outgoing) != 1:
            raise GraphStructureError(
                f"relation node {node_id} has in-degree {len(incoming)} "
                f"and out-degree {len(outgoing)}, expected 1 and 1")
        label = next(n.label for n in nodes if n.id == node_id)
        edges = [e for e in edges if e.source != node_id and e.target != node_id]
        edges.append(Edge(source=incoming[0].source, target=outgoing[0].target,
                          label=label or ""))
        nodes = [n for n in nodes if n.id != node_id]
    return replace(g, nodes=tuple(nodes), edges=tuple(edges))


def eds_merge_anchors(g: Graph) -> Graph:
    """Collapse every node's anchor set to its single continuous hull.

    A node with at most one anchor is already its own hull and is kept as it
    is, and so is a graph of such nodes.
    """
    if all(len(node.anchors) <= 1 for node in g.nodes):
        return g
    nodes = tuple(
        node if len(node.anchors) <= 1 else
        replace(node, anchors=(Anchor(min(a.start for a in node.anchors),
                                      max(a.end for a in node.anchors)),))
        for node in g.nodes)
    return replace(g, nodes=nodes)


def preprocess(framework: str, g: Graph,
               drg_relations: frozenset[str] = frozenset()) -> Graph:
    """Apply a framework's canonicalization pipeline.

    amr: nodeify + de-invert with the fixed convention of
    normalize_inverted_edges (artificial anchoring is a corpus-level step,
    see rules.anchor_flavor2_corpus); drg: nodeify + reduction of the nodes
    labeled with one of drg_relations; eds: nodeify + anchor merge; ptg:
    properties kept native, identity; ucca: leaf/inner augmentation.
    """
    if framework == "amr":
        return normalize_inverted_edges(nodeify_properties(g))[0]
    if framework == "drg":
        return drg_reduce_binary_relations(nodeify_properties(g), drg_relations)
    if framework == "eds":
        return eds_merge_anchors(nodeify_properties(g))
    if framework == "ptg":
        return g
    if framework == "ucca":
        return ucca_augment(g)
    raise TransformError(f"unknown framework {framework!r}")


def fold_property_nodes(g: Graph, property_node_ids: set[int]) -> Graph:
    """Emission-side inverse of nodeification without a trace.

    Each flagged node with exactly one incoming edge is folded back into a
    property of that edge's source (attribute = edge label, value = node
    label); flagged nodes with any other in-degree are kept as nodes.  A
    folded node's outgoing edges, which nodeify never creates but a decoded
    graph may have, are dropped with it.  A graph with nothing to fold is
    returned as it is.
    """
    incoming: dict[int, list[Edge]] = {}
    for edge in g.edges:
        incoming.setdefault(edge.target, []).append(edge)
    foldable = {}
    for node_id in sorted(property_node_ids):
        parents = incoming.get(node_id, [])
        if len(parents) == 1:
            foldable[node_id] = parents[0]
    if not foldable:
        return g
    added: dict[int, list[tuple[str, str]]] = {}
    for node_id, edge in foldable.items():
        value = g.node_by_id(node_id).label
        added.setdefault(edge.source, []).append((edge.label, "" if value is None else value))
    nodes = tuple(replace(n, properties=n.properties + tuple(added.get(n.id, ())))
                  for n in g.nodes if n.id not in foldable)
    edges = tuple(e for e in g.edges if e.target not in foldable and e.source not in foldable)
    return replace(g, nodes=nodes, edges=edges)
