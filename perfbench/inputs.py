"""Seeded input generators for the benchmark workloads.

Everything is derived from the workload seed: the same seed gives the same
graphs, byte for byte.  The training corpus uses the seed itself, as the
acceptance run does; every other purpose (parse set, joined graphs, rule
corpus) draws from its own child seed, so changing one input size never
shifts the others.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from mrparse import corpus
from mrparse.graph import Anchor, Edge, Graph, Node, Token, validate

PURPOSES = ("parse", "long", "rules")


def child_seed(seed: int, purpose: str, index: int = 0) -> int:
    """Independent 32-bit seed for one purpose (and draw) of a workload seed."""
    entropy = [seed, PURPOSES.index(purpose), index]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def require_valid(graphs: list[Graph]) -> list[Graph]:
    for g in graphs:
        violations = validate(g)
        if violations:
            first = violations[0]
            raise ValueError(f"generated graph {g.id}: {first.subject}: {first.message}")
    return graphs


def join_graphs(parts: list[Graph], graph_id: str) -> Graph:
    """One sentence made of several graphs, separated by single spaces.

    Node ids are renumbered consecutively, anchors and tokens are shifted by
    the character offset of their part, and only the first part's top stays
    a top.
    """
    nodes: list[Node] = []
    edges: list[Edge] = []
    tokens: list[Token] = []
    offset = 0
    for index, part in enumerate(parts):
        id_map = {}
        for node in part.nodes:
            id_map[node.id] = len(nodes)
            nodes.append(replace(
                node, id=id_map[node.id],
                anchors=tuple(Anchor(a.start + offset, a.end + offset)
                              for a in node.anchors),
                is_top=node.is_top and index == 0))
        edges.extend(replace(e, source=id_map[e.source], target=id_map[e.target])
                     for e in part.edges)
        tokens.extend(replace(t, start=t.start + offset, end=t.end + offset)
                      for t in part.tokens)
        offset += len(part.input) + 1
    text = " ".join(part.input for part in parts)
    return Graph(id=graph_id, framework=parts[0].framework, flavor=parts[0].flavor,
                 input=text, nodes=tuple(nodes), edges=tuple(edges),
                 tokens=tuple(tokens))


def long_corpus(seed: int, size: int, parts: int = 4) -> list[Graph]:
    """``size`` graphs, each joined from ``parts`` synthetic sentences."""
    base = corpus.synth_corpus(child_seed(seed, "long"), size * parts)
    return require_valid([join_graphs(base[i * parts:(i + 1) * parts], f"long-{i}")
                          for i in range(size)])


def train_corpus(seed: int, size: int) -> list[Graph]:
    """The synthetic corpus exactly as the acceptance run draws it."""
    return require_valid(corpus.synth_corpus(seed, size))


def parse_set(seed: int, size: int) -> list[Graph]:
    """Fresh gold graphs whose sentences the parse phase feeds to predict."""
    return require_valid(corpus.synth_corpus(child_seed(seed, "parse"), size))


def rules_corpus(seed: int, size: int, index: int = 0) -> list[Graph]:
    """Anchored eds graphs for rule inference; ``index`` picks one of several."""
    return require_valid(corpus.synth_corpus(child_seed(seed, "rules", index), size))


def unanchored_amr(graphs: list[Graph]) -> list[Graph]:
    """The same graphs as flavor-2 amr: framework renamed, anchors removed."""
    return require_valid([
        replace(g, framework="amr", flavor=2,
                nodes=tuple(replace(n, anchors=()) for n in g.nodes))
        for g in graphs])
