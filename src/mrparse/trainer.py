"""End-to-end toy training: encode, query, match, learn, decode.

Every batch runs encoder -> queries -> decoder block -> heads, aligns the
queries to the gold nodes with the permutation-invariant matcher, computes
the per-task losses against the permuted targets, balances the task weights
by gradient norms over the decoder block (the shared parameters) and takes a
decoupled-weight-decay adaptive step with a two-group inverse-square-root
learning rate schedule.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import balance, heads, matcher, model, rules, scorer, transform
from .graph import (Anchor, Edge, Graph, Node, Token, anchored_token_indices,
                    graph_tokens, whitespace_tokens)
from .corpus import synth_corpus

UNK_TOKEN = "<unk>"
# the mixture-of-softmaxes parameters, stored as "label.<name>"
MOS_FIELDS = tuple(f.name for f in dataclasses.fields(heads.MoSParams))
# the held-out F1 metrics evaluate() reports, which stop_when may name
EVAL_METRICS = ("tops", "labels", "properties", "anchors", "edges")
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


class TrainError(Exception):
    pass


class DivergenceError(TrainError):
    pass


@dataclass
class TrainConfig:
    """Toy-scale hyperparameters; the seed fixes all randomness.

    Full-scale reference constants for the schedule are warmup 6000,
    freeze 2000 and peaks 6e-5 (encoder) / 6e-4 (rest); the toy defaults
    below are scaled down to desk size.
    """

    dim: int = 64
    ffn_dim: int = 128
    queries_per_token: int = 2
    encoder_layers: int = 2
    mos_components: int = 2
    seed: int = 1
    epochs: int = 30
    batch_size: int = 16
    corpus_size: int = 500
    eval_fraction: float = 0.2
    lr_encoder: float = 1e-3
    lr_rest: float = 3e-3
    warmup_steps: int = 200
    freeze_steps: int = 50
    weight_decay: float = 1e-6
    focal_gamma: float = 2.0
    label_smoothing: float = 0.1
    mask_epsilon: float = 1e-8
    use_anchor_mask: bool = True
    layer_dropout: float = 0.1
    balance_alpha: float = 1.5
    balance_lr: float = 0.025
    balance_losses: bool = True
    deinvert_edges: bool = True
    use_top_head: bool = True
    use_property_head: bool = True
    use_attribute_head: bool = False
    edge_multilabel: bool = False
    init_scale: float = 0.1
    stop_when: Optional[dict] = None

    def active_tasks(self) -> tuple[str, ...]:
        active = ["label", "anchor", "edge_presence", "edge_label"]
        if self.use_attribute_head:
            active.append("edge_attribute")
        if self.use_property_head:
            active.append("property")
        if self.use_top_head:
            active.append("top")
        return tuple(active)


def _parse_stop_when(text: str, where: str) -> dict:
    try:
        value = json.loads(text)
    except ValueError:
        value = None  # reported below with the other malformed values
    # type() rather than isinstance(): a JSON true is not a threshold
    if not isinstance(value, dict) or not all(
            name in EVAL_METRICS and type(threshold) in (int, float)
            and np.isfinite(threshold) for name, threshold in value.items()):
        raise TrainError(f"{where}: stop_when must be a JSON object mapping "
                         f"{'/'.join(EVAL_METRICS)} to finite numbers, got {text}")
    return value


def load_train_config(path: str) -> TrainConfig:
    """Key-value config file: one ``name = value`` per line, # comments.

    Booleans are 1/0/true/false/yes/no/on/off in any case; stop_when is a JSON
    object mapping evaluate() metric names to thresholds.
    """
    values = {}
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise TrainError(f"{path}:{lineno}: expected 'name = value'")
            name, text = (part.strip() for part in line.split("=", 1))
            if name not in fields:
                raise TrainError(f"{path}:{lineno}: unknown option {name!r}")
            kind = fields[name].type
            if kind == "bool":
                if text.lower() not in _BOOLEANS:
                    raise TrainError(f"{path}:{lineno}: {name} must be one of "
                                     f"{'/'.join(_BOOLEANS)}, got {text!r}")
                values[name] = _BOOLEANS[text.lower()]
            elif kind in ("int", "float"):
                try:
                    values[name] = int(text) if kind == "int" else float(text)
                except ValueError:
                    noun = "an integer" if kind == "int" else "a number"
                    raise TrainError(f"{path}:{lineno}: {name} must be {noun}, "
                                     f"got {text!r}") from None
            else:  # stop_when, the one non-scalar option
                values[name] = _parse_stop_when(text, f"{path}:{lineno}")
    return TrainConfig(**values)


def lr_schedule(step: int, config: TrainConfig) -> tuple[float, float]:
    """Two-group learning rates: frozen/warmup/inverse-sqrt for the encoder,
    warmup/inverse-sqrt for the rest."""

    def shape(peak: float, relative_step: int) -> float:
        if relative_step < 0:
            return 0.0
        if relative_step < config.warmup_steps:
            return peak * (relative_step + 1) / config.warmup_steps
        return peak * np.sqrt(config.warmup_steps / relative_step)

    return (shape(config.lr_encoder, step - config.freeze_steps),
            shape(config.lr_rest, step))


# ---------------------------------------------------------------------------
# example preparation

@dataclass(frozen=True)
class NodeTarget(matcher.TargetSpec):
    """A gold node: what the matcher scores plus the per-task loss targets."""

    target_smoothed: np.ndarray
    anchor_vector: np.ndarray
    is_property: bool
    is_top: bool
    signature: tuple                        # content identity for invariance


@dataclass
class Example:
    gold: Graph
    pre: Graph
    tokens: tuple[Token, ...]
    token_ids: np.ndarray
    targets: list[NodeTarget]
    edges: list[tuple[int, int, int]]       # (source node idx, target node idx, label id)
    top_index: Optional[int]


@dataclass
class ModelMeta:
    """Everything besides parameters needed to run the model."""

    vocab: dict[str, int]
    rule_table: tuple[rules.RelativeRule, ...]
    edge_labels: tuple[str, ...]
    config: TrainConfig
    inverted_labels: tuple[str, ...] = ()

    def token_ids(self, tokens: Sequence[Token]) -> np.ndarray:
        """Vocabulary ids of the token forms; unseen forms map to <unk>."""
        unk = self.vocab[UNK_TOKEN]
        return np.array([self.vocab.get(t.form, unk) for t in tokens], dtype=np.int64)


def preprocess_gold(g: Graph, config: TrainConfig) -> tuple[Graph, transform.TransformTrace]:
    """Nodeify, optionally de-invert, and merge anchors; merged trace."""
    pre, trace = transform.preprocess("eds", g)
    if config.deinvert_edges:
        pre, inv = transform.normalize_inverted_edges(pre)
        trace = transform.TransformTrace(nodeified=trace.nodeified,
                                         deinverted=inv.deinverted,
                                         flagged=inv.flagged)
    return pre, trace


def compile_rule_table(pre_graphs: Sequence[Graph], cache_dir: str | None = None,
                       ) -> tuple[tuple[rules.RelativeRule, ...], rules.RuleSetProblem]:
    """Solve the minimal encoding rule set over preprocessed gold graphs."""
    items, names = rules.label_items(pre_graphs)
    problem = rules.build_problem(items, names=names)
    solution = rules.minimal_rule_set(problem, cache_dir=cache_dir)
    table = tuple(problem.universe[i] for i in solution)
    return table, problem


def build_vocab(graphs: Sequence[Graph]) -> dict[str, int]:
    vocab = {UNK_TOKEN: 0}
    for g in graphs:
        for token in graph_tokens(g):
            if token.form not in vocab:
                vocab[token.form] = len(vocab)
    return vocab


def build_example(g: Graph, pre: Graph, trace: transform.TransformTrace,
                  meta: ModelMeta, applicable: dict) -> Example:
    """Targets of one preprocessed gold graph; applicable maps each
    (forms, lemmas, label) to its retained rules and is shared across calls."""
    config = meta.config
    property_ids = {node_id for _, _, node_id in trace.nodeified}
    tokens = graph_tokens(pre)
    token_ids = meta.token_ids(tokens)
    targets = []
    index_of = {}
    for node in pre.nodes:
        index_of[node.id] = len(targets)
        anchored = anchored_token_indices(node, tokens)
        forms = tuple(tokens[i].form for i in anchored)
        lemmas = tuple(tokens[i].lemma for i in anchored)
        label = node.label or ""
        key = (forms, lemmas, label)
        if key not in applicable:
            applicable[key] = tuple(k for k, rule in enumerate(meta.rule_table)
                                    if rules.apply_rule(rule, forms, lemmas) == label)
        plain = rules.build_rule_target(applicable[key], len(meta.rule_table), 0.0)
        smoothed = rules.build_rule_target(applicable[key], len(meta.rule_table),
                                           config.label_smoothing)
        vector = np.zeros(len(tokens))
        vector[anchored] = 1.0
        targets.append(NodeTarget(
            label_target=plain, anchor_tokens=frozenset(anchored),
            target_smoothed=smoothed, anchor_vector=vector,
            is_property=node.id in property_ids, is_top=node.is_top,
            signature=(label, tuple(sorted(anchored)))))
    label_index = {l: i for i, l in enumerate(meta.edge_labels)}
    edges = [(index_of[e.source], index_of[e.target], label_index[e.label])
             for e in pre.edges]
    top_index = next((i for i, t in enumerate(targets) if t.is_top), None)
    return Example(gold=g, pre=pre, tokens=tuple(tokens), token_ids=token_ids,
                   targets=targets, edges=edges, top_index=top_index)


def edge_label_vocab(gold: Sequence[tuple[Graph, transform.TransformTrace]],
                     ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Edge-label inventory plus the labels produced by de-inversion, over
    preprocess_gold results."""
    labels = set()
    inverted = set()
    for pre, trace in gold:
        labels.update(e.label for e in pre.edges)
        inverted.update(pre.edges[i].label for i in trace.deinverted)
    return tuple(sorted(labels)), tuple(sorted(inverted))


# ---------------------------------------------------------------------------
# model assembly

def init_model(meta: ModelMeta, rng: np.random.Generator) -> dict:
    config = meta.config
    dim = config.dim
    params: dict[str, np.ndarray] = {}
    model.init_encoder(rng, params, len(meta.vocab), dim, config.ffn_dim,
                       config.encoder_layers, config.init_scale)
    model.init_queries(rng, params, config.queries_per_token, dim, config.init_scale)
    model.init_block(rng, params, "dec", dim, config.ffn_dim, cross=True,
                     scale=config.init_scale)
    num_classes = len(meta.rule_table) + 1
    mos = heads.init_mos(rng, dim, num_classes, config.mos_components, config.init_scale)
    params.update({f"label.{name}": getattr(mos, name) for name in MOS_FIELDS})
    params["anchor.u"] = heads.init_biaffine(rng, 1, dim, dim, config.init_scale)
    params["edgep.u"] = heads.init_biaffine(rng, 1, dim, dim, config.init_scale)
    params["edgel.u"] = heads.init_biaffine(rng, max(len(meta.edge_labels), 1),
                                            dim, dim, config.init_scale)
    if config.use_attribute_head:
        params["edgea.u"] = heads.init_biaffine(rng, 1, dim, dim, config.init_scale)
    params["prop.w"] = rng.normal(0.0, config.init_scale, dim)
    params["prop.b"] = np.zeros(())
    params["top.w"] = rng.normal(0.0, config.init_scale, dim)
    params["top.b"] = np.zeros(())
    return params


def mos_params_view(params: dict) -> heads.MoSParams:
    return heads.MoSParams(**{name: params[f"label.{name}"] for name in MOS_FIELDS})


@dataclass
class ForwardPass:
    """Everything one forward leaves for matching, the losses and the backward.

    A forward over a group of equal-length sentences gives every array a
    leading sentence axis (source_tokens, the same for all, excepted);
    sentences() splits it into one pass per sentence.
    """

    embeddings: np.ndarray
    enc_cache: tuple
    query_states: np.ndarray
    source_tokens: np.ndarray
    query_cache: tuple
    hidden: np.ndarray
    dec_cache: tuple
    label_probs: np.ndarray
    mos_cache: tuple
    anchor_probs: np.ndarray
    anchor_cache: tuple

    def sentences(self, params: dict) -> list["ForwardPass"]:
        """Per-sentence views of a group pass: each array split on its
        sentence axis, except source_tokens and the parameters the caches
        hold."""
        shared = {id(value) for value in params.values()} | {id(self.source_tokens)}
        count = self.hidden.shape[0]

        def split(tree) -> list:
            # one walk per group; zip builds every sentence's tuples at once
            kind = type(tree)
            if kind is np.ndarray and id(tree) not in shared:
                return list(tree)
            if (kind is tuple or kind is list) and tree:
                return [kind(parts) for parts in zip(*map(split, tree))]
            return [tree] * count

        fields = tuple(getattr(self, f.name) for f in dataclasses.fields(self))
        return [ForwardPass(*row) for row in split(fields)]

    def nbytes(self, params: dict) -> int:
        """Bytes of the memory the pass's arrays hold, parameters excluded."""
        shared = {id(value) for value in params.values()}
        owners = {}
        stack = [getattr(self, f.name) for f in dataclasses.fields(self)]
        while stack:
            item = stack.pop()
            if type(item) is np.ndarray and id(item) not in shared:
                owner = item if item.base is None else item.base
                owners[id(owner)] = owner.nbytes
            elif type(item) is tuple or type(item) is list:
                stack.extend(item)
        return sum(owners.values())


def forward_sentence(params: dict, config: TrainConfig, token_ids: np.ndarray,
                     dropped: Optional[np.ndarray] = None) -> ForwardPass:
    """Encoder, queries, decoder block and the label and anchor heads.

    token_ids is one sentence [tokens], or a group of equal-length sentences
    [sentences, tokens] run once with a leading sentence axis throughout;
    each sentence's slice equals its own forward bit for bit.  dropped holds
    the layer-dropout masks of a training forward (model.draw_layer_dropout),
    one per sentence; None is the evaluation forward.
    """
    single = token_ids.ndim == 1
    if single:
        token_ids = token_ids[None]
        dropped = None if dropped is None else dropped[None]
    e, enc_cache = model.encode_forward(params, token_ids, config.encoder_layers,
                                        dropped)
    qstates, source, q_cache = model.queries_forward(params, e)
    hidden, dec_cache = model.block_forward(params, "dec", qstates, memory=e)
    label_probs, mos_cache = heads.mos_forward_batch(hidden, mos_params_view(params))
    anchor_probs, anchor_cache = heads.anchor_head(hidden, e, params["anchor.u"])
    fwd = ForwardPass(embeddings=e, enc_cache=enc_cache, query_states=qstates,
                      source_tokens=source, query_cache=q_cache, hidden=hidden,
                      dec_cache=dec_cache, label_probs=label_probs,
                      mos_cache=mos_cache, anchor_probs=anchor_probs,
                      anchor_cache=anchor_cache)
    return fwd.sentences(params)[0] if single else fwd


def _length_groups(lengths: Sequence[int]) -> dict[int, list[int]]:
    """Length -> the positions of that length, in order."""
    groups: dict[int, list[int]] = {}
    for position, length in enumerate(lengths):
        groups.setdefault(length, []).append(position)
    return groups


def _batch_passes(params: dict, config: TrainConfig, batch: Sequence[Example],
                  dropped: Optional[Sequence[np.ndarray]], max_tokens: float,
                  ) -> Iterator[ForwardPass]:
    """The forward pass of each sentence of a training batch, in batch order.

    When a sentence comes up without a pass, it is forwarded together with
    the later sentences of its length, as many as keep the waiting caches
    within max_tokens tokens (at least itself).  dropped holds each
    sentence's layer-dropout mask, or is None.
    """
    groups = _length_groups([len(example.token_ids) for example in batch])
    pending: dict[int, ForwardPass] = {}
    for position, example in enumerate(batch):
        if position not in pending:
            length = len(example.token_ids)
            waiting = sum(len(batch[p].token_ids) for p in pending)
            room = max(int((max_tokens - waiting) // length), 1)
            group = [p for p in groups[length] if p >= position][:room]
            pending.update(zip(group, forward_sentence(
                params, config, np.stack([batch[p].token_ids for p in group]),
                None if dropped is None else np.stack([dropped[p] for p in group]),
            ).sentences(params)))
        yield pending.pop(position)


def _cache_token_budget(params: dict, config: TrainConfig, token_ids: np.ndarray,
                        ) -> float:
    """Tokens of forward caches that take the bytes of one sentence's per-task
    decoder grads ([tasks, *shape] for every decoder parameter), at the cache
    bytes per token of token_ids's forward."""
    decoder = len(config.active_tasks()) * sum(
        value.nbytes for key, value in params.items() if key.startswith("dec."))
    cache = forward_sentence(params, config, token_ids).nbytes(params)
    return decoder * len(token_ids) / cache


def match_queries(config: TrainConfig, fwd: ForwardPass, example: Example,
                  params: dict) -> matcher.Assignment:
    """Align queries to gold nodes, breaking ties by the edge loss: the
    edge-presence plus edge-label loss sentence_losses computes for a perm."""
    predictions = matcher.PredictionSpec(label_probs=fwd.label_probs,
                                         anchor_probs=fwd.anchor_probs,
                                         source_tokens=fwd.source_tokens)
    match_config = matcher.MatchConfig(use_anchor_mask=config.use_anchor_mask,
                                       mask_epsilon=config.mask_epsilon)

    def edge_nll(perm: tuple[int, ...]) -> float:
        _, sel, node_pos = _matched_nodes(perm, len(example.targets))
        edge = _edge_losses(params, config, example, fwd.hidden[sel], node_pos)
        return edge["edge_presence"][0] + edge["edge_label"][0]

    return matcher.align_targets(predictions, example.targets, match_config, edge_nll)


def _matched_nodes(perm: Sequence[int], num_targets: int,
                   ) -> tuple[list[int], list[int], dict[int, int]]:
    """Matched targets in ascending order, the query matched to each, and each
    matched target's position in that order; perm entries >= num_targets are
    null matches."""
    query_for = {target: query for query, target in enumerate(perm)
                 if target < num_targets}
    order = sorted(query_for)
    return order, [query_for[j] for j in order], {j: k for k, j in enumerate(order)}


def _edge_targets(edges, node_pos, m: int, multilabel: bool):
    """Presence matrix plus per-pair label targets.

    Multi-class mode yields one (pair, label id) entry per gold edge;
    multi-label mode groups parallel edges into label sets per pair.
    """
    presence = np.zeros((m, m))
    if multilabel:
        grouped: dict[tuple[int, int], set] = {}
        for a, b, label_id in edges:
            pair = (node_pos[a], node_pos[b])
            presence[pair] = 1.0
            grouped.setdefault(pair, set()).add(label_id)
        pairs = sorted(grouped)
        labels = [grouped[p] for p in pairs]
    else:
        pairs = []
        labels = []
        for a, b, label_id in edges:
            pair = (node_pos[a], node_pos[b])
            presence[pair] = 1.0
            pairs.append(pair)
            labels.append(label_id)
    return presence, pairs, labels


def _edge_losses(params: dict, config: TrainConfig, example: Example,
                 states: np.ndarray, node_pos: dict[int, int],
                 ) -> dict[str, tuple[float, dict[str, np.ndarray], np.ndarray]]:
    """Edge losses over the matched node states, as task -> (loss, head
    parameter grads, grad wrt states): presence, label and, when that head
    is active, attribute."""
    presence, pairs, labels = _edge_targets(example.edges, node_pos, len(states),
                                            config.edge_multilabel)
    p_logits, p_cache = heads.biaffine_forward(states, states, params["edgep.u"])
    loss, du, dstates = heads.edge_presence_loss(p_logits, p_cache, presence)
    out = {"edge_presence": (loss, {"edgep.u": du}, dstates)}
    l_logits, l_cache = heads.biaffine_forward(states, states, params["edgel.u"])
    loss, du, dstates = heads.edge_label_loss(l_logits, l_cache, pairs, labels,
                                              config.edge_multilabel)
    out["edge_label"] = (loss, {"edgel.u": du}, dstates)
    if config.use_attribute_head:
        # toy gold edges carry no attributes: every pair targets class 0
        a_logits, a_cache = heads.biaffine_forward(states, states, params["edgea.u"])
        loss, du, dstates = heads.edge_attribute_loss(a_logits, a_cache, pairs,
                                                      [0] * len(pairs))
        out["edge_attribute"] = (loss, {"edgea.u": du}, dstates)
    return out


@dataclass
class SentenceGrads:
    """Per-task gradients of one sentence.

    The decoder block runs one backward on the stacked [tasks, queries, dim]
    output gradient, tasks in config.active_tasks() order; a task without a
    loss on this sentence has a zero row.  dquery and dmemory keep that
    leading task axis, so row t is exactly what a backward on task t alone
    would give; the anchor row of dmemory also carries the anchor head's own
    gradient with respect to the embeddings.  The decoder parameter grads go
    straight into the caller's sums (see sentence_losses).
    """

    head: dict[str, dict[str, np.ndarray]]     # per task, head parameter grads
    dhidden: dict[str, np.ndarray]             # per task, grad wrt decoder output
    dquery: np.ndarray                         # [tasks, queries, dim]
    dmemory: np.ndarray                        # [tasks, tokens, dim]


def sentence_losses(params: dict, config: TrainConfig, example: Example,
                    fwd: ForwardPass, assignment: matcher.Assignment,
                    dec_sums: dict[str, np.ndarray], scale: float,
                    ) -> tuple[dict[str, float], SentenceGrads, list]:
    """Per-task losses and gradients for one sentence given the query/node
    assignment.

    Queries matched to null targets contribute only the label loss.  The
    decoder parameter grads, [tasks, *shape] per key and times scale, are
    added into dec_sums in place (see model.block_backward).  Returns
    (losses, grads, pairing) where pairing lists (query, NodeTarget or None).
    """
    num_queries = fwd.hidden.shape[0]
    num_targets = len(example.targets)
    pairing = [(query, example.targets[target] if target < num_targets else None)
               for query, target in enumerate(assignment.perm)]

    losses: dict[str, float] = {}
    dh: dict[str, np.ndarray] = {}
    head: dict[str, dict[str, np.ndarray]] = {}
    active = set(config.active_tasks())

    # label loss over every query (null queries get the null class target)
    null_target = rules.build_rule_target((), len(fwd.label_probs[0]) - 1,
                                          config.label_smoothing, is_null=True)
    target_matrix = np.stack([node.target_smoothed if node is not None else null_target
                              for _, node in pairing])
    loss_label, dprob_matrix = heads.label_loss(fwd.label_probs, target_matrix,
                                                config.focal_gamma)
    losses["label"] = loss_label
    mos_grads, dh["label"] = heads.mos_backward_batch(fwd.mos_cache,
                                                      dprob_matrix / num_queries)
    head["label"] = {f"label.{name}": getattr(mos_grads, name) for name in MOS_FIELDS}

    # anchor loss over queries matched to real nodes
    anchor_targets = np.zeros_like(fwd.anchor_probs)
    mask = np.zeros(num_queries, dtype=bool)
    for query, node in pairing:
        if node is not None:
            mask[query] = True
            anchor_targets[query] = node.anchor_vector
    losses["anchor"], du, dh["anchor"], anchor_dmemory = heads.anchor_loss(
        fwd.anchor_cache, anchor_targets, mask)
    head["anchor"] = {"anchor.u": du}

    order, sel, node_pos = _matched_nodes(assignment.perm, num_targets)
    states = fwd.hidden[sel]
    m = len(sel)

    def scatter(dstates: np.ndarray) -> np.ndarray:
        out = np.zeros_like(fwd.hidden)
        out[sel] = dstates  # sel has no repeats
        return out

    for task, (loss, grads, dstates) in _edge_losses(params, config, example, states,
                                                     node_pos).items():
        losses[task] = loss
        dh[task] = scatter(dstates)
        head[task] = grads

    if "property" in active:
        prop_targets = np.array([1.0 if example.targets[j].is_property else 0.0
                                 for j in order])
        loss, dw, db, dstates = heads.property_loss(states, params["prop.w"],
                                                    float(params["prop.b"]), prop_targets)
        losses["property"] = loss
        dh["property"] = scatter(dstates)
        head["property"] = {"prop.w": dw, "prop.b": np.array(db)}

    if "top" in active and example.top_index is not None and m > 0:
        gold = node_pos[example.top_index]
        loss, dw, db, dstates = heads.top_loss(states, params["top.w"],
                                               float(params["top.b"]), gold)
        losses["top"] = loss
        dh["top"] = scatter(dstates)
        head["top"] = {"top.w": dw, "top.b": np.array(db)}

    tasks = config.active_tasks()
    zeros = np.zeros_like(fwd.hidden)
    dquery, dmemory = model.block_backward(
        params, "dec", fwd.dec_cache, np.stack([dh.get(t, zeros) for t in tasks]),
        dec_sums, scale)
    dmemory[tasks.index("anchor")] += anchor_dmemory
    grads = SentenceGrads(head=head, dhidden=dh, dquery=dquery, dmemory=dmemory)
    return losses, grads, pairing


def sentence_total_loss(params: dict, config: TrainConfig, example: Example,
                        weights: Optional[dict[str, float]] = None,
                        ) -> tuple[float, list]:
    """Total loss of one sentence, gradients discarded; used by invariance checks."""
    fwd = forward_sentence(params, config, example.token_ids)
    assignment = match_queries(config, fwd, example, params)
    losses, _, pairing = sentence_losses(params, config, example, fwd, assignment,
                                         {}, 1.0)
    weights = weights or {t: 1.0 for t in losses}
    total = heads.total_loss(heads.LossBundle(losses=losses, weights=weights))
    return total, pairing


# ---------------------------------------------------------------------------
# optimizer

class AdamW:
    """Adaptive moments with decoupled weight decay, two learning-rate groups."""

    def __init__(self, params: dict, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0

    @staticmethod
    def group(key: str) -> str:
        return "encoder" if key == "emb" or key == "mix" or key.startswith("enc") \
            else "rest"

    def step(self, params: dict, grads: dict, lr_encoder: float, lr_rest: float,
             weight_decay: float):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for key, grad in grads.items():
            lr = lr_encoder if self.group(key) == "encoder" else lr_rest
            if lr == 0.0:
                continue
            self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * grad
            self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * grad * grad
            update = (self.m[key] / bias1) / (np.sqrt(self.v[key] / bias2) + self.eps)
            params[key] = params[key] - lr * (update + weight_decay * params[key])


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainedModel:
    params: dict
    meta: ModelMeta

    def save(self, path: str):
        payload = dict(self.params)
        config = dataclasses.asdict(self.meta.config)
        payload["meta.config_json"] = model.pack_text(json.dumps(config, sort_keys=True))
        payload["meta.vocab_json"] = model.pack_text(
            json.dumps(self.meta.vocab, sort_keys=True, ensure_ascii=False))
        payload["meta.rules_text"] = model.pack_text(
            "\n".join(rules.rule_to_line(r) for r in self.meta.rule_table))
        payload["meta.edge_labels_json"] = model.pack_text(
            json.dumps(list(self.meta.edge_labels), ensure_ascii=False))
        payload["meta.inverted_labels_json"] = model.pack_text(
            json.dumps(list(self.meta.inverted_labels), ensure_ascii=False))
        model.save_params(payload, path)

    @classmethod
    def load(cls, path: str) -> "TrainedModel":
        payload = model.load_params(path)
        config_obj = json.loads(model.unpack_text(payload.pop("meta.config_json")))
        vocab = json.loads(model.unpack_text(payload.pop("meta.vocab_json")))
        table = tuple(rules.rule_from_line(line) for line in
                      model.unpack_text(payload.pop("meta.rules_text")).splitlines()
                      if line.strip())
        edge_labels = tuple(json.loads(model.unpack_text(
            payload.pop("meta.edge_labels_json"))))
        inverted = tuple(json.loads(model.unpack_text(
            payload.pop("meta.inverted_labels_json"))))
        if not isinstance(vocab, dict) or UNK_TOKEN not in vocab \
                or sorted(vocab.values()) != list(range(len(vocab))):
            raise model.CheckpointError(f"vocabulary must number its tokens 0..n-1 "
                                        f"and contain {UNK_TOKEN}")
        meta = ModelMeta(vocab=vocab, rule_table=table, edge_labels=edge_labels,
                         config=TrainConfig(**config_obj), inverted_labels=inverted)
        expected = {k: v.shape for k, v in init_model(meta, np.random.default_rng(0)).items()}
        found = {k: v.shape for k, v in payload.items()}
        if found != expected:
            wrong = sorted(k for k in expected.keys() | found.keys()
                           if expected.get(k) != found.get(k))
            raise model.CheckpointError(f"parameters differ from what the stored "
                                        f"config builds: {', '.join(wrong)}")
        return cls(params=payload, meta=meta)


def split_corpus(graphs: Sequence[Graph], eval_fraction: float,
                 ) -> tuple[list[Graph], list[Graph]]:
    held_out = max(1, int(round(len(graphs) * eval_fraction)))
    return list(graphs[:-held_out]), list(graphs[-held_out:])


def prepare(config: TrainConfig, graphs: Optional[Sequence[Graph]] = None,
            cache_dir: str | None = None):
    """Corpus, vocabulary, rule table and examples for a training run."""
    if graphs is None:
        graphs = synth_corpus(config.seed, config.corpus_size)
    train_graphs, eval_graphs = split_corpus(graphs, config.eval_fraction)
    gold = [preprocess_gold(g, config) for g in train_graphs]
    table, problem = compile_rule_table([pre for pre, _ in gold], cache_dir=cache_dir)
    edge_labels, inverted_labels = edge_label_vocab(gold)
    meta = ModelMeta(vocab=build_vocab(train_graphs), rule_table=table,
                     edge_labels=edge_labels, config=config,
                     inverted_labels=inverted_labels)
    applicable = {}
    examples = [build_example(g, pre, trace, meta, applicable)
                for g, (pre, trace) in zip(train_graphs, gold)]
    return meta, examples, train_graphs, eval_graphs, problem


def evaluate(trained: TrainedModel, graphs: Sequence[Graph]) -> dict[str, float]:
    """Held-out F1 per metric under the anchored-tuple scorer."""
    predictions = predict_batch(trained, [g.input for g in graphs])
    reports = [scorer.score_pair(g, p) for g, p in zip(graphs, predictions)]
    total = scorer.aggregate(reports)
    return {name: total.metrics[name].f1 for name in EVAL_METRICS}


def train(config: TrainConfig, graphs: Optional[Sequence[Graph]] = None,
          on_epoch: Optional[Callable[[dict], None]] = None,
          cache_dir: str | None = None) -> tuple[TrainedModel, list[dict]]:
    """Train the toy parser; returns the model and per-epoch metric records."""
    meta, examples, _, eval_graphs, _ = prepare(config, graphs, cache_dir)
    rng = np.random.default_rng(config.seed)
    params = init_model(meta, rng)
    trained = TrainedModel(params=params, meta=meta)
    optimizer = AdamW(params)
    tasks = config.active_tasks()
    state = balance.BalanceState.uniform(tasks)
    metrics: list[dict] = []
    dec_accum: dict[str, np.ndarray] = {}  # decoder key -> [tasks, *shape], per batch
    # waiting forward caches may take what one sentence's per-task decoder
    # grads took before they were added into dec_accum key by key
    max_tokens = _cache_token_budget(params, config, examples[0].token_ids) \
        if examples else 0.0
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_losses = {t: 0.0 for t in tasks}
        num_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[start:start + config.batch_size]]
            total_grads: dict[str, np.ndarray] = {}
            task_losses = {t: 0.0 for t in tasks}
            scale = 1.0 / len(batch)
            for accum in dec_accum.values():
                accum.fill(0.0)
            # masks in batch order, as the rng stream had them one sentence at a time
            masks = [model.draw_layer_dropout(rng, config.encoder_layers + 1,
                                              config.layer_dropout)
                     for _ in batch] if config.layer_dropout > 0.0 else None
            for example, fwd in zip(batch, _batch_passes(params, config, batch, masks,
                                                         max_tokens)):
                assignment = match_queries(config, fwd, example, params)
                losses, grads, _ = sentence_losses(params, config, example, fwd,
                                                   assignment, dec_accum, scale)
                dquery_total = np.zeros_like(fwd.query_states)
                dmemory_total = np.zeros_like(fwd.embeddings)
                for row, task in enumerate(tasks):
                    if task not in losses:
                        continue
                    task_losses[task] += losses[task] * scale
                    weight = state.weights[task]
                    for key, grad in grads.head.get(task, {}).items():
                        model.add_grad(total_grads, key, weight * scale * grad)
                    dquery_total += weight * grads.dquery[row]
                    dmemory_total += weight * grads.dmemory[row]
                query_grads: dict[str, np.ndarray] = {}
                de = model.queries_backward(params, fwd.query_cache,
                                            scale * dquery_total, query_grads)
                for key, grad in query_grads.items():
                    model.add_grad(total_grads, key, grad)
                model.encode_backward(params, fwd.enc_cache,
                                      de + scale * dmemory_total, total_grads)
            task_dec_norm_sq = {t: sum(float((g[row] * g[row]).sum())
                                       for g in dec_accum.values())
                                for row, t in enumerate(tasks)}
            for key, accum in dec_accum.items():
                # task order, one term at a time: a tensordot would round differently
                total = state.weights[tasks[0]] * accum[0]
                for row in range(1, len(tasks)):
                    total += state.weights[tasks[row]] * accum[row]
                total_grads[key] = total
            if not all(np.isfinite(v).all() for v in total_grads.values()):
                raise DivergenceError(f"non-finite gradients at step {step}")
            lr_encoder, lr_rest = lr_schedule(step, config)
            optimizer.step(params, total_grads, lr_encoder, lr_rest,
                           config.weight_decay)
            if any(not np.isfinite(v) for v in task_losses.values()):
                raise DivergenceError(f"non-finite loss at step {step}")
            if state.initial_losses is None:
                state.initial_losses = dict(task_losses)
            if config.balance_losses:
                grad_norms = {t: state.weights[t] * float(np.sqrt(task_dec_norm_sq[t]))
                              for t in tasks}
                state.weights, warn = balance.update_loss_weights(
                    grad_norms, task_losses, state.initial_losses, state.weights,
                    config.balance_alpha, config.balance_lr)
                state.warnings.extend(warn)
            for t in tasks:
                epoch_losses[t] += task_losses[t]
            num_batches += 1
            step += 1
        f1 = evaluate(trained, eval_graphs)
        record = {"epoch": epoch + 1,
                  "losses": {t: epoch_losses[t] / max(num_batches, 1) for t in tasks},
                  "weights": {t: state.weights[t] for t in tasks},
                  "f1": f1}
        metrics.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if config.stop_when and all(f1.get(name, 0.0) >= threshold
                                    for name, threshold in config.stop_when.items()):
            break
    return trained, metrics


# ---------------------------------------------------------------------------
# prediction

def predict(trained: TrainedModel, sentence: str) -> Graph:
    """Parse one sentence into a semantic graph with the trained model."""
    return predict_batch(trained, [sentence])[0]


def predict_batch(trained: TrainedModel, sentences: Sequence[str]) -> list[Graph]:
    """Parse sentences in chunks of config.batch_size, running the forward of
    a chunk once per group of equal token count; each graph equals what
    predict gives for its sentence alone."""
    config = trained.meta.config
    graphs: list[Optional[Graph]] = []
    for start in range(0, len(sentences), config.batch_size):
        chunk = sentences[start:start + config.batch_size]
        tokens = [whitespace_tokens(sentence) for sentence in chunk]
        parsed: list[Optional[Graph]] = [None] * len(chunk)
        for length, group in _length_groups([len(t) for t in tokens]).items():
            if length == 0:
                for position in group:
                    parsed[position] = Graph(id="pred-0", framework="eds", flavor=1,
                                             input=chunk[position], tokens=tokens[position])
                continue
            fwd = forward_sentence(trained.params, config, np.stack(
                [trained.meta.token_ids(tokens[p]) for p in group]))
            for row, position in enumerate(group):
                parsed[position] = _decode(trained, chunk[position], tokens[position],
                                           fwd.hidden[row], fwd.label_probs[row],
                                           fwd.anchor_probs[row])
        graphs.extend(parsed)
    return graphs


def _decode(trained: TrainedModel, sentence: str, tokens: tuple[Token, ...],
            hidden: np.ndarray, label_probs: np.ndarray,
            anchor_probs: np.ndarray) -> Graph:
    """The graph of one sentence from its decoder states and head outputs."""
    params = trained.params
    meta = trained.meta
    config = meta.config
    null_class = len(meta.rule_table)
    candidates = [q for q in range(hidden.shape[0])
                  if int(np.argmax(label_probs[q])) != null_class]

    # decode labels/anchors, dropping duplicate (label, anchors) realizations
    accepted = []
    decoded = []
    seen = set()
    for query in candidates:
        anchored = [t for t in range(len(tokens))
                    if anchor_probs[query, t] >= 0.5]
        forms = [tokens[t].form for t in anchored]
        lemmas = [tokens[t].lemma for t in anchored]
        label = rules.decode_label(label_probs[query], forms, lemmas,
                                   meta.rule_table)
        anchors = ()
        if anchored:
            anchors = (Anchor(min(tokens[t].start for t in anchored),
                              max(tokens[t].end for t in anchored)),)
        signature = (label, anchors)
        if signature in seen:
            continue
        seen.add(signature)
        accepted.append(query)
        decoded.append((label, anchors))

    nodes = []
    property_flags = set()
    if accepted:
        prop_probs, _ = heads.property_head(hidden[accepted], params["prop.w"],
                                            float(params["prop.b"]))
        top_probs = heads.top_head(hidden[accepted], params["top.w"],
                                   float(params["top.b"])) if config.use_top_head else None
    for position, (label, anchors) in enumerate(decoded):
        is_top = bool(config.use_top_head and top_probs is not None
                      and position == int(np.argmax(top_probs)))
        nodes.append(Node(id=position, label=label, anchors=anchors, is_top=is_top))
        if config.use_property_head and prop_probs[position] >= 0.5:
            property_flags.add(position)

    edges = []
    if accepted:
        states = hidden[accepted]
        p_logits, _ = heads.biaffine_forward(states, states, params["edgep.u"])
        presence = heads.sigmoid(p_logits[0])
        l_logits, _ = heads.biaffine_forward(states, states, params["edgel.u"])
        for a in range(len(accepted)):
            for b in range(len(accepted)):
                if a != b and presence[a, b] >= 0.5:
                    if config.edge_multilabel:
                        scores = heads.sigmoid(l_logits[:, a, b])
                        chosen = [i for i, p in enumerate(scores) if p >= 0.5]
                        if not chosen:
                            chosen = [int(np.argmax(scores))]
                    else:
                        chosen = [int(np.argmax(l_logits[:, a, b]))]
                    for label_id in chosen:
                        edges.append(Edge(source=a, target=b,
                                          label=meta.edge_labels[label_id]))

    out = Graph(id="pred-0", framework="eds", flavor=1, input=sentence,
                nodes=tuple(nodes), edges=tuple(edges), tokens=tokens)
    if property_flags:
        out = transform.fold_property_nodes(out, property_flags)
    if config.deinvert_edges and meta.inverted_labels:
        out = transform.reinvert_edges_for_top(
            out, invertible_labels=set(meta.inverted_labels))
    return transform.eds_merge_anchors(out)
