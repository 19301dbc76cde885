"""End-to-end toy training: encode, query, match, learn, decode.

Every batch is worked through one group of equal-length sentences at a time:
the group runs encoder -> queries -> decoder block -> heads once, each of
its sentences aligns its queries to the gold nodes with the
permutation-invariant matcher, the per-task losses are taken against the
permuted targets (every head's once for the group), and one backward takes
the group's gradients back through the network.  The batch then balances the task weights by each task's
gradient norm on the last shared layer (the decoder block's ffn.w2 and
ffn.b2) and takes a decoupled-weight-decay adaptive step with a two-group
inverse-square-root learning rate schedule.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import balance, heads, matcher, model, rules, scorer, transform
from .graph import (Anchor, Edge, Graph, Node, Token, anchored_token_indices,
                    graph_tokens, whitespace_tokens)
from .corpus import synth_corpus

UNK_TOKEN = "<unk>"
# the held-out F1 metrics evaluate() reports, which stop_when may name
EVAL_METRICS = ("tops", "labels", "properties", "anchors", "edges")
# the heads' tasks, in the order backward_sentence sums their weighted grads
TASKS = ("label", "anchor", "edge_presence", "edge_label", "property", "top")
# a scalar option's annotation -> the exact types it takes (bool is an int, but
# not a count or a rate) and how a message names them
_KINDS = {"int": ((int,), "an integer"), "float": ((int, float), "a number")}


class TrainError(Exception):
    pass


class DivergenceError(TrainError):
    pass


# (option, lowest accepted value, upper bound or None): a value outside
# hangs a run (layer_dropout 1 redraws the dropout mask forever), trains a
# model of nothing (dim 0, eval_fraction past 1), asks for more memory than a
# machine holds (dim or corpus_size 10**30) or leaves too few steps to schedule
# (batch_size past 1024: under 100 an epoch, half the default warmup).  An
# integer bound is the highest value accepted, a float bound the first past it.
_CONFIG_RANGES = (
    ("dim", 1, 512), ("ffn_dim", 1, 2048), ("queries_per_token", 1, 8),
    ("encoder_layers", 0, 8), ("mos_components", 1, 8), ("seed", 0, None),
    ("epochs", 0, None), ("batch_size", 1, 1024), ("corpus_size", 1, 100000),
    ("eval_fraction", 0.0, 1.0), ("lr_encoder", 0.0, None), ("lr_rest", 0.0, None),
    ("warmup_steps", 1, None), ("freeze_steps", 0, None), ("weight_decay", 0.0, None),
    ("focal_gamma", 0.0, None), ("label_smoothing", 0.0, 1.0), ("layer_dropout", 0.0, 1.0),
    ("balance_alpha", 0.0, None), ("balance_lr", 0.0, None), ("init_scale", 0.0, None),
)


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
    layer_dropout: float = 0.1
    balance_alpha: float = 1.5
    balance_lr: float = 0.025
    init_scale: float = 0.1
    stop_when: Optional[dict] = None

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type in _KINDS and type(value) not in _KINDS[field.type][0]:
                raise TrainError(f"{field.name} must be {_KINDS[field.type][1]}, "
                                 f"got {value!r}")
        for name, low, high in _CONFIG_RANGES:
            value = getattr(self, name)
            # abs() < inf rather than math.isfinite, which cannot take an
            # integer too large for a float
            closed = type(high) is int
            if not (abs(value) < math.inf and low <= value
                    and (high is None or (value <= high if closed else value < high))):
                bounds = (f"at least {low}" if high is None
                          else f"in [{low}, {high}{']' if closed else ')'}")
                raise TrainError(f"{name} must be {bounds}, got {value}")
        if self.stop_when is not None:
            _check_stop_when(self.stop_when, repr(self.stop_when))


def _check_stop_when(value, shown: str, where: str = ""):
    """Raise TrainError unless value maps evaluate() metric names to
    thresholds in [0, 1], the range of an F1; the message quotes the value
    as shown, after where."""
    # type() rather than isinstance(): a JSON true is not a threshold; an
    # integer too large for a float still compares with inf
    if not isinstance(value, dict) or not all(
            name in EVAL_METRICS and type(threshold) in (int, float)
            and abs(threshold) < math.inf for name, threshold in value.items()):
        raise TrainError(f"{where}stop_when must be a JSON object mapping "
                         f"{'/'.join(EVAL_METRICS)} to finite numbers, got {shown}")
    if not all(0 <= threshold <= 1 for threshold in value.values()):
        raise TrainError(f"{where}stop_when thresholds must be in [0, 1], where "
                         f"an F1 lies, got {shown}")


def load_train_config(path: str) -> TrainConfig:
    """Key-value config file: one ``name = value`` per line, each name once, # comments.

    Counts are integers and rates numbers; stop_when is a JSON object
    mapping evaluate() metric names to thresholds in [0, 1].
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
            if kind in _KINDS:
                try:
                    value = int(text) if kind == "int" else float(text)
                except ValueError:
                    raise TrainError(f"{path}:{lineno}: {name} must be "
                                     f"{_KINDS[kind][1]}, got {text!r}") from None
            else:  # stop_when, the one non-scalar option
                try:
                    value = json.loads(text)
                except (ValueError, RecursionError):  # RecursionError: deep nesting
                    value = None  # reported with the other malformed values
                _check_stop_when(value, text, f"{path}:{lineno}: ")
            if name in values:
                raise TrainError(f"{path}:{lineno}: {name} is set twice")
            values[name] = value
    try:
        return TrainConfig(**values)
    except TrainError as exc:
        raise TrainError(f"{path}: {exc}") from None


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

@dataclass
class Example:
    """A training sentence and its gold targets, row j for node j of its
    preprocessed graph (preprocess_gold).

    label_targets [k, classes] holds each node's unsmoothed rule
    distribution, which the matcher scores and the label loss smooths;
    anchored [k, tokens] is True where a node is anchored to a token, and
    is_property [k] marks the nodes made from properties.  edges [edges, 3]
    holds a row (source node, target node, label id) per edge.
    """

    gold: Graph
    token_ids: np.ndarray
    label_targets: np.ndarray
    anchored: np.ndarray
    is_property: np.ndarray
    edges: np.ndarray
    top_index: Optional[int]


@dataclass
class ModelMeta:
    """Everything besides parameters needed to run the model."""

    vocab: dict[str, int]
    rule_table: tuple[rules.Rule, ...]
    edge_labels: tuple[str, ...]
    config: TrainConfig
    inverted_labels: tuple[str, ...] = ()

    def token_ids(self, tokens: Sequence[Token]) -> np.ndarray:
        """Vocabulary ids of the token forms; unseen forms map to <unk>."""
        unk = self.vocab[UNK_TOKEN]
        return np.array([self.vocab.get(t.form, unk) for t in tokens], dtype=np.int64)


def preprocess_gold(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Nodeify, merge anchors and de-invert; the graph and the indices of
    its de-inverted edges."""
    return transform.normalize_inverted_edges(transform.preprocess("eds", g))


def build_vocab(graphs: Sequence[Graph]) -> dict[str, int]:
    vocab = {UNK_TOKEN: 0}
    for g in graphs:
        for token in graph_tokens(g):
            if token.form not in vocab:
                vocab[token.form] = len(vocab)
    return vocab


def build_example(g: Graph, pre: Graph, meta: ModelMeta,
                  node_rows: Sequence[Sequence[int]]) -> Example:
    """Targets of gold graph g from pre, its preprocess_gold graph;
    node_rows[j] lists the rule-table rows that derive node j's label, as
    the solved rule-set problem found them.  The property nodes are the
    nodes of pre whose ids g lacks, which holds as long as preprocessing
    keeps every id of g and gives each node it creates a new one."""
    num_rules = len(meta.rule_table)
    property_ids = {n.id for n in pre.nodes} - {n.id for n in g.nodes}
    tokens = graph_tokens(pre)
    k = len(pre.nodes)
    label_targets = np.empty((k, num_rules + 1))
    anchored = np.zeros((k, len(tokens)), dtype=bool)
    for j, node in enumerate(pre.nodes):
        indices = anchored_token_indices(node, tokens)
        anchored[j, indices] = True
        label_targets[j] = rules.build_rule_target(node_rows[j], num_rules)
    index_of = {node.id: j for j, node in enumerate(pre.nodes)}
    label_index = {l: i for i, l in enumerate(meta.edge_labels)}
    edges = np.array([(index_of[e.source], index_of[e.target], label_index[e.label])
                      for e in pre.edges], dtype=np.int64).reshape(-1, 3)
    is_property = np.array([n.id in property_ids for n in pre.nodes], dtype=bool)
    top_index = next((j for j, n in enumerate(pre.nodes) if n.is_top), None)
    return Example(gold=g, token_ids=meta.token_ids(tokens),
                   label_targets=label_targets, anchored=anchored,
                   is_property=is_property, edges=edges, top_index=top_index)


def edge_label_vocab(gold: Sequence[tuple[Graph, tuple[int, ...]]],
                     ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Edge-label inventory plus the labels produced by de-inversion, over
    preprocess_gold results."""
    labels = set()
    inverted = set()
    for pre, deinverted in gold:
        labels.update(e.label for e in pre.edges)
        inverted.update(pre.edges[i].label for i in deinverted)
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
    heads.init_mos(rng, params, dim, num_classes, config.mos_components, config.init_scale)
    params["anchor.u"] = heads.init_biaffine(rng, 1, dim, dim, config.init_scale)
    params["edgep.u"] = heads.init_biaffine(rng, 1, dim, dim, config.init_scale)
    params["edgel.u"] = heads.init_biaffine(rng, max(len(meta.edge_labels), 1),
                                            dim, dim, config.init_scale)
    params["prop.w"] = rng.normal(0.0, config.init_scale, dim)
    params["prop.b"] = np.zeros(())
    params["top.w"] = rng.normal(0.0, config.init_scale, dim)
    return params


@dataclass
class ForwardPass:
    """Everything one forward leaves for matching, the losses and the backward.

    A forward over a group of equal-length sentences gives every array a
    leading sentence axis (source_tokens, the same for all, excepted).
    """

    enc_cache: tuple
    source_tokens: np.ndarray
    query_cache: tuple
    hidden: np.ndarray
    dec_cache: tuple
    label_probs: np.ndarray
    mos_cache: tuple
    anchor_probs: np.ndarray
    anchor_cache: tuple

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

    token_ids is a group of equal-length sentences [sentences, tokens], run
    once with a leading sentence axis throughout; each sentence's slice
    equals its forward as a group of one bit for bit.  dropped holds the
    layer-dropout masks of a training forward (model.draw_layer_dropout),
    one per sentence; None is the evaluation forward.
    """
    e, enc_cache = model.encode_forward(params, token_ids, config.encoder_layers,
                                        dropped)
    qstates, source, q_cache = model.queries_forward(params, e)
    hidden, dec_cache = model.block_forward(params, "dec", qstates, memory=e)
    label_probs, mos_cache = heads.mos_forward_batch(hidden, params)
    anchor_probs, anchor_cache = heads.anchor_head(hidden, e, params["anchor.u"])
    return ForwardPass(enc_cache=enc_cache, source_tokens=source, query_cache=q_cache,
                       hidden=hidden, dec_cache=dec_cache, label_probs=label_probs,
                       mos_cache=mos_cache, anchor_probs=anchor_probs,
                       anchor_cache=anchor_cache)


def _length_chunks(lengths: Sequence[int], max_tokens: float) -> Iterator[list[int]]:
    """The positions of each length group, in order, in chunks of as many
    sentences as keep a chunk within max_tokens tokens (at least one; an
    empty sentence counts as one token)."""
    groups: dict[int, list[int]] = {}
    for position, length in enumerate(lengths):
        groups.setdefault(length, []).append(position)
    for length, positions in groups.items():
        room = max(int(max_tokens // max(length, 1)), 1)
        for first in range(0, len(positions), room):
            yield positions[first:first + room]


def match_queries(fwd: ForwardPass, row: int, example: Example,
                  params: dict) -> matcher.Assignment:
    """Align the queries of sentence row of the group pass to its gold
    nodes, breaking ties by the edge loss: the edge-presence plus edge-label
    loss sentence_losses computes for an assignment's queries."""
    hidden = fwd.hidden[row]

    def edge_nll(queries: tuple[int, ...]) -> float:
        sel = np.array(queries, dtype=np.int64)
        edge = _edge_losses(params, _group_edges([example]), hidden[sel][None],
                            np.ones((1, len(sel)), dtype=bool))
        return edge["edge_presence"][0] + edge["edge_label"][0]

    return matcher.align_targets(fwd.label_probs[row], fwd.anchor_probs[row],
                                 fwd.source_tokens, example.label_targets,
                                 example.anchored, edge_loglik=edge_nll)


def _group_edges(examples: Sequence[Example]) -> np.ndarray:
    """The gold edges of a group's examples, one a row: sentence, source,
    target, label id."""
    counts = [len(example.edges) for example in examples]
    return np.column_stack((np.repeat(np.arange(len(examples)), counts),
                            np.concatenate([example.edges for example in examples])))


def _edge_losses(params: dict, edges: np.ndarray, states: np.ndarray,
                 node_mask: np.ndarray,
                 ) -> dict[str, tuple[float, dict[str, np.ndarray], np.ndarray]]:
    """Edge losses over a group's matched states [sentences, M, dim], row j
    of a sentence its target j and node_mask [sentences, M] marking the
    rows that are targets, given the group's edges (_group_edges), as task
    -> (loss summed over the sentences, head parameter grads, grad wrt
    states): presence and label."""
    presence = np.zeros(node_mask.shape + node_mask.shape[-1:])
    presence[tuple(edges[:, :-1].T)] = 1.0
    p_logits, p_cache = heads.biaffine_forward(states, states, params["edgep.u"])
    loss, du, dstates = heads.edge_presence_loss(p_logits, p_cache, presence, node_mask)
    out = {"edge_presence": (loss, {"edgep.u": du}, dstates)}
    l_logits, l_cache = heads.biaffine_forward(states, states, params["edgel.u"])
    loss, du, dstates = heads.edge_label_loss(l_logits, l_cache, edges)
    out["edge_label"] = (loss, {"edgel.u": du}, dstates)
    return out


def _node_states(hidden: np.ndarray, sels: Sequence[np.ndarray]):
    """Rows sels[s] of each sentence s of hidden [sentences, queries, dim], in
    order, padded to the largest count: (states [sentences, M, dim],
    node_mask [sentences, M] marking the real rows, and the sentence and
    query of each real row in mask order)."""
    counts = np.array([len(sel) for sel in sels])
    node_mask = np.arange(counts.max()) < counts[:, None]
    sentence, query = np.repeat(np.arange(len(sels)), counts), np.concatenate(sels)
    states = np.zeros(node_mask.shape + hidden.shape[-1:])
    states[node_mask] = hidden[sentence, query]
    return states, node_mask, sentence, query


@dataclass
class SentenceGrads:
    """Per-task gradients of a group pass, tasks in TASKS order.

    Each head grad sums over the group's sentences; a task without a loss on
    any of them has no head grads, and one without a loss on a sentence a
    zero row of dhidden there.
    """

    head: dict[str, dict[str, np.ndarray]]     # per task, head parameter grads
    dhidden: np.ndarray                        # [tasks, sentences, queries, dim],
                                               # wrt decoder out
    anchor_dmemory: np.ndarray                 # [sentences, tokens, dim], the anchor
                                               # head's own grad wrt embeddings


def sentence_losses(params: dict, config: TrainConfig, examples: Sequence[Example],
                    fwd: ForwardPass, assignments: Sequence[matcher.Assignment],
                    ) -> tuple[dict[str, float], SentenceGrads]:
    """Per-task losses, each summed over the sentences of a group pass, and
    their gradients, given each sentence's query/node assignment.

    examples and assignments follow the pass's sentence axis.  Queries
    matched to no target contribute only the label loss, toward the null
    class.  Every head takes its loss and backward once for the group, each
    sentence keeping its own mean; the edge, property and top heads see each
    sentence's matched states padded to the group's largest target count.
    backward_sentence sums grads.head and takes grads.dhidden and
    grads.anchor_dmemory on through the network.
    """
    num_sentences, num_queries = fwd.hidden.shape[:2]
    losses: dict[str, float] = {}
    head: dict[str, dict[str, np.ndarray]] = {}
    row = {task: k for k, task in enumerate(TASKS)}
    dhidden = np.zeros((len(TASKS),) + fwd.hidden.shape)

    # every query's targets: the query of target j takes row j of its
    # sentence's, a null query the null class and no anchor loss; then label
    # smoothing mixes every row with the uniform distribution over the classes
    sels = [np.array(assignment.queries, dtype=np.int64) for assignment in assignments]
    num_classes = fwd.label_probs.shape[-1]
    label_targets = np.zeros_like(fwd.label_probs)
    label_targets[..., -1] = 1.0
    anchor_targets = np.zeros_like(fwd.anchor_probs)
    mask = np.zeros((num_sentences, num_queries), dtype=bool)
    for s, (example, sel) in enumerate(zip(examples, sels)):
        mask[s, sel] = True
        label_targets[s, sel] = example.label_targets
        anchor_targets[s, sel] = example.anchored
    smoothing = config.label_smoothing
    label_targets = (1.0 - smoothing) * label_targets + smoothing / num_classes

    # label loss over every query: every sentence has num_queries rows, so the
    # mean over the group's rows times the sentences sums each sentence's mean
    loss, dprobs = heads.label_loss(fwd.label_probs.reshape(-1, num_classes),
                                    label_targets.reshape(-1, num_classes),
                                    config.focal_gamma)
    losses["label"] = loss * num_sentences
    head["label"], dhidden[row["label"]] = heads.mos_backward_batch(
        fwd.mos_cache, dprobs.reshape(fwd.label_probs.shape) / num_queries)

    # anchor loss over queries matched to real nodes
    losses["anchor"], du, dhidden[row["anchor"]], anchor_dmemory = heads.anchor_loss(
        fwd.anchor_cache, anchor_targets, mask)
    head["anchor"] = {"anchor.u": du}

    # the other heads see each sentence's matched queries, sel (no repeats),
    # in target order, padded to the group's largest target count
    states, node_mask, sentence, query = _node_states(fwd.hidden, sels)

    def add(task: str, loss: float, grads: dict, dstates: np.ndarray):
        losses[task] = loss
        head[task] = grads
        dhidden[row[task], sentence, query] = dstates[node_mask]

    for task, (loss, grads, dstates) in _edge_losses(
            params, _group_edges(examples), states, node_mask).items():
        add(task, loss, grads, dstates)
    is_property = np.zeros(node_mask.shape)
    is_property[node_mask] = np.concatenate([e.is_property for e in examples])
    loss, dw, db, dstates = heads.property_loss(states, params["prop.w"],
                                                float(params["prop.b"]), is_property,
                                                node_mask)
    add("property", loss, {"prop.w": dw, "prop.b": np.array(db)}, dstates)
    tops = [s for s, example in enumerate(examples) if example.top_index is not None]
    if tops:
        loss, dw, dtop = heads.top_loss(states[tops], params["top.w"],
                                        [examples[s].top_index for s in tops],
                                        node_mask[tops])
        dstates = np.zeros_like(states)
        dstates[tops] = dtop
        add("top", loss, {"top.w": dw}, dstates)

    return losses, SentenceGrads(head=head, dhidden=dhidden, anchor_dmemory=anchor_dmemory)


def backward_sentence(params: dict, fwd: ForwardPass, grads: SentenceGrads,
                      weights: dict[str, float], scale: float,
                      total_grads: dict[str, np.ndarray],
                      task_sums: dict[str, np.ndarray]):
    """Every parameter grad of sum_t weights[t] * loss_t, times scale, into
    total_grads: first each head's own grads of grads.head, then the rest
    through one decoder backward on the weighted sum of the task gradients.

    fwd is a group pass (or one sentence's 2-D slice of one).
    grads.dhidden and grads.anchor_dmemory carry the pass's sentence axis
    after the task axis, and every grad sums over the sentences.  Each
    task's unweighted grads of the last shared layer (model.ffn_out_grads,
    [tasks, *shape] per key), times scale, go into task_sums for the balance
    norms."""
    for task, head in grads.head.items():
        for key, grad in head.items():
            model.add_grad(total_grads, key, weights[task] * scale * grad)
    for key, grad in model.ffn_out_grads("dec", fwd.dec_cache, grads.dhidden).items():
        model.add_grad(task_sums, key, grad, scale)
    dy = sum(weights[task] * grads.dhidden[row] for row, task in enumerate(TASKS))
    dquery, dmemory = model.block_backward(params, "dec", fwd.dec_cache, scale * dy,
                                           total_grads)
    dmemory += (scale * weights["anchor"]) * grads.anchor_dmemory
    de = model.queries_backward(params, fwd.query_cache, dquery, total_grads)
    model.encode_backward(params, fwd.enc_cache, de + dmemory, total_grads)


# ---------------------------------------------------------------------------
# optimizer

class AdamW:
    """Adaptive moments with decoupled weight decay, two learning-rate groups."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    @staticmethod
    def group(key: str) -> str:
        return "encoder" if key == "emb" or key == "mix" or key.startswith("enc") \
            else "rest"

    def step(self, params: dict, grads: dict, lr_encoder: float, lr_rest: float,
             weight_decay: float):
        """In place, in the out-of-place operation order, so it rounds the same."""
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for key, grad in grads.items():
            lr = lr_encoder if self.group(key) == "encoder" else lr_rest
            if lr == 0.0:
                continue
            m, v, param = self.m[key], self.v[key], params[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            param -= lr * (update + weight_decay * param)


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

    @functools.cached_property
    def max_tokens(self) -> float:
        """The cache-token budget that cuts every length group (_length_chunks)
        of train, evaluate and predict_batch: the tokens of forward caches
        that take the bytes of AdamW's two moments, twice the parameters, at
        the cache bytes per token of a one-token forward, measured once per
        model.  A training step holds the parameters, their gradient sum and
        the moments anyway, so one group chunk's caches, and the gradients
        its backward forms from them, stay about that size."""
        moments = 2 * sum(value.nbytes for value in self.params.values())
        one_token = np.zeros((1, 1), dtype=np.int64)
        return moments / forward_sentence(self.params, self.meta.config,
                                          one_token).nbytes(self.params)


def split_corpus(graphs: Sequence[Graph], eval_fraction: float,
                 ) -> tuple[list[Graph], list[Graph]]:
    held_out = max(1, int(round(len(graphs) * eval_fraction)))
    return list(graphs[:-held_out]), list(graphs[-held_out:])


def prepare(config: TrainConfig, graphs: Optional[Sequence[Graph]] = None):
    """Vocabulary, rule table and examples for a training run; returns
    (meta, training examples, held-out graphs)."""
    if graphs is None:
        graphs = synth_corpus(config.seed, config.corpus_size)
    train_graphs, eval_graphs = split_corpus(graphs, config.eval_fraction)
    if not train_graphs:
        raise TrainError(f"eval_fraction {config.eval_fraction} holds out every graph "
                         f"of a {len(graphs)}-graph corpus, leaving none to train on")
    other = next((g for g in graphs if g.framework != "eds"), None)
    if other is not None:
        raise TrainError(f"graph {other.id} is {other.framework}; training takes eds "
                         f"graphs only")
    unlabeled = next(((g, n) for g in train_graphs for n in g.nodes if n.label is None),
                     None)
    if unlabeled is not None:
        raise TrainError(f"training graph {unlabeled[0].id} node {unlabeled[1].id} has "
                         f"no label; every training node needs one to learn")
    gold = [preprocess_gold(g) for g in train_graphs]
    # preprocessing labels every node, so label_items lists them all, graph
    # by graph in node order
    items, names = rules.label_items([pre for pre, _ in gold])
    problem = rules.build_problem(items, names=names)
    solution = rules.minimal_rule_set(problem)
    row_of = {u: row for row, u in enumerate(solution)}
    retained = frozenset(solution)
    node_rows = iter([sorted(row_of[u] for u in applicable & retained)
                      for applicable in problem.per_node])
    table = tuple(problem.universe[u] for u in solution)
    del items, names, problem  # not held while the examples are built: a lower peak
    edge_labels, inverted_labels = edge_label_vocab(gold)
    meta = ModelMeta(vocab=build_vocab(train_graphs), rule_table=table,
                     edge_labels=edge_labels, config=config,
                     inverted_labels=inverted_labels)
    examples = [build_example(g, pre, meta, [next(node_rows) for _ in pre.nodes])
                for g, (pre, _) in zip(train_graphs, gold)]
    for example in examples:
        if not len(example.token_ids):
            raise TrainError(f"training graph {example.gold.id} has no tokens, so no "
                             f"queries to train on")
    return meta, examples, eval_graphs


def evaluate(trained: TrainedModel, graphs: Sequence[Graph]) -> dict[str, float]:
    """Held-out F1 per metric under the anchored-tuple scorer."""
    predictions = predict_batch(trained, [g.input for g in graphs])
    reports = [scorer.score_pair(g, p) for g, p in zip(graphs, predictions)]
    total = scorer.aggregate(reports)
    return {name: total.metrics[name].f1 for name in EVAL_METRICS}


def train(config: TrainConfig, graphs: Optional[Sequence[Graph]] = None,
          on_epoch: Optional[Callable[[dict], None]] = None,
          ) -> tuple[TrainedModel, list[dict]]:
    """Train the toy parser; returns the model and per-epoch metric records."""
    meta, examples, eval_graphs = prepare(config, graphs)
    rng = np.random.default_rng(config.seed)
    params = init_model(meta, rng)
    trained = TrainedModel(params=params, meta=meta)
    optimizer = AdamW(params)
    weights = dict.fromkeys(TASKS, 1.0)
    initial_losses = None
    metrics: list[dict] = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_losses = {t: 0.0 for t in TASKS}
        epoch_warnings: set[str] = set()  # balance and tie-break fallbacks
        num_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[start:start + config.batch_size]]
            total_grads: dict[str, np.ndarray] = {}
            task_sums: dict[str, np.ndarray] = {}
            task_losses = {t: 0.0 for t in TASKS}
            scale = 1.0 / len(batch)
            # masks in batch order, as the rng stream had them one sentence at a time
            masks = [model.draw_layer_dropout(rng, config.encoder_layers + 1,
                                              config.layer_dropout)
                     for _ in batch] if config.layer_dropout > 0.0 else None
            for chunk in _length_chunks([len(e.token_ids) for e in batch], trained.max_tokens):
                group = [batch[p] for p in chunk]
                fwd = forward_sentence(
                    params, config, np.stack([e.token_ids for e in group]),
                    None if masks is None else np.stack([masks[p] for p in chunk]))
                assignments = [match_queries(fwd, row, example, params)
                               for row, example in enumerate(group)]
                for assignment in assignments:
                    epoch_warnings.update(assignment.warnings)
                losses, grads = sentence_losses(params, config, group, fwd, assignments)
                for task, loss in losses.items():
                    task_losses[task] += loss * scale
                backward_sentence(params, fwd, grads, weights, scale, total_grads,
                                  task_sums)
                # freed before the next chunk's forward, the optimizer step and
                # evaluate: the cache-token budget counts one chunk's caches
                del fwd, assignments, losses, grads
            if not all(np.isfinite(v).all() for v in total_grads.values()):
                raise DivergenceError(f"non-finite gradients at step {step}")
            lr_encoder, lr_rest = lr_schedule(step, config)
            optimizer.step(params, total_grads, lr_encoder, lr_rest,
                           config.weight_decay)
            if any(not np.isfinite(v) for v in task_losses.values()):
                raise DivergenceError(f"non-finite loss at step {step}")
            if initial_losses is None:
                initial_losses = dict(task_losses)
            grad_norms = {t: weights[t] * float(np.sqrt(sum(
                (g[row] * g[row]).sum() for g in task_sums.values())))
                for row, t in enumerate(TASKS)}
            weights, warnings = balance.update_loss_weights(
                grad_norms, task_losses, initial_losses, weights,
                config.balance_alpha, config.balance_lr)
            epoch_warnings.update(warnings)
            for t in TASKS:
                epoch_losses[t] += task_losses[t]
            num_batches += 1
            step += 1
        f1 = evaluate(trained, eval_graphs)
        record = {"epoch": epoch + 1,
                  "losses": {t: epoch_losses[t] / max(num_batches, 1) for t in TASKS},
                  "weights": {t: weights[t] for t in TASKS},
                  "f1": f1,
                  "warnings": sorted(epoch_warnings)}
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
    """Parse sentences, one forward per length-group chunk as training cuts
    them (by trained.max_tokens); each graph equals predict of its sentence."""
    meta = trained.meta
    tokens = [whitespace_tokens(sentence) for sentence in sentences]
    # a sentence without tokens has no queries: its graph takes no forward
    graphs = [None if t else decoded_graph(meta, sentence, t, (), (), None, set())
              for sentence, t in zip(sentences, tokens)]
    for chunk in _length_chunks([len(t) for t in tokens], trained.max_tokens):
        if tokens[chunk[0]]:
            for position, graph in zip(chunk, _decode(trained, [sentences[p] for p in chunk],
                                                      [tokens[p] for p in chunk])):
                graphs[position] = graph
    return graphs


def _decode(trained: TrainedModel, sentences: Sequence[str],
            tokens: Sequence[tuple[Token, ...]]) -> list[Graph]:
    """The graphs of a group of equal-length sentences, from one forward
    that is freed on return.  Labels, anchors and the (label, anchors)
    de-duplication go query by query; the property, top and edge heads then
    run once for the group on each sentence's accepted queries, padded as in
    sentence_losses."""
    params, meta = trained.params, trained.meta
    fwd = forward_sentence(params, meta.config, np.stack([meta.token_ids(t) for t in tokens]))
    candidates = fwd.label_probs.argmax(axis=-1) != len(meta.rule_table)
    anchored = fwd.anchor_probs >= 0.5

    # decode labels/anchors, dropping duplicate (label, anchors) realizations
    accepted, decoded = [], []
    for s, sentence_tokens in enumerate(tokens):
        queries, nodes, seen = [], [], set()
        for query in np.flatnonzero(candidates[s]):
            picked = [sentence_tokens[t] for t in np.flatnonzero(anchored[s, query])]
            label = rules.decode_label(fwd.label_probs[s, query],
                                       [t.form for t in picked],
                                       [t.lemma for t in picked], meta.rule_table)
            anchors = (Anchor(min(t.start for t in picked),
                              max(t.end for t in picked)),) if picked else ()
            # no rule realizes a label from the anchored tokens: a null
            if label is not None and (label, anchors) not in seen:
                seen.add((label, anchors))
                queries.append(query)
                nodes.append((label, anchors))
        accepted.append(np.array(queries, dtype=np.int64))
        decoded.append(nodes)

    states, node_mask, _, _ = _node_states(fwd.hidden, accepted)
    is_property = heads.sigmoid(states @ params["prop.w"] + float(params["prop.b"])) >= 0.5
    top_logits = np.where(node_mask, states @ params["top.w"], -np.inf)
    # a group in which no sentence accepted a query has no top to take
    tops = top_logits.argmax(axis=-1).tolist() if top_logits.size else [0] * len(tokens)
    p_logits, _ = heads.biaffine_forward(states, states, params["edgep.u"])
    l_logits, _ = heads.biaffine_forward(states, states, params["edgel.u"])
    # edgel.u keeps one class when the corpus has no edge label: no edge then
    present = ((heads.sigmoid(p_logits[:, 0]) >= 0.5) & node_mask[:, :, None]
               & node_mask[:, None, :] & ~np.eye(node_mask.shape[1], dtype=bool)
               & bool(meta.edge_labels))
    # one edge per present pair, with the pair's best label
    best = l_logits.argmax(axis=1)
    edges: list[list[Edge]] = [[] for _ in tokens]
    for s, a, b in np.argwhere(present).tolist():
        edges[s].append(Edge(source=a, target=b, label=meta.edge_labels[best[s, a, b]]))

    return [decoded_graph(meta, sentence, tokens[s], decoded[s], edges[s], tops[s],
                          set(np.flatnonzero(is_property[s, :len(decoded[s])]).tolist()))
            for s, sentence in enumerate(sentences)]


def decoded_graph(meta: ModelMeta, sentence: str, tokens: tuple[Token, ...],
                  nodes: Sequence[tuple[str, tuple[Anchor, ...]]], edges: Sequence[Edge],
                  top: Optional[int], property_flags: set[int]) -> Graph:
    """One parsed sentence's graph, built as the inverse of preprocess_gold:
    node j is nodes[j], a (label, anchors) pair, with id j; edges, top and
    property_flags name such ids.  Flagged nodes fold back into properties,
    then de-inverted labels re-invert where the walk from the top needs it."""
    out = Graph(id="pred-0", framework="eds", flavor=1, input=sentence,
                nodes=tuple(Node(id=j, label=label, anchors=anchors, is_top=j == top)
                            for j, (label, anchors) in enumerate(nodes)),
                edges=tuple(edges), tokens=tokens)
    if property_flags:
        out = transform.fold_property_nodes(out, property_flags)
    if meta.inverted_labels:
        out = transform.reinvert_edges_for_top(
            out, invertible_labels=set(meta.inverted_labels))
    return out
