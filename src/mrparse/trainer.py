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
from typing import Callable, Optional, Sequence

import numpy as np

from . import balance, heads, matcher, model, rules, scorer, transform
from .graph import (Anchor, Edge, Graph, Node, Token, anchored_token_indices,
                    graph_tokens, whitespace_tokens)
from .corpus import synth_corpus

UNK_TOKEN = "<unk>"
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
    value = json.loads(text)
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
            elif kind == "int":
                values[name] = int(text)
            elif kind == "float":
                values[name] = float(text)
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


def preprocess_gold(g: Graph, config: TrainConfig) -> tuple[Graph, transform.TransformTrace]:
    """Nodeify, optionally de-invert, and merge anchors; merged trace."""
    pre, trace = transform.preprocess("eds", g)
    if config.deinvert_edges:
        pre, inv = transform.normalize_inverted_edges(pre)
        trace = transform.TransformTrace(nodeified=trace.nodeified,
                                         deinverted=inv.deinverted,
                                         flagged=inv.flagged)
    return pre, trace


def compile_rule_table(graphs: Sequence[Graph], config: TrainConfig,
                       cache_dir: str | None = None,
                       ) -> tuple[tuple[rules.RelativeRule, ...], rules.RuleSetProblem]:
    """Solve the minimal encoding rule set over the preprocessed corpus."""
    items, names = rules.label_items([preprocess_gold(g, config)[0] for g in graphs])
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


def build_example(g: Graph, meta: ModelMeta) -> Example:
    config = meta.config
    pre, trace = preprocess_gold(g, config)
    property_ids = {node_id for _, _, node_id in trace.nodeified}
    tokens = graph_tokens(pre)
    token_ids = np.array([meta.vocab.get(t.form, meta.vocab[UNK_TOKEN]) for t in tokens],
                         dtype=np.int64)
    targets = []
    index_of = {}
    for node in pre.nodes:
        index_of[node.id] = len(targets)
        anchored = anchored_token_indices(node, tokens)
        forms = tuple(tokens[i].form for i in anchored)
        lemmas = tuple(tokens[i].lemma for i in anchored)
        label = node.label or ""
        applicable = tuple(k for k, rule in enumerate(meta.rule_table)
                           if rules.apply_rule(rule, forms, lemmas) == label)
        plain = rules.build_rule_target(applicable, len(meta.rule_table), 0.0)
        smoothed = rules.build_rule_target(applicable, len(meta.rule_table),
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


def edge_label_vocab(graphs: Sequence[Graph], config: TrainConfig,
                     ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Edge-label inventory plus the labels produced by de-inversion."""
    labels = set()
    inverted = set()
    for g in graphs:
        pre, trace = preprocess_gold(g, config)
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
    params["label.proj_w"] = mos.proj_w
    params["label.proj_b"] = mos.proj_b
    params["label.gate_w"] = mos.gate_w
    params["label.gate_b"] = mos.gate_b
    params["label.out_w"] = mos.out_w
    params["label.out_b"] = mos.out_b
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
    return heads.MoSParams(proj_w=params["label.proj_w"], proj_b=params["label.proj_b"],
                           gate_w=params["label.gate_w"], gate_b=params["label.gate_b"],
                           out_w=params["label.out_w"], out_b=params["label.out_b"])


@dataclass
class ForwardPass:
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


def forward_sentence(params: dict, config: TrainConfig, token_ids: np.ndarray,
                     rng: Optional[np.random.Generator] = None,
                     train: bool = False) -> ForwardPass:
    e, enc_cache = model.encode_forward(
        params, token_ids, config.encoder_layers,
        rng=rng if train else None,
        layer_dropout=config.layer_dropout if train else 0.0)
    qstates, source, q_cache = model.queries_forward(params, e)
    hidden, dec_cache = model.block_forward(params, "dec", qstates, memory=e)
    label_probs, mos_cache = heads.mos_forward_batch(hidden, mos_params_view(params))
    anchor_probs, anchor_cache = heads.anchor_head(hidden, e, params["anchor.u"])
    return ForwardPass(embeddings=e, enc_cache=enc_cache, query_states=qstates,
                       source_tokens=source, query_cache=q_cache, hidden=hidden,
                       dec_cache=dec_cache, label_probs=label_probs,
                       mos_cache=mos_cache, anchor_probs=anchor_probs,
                       anchor_cache=anchor_cache)


def match_queries(config: TrainConfig, fwd: ForwardPass, example: Example,
                  params: dict) -> matcher.Assignment:
    """Align queries to gold nodes, breaking ties by the edge loss."""
    predictions = matcher.PredictionSpec(label_probs=fwd.label_probs,
                                         anchor_probs=fwd.anchor_probs,
                                         source_tokens=fwd.source_tokens)
    match_config = matcher.MatchConfig(use_anchor_mask=config.use_anchor_mask,
                                       mask_epsilon=config.mask_epsilon)

    def edge_nll(perm: tuple[int, ...]) -> float:
        query_for_node = {}
        for query, target in enumerate(perm):
            if target < len(example.targets):
                query_for_node[target] = query
        order = sorted(query_for_node)
        sel = [query_for_node[j] for j in order]
        states = fwd.hidden[sel]
        m = len(sel)
        node_pos = {j: k for k, j in enumerate(order)}
        presence, pairs, labels = _edge_targets(example.edges, node_pos, m,
                                                config.edge_multilabel)
        p_logits, p_cache = heads.biaffine_forward(states, states, params["edgep.u"])
        loss_p, _, _ = heads.edge_presence_loss(p_logits, p_cache, presence)
        l_logits, l_cache = heads.biaffine_forward(states, states, params["edgel.u"])
        loss_l, _, _ = heads.edge_label_loss(l_logits, l_cache, pairs, labels,
                                             config.edge_multilabel)
        return loss_p + loss_l

    return matcher.align_targets(predictions, example.targets, match_config, edge_nll)


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


@dataclass
class SentenceGrads:
    """Per-task gradients of one sentence.

    The decoder block runs one backward on the stacked [tasks, queries, dim]
    output gradient, tasks in config.active_tasks() order; a task without a
    loss on this sentence has a zero row.  dec, dquery and dmemory keep that
    leading task axis, so row t is exactly what a backward on task t alone
    would give; the anchor row of dmemory also carries the anchor head's own
    gradient with respect to the embeddings.
    """

    dec: dict[str, np.ndarray]                 # decoder key -> [tasks, *shape]
    head: dict[str, dict[str, np.ndarray]]     # per task, head parameter grads
    dhidden: dict[str, np.ndarray]             # per task, grad wrt decoder output
    dquery: np.ndarray                         # [tasks, queries, dim]
    dmemory: np.ndarray                        # [tasks, tokens, dim]


def sentence_losses(params: dict, config: TrainConfig, example: Example,
                    fwd: ForwardPass, assignment: matcher.Assignment,
                    compute_grads: bool = True,
                    ) -> tuple[dict[str, float], Optional[SentenceGrads], list]:
    """Per-task losses for one sentence given the query/node assignment.

    Queries matched to null targets contribute only the label loss.  Returns
    (losses, grads, pairing) where pairing lists (query, NodeTarget or None).
    """
    num_queries = fwd.hidden.shape[0]
    num_targets = len(example.targets)
    matched = {}
    pairing = []
    for query, target in enumerate(assignment.perm):
        node = example.targets[target] if target < num_targets else None
        if node is not None:
            matched[target] = query
        pairing.append((query, node))

    losses: dict[str, float] = {}
    dh: dict[str, np.ndarray] = {}
    head: dict[str, dict[str, np.ndarray]] = {}
    anchor_dmemory = None
    active = set(config.active_tasks())

    # label loss over every query (null queries get the null class target)
    null_target = rules.build_rule_target((), len(fwd.label_probs[0]) - 1,
                                          config.label_smoothing, is_null=True)
    target_matrix = np.stack([node.target_smoothed if node is not None else null_target
                              for _, node in pairing])
    loss_label, dprob_matrix = heads.label_loss(fwd.label_probs, target_matrix,
                                                config.focal_gamma)
    losses["label"] = loss_label
    if compute_grads:
        mos_grads, dlabel = heads.mos_backward_batch(fwd.mos_cache,
                                                     dprob_matrix / num_queries)
        dh["label"] = dlabel
        head["label"] = {f"label.{n}": getattr(mos_grads, n)
                         for n in ("proj_w", "proj_b", "gate_w", "gate_b",
                                   "out_w", "out_b")}

    # anchor loss over queries matched to real nodes
    if "anchor" in active:
        anchor_targets = np.zeros_like(fwd.anchor_probs)
        mask = np.zeros(num_queries, dtype=bool)
        for query, node in pairing:
            if node is not None:
                mask[query] = True
                anchor_targets[query] = node.anchor_vector
        loss, du, dx, dy = heads.anchor_loss(fwd.anchor_cache, anchor_targets, mask)
        losses["anchor"] = loss
        if compute_grads:
            dh["anchor"] = dx
            head["anchor"] = {"anchor.u": du}
            anchor_dmemory = dy

    order = sorted(matched)
    sel = [matched[j] for j in order]
    node_pos = {j: k for k, j in enumerate(order)}
    states = fwd.hidden[sel]
    m = len(sel)

    def scatter(dstates: np.ndarray) -> np.ndarray:
        out = np.zeros_like(fwd.hidden)
        out[sel] = dstates  # sel has no repeats
        return out

    if "edge_presence" in active:
        presence, pairs, labels = _edge_targets(example.edges, node_pos, m,
                                                config.edge_multilabel)
        p_logits, p_cache = heads.biaffine_forward(states, states, params["edgep.u"])
        loss, du, dstates = heads.edge_presence_loss(p_logits, p_cache, presence)
        losses["edge_presence"] = loss
        if compute_grads:
            dh["edge_presence"] = scatter(dstates)
            head["edge_presence"] = {"edgep.u": du}

        l_logits, l_cache = heads.biaffine_forward(states, states, params["edgel.u"])
        loss, du, dstates = heads.edge_label_loss(l_logits, l_cache, pairs, labels,
                                                  config.edge_multilabel)
        losses["edge_label"] = loss
        if compute_grads:
            dh["edge_label"] = scatter(dstates)
            head["edge_label"] = {"edgel.u": du}

        if "edge_attribute" in active:
            # toy gold edges carry no attributes: every pair targets class 0
            a_logits, a_cache = heads.biaffine_forward(states, states, params["edgea.u"])
            loss, du, dstates = heads.edge_attribute_loss(
                a_logits, a_cache, pairs, [0] * len(pairs))
            losses["edge_attribute"] = loss
            if compute_grads:
                dh["edge_attribute"] = scatter(dstates)
                head["edge_attribute"] = {"edgea.u": du}

    if "property" in active:
        prop_targets = np.array([1.0 if example.targets[j].is_property else 0.0
                                 for j in order])
        loss, dw, db, dstates = heads.property_loss(states, params["prop.w"],
                                                    float(params["prop.b"]), prop_targets)
        losses["property"] = loss
        if compute_grads:
            dh["property"] = scatter(dstates)
            head["property"] = {"prop.w": dw, "prop.b": np.array(db)}

    if "top" in active and example.top_index is not None and m > 0:
        gold = node_pos[example.top_index]
        loss, dw, db, dstates = heads.top_loss(states, params["top.w"],
                                               float(params["top.b"]), gold)
        losses["top"] = loss
        if compute_grads:
            dh["top"] = scatter(dstates)
            head["top"] = {"top.w": dw, "top.b": np.array(db)}

    if not compute_grads:
        return losses, None, pairing
    tasks = config.active_tasks()
    zeros = np.zeros_like(fwd.hidden)
    dec: dict[str, np.ndarray] = {}
    dquery, dmemory = model.block_backward(
        params, "dec", fwd.dec_cache, np.stack([dh.get(t, zeros) for t in tasks]), dec)
    if anchor_dmemory is not None:
        dmemory[tasks.index("anchor")] += anchor_dmemory
    grads = SentenceGrads(dec=dec, head=head, dhidden=dh, dquery=dquery,
                          dmemory=dmemory)
    return losses, grads, pairing


def sentence_total_loss(params: dict, config: TrainConfig, example: Example,
                        weights: Optional[dict[str, float]] = None,
                        ) -> tuple[float, list]:
    """Forward-only total loss of one sentence; used by invariance checks."""
    fwd = forward_sentence(params, config, example.token_ids)
    assignment = match_queries(config, fwd, example, params)
    losses, _, pairing = sentence_losses(params, config, example, fwd, assignment,
                                         compute_grads=False)
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
        meta = ModelMeta(vocab=vocab, rule_table=table, edge_labels=edge_labels,
                         config=TrainConfig(**config_obj), inverted_labels=inverted)
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
    table, problem = compile_rule_table(train_graphs, config, cache_dir=cache_dir)
    edge_labels, inverted_labels = edge_label_vocab(train_graphs, config)
    meta = ModelMeta(vocab=build_vocab(train_graphs), rule_table=table,
                     edge_labels=edge_labels, config=config,
                     inverted_labels=inverted_labels)
    examples = [build_example(g, meta) for g in train_graphs]
    return meta, examples, train_graphs, eval_graphs, problem


def evaluate(trained: TrainedModel, graphs: Sequence[Graph]) -> dict[str, float]:
    """Held-out F1 per metric under the anchored-tuple scorer."""
    reports = [scorer.score_pair(g, predict(trained, g.input)) for g in graphs]
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
            for example in batch:
                fwd = forward_sentence(params, config, example.token_ids,
                                       rng=rng, train=True)
                assignment = match_queries(config, fwd, example, params)
                losses, grads, _ = sentence_losses(params, config, example, fwd,
                                                   assignment)
                if not dec_accum:
                    dec_accum = {key: np.zeros_like(g) for key, g in grads.dec.items()}
                for key, grad in grads.dec.items():
                    dec_accum[key] += scale * grad
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
    params = trained.params
    meta = trained.meta
    config = meta.config
    tokens = whitespace_tokens(sentence)
    if not tokens:
        return Graph(id="pred-0", framework="eds", flavor=1, input=sentence,
                     tokens=tokens)
    token_ids = np.array([meta.vocab.get(t.form, meta.vocab[UNK_TOKEN])
                          for t in tokens], dtype=np.int64)
    fwd = forward_sentence(params, config, token_ids)
    null_class = len(meta.rule_table)
    candidates = [q for q in range(fwd.hidden.shape[0])
                  if int(np.argmax(fwd.label_probs[q])) != null_class]

    # decode labels/anchors, dropping duplicate (label, anchors) realizations
    accepted = []
    decoded = []
    seen = set()
    for query in candidates:
        anchored = [t for t in range(len(tokens))
                    if fwd.anchor_probs[query, t] >= 0.5]
        forms = [tokens[t].form for t in anchored]
        lemmas = [tokens[t].lemma for t in anchored]
        label = rules.decode_label(fwd.label_probs[query], forms, lemmas,
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
        prop_probs, _ = heads.property_head(fwd.hidden[accepted], params["prop.w"],
                                            float(params["prop.b"]))
        top_probs = heads.top_head(fwd.hidden[accepted], params["top.w"],
                                   float(params["top.b"])) if config.use_top_head else None
    for position, (label, anchors) in enumerate(decoded):
        is_top = bool(config.use_top_head and top_probs is not None
                      and position == int(np.argmax(top_probs)))
        nodes.append(Node(id=position, label=label, anchors=anchors, is_top=is_top))
        if config.use_property_head and prop_probs[position] >= 0.5:
            property_flags.add(position)

    edges = []
    if accepted:
        states = fwd.hidden[accepted]
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
