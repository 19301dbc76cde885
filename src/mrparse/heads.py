"""Classification heads and losses as pure numeric functions.

Every head comes as a forward/backward pair with analytically derived
gradients (checked against central finite differences in the test suite).
The label head and focal loss take stacks of rows; one query is a batch of
one.  All computation is double precision numpy; there is no autodiff engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class HeadError(Exception):
    pass


class ValidationError(HeadError):
    pass


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _check_distribution(p: np.ndarray, name: str):
    if (p.ndim not in (1, 2) or (p < -1e-12).any()
            or (np.abs(p.sum(axis=-1) - 1.0) > 1e-6).any()):
        raise ValidationError(f"{name} is not a probability distribution")


# ---------------------------------------------------------------------------
# mixture of softmaxes

@dataclass
class MoSParams:
    """K-component mixture of softmaxes over the rule classes."""

    proj_w: np.ndarray   # (K, D, D)
    proj_b: np.ndarray   # (K, D)
    gate_w: np.ndarray   # (K, D)
    gate_b: np.ndarray   # (K,)
    out_w: np.ndarray    # (D, V)
    out_b: np.ndarray    # (V,)


def init_mos(rng: np.random.Generator, dim: int, num_classes: int,
             components: int, scale: float = 0.1) -> MoSParams:
    return MoSParams(
        proj_w=rng.normal(0.0, scale, (components, dim, dim)),
        proj_b=np.zeros((components, dim)),
        gate_w=rng.normal(0.0, scale, (components, dim)),
        gate_b=np.zeros(components),
        out_w=rng.normal(0.0, scale, (dim, num_classes)),
        out_b=np.zeros(num_classes))


def mos_forward_batch(h: np.ndarray, params: MoSParams):
    """Mixture distributions for a stack of query vectors (N, D).

    Returns (probs (N, V), cache).  Gates are sigmoid-normalized (each gate
    squashed independently, then divided by the gate sum), not a softmax
    over gate logits.  h may carry leading sentence axes, which every
    result keeps; each stack is computed exactly as on its own.
    """
    x = np.tanh(np.einsum("kde,...ne->...nkd", params.proj_w, h) + params.proj_b)
    gate_logits = h @ params.gate_w.T + params.gate_b
    gates = sigmoid(gate_logits)
    totals = gates.sum(axis=-1)
    if (totals < 1e-300).any():
        raise HeadError("all mixture gates underflowed to zero")
    weights = gates / totals[..., None]
    logits = x @ params.out_w + params.out_b
    components = softmax(logits, axis=-1)
    probs = np.einsum("...nk,...nkv->...nv", weights, components)
    return probs, (h, params, x, gates, weights, components)


def mos_backward_batch(cache, dprobs: np.ndarray):
    """Gradient of a scalar through the mixture; returns (grads summed over rows, dh)."""
    h, params, x, gates, weights, components = cache
    dcomponents = weights[:, :, None] * dprobs[:, None, :]
    dweights = np.einsum("nkv,nv->nk", components, dprobs)
    dlogits = components * (dcomponents
                            - (dcomponents * components).sum(axis=-1, keepdims=True))
    dout_w = np.einsum("nkd,nkv->dv", x, dlogits)
    dout_b = dlogits.sum(axis=(0, 1))
    dx = dlogits @ params.out_w.T
    dpre = (1.0 - x * x) * dx
    dproj_w = np.einsum("nkd,ne->kde", dpre, h)
    dproj_b = dpre.sum(axis=0)
    dh = np.einsum("nkd,kde->ne", dpre, params.proj_w)
    totals = gates.sum(axis=-1, keepdims=True)
    dgates = (dweights - (dweights * weights).sum(axis=-1, keepdims=True)) / totals
    dgate_logits = gates * (1.0 - gates) * dgates
    dgate_w = dgate_logits.T @ h
    dgate_b = dgate_logits.sum(axis=0)
    dh = dh + dgate_logits @ params.gate_w
    grads = MoSParams(proj_w=dproj_w, proj_b=dproj_b, gate_w=dgate_w,
                      gate_b=dgate_b, out_w=dout_w, out_b=dout_b)
    return grads, dh


def mos_distribution(h: np.ndarray, params: MoSParams) -> np.ndarray:
    probs, _ = mos_forward_batch(h[None, :], params)
    return probs[0]


# ---------------------------------------------------------------------------
# focal label loss

def label_loss(pred: np.ndarray, target: np.ndarray, gamma: float):
    """Focal-weighted cross-entropy between distributions, row by row.

    loss = (1 - p_t)^gamma * H(target, pred) with p_t the predicted mass on
    the target distribution; gamma = 0 recovers the plain (smoothed)
    cross-entropy.  pred and target are (N, V) rows or one (V,) row.
    Returns (mean loss over rows, per-row dloss/dpred not divided by N).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_distribution(pred, "pred")
    _check_distribution(target, "target")
    rows, targets = np.atleast_2d(pred, target)
    safe = np.maximum(rows, 1e-300)
    entropy = -(targets * np.log(safe)).sum(axis=-1)
    p_t = (targets * rows).sum(axis=-1)
    one_minus = np.maximum(1.0 - p_t, 0.0)
    factor = one_minus ** gamma
    loss = float((factor * entropy).sum()) / rows.shape[0]
    dpred = -factor[:, None] * targets / safe
    if gamma > 0.0:
        slope = np.zeros_like(one_minus)
        positive = one_minus > 0.0
        slope[positive] = gamma * one_minus[positive] ** (gamma - 1.0) * entropy[positive]
        dpred = dpred - slope[:, None] * targets
    return loss, dpred.reshape(pred.shape)


def label_head_loss(h: np.ndarray, params: MoSParams, target: np.ndarray,
                    gamma: float):
    """Focal label loss through the mixture head; grads wrt h and params."""
    probs, cache = mos_forward_batch(h[None, :], params)
    loss, dprobs = label_loss(probs, target, gamma)
    grads, dh = mos_backward_batch(cache, dprobs)
    return loss, dh[0], grads


# ---------------------------------------------------------------------------
# biaffine scoring

def init_biaffine(rng: np.random.Generator, num_classes: int, dim_x: int,
                  dim_y: int, scale: float = 0.1) -> np.ndarray:
    return rng.normal(0.0, scale, (num_classes, dim_x + 1, dim_y + 1))


def _augment(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def biaffine_forward(x: np.ndarray, y: np.ndarray, u: np.ndarray):
    """Pairwise bilinear scores over bias-augmented inputs.

    x: (Nx, Dx), y: (Ny, Dy), u: (C, Dx+1, Dy+1); the appended constant 1
    lets the bilinear form subsume the linear and bias terms.  Returns
    (logits (C, Nx, Ny), cache).  x and y may share leading sentence axes,
    which the logits and the cached inputs keep.
    """
    xa = _augment(x)
    ya = _augment(y)
    uy = u @ np.swapaxes(ya, -1, -2)[..., None, :, :]    # (C, Dx+1, Ny)
    logits = xa[..., None, :, :] @ uy                    # (C, Nx, Ny)
    return logits, (xa, ya, u)


def biaffine_backward(cache, dlogits: np.ndarray):
    """Returns (du, dx, dy) for upstream gradients on the logits."""
    xa, ya, u = cache
    dy_side = dlogits @ ya                       # (C, Nx, Dy+1)
    du = xa.T @ dy_side                          # (C, Dx+1, Dy+1)
    dxa = (dy_side @ u.transpose(0, 2, 1)).sum(axis=0)
    dya = (dlogits.transpose(0, 2, 1) @ (xa @ u)).sum(axis=0)
    return du, dxa[:, :-1], dya[:, :-1]


# ---------------------------------------------------------------------------
# anchor head

def anchor_head(query_states: np.ndarray, token_states: np.ndarray,
                u: np.ndarray):
    """Anchor presence probability for every (query, token) pair; the states
    may share leading sentence axes."""
    logits, cache = biaffine_forward(query_states, token_states, u)
    logits = logits[..., 0, :, :]
    return sigmoid(logits), (logits, cache)


def anchor_loss(head_cache, targets: np.ndarray,
                query_mask: Optional[np.ndarray] = None):
    """Mean binary cross-entropy over the (masked) query/token grid.

    Returns (loss, du, dquery_states, dtoken_states).  query_mask selects the
    rows that participate (queries matched to real nodes).
    """
    logits, cache = head_cache
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.ones(logits.shape[0], dtype=bool) if query_mask is None else query_mask
    count = int(mask.sum()) * logits.shape[1]
    if count == 0:
        zero = np.zeros_like
        return 0.0, zero(cache[2]), zero(cache[0][:, :-1]), zero(cache[1][:, :-1])
    bce = softplus(logits) - targets * logits
    loss = float(bce[mask].sum()) / count
    dlogits = np.where(mask[:, None], (sigmoid(logits) - targets) / count, 0.0)
    du, dx, dy = biaffine_backward(cache, dlogits[None, :, :])
    return loss, du, dx, dy


# ---------------------------------------------------------------------------
# edge heads

def edge_presence_loss(head_logits: np.ndarray, cache, targets: np.ndarray):
    """Mean BCE over all ordered node pairs; returns (loss, du, dstates)."""
    logits = head_logits[0]
    n = logits.shape[0]
    count = n * n
    if count == 0:
        return 0.0, np.zeros_like(cache[2]), np.zeros((0, cache[0].shape[1] - 1))
    bce = softplus(logits) - targets * logits
    loss = float(bce.sum()) / count
    dlogits = (sigmoid(logits) - targets) / count
    du, dx, dy = biaffine_backward(cache, dlogits[None, :, :])
    return loss, du, dx + dy


def edge_label_loss(head_logits: np.ndarray, cache,
                    gold_pairs: Sequence[tuple[int, int]],
                    gold_labels: Sequence, multilabel: bool = False):
    """Cross-entropy of edge labels on the gold pairs.

    Multi-class mode treats gold_labels as one class index per pair;
    multi-label mode treats them as sets of class indices scored by
    independent sigmoids.  Returns (loss, du, dstates).
    """
    num_classes = head_logits.shape[0]
    dlogits = np.zeros_like(head_logits)
    loss = 0.0
    if gold_pairs:
        if multilabel:
            count = len(gold_pairs) * num_classes
            for (a, b), labels in zip(gold_pairs, gold_labels):
                z = head_logits[:, a, b]
                t = np.zeros(num_classes)
                t[list(labels)] = 1.0
                loss += float((softplus(z) - t * z).sum())
                dlogits[:, a, b] = (sigmoid(z) - t) / count
            loss /= count
        else:
            count = len(gold_pairs)
            for (a, b), label in zip(gold_pairs, gold_labels):
                z = head_logits[:, a, b]
                p = softmax(z)
                loss += float(-np.log(max(p[label], 1e-300)))
                grad = p.copy()
                grad[label] -= 1.0
                dlogits[:, a, b] = grad / count
            loss /= count
    du, dx, dy = biaffine_backward(cache, dlogits)
    return loss, du, dx + dy


def edge_attribute_loss(head_logits: np.ndarray, cache,
                        gold_pairs: Sequence[tuple[int, int]],
                        gold_attributes: Sequence[int]):
    """Multi-class attribute cross-entropy on the gold pairs."""
    return edge_label_loss(head_logits, cache, gold_pairs, gold_attributes,
                           multilabel=False)


# ---------------------------------------------------------------------------
# property and top heads

def property_head(node_states: np.ndarray, w: np.ndarray, b: float):
    """Per-node probability of being folded back into a property."""
    logits = node_states @ w + b
    return sigmoid(logits), logits


def property_loss(node_states: np.ndarray, w: np.ndarray, b: float,
                  targets: np.ndarray):
    """Mean BCE; returns (loss, dw, db, dstates)."""
    _, logits = property_head(node_states, w, b)
    n = len(logits)
    if n == 0:
        return 0.0, np.zeros_like(w), 0.0, np.zeros_like(node_states)
    bce = softplus(logits) - targets * logits
    loss = float(bce.sum()) / n
    dlogits = (sigmoid(logits) - targets) / n
    dw = node_states.T @ dlogits
    db = float(dlogits.sum())
    dstates = dlogits[:, None] * w[None, :]
    return loss, dw, db, dstates


def top_head(node_states: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """Distribution over the accepted nodes of one sentence."""
    if node_states.shape[0] == 0:
        raise HeadError("top head needs at least one node")
    return softmax(node_states @ w + b)


def top_loss(node_states: np.ndarray, w: np.ndarray, b: float, gold: int):
    """Cross-entropy against the gold top node; returns (loss, dw, db, dstates)."""
    logits = node_states @ w + b
    probs = softmax(logits)
    loss = float(-np.log(max(probs[gold], 1e-300)))
    dlogits = probs.copy()
    dlogits[gold] -= 1.0
    dw = node_states.T @ dlogits
    db = float(dlogits.sum())
    dstates = dlogits[:, None] * w[None, :]
    return loss, dw, db, dstates


# ---------------------------------------------------------------------------
# loss bundle

@dataclass
class LossBundle:
    """Per-task losses and their adaptive weights."""

    losses: dict[str, float]
    weights: dict[str, float]

    def __post_init__(self):
        missing = set(self.losses) - set(self.weights)
        if missing:
            raise HeadError(f"weights missing for tasks {sorted(missing)}")


def total_loss(bundle: LossBundle) -> float:
    """Weighted sum of the partial task losses."""
    return float(sum(bundle.weights[t] * loss for t, loss in sorted(bundle.losses.items())))
