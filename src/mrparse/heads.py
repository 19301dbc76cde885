"""Classification heads and losses as pure numeric functions.

Every head comes as a forward/backward pair with analytically derived
gradients (checked against central finite differences in the test suite).
The label head and focal loss take stacks of rows.  All computation is
double precision numpy; there is no autodiff engine.
"""

from __future__ import annotations

import numpy as np


class HeadError(Exception):
    pass


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Gradient wrt the logits of probs = softmax(logits), given dprobs, the
    gradient wrt probs; any leading axes."""
    return probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def bce(logits: np.ndarray, targets: np.ndarray):
    """Binary cross-entropy on logits, entry by entry: (loss, dloss/dlogits)."""
    return softplus(logits) - targets * logits, sigmoid(logits) - targets


def nll(logits: np.ndarray, gold: np.ndarray):
    """Softmax cross-entropy of the gold class of each row of logits [..., C]:
    (loss [...], dloss/dlogits)."""
    probs = softmax(logits)
    gold = np.asarray(gold)[..., None]
    picked = np.take_along_axis(probs, gold, axis=-1)
    np.put_along_axis(probs, gold, picked - 1.0, axis=-1)
    return -np.log(np.maximum(picked[..., 0], 1e-300)), probs


# ---------------------------------------------------------------------------
# mixture of softmaxes

def init_mos(rng: np.random.Generator, params: dict, dim: int, num_classes: int,
             components: int, scale: float):
    """The K-component mixture of softmaxes over the rule classes, as the
    label.* arrays of params."""
    params["label.proj_w"] = rng.normal(0.0, scale, (components, dim, dim))
    params["label.proj_b"] = np.zeros((components, dim))
    params["label.gate_w"] = rng.normal(0.0, scale, (components, dim))
    params["label.gate_b"] = np.zeros(components)
    params["label.out_w"] = rng.normal(0.0, scale, (dim, num_classes))
    params["label.out_b"] = np.zeros(num_classes)


def mos_forward_batch(h: np.ndarray, params: dict):
    """Mixture distributions for a stack of query vectors (N, D), from the
    label.* arrays of params (init_mos).

    Returns (probs (N, V), cache).  Gates are sigmoid-normalized (each gate
    squashed independently, then divided by the gate sum), not a softmax
    over gate logits.  h may carry leading sentence axes, which every
    result keeps; each stack is computed exactly as on its own.
    """
    proj_b = params["label.proj_b"]
    pre = h @ params["label.proj_w"].reshape(-1, h.shape[-1]).T
    x = np.tanh(pre.reshape(h.shape[:-1] + proj_b.shape) + proj_b)
    gate_logits = h @ params["label.gate_w"].T + params["label.gate_b"]
    gates = sigmoid(gate_logits)
    totals = gates.sum(axis=-1)
    if (totals < 1e-300).any():
        raise HeadError("all mixture gates underflowed to zero")
    weights = gates / totals[..., None]
    logits = x @ params["label.out_w"] + params["label.out_b"]
    components = softmax(logits)
    probs = np.einsum("...nk,...nkv->...nv", weights, components)
    return probs, (h, params, x, gates, weights, components)


def mos_backward_batch(cache, dprobs: np.ndarray):
    """Gradient of a scalar through the mixture; returns (grads summed over
    rows, keyed as in params, dh).

    The cache and dprobs may carry the forward's leading sentence axes: every
    sentence's rows then go through as one stack, the grads sum over all of
    them, and dh keeps the axes.
    """
    lead = dprobs.shape[:-1]
    h, params, x, gates, weights, components = cache
    proj_w = params["label.proj_w"]
    h, x, gates, weights, components, dprobs = (
        a.reshape((-1,) + a.shape[len(lead):])
        for a in (h, x, gates, weights, components, dprobs))
    dcomponents = weights[:, :, None] * dprobs[:, None, :]
    dweights = np.einsum("nkv,nv->nk", components, dprobs)
    dlogits = softmax_backward(components, dcomponents)
    dout_w = x.reshape(-1, x.shape[-1]).T @ dlogits.reshape(-1, dlogits.shape[-1])
    dout_b = dlogits.sum(axis=(0, 1))
    dx = dlogits @ params["label.out_w"].T
    dpre = (1.0 - x * x) * dx
    flat = dpre.reshape(len(dpre), -1)
    dproj_w = (flat.T @ h).reshape(proj_w.shape)
    dproj_b = dpre.sum(axis=0)
    dh = flat @ proj_w.reshape(flat.shape[1], -1)
    totals = gates.sum(axis=-1, keepdims=True)
    dgates = (dweights - (dweights * weights).sum(axis=-1, keepdims=True)) / totals
    dgate_logits = gates * (1.0 - gates) * dgates
    dgate_w = dgate_logits.T @ h
    dgate_b = dgate_logits.sum(axis=0)
    dh = dh + dgate_logits @ params["label.gate_w"]
    grads = {"label.proj_w": dproj_w, "label.proj_b": dproj_b, "label.gate_w": dgate_w,
             "label.gate_b": dgate_b, "label.out_w": dout_w, "label.out_b": dout_b}
    return grads, dh.reshape(lead + dh.shape[-1:])


# ---------------------------------------------------------------------------
# focal label loss

def label_loss(pred: np.ndarray, target: np.ndarray, gamma: float):
    """Focal-weighted cross-entropy between distributions, row by row.

    loss = (1 - p_t)^gamma * H(target, pred) with p_t the predicted mass on
    the target distribution; gamma = 0 recovers the plain (smoothed)
    cross-entropy.  pred and target are (N, V) stacks of rows, each row a
    distribution; trainer.sentence_losses, the one caller, passes the
    mixture's softmax rows and the smoothed rule targets.
    Returns (mean loss over rows, per-row dloss/dpred not divided by N).
    """
    safe = np.maximum(pred, 1e-300)
    entropy = -(target * np.log(safe)).sum(axis=-1)
    p_t = (target * pred).sum(axis=-1)
    one_minus = np.maximum(1.0 - p_t, 0.0)
    factor = one_minus ** gamma
    loss = float((factor * entropy).sum()) / pred.shape[0]
    dpred = -factor[:, None] * target / safe
    if gamma > 0.0:
        slope = np.zeros_like(one_minus)
        positive = one_minus > 0.0
        slope[positive] = gamma * one_minus[positive] ** (gamma - 1.0) * entropy[positive]
        dpred = dpred - slope[:, None] * target
    return loss, dpred


# ---------------------------------------------------------------------------
# biaffine scoring

def init_biaffine(rng: np.random.Generator, num_classes: int, dim_x: int,
                  dim_y: int, scale: float) -> np.ndarray:
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
    """Returns (du, dx, dy) for upstream gradients on the logits.

    With the forward's leading sentence axes, dx and dy keep them and du sums
    over every node of every sentence in one matmul per class.
    """
    xa, ya, u = cache
    dy_side = dlogits @ ya[..., None, :, :]      # (..., C, Nx, Dy+1)
    # (sentence, node) flattened to one contraction axis
    rows = np.moveaxis(dy_side, -3, 0).reshape(u.shape[0], -1, u.shape[2])
    du = xa.reshape(-1, u.shape[1]).T @ rows     # (C, Dx+1, Dy+1)
    dxa = (dy_side @ u.transpose(0, 2, 1)).sum(axis=-3)
    dya = (np.swapaxes(dlogits, -1, -2) @ (xa[..., None, :, :] @ u)).sum(axis=-3)
    return du, dxa[..., :-1], dya[..., :-1]


# ---------------------------------------------------------------------------
# anchor head

def anchor_head(query_states: np.ndarray, token_states: np.ndarray,
                u: np.ndarray):
    """Anchor presence probability for every (query, token) pair; the states
    may share leading sentence axes."""
    logits, cache = biaffine_forward(query_states, token_states, u)
    logits = logits[..., 0, :, :]
    return sigmoid(logits), (logits, cache)


def anchor_loss(head_cache, targets: np.ndarray, query_mask: np.ndarray):
    """Mean binary cross-entropy over the masked query/token grid.

    Returns (loss, du, dquery_states, dtoken_states).  query_mask selects the
    rows that participate (queries matched to real nodes).  The grid may
    carry the forward's leading sentence axes: each sentence then takes the
    mean over its own masked rows, a sentence without one gives 0, the loss
    and du sum over the sentences, and the state grads keep the axes.
    """
    logits, cache = head_cache
    # each masked row's divisor: its sentence's masked entries
    counts = np.broadcast_to(query_mask.sum(axis=-1, keepdims=True) * logits.shape[-1],
                             query_mask.shape)[query_mask]
    loss, dmasked = bce(logits[query_mask], targets[query_mask])
    dlogits = np.zeros_like(logits)
    dlogits[query_mask] = dmasked / counts[:, None]
    du, dx, dy = biaffine_backward(cache, dlogits[..., None, :, :])
    return float((loss.sum(axis=-1) / counts).sum()), du, dx, dy


# ---------------------------------------------------------------------------
# edge heads

def edge_presence_loss(head_logits: np.ndarray, cache, targets: np.ndarray,
                       node_mask: np.ndarray):
    """Mean BCE over the ordered pairs of nodes; returns (loss, du, dstates).

    head_logits [..., 1, M, M] and targets [..., M, M] may carry leading
    sentence axes, with node_mask [..., M] marking each sentence's k nodes:
    each sentence then takes the mean over its own k*k pairs, a sentence
    without nodes gives 0, the loss and du sum over the sentences, and
    dstates keeps the axes, zero on the padding.
    """
    logits = head_logits[..., 0, :, :]
    pairs = node_mask[..., :, None] & node_mask[..., None, :]
    counts = np.maximum(node_mask.sum(axis=-1) ** 2, 1)
    loss, dlogits = bce(logits, targets)
    dlogits = np.where(pairs, dlogits / counts[..., None, None], 0.0)
    du, dx, dy = biaffine_backward(cache, dlogits[..., None, :, :])
    loss = np.where(pairs, loss, 0.0).sum(axis=(-2, -1)) / counts
    return float(loss.sum()), du, dx + dy


def edge_label_loss(head_logits: np.ndarray, cache, edges: np.ndarray):
    """Cross-entropy of edge labels on the gold pairs; returns (loss, du, dstates).

    head_logits [..., C, M, M] may carry leading sentence axes.  edges holds
    one gold edge a row: its sentence's indices on those axes, then source,
    target and label id.  Each edge's label takes the softmax cross-entropy,
    parallel edges of a pair each counted.  Each sentence takes the mean
    over its own edges; the loss and du sum over the sentences, and dstates
    keeps the axes.
    """
    lead = head_logits.shape[:-3]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, len(lead) + 3)
    where, labels = edges[:, :-1], edges[:, -1]
    # each gold row's sentence, numbered in the order of the leading axes
    sentence = (np.ravel_multi_index(tuple(where[:, :-2].T), lead) if lead
                else np.zeros(len(where), dtype=np.int64))
    counts = np.bincount(sentence)[sentence]
    by_pair = np.moveaxis(head_logits, -3, -1)       # (..., M, M, C)
    index = tuple(where.T)
    loss, dpair = nll(by_pair[index], labels)
    dlogits = np.zeros(by_pair.shape)
    np.add.at(dlogits, index, dpair / counts[:, None])
    du, dx, dy = biaffine_backward(cache, np.moveaxis(dlogits, -1, -3))
    return float((loss / counts).sum()), du, dx + dy


# ---------------------------------------------------------------------------
# property and top heads

def _linear_backward(node_states: np.ndarray, w: np.ndarray, dlogits: np.ndarray):
    """(dw, dstates) of the linear logits node_states @ w (+ b), dw summed
    over every node of every sentence."""
    return node_states.reshape(-1, len(w)).T @ dlogits.reshape(-1), dlogits[..., None] * w


def property_loss(node_states: np.ndarray, w: np.ndarray, b: float,
                  targets: np.ndarray, node_mask: np.ndarray):
    """Mean BCE; returns (loss, dw, db, dstates).

    node_states [..., M, D] and targets [..., M] may carry leading sentence
    axes, with node_mask as in edge_presence_loss: each sentence takes the
    mean over its own nodes, a sentence without nodes gives 0, and the loss
    and the parameter grads sum over the sentences.
    """
    logits = node_states @ w + b
    counts = np.maximum(node_mask.sum(axis=-1), 1)
    loss, dlogits = bce(logits, targets)
    dlogits = np.where(node_mask, dlogits / counts[..., None], 0.0)
    loss = np.where(node_mask, loss, 0.0).sum(axis=-1) / counts
    dw, dstates = _linear_backward(node_states, w, dlogits)
    return float(loss.sum()), dw, float(dlogits.sum()), dstates


def top_loss(node_states: np.ndarray, w: np.ndarray, gold, node_mask: np.ndarray):
    """Cross-entropy against the gold top node; returns (loss, dw, dstates).

    node_states [..., M, D] and gold [...] may carry leading sentence axes,
    with node_mask as in edge_presence_loss: each sentence's softmax runs
    over its own nodes (the padding's logits are -inf), and the loss and dw
    sum over the sentences.
    """
    logits = np.where(node_mask, node_states @ w, -np.inf)
    loss, dlogits = nll(logits, gold)
    return (float(loss.sum()),) + _linear_backward(node_states, w, dlogits)
