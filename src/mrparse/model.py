"""Toy network building blocks with hand-derived backward passes.

A trainable embedding table plus a couple of tiny self-attention layers
stands in for a large pretrained encoder; per-layer outputs are mixed by
softmax-normalized scalar logits and layer-normalized.  Tokens map onto Q
queries each, refined by one pre-norm Transformer block with cross-attention
into the token embeddings.  Parameters live in a flat name->array dict.
"""

from __future__ import annotations

import io
import math
import struct
from typing import Optional

import numpy as np

CHECKPOINT_MAGIC = b"MRP0"
CHECKPOINT_VERSION = 1
LN_EPS = 1e-5


class ModelError(Exception):
    pass


class CheckpointError(ModelError):
    pass


def add_grad(grads: dict, key: str, value: np.ndarray):
    if key in grads:
        grads[key] = grads[key] + value
    else:
        grads[key] = value


def _add_grad(grads: dict, key: str, value: np.ndarray, scale: Optional[float]):
    """add_grad, or with a scale grads[key] += scale * value in place (from
    zeros), the product formed in value's buffer: it rounds as scale * value
    does and allocates nothing."""
    if scale is None:
        add_grad(grads, key, value)
    else:
        value *= scale
        if key not in grads:
            grads[key] = np.zeros_like(value)
        grads[key] += value


# ---------------------------------------------------------------------------
# layer norm

def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize the last axis of x, any leading axes; returns (y, cache).

    Means are add.reduce over the last axis divided by its size, the same
    sum and division ndarray.mean makes without its Python-level wrapper.
    """
    dim = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / dim
    centered = x - mean
    variance = np.add.reduce(centered * centered, axis=-1, keepdims=True) / dim
    inv = 1.0 / np.sqrt(variance + LN_EPS)
    normed = centered * inv
    return gain * normed + bias, (normed, inv, gain)


def layer_norm_backward(cache, dy: np.ndarray):
    """Returns (dx, dgain, dbias) for 2-D rows.

    dy may carry extra leading axes over the cached [rows, dim] forward
    (one per independent downstream gradient); dgain and dbias then keep
    those axes and reduce over rows only.
    """
    normed, inv, gain = cache
    dim = dy.shape[-1]
    dgain = (dy * normed).sum(axis=-2)
    dbias = dy.sum(axis=-2)
    dnormed = dy * gain
    dx = inv * (dnormed - np.add.reduce(dnormed, axis=-1, keepdims=True) / dim
                - normed * (np.add.reduce(dnormed * normed, axis=-1, keepdims=True)
                            / dim))
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# single-head attention

def attention_forward(params: dict, prefix: str, queries_in: np.ndarray,
                      keys_in: np.ndarray):
    """Scaled dot-product attention; returns (out, cache).

    Inputs may share leading axes (one per sentence of a group); each
    slice is computed exactly as the 2-D call on that slice.
    """
    wq, bq = params[f"{prefix}.wq"], params[f"{prefix}.bq"]
    wk, bk = params[f"{prefix}.wk"], params[f"{prefix}.bk"]
    wv, bv = params[f"{prefix}.wv"], params[f"{prefix}.bv"]
    wo, bo = params[f"{prefix}.wo"], params[f"{prefix}.bo"]
    scale = 1.0 / np.sqrt(wq.shape[1])
    q = queries_in @ wq + bq
    k = keys_in @ wk + bk
    v = keys_in @ wv + bv
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=-1, keepdims=True)
    mixed = weights @ v
    out = mixed @ wo + bo
    cache = (queries_in, keys_in, q, k, v, weights, mixed, scale, prefix)
    return out, cache


def attention_backward(params: dict, cache, dout: np.ndarray, grads: dict,
                       grad_scale: Optional[float] = None):
    queries_in, keys_in, q, k, v, weights, mixed, scale, prefix = cache
    wq, wk, wv, wo = (params[f"{prefix}.wq"], params[f"{prefix}.wk"],
                      params[f"{prefix}.wv"], params[f"{prefix}.wo"])
    _add_grad(grads, f"{prefix}.wo", mixed.T @ dout, grad_scale)
    _add_grad(grads, f"{prefix}.bo", dout.sum(axis=-2), grad_scale)
    dmixed = dout @ wo.T
    dweights = dmixed @ v.T
    dv = weights.T @ dmixed
    dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
    dq = dscores @ k * scale
    dk = np.swapaxes(dscores, -1, -2) @ q * scale
    _add_grad(grads, f"{prefix}.wq", queries_in.T @ dq, grad_scale)
    _add_grad(grads, f"{prefix}.bq", dq.sum(axis=-2), grad_scale)
    _add_grad(grads, f"{prefix}.wk", keys_in.T @ dk, grad_scale)
    _add_grad(grads, f"{prefix}.bk", dk.sum(axis=-2), grad_scale)
    _add_grad(grads, f"{prefix}.wv", keys_in.T @ dv, grad_scale)
    _add_grad(grads, f"{prefix}.bv", dv.sum(axis=-2), grad_scale)
    dqueries_in = dq @ wq.T
    dkeys_in = dk @ wk.T + dv @ wv.T
    return dqueries_in, dkeys_in


# ---------------------------------------------------------------------------
# pre-norm residual block (self-attention [+ cross-attention] + tanh FFN)

def block_forward(params: dict, prefix: str, x: np.ndarray,
                  memory: Optional[np.ndarray] = None):
    """Returns (y, cache); x [rows, dim] and memory may share leading axes."""
    ln1, c_ln1 = layer_norm_forward(x, params[f"{prefix}.ln1.gain"],
                                    params[f"{prefix}.ln1.bias"])
    self_out, c_self = attention_forward(params, f"{prefix}.self", ln1, ln1)
    h = x + self_out
    c_cross = None
    c_ln2 = None
    if memory is not None:
        ln2, c_ln2 = layer_norm_forward(h, params[f"{prefix}.ln2.gain"],
                                        params[f"{prefix}.ln2.bias"])
        cross_out, c_cross = attention_forward(params, f"{prefix}.cross", ln2, memory)
        h = h + cross_out
    ln3, c_ln3 = layer_norm_forward(h, params[f"{prefix}.ln3.gain"],
                                    params[f"{prefix}.ln3.bias"])
    hidden = np.tanh(ln3 @ params[f"{prefix}.ffn.w1"] + params[f"{prefix}.ffn.b1"])
    ffn_out = hidden @ params[f"{prefix}.ffn.w2"] + params[f"{prefix}.ffn.b2"]
    y = h + ffn_out
    cache = (c_ln1, c_self, c_ln2, c_cross, c_ln3, ln3, hidden, memory is not None)
    return y, cache


def block_backward(params: dict, prefix: str, cache, dy: np.ndarray,
                   grads: dict, grad_scale: Optional[float] = None):
    """Returns (dx, dmemory); parameter grads accumulate into grads.

    The backward is linear in dy given the cache, so dy may stack several
    independent output gradients on a leading axis, [tasks, queries, dim]
    against a [queries, dim] forward.  Every result then keeps that axis:
    dx is [tasks, queries, dim], dmemory [tasks, tokens, dim] and each
    parameter grad [tasks, *param.shape], row t equal to the 2-D call on
    dy[t].  With grad_scale, each parameter grad is multiplied by grad_scale
    and added in place into grads[key] (zeros at first), one key at a time.
    """
    c_ln1, c_self, c_ln2, c_cross, c_ln3, ln3, hidden, has_cross = cache
    dh = dy.copy()
    dffn_out = dy
    _add_grad(grads, f"{prefix}.ffn.w2", hidden.T @ dffn_out, grad_scale)
    _add_grad(grads, f"{prefix}.ffn.b2", dffn_out.sum(axis=-2), grad_scale)
    dhidden = dffn_out @ params[f"{prefix}.ffn.w2"].T
    dpre = (1.0 - hidden * hidden) * dhidden
    _add_grad(grads, f"{prefix}.ffn.w1", ln3.T @ dpre, grad_scale)
    _add_grad(grads, f"{prefix}.ffn.b1", dpre.sum(axis=-2), grad_scale)
    dln3 = dpre @ params[f"{prefix}.ffn.w1"].T
    dx3, dgain, dbias = layer_norm_backward(c_ln3, dln3)
    _add_grad(grads, f"{prefix}.ln3.gain", dgain, grad_scale)
    _add_grad(grads, f"{prefix}.ln3.bias", dbias, grad_scale)
    dh = dh + dx3

    dmemory = None
    if has_cross:
        dcross_out = dh
        dln2, dmemory = attention_backward(params, c_cross, dcross_out, grads,
                                            grad_scale)
        dx2, dgain, dbias = layer_norm_backward(c_ln2, dln2)
        _add_grad(grads, f"{prefix}.ln2.gain", dgain, grad_scale)
        _add_grad(grads, f"{prefix}.ln2.bias", dbias, grad_scale)
        dh = dh + dx2

    dself_out = dh
    dln1_q, dln1_kv = attention_backward(params, c_self, dself_out, grads,
                                         grad_scale)
    dln1 = dln1_q + dln1_kv
    dx1, dgain, dbias = layer_norm_backward(c_ln1, dln1)
    _add_grad(grads, f"{prefix}.ln1.gain", dgain, grad_scale)
    _add_grad(grads, f"{prefix}.ln1.bias", dbias, grad_scale)
    dx = dh + dx1
    return dx, dmemory


def init_block(rng: np.random.Generator, params: dict, prefix: str, dim: int,
               ffn_dim: int, cross: bool, scale: float = 0.1):
    def attn(sub):
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{prefix}.{sub}.{name}"] = rng.normal(0.0, scale, (dim, dim))
        for name in ("bq", "bk", "bv", "bo"):
            params[f"{prefix}.{sub}.{name}"] = np.zeros(dim)

    for ln in ("ln1", "ln3") + (("ln2",) if cross else ()):
        params[f"{prefix}.{ln}.gain"] = np.ones(dim)
        params[f"{prefix}.{ln}.bias"] = np.zeros(dim)
    attn("self")
    if cross:
        attn("cross")
    params[f"{prefix}.ffn.w1"] = rng.normal(0.0, scale, (dim, ffn_dim))
    params[f"{prefix}.ffn.b1"] = np.zeros(ffn_dim)
    params[f"{prefix}.ffn.w2"] = rng.normal(0.0, scale, (ffn_dim, dim))
    params[f"{prefix}.ffn.b2"] = np.zeros(dim)


# ---------------------------------------------------------------------------
# encoder: embeddings, self-attention layers, layer mixing

def draw_layer_dropout(rng: np.random.Generator, num_states: int,
                       rate: float) -> np.ndarray:
    """Mask of the mixing logits to drop, each with the given probability;
    redrawn until at least one layer survives."""
    while True:
        dropped = rng.random(num_states) < rate
        if not dropped.all():
            return dropped


def encode_forward(params: dict, token_ids: np.ndarray, num_layers: int,
                   dropped: Optional[np.ndarray] = None):
    """Per-token embeddings mixed across layers; returns (e, cache).

    Layer outputs (embedding included) are combined by softmax-normalized
    logits and layer-normalized.  During training the mixing logits marked
    in dropped (see draw_layer_dropout) are set to -inf.  token_ids may carry
    leading axes (one per sentence of a group), and dropped then one mask
    per sentence; each sentence is computed exactly as on its own.
    """
    states = [params["emb"][token_ids]]
    block_caches = []
    for layer in range(num_layers):
        out, cache = block_forward(params, f"enc{layer}", states[-1])
        states.append(out)
        block_caches.append(cache)
    mix = params["mix"]
    logits = np.broadcast_to(mix, token_ids.shape[:-1] + mix.shape).copy()
    if dropped is not None:
        logits[dropped] = -np.inf
    shifted = logits - logits.max(axis=-1, keepdims=True)
    alpha = np.exp(shifted)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    mixed = sum(alpha[..., k, None, None] * state for k, state in enumerate(states))
    e, c_ln = layer_norm_forward(mixed, params["encln.gain"], params["encln.bias"])
    cache = (token_ids, states, block_caches, alpha, c_ln)
    return e, cache


def encode_backward(params: dict, cache, de: np.ndarray, grads: dict):
    token_ids, states, block_caches, alpha, c_ln = cache
    dmixed, dgain, dbias = layer_norm_backward(c_ln, de)
    add_grad(grads, "encln.gain", dgain)
    add_grad(grads, "encln.bias", dbias)
    dalpha = np.array([float((dmixed * s).sum()) for s in states])
    dlogits = alpha * (dalpha - float((dalpha * alpha).sum()))
    add_grad(grads, "mix", dlogits)
    dstates = [a * dmixed for a in alpha]
    for layer in range(len(block_caches) - 1, -1, -1):
        dx, _ = block_backward(params, f"enc{layer}", block_caches[layer],
                               dstates[layer + 1], grads)
        dstates[layer] = dstates[layer] + dx
    demb = np.zeros_like(params["emb"])
    np.add.at(demb, token_ids, dstates[0])
    add_grad(grads, "emb", demb)


# ---------------------------------------------------------------------------
# query generation

def queries_forward(params: dict, e: np.ndarray):
    """Map each token embedding onto Q queries: tanh(W_t e + b_t).

    Queries are ordered token-major: query index i*Q + t has source token i
    and slot t.  e may carry leading sentence axes, which the states keep.
    Returns (query states, source token indices, cache).
    """
    w, b = params["query.w"], params["query.b"]
    num_slots = w.shape[0]
    num_tokens = e.shape[-2]
    q = np.tanh(np.einsum("tde,...ne->...ntd", w, e) + b)
    states = q.reshape(e.shape[:-2] + (num_tokens * num_slots, -1))
    source = np.repeat(np.arange(num_tokens), num_slots)
    return states, source, (e, q)


def queries_backward(params: dict, cache, dstates: np.ndarray, grads: dict):
    e, q = cache
    w = params["query.w"]
    num_tokens, num_slots, dim = q.shape
    dq = dstates.reshape(num_tokens, num_slots, dim)
    dpre = (1.0 - q * q) * dq
    add_grad(grads, "query.w", np.einsum("ntd,ne->tde", dpre, e))
    add_grad(grads, "query.b", dpre.sum(axis=0))
    de = np.einsum("ntd,tde->ne", dpre, w)
    return de


# ---------------------------------------------------------------------------
# parameter initialization and checkpointing

def init_encoder(rng: np.random.Generator, params: dict, vocab_size: int,
                 dim: int, ffn_dim: int, num_layers: int, scale: float = 0.1):
    params["emb"] = rng.normal(0.0, scale, (vocab_size, dim))
    for layer in range(num_layers):
        init_block(rng, params, f"enc{layer}", dim, ffn_dim, cross=False, scale=scale)
    params["mix"] = np.zeros(num_layers + 1)
    params["encln.gain"] = np.ones(dim)
    params["encln.bias"] = np.zeros(dim)


def init_queries(rng: np.random.Generator, params: dict, num_slots: int,
                 dim: int, scale: float = 0.1):
    params["query.w"] = rng.normal(0.0, scale, (num_slots, dim, dim))
    params["query.b"] = np.zeros((num_slots, dim))


def save_params(params: dict, path: str):
    """Flat binary checkpoint: magic, version, named float64 arrays."""
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<II", CHECKPOINT_VERSION, len(params)))
        for name in sorted(params):
            array = np.asarray(params[name], dtype="<f8")  # tobytes() copies C-order
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<H", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<B", array.ndim))
            for size in array.shape:
                handle.write(struct.pack("<Q", size))
            handle.write(array.tobytes())


def _read_exact(stream: io.BytesIO, size: int, what: str) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise CheckpointError(f"truncated checkpoint: {what} needs {size} bytes, "
                              f"{len(data)} left")
    return data


def load_params(path: str) -> dict:
    """Read a save_params checkpoint; malformed files raise CheckpointError."""
    with open(path, "rb") as handle:
        data = handle.read()
    stream = io.BytesIO(data)
    magic = stream.read(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    version, count = struct.unpack("<II", _read_exact(stream, 8, "header"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    params = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(stream, 2, "name length"))
        name = _read_exact(stream, name_len, "name").decode("utf-8")
        if name in params:
            raise CheckpointError(f"duplicate array {name!r}")
        (ndim,) = struct.unpack("<B", _read_exact(stream, 1, f"rank of {name!r}"))
        shape = struct.unpack(f"<{ndim}Q", _read_exact(stream, 8 * ndim,
                                                       f"shape of {name!r}"))
        numel = math.prod(shape)
        raw = _read_exact(stream, numel * 8, f"array {name!r}")
        params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    trailing = len(data) - stream.tell()
    if trailing:
        raise CheckpointError(f"{trailing} trailing bytes after the last array")
    return params


def pack_text(text: str) -> np.ndarray:
    """Encode text as a float64 byte array so it fits the checkpoint format."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float64)


def unpack_text(array: np.ndarray) -> str:
    return bytes(int(round(b)) for b in np.asarray(array).ravel()).decode("utf-8")
