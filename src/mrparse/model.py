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

from . import heads

CHECKPOINT_MAGIC = b"MRP0"
CHECKPOINT_VERSION = 1
LN_EPS = 1e-5


class CheckpointError(Exception):
    pass


def add_grad(grads: dict, key: str, value: np.ndarray,
             scale: Optional[float] = None):
    """grads[key] += value in place; with a scale, value is first multiplied by
    it in its own buffer, which rounds as scale * value does.  The first value
    stored under a key becomes that key's sum, so value must be a fresh array."""
    if scale is not None:
        value *= scale
    if key in grads:
        grads[key] += value
    else:
        grads[key] = value


def _add_affine_grads(grads: dict, w_key: str, b_key: str, x: np.ndarray,
                      dy: np.ndarray):
    """The grads of w and b in y = x @ w + b into grads, each summed over the
    rows of every leading axis in one reduction."""
    dy_rows = dy.reshape(-1, dy.shape[-1])
    add_grad(grads, w_key, x.reshape(-1, x.shape[-1]).T @ dy_rows)
    add_grad(grads, b_key, dy_rows.sum(axis=0))


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
    """Returns (dx, dgain, dbias); dy has the forward's shape, and dgain and
    dbias sum over every axis but the last."""
    normed, inv, gain = cache
    dim = dy.shape[-1]
    dgain = (dy * normed).reshape(-1, dim).sum(axis=0)
    dbias = dy.reshape(-1, dim).sum(axis=0)
    dnormed = dy * gain
    dx = inv * (dnormed - np.add.reduce(dnormed, axis=-1, keepdims=True) / dim
                - normed * (np.add.reduce(dnormed * normed, axis=-1, keepdims=True)
                            / dim))
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# single-head attention

def attention_forward(params: dict, prefix: str, queries_in: np.ndarray,
                      keys_in: np.ndarray):
    """Scaled dot-product attention; returns (out, cache).  The keys take no
    bias: q . bk would shift a whole row of scores, which the softmax ignores.

    Inputs may share leading axes (one per sentence of a group); each
    slice is computed exactly as the 2-D call on that slice.
    """
    wq, wk, wv, wo, bq, bv, bo = (params[f"{prefix}.{name}"] for name in (
        "wq", "wk", "wv", "wo", "bq", "bv", "bo"))
    scale = 1.0 / np.sqrt(wq.shape[1])
    q = queries_in @ wq + bq
    k = keys_in @ wk
    v = keys_in @ wv + bv
    weights = heads.softmax((q @ np.swapaxes(k, -1, -2)) * scale)
    mixed = weights @ v
    out = mixed @ wo + bo
    cache = (queries_in, keys_in, q, k, v, weights, mixed, scale, prefix)
    return out, cache


def attention_backward(params: dict, cache, dout: np.ndarray, grads: dict):
    """Returns (dqueries_in, dkeys_in); with leading sentence axes, each
    parameter grad sums over all of them."""
    queries_in, keys_in, q, k, v, weights, mixed, scale, prefix = cache
    wq, wk, wv, wo = (params[f"{prefix}.wq"], params[f"{prefix}.wk"],
                      params[f"{prefix}.wv"], params[f"{prefix}.wo"])
    _add_affine_grads(grads, f"{prefix}.wo", f"{prefix}.bo", mixed, dout)
    dmixed = dout @ wo.T
    dweights = dmixed @ np.swapaxes(v, -1, -2)
    dv = np.swapaxes(weights, -1, -2) @ dmixed
    dscores = heads.softmax_backward(weights, dweights)
    dq = dscores @ k * scale
    dk = np.swapaxes(dscores, -1, -2) @ q * scale
    _add_affine_grads(grads, f"{prefix}.wq", f"{prefix}.bq", queries_in, dq)
    add_grad(grads, f"{prefix}.wk",
             keys_in.reshape(-1, keys_in.shape[-1]).T @ dk.reshape(-1, dk.shape[-1]))
    _add_affine_grads(grads, f"{prefix}.wv", f"{prefix}.bv", keys_in, dv)
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


def ffn_out_grads(prefix: str, cache, dy: np.ndarray) -> dict:
    """Grads of the block's last layer, ffn.w2 and ffn.b2, from the gradient
    dy wrt the block output, summed over its rows and sentence axes.  dy may
    stack several output gradients on axes before those of the forward;
    each grad then keeps them."""
    *_, hidden, _ = cache
    rows = hidden.reshape(-1, hidden.shape[-1])
    dy = dy.reshape(dy.shape[:dy.ndim - hidden.ndim] + (len(rows), dy.shape[-1]))
    return {f"{prefix}.ffn.w2": rows.T @ dy, f"{prefix}.ffn.b2": dy.sum(axis=-2)}


def block_backward(params: dict, prefix: str, cache, dy: np.ndarray, grads: dict):
    """Returns (dx, dmemory) for dy of the forward's shape, [rows, dim] with
    any leading sentence axes; parameter grads, summed over those axes,
    accumulate into grads."""
    c_ln1, c_self, c_ln2, c_cross, c_ln3, ln3, hidden, has_cross = cache
    for key, grad in ffn_out_grads(prefix, cache, dy).items():
        add_grad(grads, key, grad)
    dhidden = dy @ params[f"{prefix}.ffn.w2"].T
    dpre = (1.0 - hidden * hidden) * dhidden
    _add_affine_grads(grads, f"{prefix}.ffn.w1", f"{prefix}.ffn.b1", ln3, dpre)
    dln3 = dpre @ params[f"{prefix}.ffn.w1"].T
    dx3, dgain, dbias = layer_norm_backward(c_ln3, dln3)
    add_grad(grads, f"{prefix}.ln3.gain", dgain)
    add_grad(grads, f"{prefix}.ln3.bias", dbias)
    dh = dy + dx3

    dmemory = None
    if has_cross:
        dln2, dmemory = attention_backward(params, c_cross, dh, grads)
        dx2, dgain, dbias = layer_norm_backward(c_ln2, dln2)
        add_grad(grads, f"{prefix}.ln2.gain", dgain)
        add_grad(grads, f"{prefix}.ln2.bias", dbias)
        dh = dh + dx2

    dln1_q, dln1_kv = attention_backward(params, c_self, dh, grads)
    dln1 = dln1_q + dln1_kv
    dx1, dgain, dbias = layer_norm_backward(c_ln1, dln1)
    add_grad(grads, f"{prefix}.ln1.gain", dgain)
    add_grad(grads, f"{prefix}.ln1.bias", dbias)
    dx = dh + dx1
    return dx, dmemory


def init_block(rng: np.random.Generator, params: dict, prefix: str, dim: int,
               ffn_dim: int, cross: bool, scale: float):
    def attn(sub):
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{prefix}.{sub}.{name}"] = rng.normal(0.0, scale, (dim, dim))
        for name in ("bq", "bv", "bo"):
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
    alpha = heads.softmax(logits)
    mixed = sum(alpha[..., k, None, None] * state for k, state in enumerate(states))
    e, c_ln = layer_norm_forward(mixed, params["encln.gain"], params["encln.bias"])
    cache = (token_ids, states, block_caches, alpha, c_ln)
    return e, cache


def encode_backward(params: dict, cache, de: np.ndarray, grads: dict):
    """Parameter grads of encode_forward from de, the gradient wrt its output;
    with leading sentence axes, the mixing logits' grad goes through each
    sentence's own mixing weights."""
    token_ids, states, block_caches, alpha, c_ln = cache
    dmixed, dgain, dbias = layer_norm_backward(c_ln, de)
    add_grad(grads, "encln.gain", dgain)
    add_grad(grads, "encln.bias", dbias)
    per_sentence = token_ids.shape[:-1] + (-1,)
    dalpha = np.stack([(dmixed * s).reshape(per_sentence).sum(axis=-1) for s in states],
                      axis=-1)
    dlogits = heads.softmax_backward(alpha, dalpha)
    add_grad(grads, "mix", dlogits.reshape(-1, len(states)).sum(axis=0))
    dstates = [alpha[..., k, None, None] * dmixed for k in range(len(states))]
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
    pre = e @ w.reshape(-1, e.shape[-1]).T
    q = np.tanh(pre.reshape(e.shape[:-1] + b.shape) + b)
    states = q.reshape(e.shape[:-2] + (num_tokens * num_slots, -1))
    source = np.repeat(np.arange(num_tokens), num_slots)
    return states, source, (e, q)


def queries_backward(params: dict, cache, dstates: np.ndarray, grads: dict):
    """Returns the gradient wrt the token embeddings; the parameter grads sum
    over the tokens of every sentence."""
    e, q = cache
    w = params["query.w"]
    dpre = (1.0 - q * q) * dstates.reshape(q.shape)
    rows = dpre.reshape((-1,) + q.shape[-2:])
    flat = rows.reshape(len(rows), -1)
    add_grad(grads, "query.w", (flat.T @ e.reshape(len(rows), -1)).reshape(w.shape))
    add_grad(grads, "query.b", rows.sum(axis=0))
    return (flat @ w.reshape(flat.shape[1], -1)).reshape(e.shape)


# ---------------------------------------------------------------------------
# parameter initialization and checkpointing

def init_encoder(rng: np.random.Generator, params: dict, vocab_size: int,
                 dim: int, ffn_dim: int, num_layers: int, scale: float):
    params["emb"] = rng.normal(0.0, scale, (vocab_size, dim))
    for layer in range(num_layers):
        init_block(rng, params, f"enc{layer}", dim, ffn_dim, cross=False, scale=scale)
    params["mix"] = np.zeros(num_layers + 1)
    params["encln.gain"] = np.ones(dim)
    params["encln.bias"] = np.zeros(dim)


def init_queries(rng: np.random.Generator, params: dict, num_slots: int,
                 dim: int, scale: float):
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
    # checked before reading: a size past the index range cannot be read at all
    left = stream.getbuffer().nbytes - stream.tell()
    if size > left:
        raise CheckpointError(f"truncated checkpoint: {what} needs {size} bytes, "
                              f"{left} left")
    return stream.read(size)


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
        if not np.isfinite(params[name]).all():
            raise CheckpointError(f"array {name!r} holds values that are not finite")
    trailing = len(data) - stream.tell()
    if trailing:
        raise CheckpointError(f"{trailing} trailing bytes after the last array")
    return params


def pack_text(text: str) -> np.ndarray:
    """Encode text as a float64 byte array so it fits the checkpoint format."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float64)


def unpack_text(array: np.ndarray) -> str:
    """Decode a pack_text array; a value that is not a byte raises CheckpointError."""
    values = np.asarray(array, dtype=np.float64).ravel()
    wrong = values[~((values >= 0) & (values <= 255) & (values == np.floor(values)))]
    if wrong.size:
        raise CheckpointError(f"text array holds {float(wrong[0])}, which is not "
                              f"a byte 0..255")
    return values.astype(np.uint8).tobytes().decode("utf-8")
