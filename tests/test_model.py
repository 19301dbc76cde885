import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrparse import model
from oracles import (finite_difference, reference_layer_norm_backward,
                     reference_layer_norm_forward, reference_queries_backward,
                     reference_queries_forward, relative_error)

DIM, FFN = 6, 9


def make_block(rng, cross):
    params = {}
    model.init_block(rng, params, "blk", DIM, FFN, cross=cross, scale=0.4)
    return params


class TestBlock:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        params = make_block(rng, cross=True)
        x = rng.normal(size=(5, DIM))
        memory = rng.normal(size=(3, DIM))
        base, _ = model.block_forward(params, "blk", x, memory)
        perm = rng.permutation(5)
        permuted, _ = model.block_forward(params, "blk", x[perm], memory)
        assert np.abs(permuted - base[perm]).max() < 1e-10

    def test_single_query(self):
        rng = np.random.default_rng(1)
        params = make_block(rng, cross=False)
        x = rng.normal(size=(1, DIM))
        out, _ = model.block_forward(params, "blk", x)
        assert out.shape == (1, DIM)
        assert np.isfinite(out).all()

    def test_gradients(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            params = make_block(rng, cross=True)
            x = rng.normal(size=(4, DIM))
            memory = rng.normal(size=(3, DIM))
            downstream = rng.normal(size=(4, DIM))

            def loss_fn(params_=params, x_=None, mem_=None):
                y, _ = model.block_forward(params_, "blk",
                                           x_ if x_ is not None else x,
                                           mem_ if mem_ is not None else memory)
                return float((y * downstream).sum())

            _, cache = model.block_forward(params, "blk", x, memory)
            grads = {}
            dx, dmem = model.block_backward(params, "blk", cache, downstream, grads)
            assert relative_error(dx, finite_difference(
                lambda v: loss_fn(x_=v), x)) < 1e-5
            assert relative_error(dmem, finite_difference(
                lambda v: loss_fn(mem_=v), memory)) < 1e-5
            for key in ("blk.self.wq", "blk.cross.wv", "blk.ffn.w1",
                        "blk.ln1.gain", "blk.ln3.bias"):
                base = params[key]

                def loss_at(value, key=key, base=base):
                    params[key] = value
                    try:
                        return loss_fn()
                    finally:
                        params[key] = base

                assert relative_error(grads[key],
                                      finite_difference(loss_at, base)) < 1e-5


class TestLayerNorm:
    @settings(max_examples=150, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), max_size=2), rows=st.integers(1, 9),
           dim=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_mean_reference_bit_for_bit(self, lead, rows, dim, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (rows, dim)
        x = rng.normal(size=shape) * rng.uniform(0.01, 100.0) + rng.normal()
        gain, bias = rng.normal(size=dim), rng.normal(size=dim)
        y, cache = model.layer_norm_forward(x, gain, bias)
        want_y, want_cache = reference_layer_norm_forward(x, gain, bias)
        assert np.array_equal(y, want_y)
        assert all(np.array_equal(a, b) for a, b in zip(cache, want_cache))
        dy = rng.normal(size=shape)
        for got, want in zip(model.layer_norm_backward(cache, dy),
                             reference_layer_norm_backward(want_cache, dy)):
            assert np.array_equal(got, want)


class TestEncoder:
    def make(self, rng, vocab=11, layers=2):
        params = {}
        model.init_encoder(rng, params, vocab, DIM, FFN, layers, 0.4)
        return params

    def test_single_layer_mixing_is_identity_weight(self):
        rng = np.random.default_rng(3)
        params = self.make(rng, layers=0)
        # only the embedding state exists: softmax over one logit is 1
        ids = np.array([1, 2, 3])
        e, cache = model.encode_forward(params, ids, 0)
        _, states, _, alpha, _ = cache
        assert len(states) == 1
        assert alpha.tolist() == [1.0]
        assert e.shape == (3, DIM)

    def test_mixing_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        params = self.make(rng)
        params["mix"] = rng.normal(size=3)
        _, cache = model.encode_forward(params, np.array([0, 1]), 2)
        alpha = cache[3]
        assert abs(alpha.sum() - 1.0) < 1e-12

    def test_layer_dropout_renormalizes(self):
        rng = np.random.default_rng(5)
        params = self.make(rng)
        dropped = model.draw_layer_dropout(np.random.default_rng(12), 3, 0.9)
        _, cache = model.encode_forward(params, np.array([0, 1]), 2, dropped)
        alpha = cache[3]
        assert abs(alpha.sum() - 1.0) < 1e-12
        assert (alpha == 0.0).any()  # at least one layer dropped at rate 0.9
        assert (alpha > 0.0).any()   # never drops every layer

    def test_gradient_through_everything(self):
        rng = np.random.default_rng(6)
        params = self.make(rng)
        ids = np.array([3, 1, 4, 1])
        downstream = rng.normal(size=(4, DIM))

        def loss_fn():
            e, _ = model.encode_forward(params, ids, 2)
            return float((e * downstream).sum())

        _, cache = model.encode_forward(params, ids, 2)
        grads = {}
        model.encode_backward(params, cache, downstream, grads)
        for key in ("emb", "mix", "encln.gain", "enc0.self.wk", "enc1.ffn.w2"):
            base = params[key]

            def loss_at(value, key=key, base=base):
                params[key] = value
                try:
                    return loss_fn()
                finally:
                    params[key] = base

            assert relative_error(grads[key],
                                  finite_difference(loss_at, base)) < 1e-5


class TestQueries:
    def test_zero_weights_zero_queries(self):
        params = {"query.w": np.zeros((2, DIM, DIM)), "query.b": np.zeros((2, DIM))}
        states, source, _ = model.queries_forward(params, np.ones((3, DIM)))
        assert np.abs(states).max() == 0.0  # tanh(0)

    def test_counts_and_sources(self):
        rng = np.random.default_rng(7)
        params = {"query.w": rng.normal(size=(2, DIM, DIM)),
                  "query.b": rng.normal(size=(2, DIM))}
        states, source, _ = model.queries_forward(params, rng.normal(size=(3, DIM)))
        assert states.shape == (6, DIM)
        assert source.tolist() == [0, 0, 1, 1, 2, 2]

    def test_token_permutation_permutes_blocks(self):
        rng = np.random.default_rng(8)
        params = {"query.w": rng.normal(size=(2, DIM, DIM)),
                  "query.b": rng.normal(size=(2, DIM))}
        e = rng.normal(size=(4, DIM))
        base, _, _ = model.queries_forward(params, e)
        perm = np.array([2, 0, 3, 1])
        moved, _, _ = model.queries_forward(params, e[perm])
        blocks = base.reshape(4, 2, DIM)
        assert np.abs(moved.reshape(4, 2, DIM) - blocks[perm]).max() == 0.0

    def test_gradients(self):
        rng = np.random.default_rng(9)
        params = {"query.w": rng.normal(size=(2, DIM, DIM)),
                  "query.b": rng.normal(size=(2, DIM))}
        e = rng.normal(size=(3, DIM))
        downstream = rng.normal(size=(6, DIM))
        _, _, cache = model.queries_forward(params, e)
        grads = {}
        de = model.queries_backward(params, cache, downstream, grads)

        def loss_of(e_):
            states, _, _ = model.queries_forward(params, e_)
            return float((states * downstream).sum())

        assert relative_error(de, finite_difference(loss_of, e)) < 1e-5

    # none, one and two leading sentence axes
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=len)
    @pytest.mark.parametrize("tokens", [1, 4])
    def test_matches_einsum_reference(self, lead, tokens):
        rng = np.random.default_rng(10 * len(lead) + tokens)
        params = {"query.w": rng.normal(size=(3, DIM, DIM)),
                  "query.b": rng.normal(size=(3, DIM))}
        e = rng.normal(size=lead + (tokens, DIM))
        states, source, cache = model.queries_forward(params, e)
        want_states, want_source, want_cache = reference_queries_forward(params, e)
        dstates = rng.normal(size=states.shape)
        grads, want_grads = {}, {}
        de = model.queries_backward(params, cache, dstates, grads)
        want_de = reference_queries_backward(params, want_cache, dstates, want_grads)
        assert source.tolist() == want_source.tolist()
        arrays = [("states", states, want_states), ("de", de, want_de)]
        arrays += [(key, grads[key], want) for key, want in want_grads.items()]
        for name, got, want in arrays:
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max(), err_msg=name)

    def test_stack_equals_separate_sentences(self):
        # every sentence of a group stays its own product, bit for bit
        rng = np.random.default_rng(12)
        params = {"query.w": rng.normal(0.0, 0.1, size=(2, 64, 64)),
                  "query.b": rng.normal(0.0, 0.1, size=(2, 64))}
        e = rng.normal(size=(5, 7, 64))
        states, _, (_, q) = model.queries_forward(params, e)
        for s in range(len(e)):
            alone, _, (_, alone_q) = model.queries_forward(params, e[s:s + 1])
            assert np.array_equal(states[s:s + 1], alone), s
            assert np.array_equal(q[s:s + 1], alone_q), s


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        params = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=7),
                  "scalar": np.array(2.5), "empty": np.zeros((0, 2))}
        path = str(tmp_path / "model.ckpt")
        model.save_params(params, path)
        loaded = model.load_params(path)
        assert set(loaded) == set(params)
        for key in params:
            assert loaded[key].shape == params[key].shape
            assert (loaded[key] == params[key]).all()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(model.CheckpointError):
            model.load_params(str(path))

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(11)
        path = str(tmp_path / "model.ckpt")
        model.save_params({"w": rng.normal(size=100)}, path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-16])
        with pytest.raises(model.CheckpointError):
            model.load_params(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"MRP0\x01\x00")
        with pytest.raises(model.CheckpointError, match="truncated"):
            model.load_params(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        model.save_params({"w": np.ones(3)}, path)
        with open(path, "ab") as handle:
            handle.write(b"\x00")
        with pytest.raises(model.CheckpointError, match="trailing"):
            model.load_params(path)

    def test_duplicate_name(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        model.save_params({"w": np.ones(3)}, path)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        entry = data[12:]
        data[8:12] = (2).to_bytes(4, "little")
        with open(path, "wb") as handle:
            handle.write(bytes(data) + bytes(entry))
        with pytest.raises(model.CheckpointError, match="duplicate"):
            model.load_params(path)

    def test_text_packing(self):
        text = "héllo ☃ world"
        assert model.unpack_text(model.pack_text(text)) == text

    @pytest.mark.parametrize("value", [np.inf, np.nan, 65.5, -1.0, 256.0])
    def test_text_value_not_a_byte(self, value):
        with pytest.raises(model.CheckpointError, match="not a byte 0..255"):
            model.unpack_text(np.array([72.0, value]))
