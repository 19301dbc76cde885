import zlib

import numpy as np
import pytest

from mrparse import heads
import oracles
from oracles import finite_difference, label_head_loss, relative_error

TOLERANCE = 1e-5
DIM, CLASSES, COMPONENTS = 5, 7, 3


def random_distribution(rng, size):
    return rng.dirichlet(np.ones(size))


def mos_params(rng, components, dim=DIM, scale=0.5):
    params = {}
    heads.init_mos(rng, params, dim, CLASSES, components, scale)
    return params


def mos_distribution(h, params):
    probs, _ = heads.mos_forward_batch(h[None, :], params)
    return probs[0]


class TestSoftmaxBackward:
    # none, one and two leading axes
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=len)
    def test_matches_finite_difference(self, lead):
        rng = np.random.default_rng(zlib.crc32(f"softmax {lead}".encode()))
        z = rng.normal(size=lead + (CLASSES,))
        dprobs = rng.normal(size=z.shape)
        analytic = heads.softmax_backward(heads.softmax(z), dprobs)
        numeric = finite_difference(lambda z_: float((heads.softmax(z_) * dprobs).sum()), z)
        assert analytic.shape == z.shape
        assert relative_error(analytic, numeric) < TOLERANCE


class TestMoS:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            params = mos_params(rng, COMPONENTS)
            probs = mos_distribution(rng.normal(size=DIM), params)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert (probs > 0).all()

    def test_single_component_is_softmax(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            params = mos_params(rng, 1)
            h = rng.normal(size=DIM)
            probs = mos_distribution(h, params)
            reference = heads.softmax(
                np.tanh(params["label.proj_w"][0] @ h + params["label.proj_b"][0])
                @ params["label.out_w"] + params["label.out_b"])
            assert np.abs(probs - reference).max() < 1e-12

    def test_gate_underflow_guard(self):
        rng = np.random.default_rng(2)
        params = mos_params(rng, 2)
        params["label.gate_b"][:] = -1e9
        with pytest.raises(heads.HeadError):
            mos_distribution(rng.normal(size=DIM), params)

    def test_gradient_wrt_h(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params = mos_params(rng, COMPONENTS)
            h = rng.normal(size=DIM)
            target = random_distribution(rng, CLASSES)
            _, dh, _ = label_head_loss(h, params, target, 2.0)
            numeric = finite_difference(
                lambda x: label_head_loss(x, params, target, 2.0)[0], h)
            assert relative_error(dh, numeric) < TOLERANCE

    @pytest.mark.parametrize("field", ["proj_w", "proj_b", "gate_w", "gate_b",
                                       "out_w", "out_b"])
    def test_gradient_wrt_params(self, field):
        rng = np.random.default_rng(zlib.crc32(field.encode()))
        for _ in range(20):
            params = mos_params(rng, COMPONENTS)
            h = rng.normal(size=DIM)
            target = random_distribution(rng, CLASSES)
            _, _, grads = label_head_loss(h, params, target, 2.0)
            key = f"label.{field}"

            def loss_at(value):
                return label_head_loss(h, {**params, key: value}, target, 2.0)[0]

            numeric = finite_difference(loss_at, params[key])
            assert relative_error(grads[key], numeric) < TOLERANCE

    def test_batch_backward_finite_difference(self):
        # parameter gradients are sums over the rows of the batch
        rng = np.random.default_rng(4)
        params = mos_params(rng, COMPONENTS)
        h = rng.normal(size=(6, DIM))
        probs, cache = heads.mos_forward_batch(h, params)
        dprobs = rng.normal(size=probs.shape)
        grads, dh = heads.mos_backward_batch(cache, dprobs)

        def scalar(h_, params_=params):
            return float((heads.mos_forward_batch(h_, params_)[0] * dprobs).sum())

        assert relative_error(dh, finite_difference(scalar, h)) < TOLERANCE
        assert grads.keys() == params.keys()
        for key in params:
            numeric = finite_difference(lambda v: scalar(h, {**params, key: v}), params[key])
            assert relative_error(grads[key], numeric) < TOLERANCE


class TestMoSContractions:
    # none, one and two leading sentence axes
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=len)
    @pytest.mark.parametrize("rows", [1, 5])
    def test_matches_einsum_reference(self, lead, rows):
        rng = np.random.default_rng(zlib.crc32(f"{lead} {rows}".encode()))
        params = mos_params(rng, COMPONENTS)
        h = rng.normal(size=lead + (rows, DIM))
        probs, cache = heads.mos_forward_batch(h, params)
        want_probs, want_cache = oracles.reference_mos_forward(h, params)
        dprobs = rng.normal(size=probs.shape)
        grads, dh = heads.mos_backward_batch(cache, dprobs)
        want_grads, want_dh = oracles.reference_mos_backward(want_cache, dprobs)
        arrays = [("probs", probs, want_probs), ("dh", dh, want_dh)]
        assert grads.keys() == want_grads.keys() == params.keys()
        arrays += [(key, grads[key], want_grads[key]) for key in params]
        for name, got, want in arrays:
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max(), err_msg=name)

    def test_stack_equals_separate_sentences(self):
        # every sentence of a group stays its own product, bit for bit
        rng = np.random.default_rng(11)
        params = mos_params(rng, 2, dim=64, scale=0.1)
        h = rng.normal(size=(5, 7, 64))
        probs, (_, _, x, *_) = heads.mos_forward_batch(h, params)
        for s in range(len(h)):
            alone, (_, _, alone_x, *_) = heads.mos_forward_batch(h[s:s + 1], params)
            assert np.array_equal(probs[s:s + 1], alone), s
            assert np.array_equal(x[s:s + 1], alone_x), s


class TestLabelLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pred = random_distribution(rng, CLASSES)
            target = random_distribution(rng, CLASSES)
            loss, _ = heads.label_loss(pred[None], target[None], 0.0)
            reference = float(-(target * np.log(pred)).sum())
            assert abs(loss - reference) < 1e-12

    def test_perfect_one_hot_zero_loss(self):
        one_hot = np.zeros((1, CLASSES))
        one_hot[0, 2] = 1.0
        loss, _ = heads.label_loss(one_hot, one_hot, 2.0)
        assert loss == 0.0

    def test_focal_downweights_easy_examples(self):
        pred = np.array([[0.9, 0.05, 0.05]])
        target = np.array([[1.0, 0.0, 0.0]])
        plain, _ = heads.label_loss(pred, target, 0.0)
        focal, _ = heads.label_loss(pred, target, 2.0)
        assert focal < plain

    def test_gradient_wrt_pred(self):
        # finite differences run on the raw focal formula, which extends the
        # loss smoothly off the probability simplex; tempered softmax keeps
        # components away from the high-curvature region near zero
        rng = np.random.default_rng(6)
        for _ in range(20):
            pred = heads.softmax(0.7 * rng.normal(size=(1, CLASSES)))
            target = heads.softmax(0.7 * rng.normal(size=(1, CLASSES)))
            _, dpred = heads.label_loss(pred, target, 2.0)
            numeric = finite_difference(lambda p: _raw_focal(p, target, 2.0), pred)
            assert relative_error(dpred, numeric) < TOLERANCE

    def test_rows_average_single_row_losses(self):
        rng = np.random.default_rng(7)
        pred = rng.dirichlet(np.ones(CLASSES), size=5)
        target = rng.dirichlet(np.ones(CLASSES), size=5)
        loss, dpred = heads.label_loss(pred, target, 2.0)
        singles = [heads.label_loss(p[None], t[None], 2.0) for p, t in zip(pred, target)]
        assert loss == pytest.approx(np.mean([single for single, _ in singles]),
                                     abs=1e-12)
        assert np.abs(dpred - np.concatenate([d for _, d in singles])).max() < 1e-12


def _raw_focal(pred, target, gamma):
    entropy = float(-(target * np.log(np.maximum(pred, 1e-300))).sum())
    p_t = float((target * pred).sum())
    return max(1.0 - p_t, 0.0) ** gamma * entropy


class TestAnchorHead:
    def test_zero_params_give_half(self):
        u = np.zeros((1, DIM + 1, DIM + 1))
        probs, _ = heads.anchor_head(np.ones((3, DIM)), np.ones((4, DIM)), u)
        assert np.abs(probs - 0.5).max() == 0.0

    def test_perfect_confidence_geomean_one(self):
        from mrparse.matcher import geomean_anchor
        assert geomean_anchor([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.normal(0, 0.5, (1, DIM + 1, DIM + 1))
            queries = rng.normal(size=(3, DIM))
            tokens = rng.normal(size=(4, DIM))
            targets = rng.integers(0, 2, (3, 4)).astype(float)
            cache = heads.anchor_head(queries, tokens, u)[1]
            _, du, dq, dt = heads.anchor_loss(cache, targets, np.ones(3, bool))

            def loss_of(u_=None, q_=None, t_=None):
                c = heads.anchor_head(q_ if q_ is not None else queries,
                                      t_ if t_ is not None else tokens,
                                      u_ if u_ is not None else u)[1]
                return heads.anchor_loss(c, targets, np.ones(3, bool))[0]

            assert relative_error(du, finite_difference(
                lambda x: loss_of(u_=x), u)) < TOLERANCE
            assert relative_error(dq, finite_difference(
                lambda x: loss_of(q_=x), queries)) < TOLERANCE
            assert relative_error(dt, finite_difference(
                lambda x: loss_of(t_=x), tokens)) < TOLERANCE

    def test_query_mask_excludes_rows(self):
        rng = np.random.default_rng(8)
        u = rng.normal(0, 0.5, (1, DIM + 1, DIM + 1))
        queries = rng.normal(size=(3, DIM))
        tokens = rng.normal(size=(4, DIM))
        targets = np.zeros((3, 4))
        mask = np.array([True, False, True])
        cache = heads.anchor_head(queries, tokens, u)[1]
        _, _, dq, _ = heads.anchor_loss(cache, targets, mask)
        assert np.abs(dq[1]).max() == 0.0

    def test_all_rows_masked_zero_loss_and_grads(self):
        rng = np.random.default_rng(9)
        u = rng.normal(0, 0.5, (1, DIM + 1, DIM + 1))
        cache = heads.anchor_head(rng.normal(size=(2, DIM)),
                                  rng.normal(size=(3, DIM)), u)[1]
        loss, du, dq, dt = heads.anchor_loss(cache, np.zeros((2, 3)),
                                             np.zeros(2, dtype=bool))
        assert loss == 0.0
        assert np.abs(du).max() == 0.0
        assert np.abs(dq).max() == 0.0
        assert np.abs(dt).max() == 0.0


class TestEdgeHeads:
    def test_presence_target_convention(self):
        # 2 matched nodes, one gold edge a->b: target [[0, 1], [0, 0]]
        presence = np.zeros((2, 2))
        presence[0, 1] = 1.0
        assert presence.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize("head", ["presence", "label"])
    def test_gradients(self, head):
        rng = np.random.default_rng(zlib.crc32(head.encode()))
        classes = 1 if head == "presence" else 4
        for _ in range(20):
            u = rng.normal(0, 0.5, (classes, DIM + 1, DIM + 1))
            states = rng.normal(size=(3, DIM))
            presence = rng.integers(0, 2, (3, 3)).astype(float)
            edges = [(a, b, int(rng.integers(classes))) for a, b in [(0, 1), (2, 0)]]

            def loss_of(u_, s_):
                logits, cache = heads.biaffine_forward(s_, s_, u_)
                if head == "presence":
                    return heads.edge_presence_loss(logits, cache, presence,
                                                    np.ones(3, bool))
                return heads.edge_label_loss(logits, cache, edges)

            _, du, dstates = loss_of(u, states)
            assert relative_error(du, finite_difference(
                lambda x: loss_of(x, states)[0], u)) < TOLERANCE
            assert relative_error(dstates, finite_difference(
                lambda x: loss_of(u, x)[0], states)) < TOLERANCE


    def test_parallel_edges_of_one_pair_each_count(self):
        # two gold edges join (0, 1) with labels 2 and 3: both count in the
        # loss and in the gradient
        rng = np.random.default_rng(zlib.crc32(b"parallel"))
        u = rng.normal(0, 0.5, (4, DIM + 1, DIM + 1))
        states = rng.normal(size=(3, DIM))
        edges = [(0, 1, 2), (0, 1, 3), (2, 0, 1)]

        def loss_of(u_, s_):
            logits, cache = heads.biaffine_forward(s_, s_, u_)
            return heads.edge_label_loss(logits, cache, edges)

        _, du, dstates = loss_of(u, states)
        assert relative_error(du, finite_difference(
            lambda x: loss_of(x, states)[0], u)) < TOLERANCE
        assert relative_error(dstates, finite_difference(
            lambda x: loss_of(u, x)[0], states)) < TOLERANCE

    @pytest.mark.parametrize("head", ["presence", "label"])
    def test_group_gradients_with_padding(self, head):
        # three sentences of 3, 1 and 0 nodes padded to 3: each keeps its own
        # mean, and the padding gets no gradient
        rng = np.random.default_rng(zlib.crc32(f"group {head}".encode()))
        classes = 1 if head == "presence" else 4
        mask = np.arange(3) < np.array([3, 1, 0])[:, None]
        u = rng.normal(0, 0.5, (classes, DIM + 1, DIM + 1))
        states = rng.normal(size=(3, 3, DIM)) * mask[..., None]
        presence = rng.integers(0, 2, (3, 3, 3)) * (mask[..., :, None] & mask[..., None, :])
        edges = [(0, 0, 1, 1), (0, 0, 1, 2), (0, 2, 0, 3), (1, 0, 0, 0)]

        def loss_of(u_, s_):
            logits, cache = heads.biaffine_forward(s_, s_, u_)
            if head == "presence":
                return heads.edge_presence_loss(logits, cache, presence, mask)
            return heads.edge_label_loss(logits, cache, edges)

        loss, du, dstates = loss_of(u, states)
        # the sum of each sentence's loss on its own
        alone = 0.0
        for s, count in enumerate(mask.sum(axis=1)):
            logits, cache = heads.biaffine_forward(states[s, :count], states[s, :count], u)
            if head == "presence":
                alone += heads.edge_presence_loss(logits, cache,
                                                  presence[s, :count, :count],
                                                  np.ones(count, bool))[0]
            else:
                alone += heads.edge_label_loss(
                    logits, cache, [e[1:] for e in edges if e[0] == s])[0]
        assert loss == pytest.approx(alone, rel=1e-12)
        assert np.abs(dstates[~mask]).max() == 0.0
        assert relative_error(du, finite_difference(
            lambda x: loss_of(x, states)[0], u)) < TOLERANCE
        assert relative_error(dstates, finite_difference(
            lambda x: loss_of(u, x)[0], states)) < TOLERANCE


class TestPropertyHead:
    def test_gradients(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            w = rng.normal(size=DIM)
            b = float(rng.normal())
            states = rng.normal(size=(4, DIM))
            targets = rng.integers(0, 2, 4).astype(float)
            mask = np.ones(4, bool)
            _, dw, db, dstates = heads.property_loss(states, w, b, targets, mask)
            assert relative_error(dw, finite_difference(
                lambda x: heads.property_loss(states, x, b, targets, mask)[0],
                w)) < TOLERANCE
            assert relative_error(dstates, finite_difference(
                lambda x: heads.property_loss(x, w, b, targets, mask)[0],
                states)) < TOLERANCE
            numeric_b = finite_difference(
                lambda x: heads.property_loss(states, w, float(x), targets, mask)[0],
                np.array(b))
            assert relative_error(np.array(db), numeric_b) < TOLERANCE


class TestTopHead:
    def test_gradients(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            w = rng.normal(size=DIM)
            states = rng.normal(size=(4, DIM))
            gold = int(rng.integers(4))
            mask = np.ones(4, bool)
            _, dw, dstates = heads.top_loss(states, w, gold, mask)
            assert relative_error(dw, finite_difference(
                lambda x: heads.top_loss(states, x, gold, mask)[0], w)) < TOLERANCE
            assert relative_error(dstates, finite_difference(
                lambda x: heads.top_loss(x, w, gold, mask)[0], states)) < TOLERANCE

    def test_group_gradients_with_padding(self):
        # two sentences of 4 and 2 nodes: each softmax runs over its own nodes
        rng = np.random.default_rng(14)
        mask = np.arange(4) < np.array([4, 2])[:, None]
        w = rng.normal(size=DIM)
        states = rng.normal(size=(2, 4, DIM))
        gold = np.array([3, 1])
        loss, dw, dstates = heads.top_loss(states, w, gold, mask)
        alone = (heads.top_loss(states[0], w, 3, np.ones(4, bool))[0]
                 + heads.top_loss(states[1, :2], w, 1, np.ones(2, bool))[0])
        assert loss == pytest.approx(alone, rel=1e-12)
        assert np.abs(dstates[~mask]).max() == 0.0
        assert relative_error(dw, finite_difference(
            lambda x: heads.top_loss(states, x, gold, mask)[0], w)) < TOLERANCE
        assert relative_error(dstates, finite_difference(
            lambda x: heads.top_loss(x, w, gold, mask)[0], states)) < TOLERANCE


class TestLossBundle:
    def test_plain_sum(self):
        bundle = oracles.LossBundle(losses={"a": 1.0, "b": 2.0},
                                    weights={"a": 1.0, "b": 1.0})
        assert oracles.total_loss(bundle) == 3.0

    def test_weighted_single_task(self):
        bundle = oracles.LossBundle(losses={"a": 2.0}, weights={"a": 0.5})
        assert oracles.total_loss(bundle) == 1.0

    def test_zero_losses(self):
        bundle = oracles.LossBundle(losses={"a": 0.0, "b": 0.0},
                                    weights={"a": 3.0, "b": 4.0})
        assert oracles.total_loss(bundle) == 0.0

    def test_missing_weight_rejected(self):
        with pytest.raises(heads.HeadError):
            oracles.LossBundle(losses={"a": 1.0}, weights={})
