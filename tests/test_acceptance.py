"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (pytest -v also reports one line per criterion by test name).
"""

import time

import numpy as np
import pytest

from mrparse import balance, cli, corpus, heads, hitting, model, rules
from mrparse import matcher, scorer, trainer, transform
from mrparse.graph import Anchor, Graph, Node, load_graphs, parse_graph, serialize_graph
from conftest import fixture_path
import oracles
from oracles import (brute_force_assignment, finite_difference, label_head_loss,
                     relative_error)


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_assignment_oracle():
    start = time.time()
    rng = np.random.default_rng(2020)
    for _ in range(100):
        scores = rng.random((6, 6))
        ours = matcher.optimal_assignment(scores)
        _, oracle = brute_force_assignment(scores)
        assert ours.score == oracle
    fixtures = [
        np.eye(2), np.array([[0.1, 0.9], [0.9, 0.1]]),
        np.eye(3), np.array([[0.5, 0.5, 0.1], [0.5, 0.1, 0.5], [0.1, 0.5, 0.5]]),
        np.zeros((3, 3)),
    ]
    for scores in fixtures:
        ours = matcher.optimal_assignment(scores)
        _, oracle = brute_force_assignment(scores)
        assert ours.score == oracle
    elapsed = time.time() - start
    assert elapsed < 1.0, f"assignment oracle took {elapsed:.2f}s"
    report(1, f"optimal_assignment equals enumeration on 100 random 6x6 "
              f"and structured fixtures in {elapsed:.2f}s")


def test_criterion_02_hitting_set_oracle():
    start = time.time()
    rng = np.random.default_rng(2021)
    for _ in range(200):
        num_rules = int(rng.integers(1, 13))
        num_nodes = int(rng.integers(1, 9))
        sets = []
        for _ in range(num_nodes):
            size = int(rng.integers(1, num_rules + 1))
            sets.append(frozenset(int(x) for x in
                                  rng.choice(num_rules, size=size, replace=False)))
        exact = hitting.minimal_hitting_set(sets, range(num_rules))
        brute = oracles.brute_force_min_hitting_set(sets, num_rules)
        assert len(exact) == len(brute)
        assert exact == brute
    assert hitting.minimal_hitting_set(
        [frozenset({0, 1}), frozenset({1, 2})], range(3)) == (1,)
    assert hitting.minimal_hitting_set(
        [frozenset({0}), frozenset({1})], range(2)) == (0, 1)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"hitting-set oracle took {elapsed:.2f}s"
    report(2, f"minimal_rule_set cardinality equals brute force on 200 random "
              f"instances and both fixtures in {elapsed:.2f}s")


def test_criterion_03_permutation_invariance():
    config = trainer.TrainConfig()
    graphs = corpus.synth_corpus(1, 70)
    meta, examples, _ = trainer.prepare(config, graphs)
    params = trainer.init_model(meta, np.random.default_rng(123))
    rng = np.random.default_rng(321)
    checked = 0
    for example in examples:
        if checked == 50:
            break
        base_loss, base_pairs = oracles.sentence_total_loss(params, config, example)
        shuffled = oracles.shuffle_targets(example, rng)
        moved_loss, moved_pairs = oracles.sentence_total_loss(params, config, shuffled)
        assert abs(base_loss - moved_loss) <= 1e-8
        assert base_pairs == moved_pairs
        checked += 1
    assert checked == 50
    report(3, "gold-order shuffling changes loss by <= 1e-8 with identical "
              "query pairings on 50 seeded sentences")


def test_criterion_04_rule_examples():
    multiword = rules.TokenRule(0, 1, "+", 0, 0, "_", "_a_1")
    tokens = ["at", "the", "very", "least", ","]
    assert rules.apply_rule(multiword, tokens, tokens) == "_at+the+very+least_a_1"
    strip_append = rules.TokenRule(0, 0, "", 0, 3, "", "e")
    assert rules.apply_rule(strip_append, ["diving"], ["diving"]) == "dive"
    assert rules.apply_rule(rules.NumberRule(), ["forty", "two"], []) == "42"
    report(4, "the three reference rule applications produce the exact strings")


def test_criterion_05_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(99)
    dim, classes = 5, 6
    draws = 20
    worst = {}

    # mixture-of-softmaxes label head with the focal loss on top
    errors = []
    for _ in range(draws):
        params = {}
        heads.init_mos(rng, params, dim, classes, 3, 0.5)
        h = rng.normal(size=dim)
        target = rng.dirichlet(np.ones(classes))
        _, dh, grads = label_head_loss(h, params, target, 2.0)
        errors.append(relative_error(dh, finite_difference(
            lambda x: label_head_loss(x, params, target, 2.0)[0], h)))
        errors.append(relative_error(grads["label.out_w"], finite_difference(
            lambda w: label_head_loss(h, {**params, "label.out_w": w}, target, 2.0)[0],
            params["label.out_w"])))
    worst["mos+focal"] = max(errors)

    # plain focal label loss wrt predictions; distributions come from a
    # tempered softmax so no component sits in the high-curvature region
    # where finite differences at step 1e-5 lose accuracy
    errors = []
    for _ in range(draws):
        pred = heads.softmax(0.7 * rng.normal(size=(1, classes)))
        target = heads.softmax(0.7 * rng.normal(size=(1, classes)))
        _, dpred = heads.label_loss(pred, target, 2.0)

        def raw(p):
            entropy = float(-(target * np.log(np.maximum(p, 1e-300))).sum())
            return max(1.0 - float((target * p).sum()), 0.0) ** 2.0 * entropy

        errors.append(relative_error(dpred, finite_difference(raw, pred)))
    worst["focal"] = max(errors)

    # anchor biaffine
    errors = []
    for _ in range(draws):
        u = rng.normal(0, 0.5, (1, dim + 1, dim + 1))
        queries = rng.normal(size=(3, dim))
        tokens = rng.normal(size=(4, dim))
        targets = rng.integers(0, 2, (3, 4)).astype(float)
        cache = heads.anchor_head(queries, tokens, u)[1]
        mask = np.ones(3, bool)
        _, du, dq, dt = heads.anchor_loss(cache, targets, mask)
        loss_of = lambda u_: heads.anchor_loss(
            heads.anchor_head(queries, tokens, u_)[1], targets, mask)[0]
        errors.append(relative_error(du, finite_difference(loss_of, u)))
        errors.append(relative_error(dq, finite_difference(
            lambda q: heads.anchor_loss(
                heads.anchor_head(q, tokens, u)[1], targets, mask)[0], queries)))
    worst["anchor"] = max(errors)

    # three edge heads
    for name, classes_ in (("edge presence", 1), ("edge label", 4),
                           ("edge attribute", 3)):
        errors = []
        for _ in range(draws):
            u = rng.normal(0, 0.5, (classes_, dim + 1, dim + 1))
            states = rng.normal(size=(3, dim))
            presence = rng.integers(0, 2, (3, 3)).astype(float)
            edges = [(a, b, int(rng.integers(classes_))) for a, b in [(0, 1), (2, 0)]]

            def loss_of(u_, s_):
                logits, cache = heads.biaffine_forward(s_, s_, u_)
                if name == "edge presence":
                    return heads.edge_presence_loss(logits, cache, presence,
                                                    np.ones(3, bool))
                # the attribute head is a multi-class label head
                return heads.edge_label_loss(logits, cache, edges)

            _, du, dstates = loss_of(u, states)
            errors.append(relative_error(du, finite_difference(
                lambda x: loss_of(x, states)[0], u)))
            errors.append(relative_error(dstates, finite_difference(
                lambda x: loss_of(u, x)[0], states)))
        worst[name] = max(errors)

    # property head
    errors = []
    for _ in range(draws):
        w = rng.normal(size=dim)
        states = rng.normal(size=(4, dim))
        targets = rng.integers(0, 2, 4).astype(float)
        mask = np.ones(4, bool)
        _, dw, _, dstates = heads.property_loss(states, w, 0.1, targets, mask)
        errors.append(relative_error(dw, finite_difference(
            lambda x: heads.property_loss(states, x, 0.1, targets, mask)[0], w)))
        errors.append(relative_error(dstates, finite_difference(
            lambda x: heads.property_loss(x, w, 0.1, targets, mask)[0], states)))
    worst["property"] = max(errors)

    # top head
    errors = []
    for _ in range(draws):
        w = rng.normal(size=dim)
        states = rng.normal(size=(4, dim))
        gold = int(rng.integers(4))
        mask = np.ones(4, bool)
        _, dw, dstates = heads.top_loss(states, w, gold, mask)
        errors.append(relative_error(dw, finite_difference(
            lambda x: heads.top_loss(states, x, gold, mask)[0], w)))
        errors.append(relative_error(dstates, finite_difference(
            lambda x: heads.top_loss(x, w, gold, mask)[0], states)))
    worst["top"] = max(errors)

    # decoder block
    errors = []
    for _ in range(draws):
        params = {}
        model.init_block(rng, params, "dec", dim, 8, cross=True, scale=0.4)
        x = rng.normal(size=(3, dim))
        memory = rng.normal(size=(2, dim))
        downstream = rng.normal(size=(3, dim))
        _, cache = model.block_forward(params, "dec", x, memory)
        grads = {}
        dx, dmem = model.block_backward(params, "dec", cache, downstream, grads)

        def loss_of(x_=x, mem_=memory):
            y, _ = model.block_forward(params, "dec", x_, mem_)
            return float((y * downstream).sum())

        errors.append(relative_error(dx, finite_difference(
            lambda v: loss_of(x_=v), x)))
        errors.append(relative_error(dmem, finite_difference(
            lambda v: loss_of(mem_=v), memory)))
        key = "dec.cross.wq"
        base = params[key]

        def loss_at(value):
            params[key] = value
            try:
                return loss_of()
            finally:
                params[key] = base

        errors.append(relative_error(grads[key], finite_difference(loss_at, base)))
    worst["decoder block"] = max(errors)

    elapsed = time.time() - start
    for name, error in worst.items():
        assert error < 1e-5, f"{name}: relative error {error:.2e}"
    assert elapsed < 30.0, f"gradient suite took {elapsed:.2f}s"
    report(5, f"all heads and the decoder block pass finite-difference checks "
              f"(worst {max(worst.values()):.2e}) in {elapsed:.2f}s")


def test_criterion_06_degeneracies():
    rng = np.random.default_rng(17)
    classes = 9
    for _ in range(100):
        pred = rng.dirichlet(np.ones(classes))
        plain = 0.9 * rules.build_rule_target([int(rng.integers(classes - 1))],
                                              classes - 1) + 0.1 / classes
        loss, _ = heads.label_loss(pred[None], plain[None], 0.0)
        reference = float(-(plain * np.log(pred)).sum())
        assert abs(loss - reference) <= 1e-12
    dim = 6
    for _ in range(100):
        params = {}
        heads.init_mos(rng, params, dim, classes, 1, 0.5)
        h = rng.normal(size=dim)
        probs = heads.mos_forward_batch(h[None, :], params)[0][0]
        reference = heads.softmax(
            np.tanh(params["label.proj_w"][0] @ h + params["label.proj_b"][0])
            @ params["label.out_w"] + params["label.out_b"])
        assert np.abs(probs - reference).max() <= 1e-12
    report(6, "focal gamma=0 equals smoothed cross-entropy and MoS K=1 equals "
              "softmax within 1e-12 on 100 random inputs each")


def test_criterion_07_loss_balancing():
    rng = np.random.default_rng(23)
    tasks = ("label", "anchor", "edge")
    weights = {t: 1.0 for t in tasks}
    initial = {t: 1.0 for t in tasks}
    for _ in range(50):
        norms = {t: float(rng.uniform(0.1, 5.0)) for t in tasks}
        losses = {t: float(rng.uniform(0.01, 1.5)) for t in tasks}
        weights, _ = balance.update_loss_weights(norms, losses, initial, weights,
                                                 alpha=1.5, lr=0.025)
        assert abs(sum(weights.values()) - len(tasks)) <= 1e-12
        assert all(w > 0 for w in weights.values())
    two = {"fast": 1.0, "slow": 1.0}
    updated, _ = balance.update_loss_weights(
        {"fast": 1.0, "slow": 1.0}, {"fast": 0.05, "slow": 0.9},
        {"fast": 1.0, "slow": 1.0}, two, alpha=1.5, lr=0.025)
    assert updated["fast"] < two["fast"]
    report(7, "weights renormalize to the task count within 1e-12 and the "
              "faster-improving task's weight strictly decreases")


def test_criterion_08_transform_laws(all_fixture_graphs):
    amr_fig = load_graphs(fixture_path("amr.jsonl"))[0]
    for g in [*all_fixture_graphs, *corpus.synth_corpus(1, 500)]:
        nodeified = transform.nodeify_properties(g)
        created = {n.id for n in nodeified.nodes} - {n.id for n in g.nodes}
        assert transform.fold_property_nodes(nodeified, created) == g
        once, _ = transform.normalize_inverted_edges(g)
        twice, again = transform.normalize_inverted_edges(once)
        assert once == twice
        assert again == ()
    out = transform.preprocess("amr", amr_fig)
    created = out.node_by_id(5)
    assert created.label == "2"
    assert any(e.source == 0 and e.target == 5 and e.label == "quant"
               for e in out.edges)
    assert any(e.label == "domain" for e in out.edges)  # "mod" alias reversed
    # (0, "quant", 5): node 5 is the one node nodeify created
    assert {n.id for n in out.nodes} - {n.id for n in amr_fig.nodes} == {5}
    report(8, "folding the created nodes of nodeify is the identity and "
              "de-inversion is idempotent on all fixtures, including the "
              "two-person example, and on the 500 graphs of synth_corpus seed 1")


def test_criterion_09_toy_end_to_end(trained_toy):
    elapsed = trained_toy["seconds"]
    metrics = trained_toy["metrics"]
    trained = trained_toy["trained"]
    config = trained_toy["config"]
    assert elapsed <= 300.0, f"training took {elapsed:.0f}s"
    assert len(metrics) <= 30
    final = metrics[-1]["f1"]
    assert final["labels"] >= 0.95, final
    assert final["anchors"] >= 0.95, final
    assert final["edges"] >= 0.90, final
    train_graphs, _ = trainer.split_corpus(trained_toy["graphs"],
                                           config.eval_fraction)
    labels = set()
    for g in train_graphs:
        pre, _ = trainer.preprocess_gold(g)
        labels.update(n.label for n in pre.nodes if n.label is not None)
    assert len(trained.meta.rule_table) <= len(labels) / 5
    report(9, f"seed-1 run: {len(metrics)} epochs in {elapsed:.0f}s, label F1 "
              f"{final['labels']:.3f}, anchor F1 {final['anchors']:.3f}, edge F1 "
              f"{final['edges']:.3f}, {len(trained.meta.rule_table)} rules for "
              f"{len(labels)} labels")


def test_trained_model_reproduces_training_sentences(trained_toy):
    # not a numbered criterion: the trained parser must emit the exact gold
    # graph for at least 90% of its training sentences
    trained = trained_toy["trained"]
    config = trained_toy["config"]
    train_graphs, _ = trainer.split_corpus(trained_toy["graphs"],
                                           config.eval_fraction)
    exact = 0
    for g in train_graphs:
        pred = trainer.predict(trained, g.input)
        result = scorer.score_pair(g, pred)
        if all(counts.f1 == 1.0 for counts in result.metrics.values()
               if counts.gold or counts.predicted):
            exact += 1
    assert exact >= 0.9 * len(train_graphs)


def test_trained_model_decodes_numerals(trained_toy):
    trained = trained_toy["trained"]
    numeral = next(g for g in trained_toy["graphs"]
                   if (g.nodes[0].label or "").isdigit())
    pred = trainer.predict(trained, numeral.input)
    assert any(n.label == numeral.nodes[0].label for n in pred.nodes)


def test_criterion_10_scorer_laws(all_fixture_graphs):
    for g in all_fixture_graphs:
        identity = scorer.score_pair(g, g)
        for name, counts in identity.metrics.items():
            if counts.gold:
                assert counts.f1 == 1.0, name
        empty = Graph(id="empty", framework=g.framework, flavor=g.flavor,
                      input=g.input)
        hollow = scorer.score_pair(g, empty)
        for counts in hollow.metrics.values():
            assert counts.f1 == 0.0
    gold = Graph(id="g", framework="eds", flavor=1, input="ab cd",
                 nodes=(Node(0, "x", anchors=(Anchor(0, 2),), is_top=True),
                        Node(1, "y", anchors=(Anchor(3, 5),))),
                 edges=())
    pred = Graph(id="p", framework="eds", flavor=1, input="ab cd",
                 nodes=(Node(0, "x", anchors=(Anchor(0, 2),)),))
    assert scorer.score_pair(gold, pred).metrics["labels"].f1 == pytest.approx(2 / 3)
    report(10, "identity scores 1.0, empty prediction scores 0.0, and the "
               "hand-counted case yields labels F1 = 2/3")


def test_criterion_11_round_trip_and_determinism(tmp_path, all_fixture_graphs,
                                                 capsys):
    for g in all_fixture_graphs:
        assert parse_graph(serialize_graph(g)) == g
    matrix = tmp_path / "scores.txt"
    matrix.write_text("3\n0.2 0.8 0.5\n0.9 0.1 0.3\n0.4 0.6 0.7\n")
    outputs = []
    for name in ("one", "two"):
        out_path = tmp_path / f"{name}.txt"
        assert cli.run(["match", "--input", str(matrix),
                        "--output", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    tables = []
    for name in ("s1", "s2"):
        table_path = tmp_path / f"{name}.txt"
        assert cli.run(["rules-infer", "--framework", "eds",
                        "--input", fixture_path("eds.jsonl"),
                        "--rule-table", str(table_path)]) == 0
        tables.append(table_path.read_bytes())
    assert tables[0] == tables[1]
    capsys.readouterr()
    report(11, "JSONL round-trips on every fixture and repeated CLI "
               "invocations are byte-identical")
