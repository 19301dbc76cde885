import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrparse import corpus, model, rules, scorer, trainer
from mrparse.graph import (Anchor, Edge, Graph, anchored_token_indices, graph_tokens,
                           load_graphs, serialize_graph)
from conftest import SIZE_BOUNDS, fixture_path
import oracles

GOLDEN_SEED1_SIZE1 = (
    '{"id":"toy-0","flavor":1,"framework":"eds","input":"sixty seven frogs are '
    'diving","tops":[2],"nodes":[{"id":0,"label":"67","anchors":[{"from":0,"to":11}]},'
    '{"id":1,"label":"_frog_n","properties":["num"],"values":["pl"],"anchors":'
    '[{"from":12,"to":17}]},{"id":2,"label":"dive","anchors":[{"from":22,"to":28}]}],'
    '"edges":[{"source":0,"target":1,"label":"quantity"},{"source":2,"target":1,'
    '"label":"ARG1"}],"tokens":[{"form":"sixty","from":0,"to":5,"lemma":"sixty"},'
    '{"form":"seven","from":6,"to":11,"lemma":"seven"},{"form":"frogs","from":12,'
    '"to":17,"lemma":"frogs"},{"form":"are","from":18,"to":21,"lemma":"are"},'
    '{"form":"diving","from":22,"to":28,"lemma":"diving"}]}')


class TestSchedule:
    config = trainer.TrainConfig(warmup_steps=200, freeze_steps=50,
                                 lr_encoder=1e-3, lr_rest=3e-3)

    def test_step_zero(self):
        lr_encoder, lr_rest = trainer.lr_schedule(0, self.config)
        assert lr_encoder == 0.0
        assert lr_rest > 0.0

    def test_encoder_frozen_then_warm(self):
        assert trainer.lr_schedule(49, self.config)[0] == 0.0
        assert trainer.lr_schedule(50, self.config)[0] > 0.0

    def test_peak_at_end_of_warmup(self):
        step = self.config.freeze_steps + self.config.warmup_steps
        assert trainer.lr_schedule(step, self.config)[0] == pytest.approx(1e-3)

    def test_inverse_sqrt_half_at_four_warmups(self):
        step = self.config.freeze_steps + 4 * self.config.warmup_steps
        assert trainer.lr_schedule(step, self.config)[0] == pytest.approx(1e-3 / 2)
        assert trainer.lr_schedule(4 * self.config.warmup_steps,
                                   self.config)[1] == pytest.approx(3e-3 / 2)


class TestCorpus:
    def test_golden_fixture(self):
        g = corpus.synth_corpus(1, 1)[0]
        assert serialize_graph(g) == GOLDEN_SEED1_SIZE1

    def test_determinism(self):
        a = corpus.synth_corpus(7, 50)
        b = corpus.synth_corpus(7, 50)
        assert a == b

    def test_different_seeds_differ(self):
        assert corpus.synth_corpus(1, 20) != corpus.synth_corpus(2, 20)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            corpus.synth_corpus(1, 0)

    def test_size_500_vocabulary_and_compression(self):
        graphs = corpus.synth_corpus(1, 500)
        pre_graphs = [trainer.preprocess_gold(g)[0] for g in graphs]
        items, names = rules.label_items(pre_graphs)
        table = rules.minimal_rule_set(rules.build_problem(items, names=names))
        labels = {n.label for pre in pre_graphs for n in pre.nodes if n.label is not None}
        assert len(labels) > 50
        assert len(table) < len(labels) / 5

    def test_feature_coverage(self):
        graphs = corpus.synth_corpus(3, 200)
        has_property = any(n.properties for g in graphs for n in g.nodes)
        has_inverted = any(e.label.endswith("-of") for g in graphs for e in g.edges)
        has_numeral = any((n.label or "").isdigit() for g in graphs for n in g.nodes)
        has_absolute = any(n.label == "person" for g in graphs for n in g.nodes)
        assert has_property and has_inverted and has_numeral and has_absolute


class TestLabelTargets:
    @pytest.mark.parametrize("source", ["seed1", "seed2", "seed3", "eds"])
    def test_targets_equal_table_rules_applied(self, source):
        # the targets come from the solved rule-set problem; applying every
        # table rule to each node's anchored tokens must give the same rows
        if source == "eds":
            # the fixture's two graphs train; a synthetic graph is held out
            graphs = load_graphs(fixture_path("eds.jsonl")) + corpus.synth_corpus(1, 1)
            config = trainer.TrainConfig(eval_fraction=0.1)
        else:
            config = trainer.TrainConfig(seed=int(source[-1]), corpus_size=500)
            graphs = None
        meta, examples, _ = trainer.prepare(config, graphs)
        assert len(examples) == (2 if source == "eds" else 400)
        for example in examples:
            pre, _ = trainer.preprocess_gold(example.gold)
            expected = oracles.reference_label_targets(pre, meta.rule_table)
            assert np.array_equal(example.label_targets, expected), example.gold.id


def tiny_config(**overrides):
    defaults = dict(dim=16, ffn_dim=24, corpus_size=24, epochs=1, batch_size=8,
                    warmup_steps=10, freeze_steps=2)
    defaults.update(overrides)
    return trainer.TrainConfig(**defaults)


def twin_node_graphs():
    """40 synthetic graphs, each with a twin of node 0 (same label and
    anchors), which the match score cannot tell apart from it, and an edge
    from node 0 to the twin, which the edge loss can."""
    from mrparse.graph import Edge
    graphs = []
    for g in corpus.synth_corpus(3, 40):
        twin = dataclasses.replace(g.nodes[0], id=g.next_node_id(), is_top=False)
        graphs.append(dataclasses.replace(
            g, nodes=g.nodes + (twin,),
            edges=g.edges + (Edge(g.nodes[0].id, twin.id, "twin"),)))
    return graphs


def oversized_tie_graphs():
    """24 synthetic graphs, each with MAX_TIE_GROUP copies of node 0: one tie
    group past the bound, which needs 5 queries a token."""
    from mrparse import matcher
    return [dataclasses.replace(g, nodes=g.nodes + tuple(
                dataclasses.replace(g.nodes[0], id=g.next_node_id() + k, is_top=False)
                for k in range(matcher.MAX_TIE_GROUP)))
            for g in corpus.synth_corpus(3, 24)]


@pytest.fixture(scope="module")
def tiny_setup():
    config = tiny_config()
    graphs = corpus.synth_corpus(2, config.corpus_size)
    meta, examples, _ = trainer.prepare(config, graphs)
    rng = np.random.default_rng(0)
    params = trainer.init_model(meta, rng)
    return config, meta, examples, params


def assert_group_matches_finite_differences(config, params, group, rng):
    """sentence_losses, add_head_grads and backward_sentence on the
    evaluation forward of group against central differences of the weighted
    total loss sum_t w_t loss_t, at fixed assignments."""
    tasks = trainer.TASKS
    weights = {t: float(rng.uniform(0.5, 2.0)) for t in tasks}
    token_ids = np.stack([e.token_ids for e in group])
    fwd = trainer.forward_sentence(params, config, token_ids)
    assignments = [trainer.match_queries(fwd, row, example, params)
                   for row, example in enumerate(group)]
    losses, grads = trainer.sentence_losses(params, config, group, fwd, assignments)
    assert set(losses) == set(tasks)
    total_grads = {}
    trainer.add_head_grads(grads, weights, 1.0, total_grads)
    trainer.backward_sentence(params, fwd, grads.dhidden, grads.anchor_dmemory,
                              weights, 1.0, total_grads, {})
    assert set(total_grads) == set(params)

    def weighted_loss(key, value):
        moved = {**params, key: value}
        fwd = trainer.forward_sentence(moved, config, token_ids)
        losses, _ = trainer.sentence_losses(moved, config, group, fwd, assignments)
        return sum(weights[t] * losses[t] for t in tasks)

    step = 1e-5
    for key, base in params.items():
        analytic = np.asarray(total_grads[key])
        # the largest entry, so every key checks a nonzero gradient when it
        # has one (most emb rows belong to other tokens), plus random ones
        sampled = {np.unravel_index(np.abs(analytic).argmax(), base.shape)}
        sampled |= {tuple(int(rng.integers(n)) for n in base.shape)
                    for _ in range(3)}
        for idx in sampled:
            plus, minus = base.copy(), base.copy()
            plus[idx] += step
            minus[idx] -= step
            numeric = (weighted_loss(key, plus)
                       - weighted_loss(key, minus)) / (2.0 * step)
            assert abs(analytic[idx] - numeric) <= 1e-8 + 1e-5 * abs(numeric), \
                (key, idx, analytic[idx], numeric)


class TestSentencePass:
    def test_loss_reasonable_and_finite(self, tiny_setup):
        config, meta, examples, params = tiny_setup
        example = examples[0]
        fwd = trainer.forward_sentence(params, config, example.token_ids[None])
        assignment = trainer.match_queries(fwd, 0, example, params)
        losses, grads = trainer.sentence_losses(params, config, [example], fwd,
                                                [assignment])
        for value in losses.values():
            assert np.isfinite(value) and value >= 0.0
        assert grads is not None

    def test_null_queries_only_contribute_label_loss(self, tiny_setup):
        config, meta, examples, params = tiny_setup
        example = examples[0]
        fwd = trainer.forward_sentence(params, config, example.token_ids[None])
        assignment = trainer.match_queries(fwd, 0, example, params)
        losses, grads = trainer.sentence_losses(params, config, [example], fwd,
                                                [assignment])
        null_queries = [q for q, node in oracles.pairing(example, assignment,
                                                         fwd.hidden.shape[1])
                        if node is None]
        assert null_queries, "expected more queries than gold nodes"
        # every head except the label head must have exactly zero gradient
        # on the hidden states of null-matched queries
        tasks = trainer.TASKS
        for task in ("anchor", "edge_presence", "edge_label", "property", "top"):
            assert task in losses
            dhidden = grads.dhidden[tasks.index(task), 0]
            for q in null_queries:
                assert np.abs(dhidden[q]).max() == 0.0, task
        # the label head does push null queries (toward the null class)
        assert any(np.abs(grads.dhidden[tasks.index("label"), 0][q]).max() > 0.0
                   for q in null_queries)

    def test_permutation_invariance_small(self, tiny_setup):
        config, meta, examples, params = tiny_setup
        rng = np.random.default_rng(5)
        for example in examples[:6]:
            base, base_pairs = oracles.sentence_total_loss(params, config, example)
            shuffled = oracles.shuffle_targets(example, rng)
            moved, moved_pairs = oracles.sentence_total_loss(params, config, shuffled)
            assert abs(base - moved) <= 1e-8
            assert base_pairs == moved_pairs


    def test_tie_break_scores_perms_with_sentence_edge_losses(self, tiny_setup,
                                                              monkeypatch):
        from mrparse import matcher
        config, meta, examples, params = tiny_setup
        example = examples[0]
        # a copy of target 0 is interchangeable with it for the match score;
        # an extra edge from the copy makes the two orderings differ in edge loss
        copy = len(example.label_targets)
        tied = oracles.with_targets(example, [*range(copy), 0],
                                    edges=np.vstack((example.edges, [(copy, 1, 0)])))
        seen = {}
        align_targets = matcher.align_targets

        def capture(*args, edge_loglik, **kwargs):
            def recorded(queries):
                seen[queries] = edge_loglik(queries)
                return seen[queries]
            return align_targets(*args, edge_loglik=recorded, **kwargs)

        monkeypatch.setattr(matcher, "align_targets", capture)
        fwd = trainer.forward_sentence(params, config, tied.token_ids[None])
        kept = trainer.match_queries(fwd, 0, tied, params)
        assert len(set(seen.values())) >= 2
        for queries, loss in seen.items():
            losses, _ = trainer.sentence_losses(
                params, config, [tied], fwd, [matcher.Assignment(queries, kept.score)])
            assert loss == losses["edge_presence"] + losses["edge_label"]
        assert seen[kept.queries] == min(seen.values()) < max(seen.values())

    def test_sentence_backward_matches_finite_differences(self):
        # the composition train runs: sentence_losses, then add_head_grads and
        # backward_sentence, against central differences of sum_t w_t loss_t
        # over the fixed assignment, on the evaluation forward of a group of one
        config = tiny_config(dim=8, ffn_dim=12)
        meta, examples, _ = trainer.prepare(
            config, corpus.synth_corpus(2, config.corpus_size))
        params = trainer.init_model(meta, np.random.default_rng(0))
        example = next(e for e in examples if e.top_index is not None)
        assert_group_matches_finite_differences(config, params, [example],
                                                np.random.default_rng(41))

    def test_group_of_three_matches_finite_differences(self):
        # the same check on a group, so the sentence axis of the group losses
        # is held to numbers, not only to the per-sentence reference
        config = tiny_config(dim=8, ffn_dim=12)
        meta, examples, _ = trainer.prepare(
            config, corpus.synth_corpus(2, config.corpus_size))
        params = trainer.init_model(meta, np.random.default_rng(0))
        lengths = [len(e.token_ids) for e in examples]
        length = max(set(lengths), key=lengths.count)
        group = [e for e in examples if len(e.token_ids) == length][:3]
        assert len(group) == 3 and any(e.top_index is not None for e in group)
        assert_group_matches_finite_differences(config, params, group,
                                                np.random.default_rng(45))

    def test_one_decoder_backward_matches_per_task_reference(self):
        # fixed weights: the weighted sum through one decoder backward equals
        # the weighted sum of per-task decoder backwards up to rounding, and
        # the balance sums are each task's own last-layer grads
        config = tiny_config()
        meta, examples, _ = trainer.prepare(
            config, corpus.synth_corpus(2, config.corpus_size))
        params = trainer.init_model(meta, np.random.default_rng(0))
        tasks = trainer.TASKS
        rng = np.random.default_rng(43)
        weights = {t: float(rng.uniform(0.5, 2.0)) for t in tasks}
        scale = 0.25
        for example in examples[:6]:
            fwd = trainer.forward_sentence(params, config, example.token_ids[None])
            assignment = trainer.match_queries(fwd, 0, example, params)
            _, grads = trainer.sentence_losses(params, config, [example], fwd,
                                               [assignment])
            total_grads, task_sums = {}, {}
            trainer.add_head_grads(grads, weights, scale, total_grads)
            trainer.backward_sentence(params, fwd, grads.dhidden, grads.anchor_dmemory,
                                      weights, scale, total_grads, task_sums)
            # the reference takes the sentence's 2-D pass and grads
            sentence = oracles.sentence_passes(fwd, params)[0]
            want, per_task = oracles.reference_backward_sentence(
                params, sentence, trainer.SentenceGrads(
                    head=grads.head, dhidden=grads.dhidden[:, 0],
                    anchor_dmemory=grads.anchor_dmemory[0]), weights, scale)
            assert set(total_grads) == set(want) == set(params)
            # entries near zero differ by the rounding of the larger terms
            # they sum, so they are held to the largest entry
            largest = max(np.abs(grad).max() for grad in want.values())
            for key, grad in want.items():
                np.testing.assert_allclose(total_grads[key], grad, rtol=1e-12,
                                           atol=1e-12 * largest, err_msg=key)
            assert set(task_sums) == {"dec.ffn.w2", "dec.ffn.b2"}
            for key, sums in task_sums.items():
                assert sums.shape == (len(tasks),) + params[key].shape
                for row in range(len(tasks)):
                    assert np.array_equal(sums[row], scale * per_task[row][key]), key


def assert_bit_equal(got, want, where="pass"):
    """Equal structure and every array equal bit for bit."""
    if isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_bit_equal(g, w, f"{where}[{k}]")
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_bit_equal(getattr(got, f.name), getattr(want, f.name),
                             f"{where}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape and np.array_equal(got, want), where
    else:
        assert got == want, where


class TestGroupForward:
    @pytest.mark.parametrize("train", [False, True])
    def test_group_slices_equal_sentence_forward(self, tiny_setup, train):
        config, meta, examples, params = tiny_setup
        rng = np.random.default_rng(21)
        for size in range(1, 14):
            length = int(rng.integers(1, 9))
            token_ids = np.stack([
                np.resize(examples[int(rng.integers(len(examples)))].token_ids, length)
                for _ in range(size)])
            # drawn in sentence order, at a rate that drops layers often
            dropped = np.stack([model.draw_layer_dropout(
                rng, config.encoder_layers + 1, 0.5) for _ in range(size)]) if train else None
            passes = oracles.sentence_passes(
                trainer.forward_sentence(params, config, token_ids, dropped), params)
            assert len(passes) == size
            for i, fwd in enumerate(passes):
                alone = oracles.sentence_passes(trainer.forward_sentence(
                    params, config, token_ids[i:i + 1],
                    None if dropped is None else dropped[i:i + 1]), params)[0]
                assert fwd.hidden.shape == (length * config.queries_per_token, config.dim)
                assert_bit_equal(fwd, alone, f"size {size} length {length} row {i}")

    @pytest.mark.parametrize("train", [False, True])
    def test_group_backward_equals_per_sentence_sum(self, train):
        # one backward over a group pass against the backward that preceded
        # it, run on each sentence's view and summed in group order
        config = tiny_config()
        meta, examples, _ = trainer.prepare(
            config, corpus.synth_corpus(2, config.corpus_size))
        params = trainer.init_model(meta, np.random.default_rng(0))
        tasks = trainer.TASKS
        rng = np.random.default_rng(47 + train)
        weights = {t: float(rng.uniform(0.5, 2.0)) for t in tasks}
        scale = 0.25
        for size in range(1, 14):
            length = int(rng.integers(1, 9))
            token_ids = np.stack([
                np.resize(examples[int(rng.integers(len(examples)))].token_ids, length)
                for _ in range(size)])
            dropped = np.stack([model.draw_layer_dropout(
                rng, config.encoder_layers + 1, 0.5) for _ in range(size)]) if train else None
            fwd = trainer.forward_sentence(params, config, token_ids, dropped)
            # the backward is linear in these, so any values check it
            dhidden = rng.normal(size=(len(tasks),) + fwd.hidden.shape)
            anchor_dmemory = rng.normal(size=token_ids.shape + (config.dim,))
            total_grads, task_sums = {}, {}
            trainer.backward_sentence(params, fwd, dhidden, anchor_dmemory,
                                      weights, scale, total_grads, task_sums)
            want, want_sums = oracles.reference_group_backward(
                params, fwd, dhidden, anchor_dmemory, weights, scale)
            # every parameter but the heads', whose grads add_head_grads sums
            assert set(total_grads) == set(want) == {
                k for k in params if k.startswith(("emb", "mix", "enc", "query", "dec"))}
            assert set(task_sums) == set(want_sums) == {"dec.ffn.w2", "dec.ffn.b2"}
            # entries near zero held to the largest entry, as in
            # test_one_decoder_backward_matches_per_task_reference
            for got, expected in ((total_grads, want), (task_sums, want_sums)):
                largest = max(np.abs(grad).max() for grad in expected.values())
                for key, grad in expected.items():
                    np.testing.assert_allclose(got[key], grad, rtol=1e-12,
                                               atol=1e-12 * largest,
                                               err_msg=f"size {size} length {length} {key}")
            if size == 1:
                # a group of one is the 2-D call on its one sentence, bit for bit
                alone, alone_sums = {}, {}
                trainer.backward_sentence(params, oracles.sentence_passes(fwd, params)[0],
                                          dhidden[:, 0], anchor_dmemory[0], weights,
                                          scale, alone, alone_sums)
                for got, expected in ((total_grads, alone), (task_sums, alone_sums)):
                    assert set(got) == set(expected)
                    assert all(np.array_equal(got[key], expected[key]) for key in got)

    @pytest.mark.parametrize("smoothing", [0.1, 0.0], ids=["smoothed", "unsmoothed"])
    def test_group_losses_equal_per_sentence_reference(self, smoothing):
        # one head pass over a group against the per-sentence losses that
        # preceded it, run on each sentence's view and summed in group order;
        # the reference smooths each query's label target on its own
        config = tiny_config(label_smoothing=smoothing)
        meta, examples, _ = trainer.prepare(
            config, corpus.synth_corpus(2, config.corpus_size))
        params = trainer.init_model(meta, np.random.default_rng(0))
        rng = np.random.default_rng(53)
        padded = parallel = 0
        for size in range(1, 14):
            length = int(rng.integers(1, 9))
            group = [resized_example(examples[int(rng.integers(len(examples)))], length)
                     for _ in range(size)]
            if size % 2:
                # a sentence with no matched query: label loss only
                group[int(rng.integers(size))] = resized_example(examples[0], length, 0)
            # a second label on the first gold pair of the first sentence with
            # an edge, a parallel edge, which the synthetic corpus never has
            with_edge = [row for row, example in enumerate(group) if len(example.edges)]
            if with_edge:
                example = group[with_edge[0]]
                a, b, label = example.edges[0]
                group[with_edge[0]] = dataclasses.replace(example, edges=np.vstack((
                    example.edges, [(a, b, (label + 1) % len(meta.edge_labels))])))
                parallel += 1
            # sentences of different target counts pad the edge, property and
            # top heads' states
            padded += len({len(e.label_targets) for e in group}) > 1
            fwd = trainer.forward_sentence(params, config,
                                           np.stack([e.token_ids for e in group]))
            assignments = [trainer.match_queries(fwd, row, example, params)
                           for row, example in enumerate(group)]
            losses, grads = trainer.sentence_losses(params, config, group, fwd,
                                                    assignments)
            want_losses, want_head = {}, {}
            want_dhidden = np.zeros_like(grads.dhidden)
            want_dmemory = np.zeros_like(grads.anchor_dmemory)
            for row, sentence in enumerate(oracles.sentence_passes(fwd, params)):
                one_losses, one_grads = oracles.reference_sentence_losses(
                    params, config, group[row], sentence, assignments[row])
                for task, loss in one_losses.items():
                    want_losses[task] = want_losses.get(task, 0.0) + loss
                for task, head in one_grads.head.items():
                    for key, grad in head.items():
                        model.add_grad(want_head.setdefault(task, {}), key, grad.copy())
                want_dhidden[:, row] = one_grads.dhidden
                want_dmemory[row] = one_grads.anchor_dmemory
            where = f"size {size} length {length}"
            assert set(losses) == set(want_losses), where
            for task, want in want_losses.items():
                assert abs(losses[task] - want) <= 1e-12 * abs(want), (where, task)
            assert {t: set(h) for t, h in grads.head.items()} == \
                {t: set(h) for t, h in want_head.items()}, where
            # each array held to its own largest entry, as in
            # test_group_backward_equals_per_sentence_sum
            arrays = [(f"{task} {key}", grads.head[task][key], want)
                      for task, head in want_head.items() for key, want in head.items()]
            arrays += [(f"dhidden {task}", grads.dhidden[row], want_dhidden[row])
                       for row, task in enumerate(trainer.TASKS)]
            arrays.append(("anchor_dmemory", grads.anchor_dmemory, want_dmemory))
            for name, got, want in arrays:
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max(),
                                           err_msg=f"{where} {name}")
        assert padded >= 6 and parallel >= 6

    def test_grouped_predict_and_evaluate_equal_per_sentence(self):
        trained, _ = trainer.train(tiny_config())
        graphs = corpus.synth_corpus(4, 20)
        # mixed lengths, one token and none; length groups of more tokens than
        # tiny_config's budget (about 20) take several forwards
        sentences = [g.input for g in graphs[:6]] + ["dog", ""] + \
            [g.input for g in graphs[6:]] + ["frogs"]
        grouped = trainer.predict_batch(trained, sentences)
        assert [serialize_graph(g) for g in grouped] == \
            [serialize_graph(trainer.predict(trained, s)) for s in sentences]
        total = scorer.aggregate(scorer.score_pair(g, trainer.predict(trained, g.input))
                                 for g in graphs)
        assert trainer.evaluate(trained, graphs) == \
            {name: total.metrics[name].f1 for name in trainer.EVAL_METRICS}

    def test_group_decode_equals_per_sentence_reference(self):
        # every head once per group against the decode that preceded it,
        # one sentence and one query pair at a time
        trained, _ = trainer.train(tiny_config())
        # mixed lengths, one token and none; length groups past one forward
        sentences = [g.input for g in corpus.synth_corpus(4, 20)] + ["dog", "", "frogs"]
        graphs = trainer.predict_batch(trained, sentences)
        assert [serialize_graph(g) for g in graphs] == \
            [serialize_graph(oracles.reference_decode(trained, s)) for s in sentences]
        # the group heads decided something: tops, edges and folded properties
        assert any(g.edges for g in graphs)
        assert any(n.is_top for g in graphs for n in g.nodes)
        assert any(n.properties for g in graphs for n in g.nodes)

    def test_predict_cuts_length_groups_by_the_token_budget(self, monkeypatch):
        # one rule for every forward: a length group splits by max_tokens
        # alone, whatever batch_size is, and each graph is still its own parse
        trained, _ = trainer.train(tiny_config())
        trained.max_tokens = 10.0  # two sentences of 4 or 5 tokens, one of 6
        sentences = [g.input for g in corpus.synth_corpus(4, 20)] + \
            ["dog", "", "frogs", "", "cats"]
        grouped = [serialize_graph(g) for g in trainer.predict_batch(trained, sentences)]
        assert grouped == [serialize_graph(trainer.predict(trained, s)) for s in sentences]
        assert grouped == [serialize_graph(oracles.reference_decode(trained, s))
                           for s in sentences]

        forwards = []
        forward = trainer.forward_sentence
        monkeypatch.setattr(trainer, "forward_sentence", lambda params, config, token_ids:
                            forwards.append(len(token_ids)) or
                            forward(params, config, token_ids))
        same = ["the cat is diving"] * 13
        for batch_size in (1, 8, 1024):
            config = dataclasses.replace(trained.meta.config, batch_size=batch_size)
            configured = trainer.TrainedModel(
                trained.params, dataclasses.replace(trained.meta, config=config))
            configured.max_tokens = 12.0  # three sentences of 4 tokens a forward
            forwards.clear()
            trainer.predict_batch(configured, same)
            assert forwards == [3, 3, 3, 3, 1], batch_size

        # a model without a training run measures its budget once, on a
        # one-token forward, and not once a call
        loaded = trainer.TrainedModel(trained.params, trained.meta)
        forwards.clear()
        trainer.predict(loaded, "dog")
        trainer.predict(loaded, "cats")
        assert forwards == [1, 1, 1]

    def test_group_without_accepted_queries_decodes_empty_graphs(self):
        # a null-biased label head accepts no query in any sentence of a group
        trained, _ = trainer.train(tiny_config())
        trained.params["label.out_b"][-1] = 1e3
        sentences = [g.input for g in corpus.synth_corpus(4, 12)] + ["dog", ""]
        graphs = trainer.predict_batch(trained, sentences)
        assert [g.input for g in graphs] == sentences
        assert all(not g.nodes and not g.edges for g in graphs)


def resized_example(example, length, num_targets=None):
    """example with its tokens cut or repeated to length, keeping its first
    num_targets targets (by default as many as the two queries a token of
    tiny_config hold), their anchor rows cut or repeated alike, and the
    edges and top among them."""
    num_tokens = len(example.token_ids)
    keep = min(len(example.label_targets), 2 * length) if num_targets is None \
        else num_targets
    top = example.top_index if example.top_index is not None \
        and example.top_index < keep else None
    return oracles.with_targets(
        example, range(keep), token_ids=np.resize(example.token_ids, length),
        anchored=example.anchored[:keep, np.arange(length) % num_tokens],
        edges=example.edges[(example.edges[:, :2] < keep).all(axis=1)],
        top_index=top)


class TestDecodeCeiling:
    @pytest.mark.parametrize("source", ["eds", "seed1", "seed2", "seed3"])
    def test_decoded_gold_preprocessing_scores_as_gold(self, source):
        # decoded_graph fed what preprocess_gold gives, each node anchored to
        # the hull of its tokens as _decode anchors it: the best any decoder
        # can do, scored against the gold graph before preprocessing
        graphs = (load_graphs(fixture_path("eds.jsonl")) if source == "eds"
                  else corpus.synth_corpus(int(source[-1]), 500))
        gold = [trainer.preprocess_gold(g) for g in graphs]
        edge_labels, inverted = trainer.edge_label_vocab(gold)
        meta = trainer.ModelMeta(vocab={}, rule_table=(), edge_labels=edge_labels,
                                 config=trainer.TrainConfig(), inverted_labels=inverted)
        decoded, reports = {}, []
        for g, (pre, trace) in zip(graphs, gold):
            tokens = graph_tokens(pre)
            nodes = []
            for node in pre.nodes:
                picked = [tokens[t] for t in anchored_token_indices(node, tokens)]
                nodes.append((node.label, (Anchor(min(t.start for t in picked),
                                                  max(t.end for t in picked)),)
                              if picked else ()))
            position = {node.id: j for j, node in enumerate(pre.nodes)}
            edges = [Edge(position[e.source], position[e.target], e.label)
                     for e in pre.edges]
            top = next((j for j, node in enumerate(pre.nodes) if node.is_top), None)
            flags = {position[node_id] for _, _, node_id in trace.nodeified}
            decoded[g.id] = trainer.decoded_graph(meta, g.input, tokens, nodes, edges,
                                                  top, flags)
            reports.append((g.id, scorer.score_pair(g, decoded[g.id])))
        inexact = {(graph_id, name) for graph_id, report in reports
                   for name, c in report.metrics.items()
                   if not c.gold == c.predicted == c.correct}
        if source == "eds":
            # the one loss: "forty two" is anchored to (0,5)+(6,9), which
            # preprocessing merges into their hull and decoding, one anchor a
            # node, gives back as (0,9), one wrong anchor tuple of six
            assert inexact == {("eds-2", "anchors")}
            assert decoded["eds-2"].node_by_id(0).anchors == (Anchor(0, 9),)
            total = scorer.aggregate(report for _, report in reports)
            assert total.metrics["anchors"].f1 == pytest.approx(5 / 6)
        else:
            assert inexact == set()


class TestTraining:
    def test_one_epoch_smoke(self):
        config = tiny_config()
        trained, metrics = trainer.train(config)
        assert len(metrics) == 1
        record = metrics[0]
        assert set(record) == {"epoch", "losses", "weights", "f1", "warnings"}
        assert record["warnings"] == []
        assert all(np.isfinite(v) for v in record["losses"].values())
        assert abs(sum(record["weights"].values())
                   - len(trainer.TASKS)) < 1e-9

    @pytest.mark.parametrize("size,fraction,given", [(1, 0.2, False), (4, 0.9, False),
                                                     (1, 0.0, True)])
    def test_empty_training_split_rejected(self, size, fraction, given):
        # the held-out share rounds to whole graphs and is at least one; given
        # passes the corpus in, as train-toy --input does
        config = tiny_config(corpus_size=size, eval_fraction=fraction)
        graphs = corpus.synth_corpus(5, size) if given else None
        message = re.escape(f"eval_fraction {fraction} holds out every graph of a "
                            f"{size}-graph corpus, leaving none to train on")
        with pytest.raises(trainer.TrainError, match=message):
            trainer.prepare(config, graphs)
        with pytest.raises(trainer.TrainError, match=message):
            trainer.train(config, graphs)

    @pytest.mark.parametrize("position", [0, 4])
    def test_training_graph_without_tokens_rejected(self, position):
        # first in the training split, and inside it
        graphs = corpus.synth_corpus(5, 11)
        graphs.insert(position, Graph(id="no-tokens", framework="eds", flavor=1,
                                      input=""))
        config = tiny_config(corpus_size=len(graphs))
        message = "training graph no-tokens has no tokens, so no queries to train on"
        with pytest.raises(trainer.TrainError, match=message):
            trainer.prepare(config, graphs)
        with pytest.raises(trainer.TrainError, match=message):
            trainer.train(config, graphs)

    def test_determinism(self):
        config = tiny_config()
        _, first = trainer.train(config)
        _, second = trainer.train(config)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_seed1_records_match_golden(self):
        # recorded with the balance norms on the last shared layer, one
        # backward and one pass of every head per length group, no top bias,
        # the mixture and query contractions as matmuls and no attention key
        # biases; any change to the training arithmetic shows up here
        with open(fixture_path("train_seed1_records.json")) as handle:
            expected = json.load(handle)
        _, records = trainer.train(trainer.TrainConfig(seed=1, epochs=3,
                                                       corpus_size=150))
        assert [r["epoch"] for r in records] == [r["epoch"] for r in expected]
        for got, want in zip(records, expected):
            for field in ("losses", "weights", "f1"):
                assert list(got[field]) == list(want[field])
                for name, value in want[field].items():
                    assert got[field][name] == value, (got["epoch"], field, name)

    def test_tie_break_runs_inside_training(self, monkeypatch):
        from mrparse import matcher
        graphs = twin_node_graphs()
        counts = {"tied sentences": 0, "edge losses": 0}
        break_ties = matcher.break_ties

        def counting(groups, assignment, edge_loglik):
            def counted(queries):
                counts["edge losses"] += 1
                return edge_loglik(queries)
            before = counts["edge losses"]
            result = break_ties(groups, assignment, counted)
            counts["tied sentences"] += counts["edge losses"] > before
            return result

        monkeypatch.setattr(matcher, "break_ties", counting)
        _, records = trainer.train(tiny_config(corpus_size=40), graphs=graphs)
        assert counts["tied sentences"] > 0 and counts["edge losses"] > 0
        assert all(np.isfinite(loss) for loss in records[-1]["losses"].values())

    def test_record_lists_zero_initial_loss_warning(self):
        # without tops the top loss is zero from the first step on, so the
        # balancing leaves that task out, and each epoch's record says so once
        graphs = [dataclasses.replace(g, nodes=tuple(
                      dataclasses.replace(n, is_top=False) for n in g.nodes))
                  for g in corpus.synth_corpus(2, 24)]
        _, records = trainer.train(tiny_config(epochs=2), graphs=graphs)
        for record in records:
            assert record["warnings"] == [
                "task 'top' has zero initial loss; excluded from balancing"]

    def test_record_lists_tie_group_fallback(self):
        from mrparse import matcher
        # node 0 and its copies have equal label and anchor rows: one tie
        # group larger than the bound, so the matcher keeps its first optimum
        bound = matcher.MAX_TIE_GROUP
        _, records = trainer.train(tiny_config(queries_per_token=5),
                                   graphs=oversized_tie_graphs())
        assert records[0]["warnings"] == sorted(set(records[0]["warnings"]))
        assert (f"tie group of {bound + 1} targets exceeds bound {bound}; "
                f"keeping first optimum") in records[0]["warnings"]

    def test_predict_untrained_no_crash(self, tiny_setup):
        config, meta, examples, params = tiny_setup
        trained = trainer.TrainedModel(params=params, meta=meta)
        out = trainer.predict(trained, "the cat is diving")
        again = trainer.predict(trained, "the cat is diving")
        assert out == again  # deterministic, possibly empty

    def test_predict_empty_sentence(self, tiny_setup):
        config, meta, examples, params = tiny_setup
        trained = trainer.TrainedModel(params=params, meta=meta)
        out = trainer.predict(trained, "")
        assert out.nodes == ()

    def test_save_load_round_trip(self, tiny_setup, tmp_path):
        config, meta, examples, params = tiny_setup
        trained = trainer.TrainedModel(params=params, meta=meta)
        path = str(tmp_path / "toy.ckpt")
        trained.save(path)
        loaded = trainer.TrainedModel.load(path)
        assert loaded.meta.vocab == meta.vocab
        assert loaded.meta.rule_table == meta.rule_table
        assert loaded.meta.edge_labels == meta.edge_labels
        assert loaded.meta.inverted_labels == meta.inverted_labels
        sentence = "the cat is diving"
        assert trainer.predict(loaded, sentence) == trainer.predict(trained, sentence)


# config lines: arbitrary text, and option names with arbitrary values
_OPTIONS = st.sampled_from([f.name for f in dataclasses.fields(trainer.TrainConfig)])
_CONFIG_LINES = st.lists(st.text() | st.builds("{} = {}".format, _OPTIONS, st.text()),
                         max_size=4).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(_CONFIG_LINES)
@example("dim = " + "1" * 400)  # math.isfinite raised OverflowError on it
@example("stop_when = " + "[" * 100000)  # json.loads raised RecursionError
def test_load_train_config_returns_or_raises_train_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("config") / "toy.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(trainer.load_train_config(str(path)), trainer.TrainConfig)
    except trainer.TrainError:
        pass


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "toy.cfg"
        path.write_text("# toy settings\nepochs = 3\nlr_rest = 0.001\n"
                        "balance_lr = 0\nstop_when = {\"labels\": 0.9}\n")
        config = trainer.load_train_config(str(path))
        assert config.epochs == 3
        assert config.lr_rest == 0.001
        assert config.balance_lr == 0.0 and type(config.balance_lr) is float
        assert config.stop_when == {"labels": 0.9}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("banana = 1\n")
        with pytest.raises(trainer.TrainError):
            trainer.load_train_config(str(path))

    @pytest.mark.parametrize("line", [
        "queries_per_token = two",
        "seed = 1e3",
        "label_smoothing = 0..1",
        "stop_when = 3",
        "stop_when = [0.9]",
        "stop_when = null",
        'stop_when = {"bleu": 0.9}',
        'stop_when = {"labels": "0.9"}',
        'stop_when = {"labels": true}',
        'stop_when = {"labels": NaN}',
        "epochs = three",
        "epochs =",
        "dim = 2.5",
        "lr_rest = fast",
        "stop_when = {labels: 0.9}",
    ])
    def test_malformed_values_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"epochs = 1\n{line}\n")
        # a removed option fails as unknown before its value is parsed
        with pytest.raises(trainer.TrainError, match=r"bad\.cfg:2: (?!unknown option)"):
            trainer.load_train_config(str(path))

    @pytest.mark.parametrize("name,value,noun", [
        ("epochs", 3.0, "an integer"), ("balance_lr", "0.1", "a number"),
        ("dim", True, "an integer"), ("queries_per_token", 2.5, "an integer"),
        ("seed", "1", "an integer"), ("lr_rest", False, "a number"),
        ("eval_fraction", None, "a number")])
    def test_wrongly_typed_values_rejected(self, name, value, noun):
        message = re.escape(f"{name} must be {noun}, got {value!r}")
        with pytest.raises(trainer.TrainError, match=f"^{message}$"):
            trainer.TrainConfig(**{name: value})

    @pytest.mark.parametrize("name,low,high", SIZE_BOUNDS)
    def test_size_bounds(self, name, low, high):
        # a size past its bound used to pass here and die allocating the
        # model; the bound itself is accepted
        assert getattr(trainer.TrainConfig(**{name: high}), name) == high
        for value in (high + 1, 10**30):
            message = re.escape(f"{name} must be in [{low}, {high}], got {value}")
            with pytest.raises(trainer.TrainError, match=f"^{message}$"):
                trainer.TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [3, [0.9], {"bleu": 1}, {"labels": "0.9"},
                                       {"labels": True}, {"labels": float("nan")}])
    def test_malformed_stop_when_rejected(self, value):
        # before the check, 3 crashed train at the end of the first epoch and
        # an unknown metric was never met
        message = re.escape(f"stop_when must be a JSON object mapping "
                            f"{'/'.join(trainer.EVAL_METRICS)} to finite numbers, "
                            f"got {value!r}")
        with pytest.raises(trainer.TrainError, match=f"^{message}$"):
            trainer.TrainConfig(stop_when=value)

    @pytest.mark.parametrize("value", [{"labels": 2}, {"labels": -1},
                                       {"labels": 10**400}, {"edges": 1.5, "tops": 0.5}])
    def test_unreachable_stop_when_rejected(self, value):
        # an F1 lies in [0, 1]: before the check, 2 and 10**400 were never
        # met, so the run trained every epoch without a word
        message = re.escape(f"stop_when thresholds must be in [0, 1], where an F1 "
                            f"lies, got {value!r}")
        with pytest.raises(trainer.TrainError, match=f"^{message}$"):
            trainer.TrainConfig(stop_when=value)

    def test_stop_when_range_ends_accepted(self):
        thresholds = {"labels": 0, "edges": 1.0}
        assert trainer.TrainConfig(stop_when=thresholds).stop_when == thresholds

    def test_integer_taken_for_number(self):
        config = trainer.TrainConfig(lr_rest=1, eval_fraction=0)
        assert (config.lr_rest, config.eval_fraction) == (1, 0)

    def test_stop_when_names_every_evaluate_metric(self, tiny_setup, tmp_path):
        config, meta, examples, params = tiny_setup
        reported = trainer.evaluate(trainer.TrainedModel(params=params, meta=meta),
                                    [examples[0].gold])
        thresholds = {name: 0.5 for name in reported}
        path = tmp_path / "toy.cfg"
        path.write_text(f"stop_when = {json.dumps(thresholds)}\n")
        assert trainer.load_train_config(str(path)).stop_when == thresholds


class TestCapacity:
    def test_capacity_error_when_nodes_exceed_queries(self, tiny_setup):
        from mrparse.matcher import CapacityError
        config, meta, examples, params = tiny_setup
        example = examples[0]
        crowded = oracles.with_targets(example, list(range(len(example.label_targets))) * 5)
        fwd = trainer.forward_sentence(params, config, crowded.token_ids[None])
        with pytest.raises(CapacityError):
            trainer.match_queries(fwd, 0, crowded, params)
