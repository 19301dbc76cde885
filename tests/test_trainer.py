import dataclasses
import json

import numpy as np
import pytest

from mrparse import corpus, model, scorer, trainer
from mrparse.graph import serialize_graph
from conftest import fixture_path

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
        config = trainer.TrainConfig()
        pre_graphs = [trainer.preprocess_gold(g, config)[0] for g in graphs]
        table, problem = trainer.compile_rule_table(pre_graphs)
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


def tiny_config(**overrides):
    defaults = dict(dim=16, ffn_dim=24, corpus_size=24, epochs=1, batch_size=8,
                    warmup_steps=10, freeze_steps=2)
    defaults.update(overrides)
    return trainer.TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_setup():
    config = tiny_config()
    graphs = corpus.synth_corpus(2, config.corpus_size)
    meta, examples, train_g, eval_g, _ = trainer.prepare(config, graphs)
    rng = np.random.default_rng(0)
    params = trainer.init_model(meta, rng)
    return config, meta, examples, params


class TestSentencePass:
    def test_loss_reasonable_and_finite(self, tiny_setup):
        config, meta, examples, params = tiny_setup
        example = examples[0]
        fwd = trainer.forward_sentence(params, config, example.token_ids)
        assignment = trainer.match_queries(config, fwd, example, params)
        losses, grads, pairing = trainer.sentence_losses(params, config, example,
                                                         fwd, assignment, {}, 1.0)
        for value in losses.values():
            assert np.isfinite(value) and value >= 0.0
        assert grads is not None

    def test_null_queries_only_contribute_label_loss(self, tiny_setup):
        config, meta, examples, params = tiny_setup
        example = examples[0]
        fwd = trainer.forward_sentence(params, config, example.token_ids)
        assignment = trainer.match_queries(config, fwd, example, params)
        losses, grads, pairing = trainer.sentence_losses(params, config, example,
                                                         fwd, assignment, {}, 1.0)
        null_queries = [q for q, node in pairing if node is None]
        assert null_queries, "expected more queries than gold nodes"
        # every head except the label head must have exactly zero gradient
        # on the hidden states of null-matched queries
        for task in ("anchor", "edge_presence", "edge_label", "property", "top"):
            dhidden = grads.dhidden.get(task)
            assert dhidden is not None
            for q in null_queries:
                assert np.abs(dhidden[q]).max() == 0.0, task
        # the label head does push null queries (toward the null class)
        assert any(np.abs(grads.dhidden["label"][q]).max() > 0.0
                   for q in null_queries)

    def test_permutation_invariance_small(self, tiny_setup):
        config, meta, examples, params = tiny_setup
        rng = np.random.default_rng(5)
        for example in examples[:6]:
            base, base_pairs = trainer.sentence_total_loss(params, config, example)
            shuffled = shuffle_example(example, rng)
            moved, moved_pairs = trainer.sentence_total_loss(params, config, shuffled)
            assert abs(base - moved) <= 1e-8
            assert pairing_signatures(base_pairs) == pairing_signatures(moved_pairs)


    @pytest.mark.parametrize("multilabel", [False, True])
    def test_tie_break_scores_perms_with_sentence_edge_losses(self, tiny_setup,
                                                              multilabel, monkeypatch):
        import dataclasses
        from mrparse import matcher
        config, meta, examples, params = tiny_setup
        config = dataclasses.replace(config, edge_multilabel=multilabel)
        example = examples[0]
        # a copy of target 0 is interchangeable with it for the match score;
        # an extra edge from the copy makes the two orderings differ in edge loss
        copy = len(example.targets)
        tied = trainer.Example(
            gold=example.gold, pre=example.pre, tokens=example.tokens,
            token_ids=example.token_ids, targets=example.targets + [example.targets[0]],
            edges=example.edges + [(copy, 1, 0)], top_index=example.top_index)
        seen = {}
        align_targets = matcher.align_targets

        def capture(predictions, targets, config, edge_loglik):
            def recorded(perm):
                seen[perm] = edge_loglik(perm)
                return seen[perm]
            return align_targets(predictions, targets, config, recorded)

        monkeypatch.setattr(matcher, "align_targets", capture)
        fwd = trainer.forward_sentence(params, config, tied.token_ids)
        kept = trainer.match_queries(config, fwd, tied, params)
        assert len(set(seen.values())) >= 2
        for perm, loss in seen.items():
            losses, _, _ = trainer.sentence_losses(
                params, config, tied, fwd, matcher.Assignment(perm, kept.score), {}, 1.0)
            assert loss == losses["edge_presence"] + losses["edge_label"]
        assert seen[kept.perm] == min(seen.values()) < max(seen.values())


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
            passes = trainer.forward_sentence(params, config, token_ids,
                                              dropped).sentences(params)
            assert len(passes) == size
            for i, fwd in enumerate(passes):
                alone = trainer.forward_sentence(
                    params, config, token_ids[i], None if dropped is None else dropped[i])
                assert fwd.hidden.shape == (length * config.queries_per_token, config.dim)
                assert_bit_equal(fwd, alone, f"size {size} length {length} row {i}")

    def test_grouped_predict_and_evaluate_equal_per_sentence(self):
        trained, _ = trainer.train(tiny_config())
        graphs = corpus.synth_corpus(4, 20)
        # more than batch_size (8) sentences, mixed lengths, one token and none
        sentences = [g.input for g in graphs[:6]] + ["dog", ""] + \
            [g.input for g in graphs[6:]] + ["frogs"]
        grouped = trainer.predict_batch(trained, sentences)
        assert [serialize_graph(g) for g in grouped] == \
            [serialize_graph(trainer.predict(trained, s)) for s in sentences]
        total = scorer.aggregate(scorer.score_pair(g, trainer.predict(trained, g.input))
                                 for g in graphs)
        assert trainer.evaluate(trained, graphs) == \
            {name: total.metrics[name].f1 for name in trainer.EVAL_METRICS}


def shuffle_example(example, rng):
    order = rng.permutation(len(example.targets)).tolist()
    inverse = {old: new for new, old in enumerate(order)}
    targets = [example.targets[old] for old in order]
    edges = [(inverse[a], inverse[b], label) for a, b, label in example.edges]
    top = inverse[example.top_index] if example.top_index is not None else None
    return trainer.Example(gold=example.gold, pre=example.pre,
                           tokens=example.tokens, token_ids=example.token_ids,
                           targets=targets, edges=edges, top_index=top)


def pairing_signatures(pairing):
    return sorted((q, node.signature if node is not None else None)
                  for q, node in pairing)


class TestTraining:
    def test_one_epoch_smoke(self):
        config = tiny_config()
        trained, metrics = trainer.train(config)
        assert len(metrics) == 1
        record = metrics[0]
        assert set(record) == {"epoch", "losses", "weights", "f1"}
        assert all(np.isfinite(v) for v in record["losses"].values())
        assert abs(sum(record["weights"].values())
                   - len(config.active_tasks())) < 1e-9

    def test_determinism(self):
        config = tiny_config()
        _, first = trainer.train(config)
        _, second = trainer.train(config)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_seed1_records_match_golden(self):
        # recorded before the task-stacked decoder backward; training is
        # bit-identical since, so any change to its arithmetic shows up here
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

    def test_balancing_disabled_runs(self):
        config = tiny_config(balance_losses=False)
        _, metrics = trainer.train(config)
        weights = metrics[-1]["weights"]
        assert all(w == 1.0 for w in weights.values())

    def test_head_flags_select_active_tasks(self):
        config = tiny_config(use_top_head=False, use_property_head=False)
        assert "top" not in config.active_tasks()
        assert "property" not in config.active_tasks()
        trained, metrics = trainer.train(config)
        assert set(metrics[-1]["losses"]) == set(config.active_tasks())
        out = trainer.predict(trained, "the cat is diving")
        assert not any(n.is_top for n in out.nodes)

    def test_attribute_head_and_multilabel_modes_run(self):
        config = tiny_config(use_attribute_head=True, edge_multilabel=True)
        _, metrics = trainer.train(config)
        assert "edge_attribute" in metrics[-1]["losses"]
        assert np.isfinite(metrics[-1]["losses"]["edge_attribute"])

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


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "toy.cfg"
        path.write_text("# toy settings\nepochs = 3\nlr_rest = 0.001\n"
                        "use_anchor_mask = false\nstop_when = {\"labels\": 0.9}\n")
        config = trainer.load_train_config(str(path))
        assert config.epochs == 3
        assert config.lr_rest == 0.001
        assert config.use_anchor_mask is False
        assert config.stop_when == {"labels": 0.9}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("banana = 1\n")
        with pytest.raises(trainer.TrainError):
            trainer.load_train_config(str(path))

    @pytest.mark.parametrize("text,expected", [
        ("1", True), ("ON", True), ("Yes", True), ("true", True),
        ("0", False), ("off", False), ("NO", False), ("False", False)])
    def test_boolean_spellings(self, tmp_path, text, expected):
        path = tmp_path / "toy.cfg"
        path.write_text(f"use_anchor_mask = {text}\n")
        assert trainer.load_train_config(str(path)).use_anchor_mask is expected

    @pytest.mark.parametrize("line", [
        "use_anchor_mask = flase",
        "balance_losses = 2",
        "use_top_head =",
        "stop_when = 3",
        "stop_when = [0.9]",
        "stop_when = null",
        'stop_when = {"bleu": 0.9}',
        'stop_when = {"labels": "0.9"}',
        'stop_when = {"labels": true}',
        'stop_when = {"labels": NaN}',
        "epochs = three",
        "lr_rest = fast",
        "stop_when = {labels: 0.9}",
    ])
    def test_malformed_values_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"epochs = 1\n{line}\n")
        with pytest.raises(trainer.TrainError, match=r"bad\.cfg:2: "):
            trainer.load_train_config(str(path))

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
        crowded = trainer.Example(
            gold=example.gold, pre=example.pre, tokens=example.tokens,
            token_ids=example.token_ids, targets=example.targets * 5,
            edges=example.edges, top_index=example.top_index)
        fwd = trainer.forward_sentence(params, config, crowded.token_ids)
        with pytest.raises(CapacityError):
            trainer.match_queries(config, fwd, crowded, params)
