import hashlib
import json

import pytest

from mrparse import cli
from conftest import fixture_path


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_fixture_exit_zero(self, capsys):
        code, out, _ = run_cli(["validate", "--input", fixture_path("eds.jsonl")],
                               capsys)
        assert code == 0
        assert "0 violations" in out

    def test_invalid_data_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"x","flavor":1,"framework":"eds","input":"ab",'
                       '"nodes":[{"id":0,"anchors":[{"from":5,"to":3}]}],"edges":[]}\n')
        code, out, _ = run_cli(["validate", "--input", str(bad)], capsys)
        assert code == 2
        assert "anchor range" in out

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        code, out, _ = run_cli(["validate", "--input", str(bad)], capsys)
        assert code == 2
        assert "parse" in out


class TestPreprocess:
    def test_eds_output_parses(self, tmp_path, capsys):
        out_path = tmp_path / "out.jsonl"
        code, _, _ = run_cli(["preprocess", "--framework", "eds",
                              "--input", fixture_path("eds.jsonl"),
                              "--output", str(out_path)], capsys)
        assert code == 0
        from mrparse.graph import load_graphs
        graphs = load_graphs(str(out_path))
        assert all(len(n.anchors) <= 1 for g in graphs for n in g.nodes)

    def test_amr_gets_artificial_anchors(self, tmp_path, capsys):
        out_path = tmp_path / "amr.jsonl"
        code, _, _ = run_cli(["preprocess", "--framework", "amr",
                              "--input", fixture_path("amr.jsonl"),
                              "--output", str(out_path)], capsys)
        assert code == 0
        from mrparse.graph import load_graphs
        graphs = load_graphs(str(out_path))
        dive = [n for n in graphs[1].nodes if n.label == "dive"]
        assert dive and dive[0].anchors

    def test_amr_output_bytes_pinned(self, tmp_path, capsys):
        out_path = tmp_path / "amr.jsonl"
        code, _, _ = run_cli(["preprocess", "--framework", "amr",
                              "--input", fixture_path("amr.jsonl"),
                              "--output", str(out_path)], capsys)
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "52f308b60148eb098f77232e321acf40288a8f0df851c2c870c2280c0ad36fc3")

    def test_byte_identical_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            run_cli(["preprocess", "--framework", "ucca",
                     "--input", fixture_path("ucca.jsonl"),
                     "--output", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestRules:
    def test_infer_writes_table_and_stats(self, tmp_path, capsys):
        table = tmp_path / "rules.txt"
        code, out, _ = run_cli(["rules-infer", "--framework", "eds",
                                "--input", fixture_path("eds.jsonl"),
                                "--rule-table", str(table)], capsys)
        assert code == 0
        stats = json.loads(out.strip())
        assert set(stats) == {"labels", "rules"}
        assert stats["rules"] <= stats["labels"]
        assert table.exists()
        from mrparse.rules import load_rule_table
        assert len(load_rule_table(str(table))) == stats["rules"]

    def test_infer_bytes_pinned(self, tmp_path, capsys):
        table = tmp_path / "rules.txt"
        code, out, _ = run_cli(["rules-infer", "--framework", "eds",
                                "--input", fixture_path("eds.jsonl"),
                                "--rule-table", str(table)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "1606d8bddf1d5a3eeff6678a7f138929f2608235d55f929fa308b919f0d86c5b")
        assert hashlib.sha256(table.read_bytes()).hexdigest() == (
            "eda7a5d7f3ecf5b762418269c1b96a814c80e51f1a32c384d818c707e2f34335")

    def test_apply_encodes_each_node(self, tmp_path, capsys):
        table = tmp_path / "rules.txt"
        run_cli(["rules-infer", "--framework", "eds",
                 "--input", fixture_path("eds.jsonl"),
                 "--rule-table", str(table)], capsys)
        code, out, _ = run_cli(["rules-apply", "--framework", "eds",
                                "--input", fixture_path("eds.jsonl"),
                                "--rule-table", str(table)], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(record["rules"] for record in records)

    def test_apply_requires_table(self, capsys):
        code, _, err = run_cli(["rules-apply", "--framework", "eds",
                                "--input", fixture_path("eds.jsonl")], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("command", ["rules-apply", "rules-stats"])
    @pytest.mark.parametrize("line", [
        'token\t"a"\t0\t""\t0\t0\t""\t""',
        'token\t1.7\t0\t""\t0\t0\t""\t""',
        'lemma\ttrue\t0\t""\t0\t0\t""\t""',
        'token\t0\t0\t[1]\t0\t0\t""\t""',
        'absolute\t{x',
    ], ids=["string-count", "float-count", "bool-count", "list-separator", "bad-json"])
    def test_malformed_table_field_is_data_error(self, command, line, tmp_path, capsys):
        table = tmp_path / "rules.txt"
        table.write_text('absolute\t"x"\n' + line + "\n", encoding="utf-8")
        code, out, err = run_cli([command, "--framework", "eds",
                                  "--input", fixture_path("eds.jsonl"),
                                  "--rule-table", str(table)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "data"
        assert error["message"].startswith(f"rule table: {table}:2: ")

    def test_stats(self, capsys):
        code, out, _ = run_cli(["rules-stats", "--framework", "eds",
                                "--input", fixture_path("eds.jsonl")], capsys)
        assert code == 0
        stats = json.loads(out.strip())
        assert stats["labels"] > 0 and stats["nodes"] >= stats["labels"]

    def test_cache_dir_env_key(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("MRPARSE_CACHE_DIR", str(cache))
        code, _, _ = run_cli(["rules-infer", "--framework", "eds",
                              "--input", fixture_path("eds.jsonl")], capsys)
        assert code == 0
        assert list(cache.glob("*.json"))

    @pytest.mark.parametrize("entry", ["[1, 2", "[999999]", "[0]"])
    def test_corrupt_cache_entry_is_solved_again(self, entry, tmp_path, capsys):
        def infer(cache, table):
            code, out, _ = run_cli(["rules-infer", "--framework", "eds",
                                    "--input", fixture_path("eds.jsonl"),
                                    "--cache-dir", str(cache),
                                    "--rule-table", str(table)], capsys)
            assert code == 0
            return out, table.read_bytes()

        cold = infer(tmp_path / "cold", tmp_path / "cold.txt")
        (entry_path,) = (tmp_path / "cold").glob("*.json")
        solved = entry_path.read_text()
        entry_path.write_text(entry)
        assert infer(tmp_path / "cold", tmp_path / "warm.txt") == cold
        assert entry_path.read_text() == solved


class TestMatch:
    def test_solves_matrix(self, tmp_path, capsys):
        matrix = tmp_path / "scores.txt"
        matrix.write_text("2\n0.1 0.9\n0.9 0.1\n")
        code, out, _ = run_cli(["match", "--input", str(matrix)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1 0"
        assert lines[1] == "score 1.8"

    @pytest.mark.parametrize("text, expected", [
        ("3\n0 0 0\n0 0 0\n0 0 0\n", "0 1 2\nscore 0\n"),
        ("4\n2 1 1 1\n2 1 1 1\n1 1 1 1\n2 2 0 1\n", "0 3 2 1\nscore 6\n"),
        ("5\n2 1 1 2 1\n1 0 1 2 0\n0 2 1 2 0\n2 0 1 2 0\n1 2 1 0 1\n",
         "0 3 1 2 4\nscore 8\n"),
    ])
    def test_square_ties_keep_permutation(self, tmp_path, capsys, text, expected):
        # tie-laden matrices with several optimal permutations; solving the
        # transpose of either integer one picks another optimum
        matrix = tmp_path / "scores.txt"
        matrix.write_text(text)
        code, out, _ = run_cli(["match", "--input", str(matrix)], capsys)
        assert code == 0
        assert out == expected

    def test_bad_matrix_exit_two(self, tmp_path, capsys):
        matrix = tmp_path / "scores.txt"
        matrix.write_text("3\n0.1 0.9\n")
        code, _, err = run_cli(["match", "--input", str(matrix)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "data"


class TestEvaluate:
    def test_self_evaluation_perfect(self, capsys):
        code, out, _ = run_cli(["evaluate", "--input", fixture_path("eds.jsonl"),
                                "--gold", fixture_path("eds.jsonl")], capsys)
        assert code == 0
        report = json.loads(out.strip())
        assert report["labels"]["f1"] == 1.0
        assert report["average"] == 1.0

    def test_count_mismatch(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text("")
        code, _, err = run_cli(["evaluate", "--input", str(pred),
                                "--gold", fixture_path("eds.jsonl")], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "data"


@pytest.fixture(scope="module")
def short_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "toy.cfg"
    path.write_text("dim = 16\nffn_dim = 24\ncorpus_size = 16\nepochs = 1\n"
                    "batch_size = 8\nwarmup_steps = 10\nfreeze_steps = 2\n")
    return str(path)


class TestTrainPredict:
    def test_train_metrics_deterministic(self, short_config, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            out_path = tmp_path / f"{name}.jsonl"
            code, _, _ = run_cli(["train-toy", "--seed", "3",
                                  "--config", short_config,
                                  "--output", str(out_path)], capsys)
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        record = json.loads(outputs[0].decode().splitlines()[0])
        assert set(record) == {"epoch", "f1", "losses", "weights"}

    def test_train_then_predict(self, short_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        code, _, _ = run_cli(["train-toy", "--seed", "3",
                              "--config", short_config,
                              "--checkpoint", str(ckpt),
                              "--output", str(tmp_path / "m.jsonl")], capsys)
        assert code == 0
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("the cat is diving\n")
        out_path = tmp_path / "pred.jsonl"
        code, _, _ = run_cli(["predict", "--checkpoint", str(ckpt),
                              "--input", str(sentences),
                              "--output", str(out_path)], capsys)
        assert code == 0
        from mrparse.graph import load_graphs
        graphs = load_graphs(str(out_path))
        assert len(graphs) == 1
        assert graphs[0].input == "the cat is diving"

    def test_predict_groups_equal_per_sentence_predict(self, short_config, tmp_path,
                                                       capsys):
        from mrparse import graph, trainer
        ckpt = tmp_path / "model.ckpt"
        code, _, _ = run_cli(["train-toy", "--seed", "3", "--config", short_config,
                              "--checkpoint", str(ckpt),
                              "--output", str(tmp_path / "m.jsonl")], capsys)
        assert code == 0
        # more lines than batch_size (8), mixed lengths, a one-token and a blank line
        lines = ["the cat is diving", "dog", "Alice is taking the box", "",
                 "forty two birds are singing", "the dog of Carol is jumping",
                 "the cat is diving", "Dave is walking near Paris", "frogs",
                 "sixty seven frogs are diving", "Bob sings"]
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("".join(line + "\n" for line in lines))
        out_path = tmp_path / "pred.jsonl"
        code, _, _ = run_cli(["predict", "--checkpoint", str(ckpt),
                              "--input", str(sentences),
                              "--output", str(out_path)], capsys)
        assert code == 0
        trained = trainer.TrainedModel.load(str(ckpt))
        expected = "".join(graph.serialize_graph(trainer.predict(trained, line)) + "\n"
                           for line in lines if line)
        assert out_path.read_text() == expected

    def test_train_predict_bytes_pinned(self, tmp_path, capsys):
        # recorded before the length-grouped forward: the training arithmetic,
        # the checkpoint bytes and decoding, each pinned on its own
        config = tmp_path / "pin.cfg"
        config.write_text("corpus_size = 150\nepochs = 2\n")
        paths = {name: tmp_path / name for name in ("m.jsonl", "model.ckpt", "pred.jsonl")}
        code, _, _ = run_cli(["train-toy", "--seed", "1", "--config", str(config),
                              "--checkpoint", str(paths["model.ckpt"]),
                              "--output", str(paths["m.jsonl"])], capsys)
        assert code == 0
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("the cat is diving\nAlice is taking the box\n"
                             "forty two birds are singing\n"
                             "the dog of Carol is jumping\nDave is walking near Paris\n")
        code, _, _ = run_cli(["predict", "--checkpoint", str(paths["model.ckpt"]),
                              "--input", str(sentences),
                              "--output", str(paths["pred.jsonl"])], capsys)
        assert code == 0
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in paths.items()}
        assert digests == {
            "m.jsonl": "f71137ae056fe6a5191eb982f33483df93ea2c1cfb703a295d0304fd9d715915",
            "model.ckpt": "b35234e6df7d5cdf30310f8424d9e9a7ce0d7a346cf5d3fd6eebe2d9ff71434f",
            "pred.jsonl": "beebe0086cb674d7315d080a15347b58987a7b28dc5cc9dd4188b309c2fc033f"}

    @pytest.mark.parametrize("line", ["stop_when = 3", 'stop_when = {"f1": 0.9}',
                                      "use_anchor_mask = flase", "epochs = three",
                                      "lr_rest = fast", "stop_when = {labels: 0.9}"])
    def test_malformed_config_rejected_before_training(self, line, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("dim = 16\nffn_dim = 24\ncorpus_size = 16\nepochs = 1\n"
                          f"{line}\n")
        out_path = tmp_path / "m.jsonl"
        code, _, err = run_cli(["train-toy", "--config", str(config),
                                "--output", str(out_path)], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "config"
        assert f"{config}:5: " in record["message"]
        assert not out_path.exists()

    def test_predict_requires_checkpoint(self, tmp_path, capsys):
        sentences = tmp_path / "s.txt"
        sentences.write_text("hello\n")
        code, _, err = run_cli(["predict", "--input", str(sentences)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("line", ['token\t"a"\t0\t""\t0\t0\t""\t""',
                                      'token\t1.7\t0\t""\t0\t0\t""\t""'])
    def test_predict_malformed_rules_text(self, line, tmp_path, capsys):
        import dataclasses
        from mrparse import model, trainer
        meta = {"config_json": json.dumps(dataclasses.asdict(trainer.TrainConfig())),
                "vocab_json": "{}", "rules_text": 'absolute\t"x"\n' + line,
                "edge_labels_json": "[]", "inverted_labels_json": "[]"}
        ckpt = tmp_path / "bad.ckpt"
        model.save_params({f"meta.{k}": model.pack_text(v) for k, v in meta.items()},
                          str(ckpt))
        sentences = tmp_path / "s.txt"
        sentences.write_text("hello\n")
        code, out, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                  "--input", str(sentences)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "data"

    @pytest.mark.parametrize("vocab, missing", [({"cat": 0}, None),
                                                 ({"<unk>": 0, "cat": 2}, None),
                                                 ({"<unk>": 0, "cat": 1}, "query.w")])
    def test_predict_checkpoint_inconsistent_with_meta(self, vocab, missing,
                                                        tmp_path, capsys):
        import numpy as np
        from mrparse import trainer
        meta = trainer.ModelMeta(vocab=vocab, rule_table=(), edge_labels=("ARG1",),
                                 config=trainer.TrainConfig(dim=8, ffn_dim=8))
        params = trainer.init_model(meta, np.random.default_rng(0))
        params.pop(missing, None)
        ckpt = tmp_path / "bad.ckpt"
        trainer.TrainedModel(params=params, meta=meta).save(str(ckpt))
        sentences = tmp_path / "s.txt"
        sentences.write_text("the cat\n")
        code, out, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                  "--input", str(sentences)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "data"

    def test_predict_truncated_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"MRP0\x01\x00")
        sentences = tmp_path / "s.txt"
        sentences.write_text("hello\n")
        code, _, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                "--input", str(sentences)], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "data"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert cli.run(["validate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "--seed", "1"],
        ["match", "--jobs", "2"],
        ["rules-stats", "--framework", "eds", "--cache-dir", "cache"],
        ["evaluate", "--gold", fixture_path("eds.jsonl"), "--rule-table", "t"],
        ["train-toy", "--jobs", "2"],
        ["preprocess", "--framework", "eds", "--jobs", "2"],
    ])
    def test_ignored_flag_rejected(self, argv, capsys):
        assert cli.run(argv + ["--input", fixture_path("eds.jsonl")]) == 1

    def test_missing_file_is_clean_data_error(self, capsys):
        code, _, err = run_cli(["validate", "--input", "/nonexistent.jsonl"],
                               capsys)
        assert code == 2
        assert json.loads(err)["error"] == "io"

    @pytest.mark.parametrize("argv", [
        ["validate", "--input", "BAD"],
        ["preprocess", "--framework", "eds", "--input", "BAD"],
        ["rules-infer", "--framework", "eds", "--input", "BAD"],
        ["evaluate", "--input", "BAD", "--gold", fixture_path("eds.jsonl")],
        ["evaluate", "--input", fixture_path("eds.jsonl"), "--gold", "BAD"],
        ["rules-apply", "--framework", "eds", "--input", fixture_path("eds.jsonl"),
         "--rule-table", "BAD"],
        ["rules-stats", "--framework", "eds", "--input", fixture_path("eds.jsonl"),
         "--rule-table", "BAD"],
        ["preprocess", "--framework", "eds", "--input", fixture_path("eds.jsonl"),
         "--config", "BAD"],
        ["train-toy", "--config", "BAD"],
        ["match", "--input", "BAD"],
    ], ids=["validate-input", "preprocess-input", "rules-infer-input",
            "evaluate-input", "evaluate-gold", "rules-apply-table",
            "rules-stats-table", "preprocess-config", "train-toy-config",
            "match-input"])
    def test_non_utf8_file_is_clean_data_error(self, argv, tmp_path, capsys):
        # the message names the failing file, so evaluate's --input and --gold
        # differ, and a bad --config is the same error in preprocess and train-toy
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe{}\n")
        code, _, err = run_cli([str(bad) if a == "BAD" else a for a in argv], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "data"
        assert json.loads(err)["message"].startswith(f"{bad}: not UTF-8 text: ")
