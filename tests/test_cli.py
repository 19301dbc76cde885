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

    def test_byte_identical_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            run_cli(["preprocess", "--framework", "ucca",
                     "--input", fixture_path("ucca.jsonl"),
                     "--output", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_jobs_preserve_order(self, tmp_path, capsys):
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        run_cli(["preprocess", "--framework", "eds",
                 "--input", fixture_path("eds.jsonl"),
                 "--output", str(serial)], capsys)
        code, _, _ = run_cli(["preprocess", "--framework", "eds",
                              "--input", fixture_path("eds.jsonl"),
                              "--output", str(parallel), "--jobs", "2"], capsys)
        assert code == 0
        assert serial.read_bytes() == parallel.read_bytes()


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

    @pytest.mark.parametrize("line", ["stop_when = 3", 'stop_when = {"f1": 0.9}',
                                      "use_anchor_mask = flase"])
    def test_malformed_config_rejected_before_training(self, line, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("dim = 16\nffn_dim = 24\ncorpus_size = 16\nepochs = 1\n"
                          f"{line}\n")
        out_path = tmp_path / "m.jsonl"
        code, _, err = run_cli(["train-toy", "--config", str(config),
                                "--output", str(out_path)], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "config"
        assert not out_path.exists()

    def test_predict_requires_checkpoint(self, tmp_path, capsys):
        sentences = tmp_path / "s.txt"
        sentences.write_text("hello\n")
        code, _, err = run_cli(["predict", "--input", str(sentences)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

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
    ])
    def test_ignored_flag_rejected(self, argv, capsys):
        assert cli.run(argv + ["--input", fixture_path("eds.jsonl")]) == 1

    def test_missing_file_is_clean_data_error(self, capsys):
        code, _, err = run_cli(["validate", "--input", "/nonexistent.jsonl"],
                               capsys)
        assert code == 2
        assert json.loads(err)["error"] == "io"
