import contextlib
import dataclasses
import hashlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrparse import cli, model, trainer
from conftest import SIZE_BOUNDS, fixture_path
from oracles import brute_force_assignment


# TrainConfig options that have been taken out of the code
REMOVED_SWITCHES = ("use_attribute_head", "use_top_head", "use_property_head",
                    "deinvert_edges", "use_anchor_mask", "mask_epsilon",
                    "balance_losses", "edge_multilabel")


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def predict_with_stored_config(changes, tmp_path, capsys, vocab_json='{"<unk>": 0}'):
    """predict on a parameterless checkpoint whose stored config is the
    default one with changes; asserts the one-line data error and returns its
    message."""
    config = {**dataclasses.asdict(trainer.TrainConfig()), **changes}
    meta = {"config_json": json.dumps(config), "vocab_json": vocab_json,
            "rules_text": 'absolute\t"x"', "edge_labels_json": "[]",
            "inverted_labels_json": "[]"}
    ckpt = tmp_path / "stored.ckpt"
    model.save_params({f"meta.{k}": model.pack_text(v) for k, v in meta.items()},
                      str(ckpt))
    sentences = tmp_path / "s.txt"
    sentences.write_text("hello\n")
    code, out, err = run_cli(["predict", "--checkpoint", str(ckpt),
                              "--input", str(sentences)], capsys)
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    error = json.loads(err)
    assert error["error"] == "data"
    return error["message"]


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


    def test_deeply_nested_line_reported(self, tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        code, out, err = run_cli(["validate", "--input", str(deep)], capsys)
        assert (code, err) == (2, "")
        assert out.splitlines() == ["line 1: parse: nested too deeply",
                                    "validated 0 graphs, 1 violations"]


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

    def test_amr_keeps_gold_anchors_of_flavor1_lines(self, tmp_path, capsys):
        # a flavor-1 line comes out as it went in; the flavor-2 lines come
        # out as they do without it
        gold = json.dumps({"id": "amr-gold", "flavor": 1, "framework": "amr",
                           "input": "the dog of Frank is hiding", "tops": [1],
                           "nodes": [{"id": 0, "label": "person",
                                      "anchors": [{"from": 11, "to": 16}]},
                                     {"id": 1, "label": "hide",
                                      "anchors": [{"from": 20, "to": 26}]}],
                           "edges": [{"source": 1, "target": 0, "label": "ARG0"}]})
        with open(fixture_path("amr.jsonl")) as handle:
            unanchored = handle.read()
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(gold + "\n" + unanchored)
        outputs = []
        for path in (mixed, fixture_path("amr.jsonl")):
            out_path = tmp_path / "out.jsonl"
            code, _, _ = run_cli(["preprocess", "--framework", "amr", "--input",
                                  str(path), "--output", str(out_path)], capsys)
            assert code == 0
            outputs.append(out_path.read_text().splitlines())
        from mrparse.graph import parse_graph, serialize_graph
        assert outputs[0][0] == serialize_graph(parse_graph(gold))
        assert outputs[0][1:] == outputs[1]

    @pytest.mark.parametrize("line", ["inversion_suffix = -on", "alias.mod = domain-of"])
    def test_removed_config_key_is_config_error(self, line, tmp_path, capsys):
        # the inverted-edge convention is fixed: the keys that set it are unknown
        config = tmp_path / "fw.cfg"
        config.write_text(line + "\n")
        code, out, err = run_cli(["preprocess", "--framework", "amr", "--config",
                                  str(config), "--input", fixture_path("amr.jsonl")],
                                 capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err) == {"error": "config", "message": f"{config}:1: unknown "
                                   f"key {line.split(' = ')[0]!r}"}

    def test_deeply_nested_line_is_data_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        code, out, err = run_cli(["preprocess", "--framework", "eds",
                                  "--input", str(deep)], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err) == {"error": "data", "message": "line 1: nested too deeply"}

    def test_byte_identical_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            run_cli(["preprocess", "--framework", "ucca",
                     "--input", fixture_path("ucca.jsonl"),
                     "--output", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()


def graph_line(node: str, extra: str = "") -> str:
    return ('{"id":"x","flavor":1,"framework":"eds","input":"a b",'
            f'"nodes":[{node}],"edges":[]{extra}}}\n')


MALFORMED_FIELDS = [
    pytest.param(graph_line('{"id":0,"anchors":[{"from":"x","to":1}]}'),
                 "nodes.anchors.from", id="text-anchor-offset"),
    pytest.param(graph_line('{"id":0}', ',"tokens":[{"form":"a","from":null}]'),
                 "tokens.from", id="null-token-offset"),
    pytest.param(graph_line('{"id":true,"label":"a"},{"id":1,"label":"b"}'),
                 "nodes.id", id="boolean-node-id"),
]

MALFORMED_STRUCTURE = [
    pytest.param(graph_line('{"id":0,"anchors":5}'), "nodes.anchors: anchors must be an array",
                 id="number-anchors"),
    pytest.param(graph_line('{"id":0,"anchors":"ab"}'), "nodes.anchors: anchors must be an array",
                 id="text-anchors"),
    pytest.param(graph_line('{"id":0}').replace('"id":"x"', '"id":true'),
                 "id: graph id required", id="boolean-graph-id"),
]


class TestMalformedFields:
    @pytest.mark.parametrize("line, field", MALFORMED_FIELDS + MALFORMED_STRUCTURE)
    def test_preprocess_is_data_error(self, line, field, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line)
        code, out, err = run_cli(["preprocess", "--framework", "eds",
                                  "--input", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "data"
        assert field in error["message"]

    @pytest.mark.parametrize("line, field", MALFORMED_FIELDS)
    def test_validate_reports_parse_violation(self, line, field, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line)
        code, out, err = run_cli(["validate", "--input", str(bad)], capsys)
        assert (code, err) == (2, "")
        assert out.splitlines() == [f"line 1: parse: {field}: must be an integer",
                                    "validated 0 graphs, 1 violations"]


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

    def test_infer_output_takes_counts_and_rule_table_the_table(self, tmp_path, capsys):
        table, counts = tmp_path / "rules.txt", tmp_path / "counts.json"
        code, out, _ = run_cli(["rules-infer", "--framework", "eds",
                                "--input", fixture_path("eds.jsonl"),
                                "--rule-table", str(table)], capsys)
        assert code == 0
        pinned = table.read_bytes()
        table.unlink()
        assert run_cli(["rules-infer", "--framework", "eds",
                        "--input", fixture_path("eds.jsonl"), "--rule-table", str(table),
                        "--output", str(counts)], capsys) == (0, "", "")
        assert counts.read_text() == out
        assert table.read_bytes() == pinned

    @pytest.mark.parametrize("command", ["rules-infer", "rules-apply", "rules-stats"])
    @pytest.mark.parametrize("framework, graph, config, message", [
        ("ucca", '"nodes":[{"id":0},{"id":1}],"edges":[{"source":0,"target":1,'
                 '"label":"A"},{"source":1,"target":0,"label":"B"}]',
         None, "cycle through node 0"),
        ("drg", '"nodes":[{"id":0,"label":"sleep"},{"id":1,"label":"Agent"}],'
                '"edges":[{"source":0,"target":1,"label":"arg1"}]',
         "drg_relations = Agent\n", "relation node 1 has in-degree 1 and "
                                     "out-degree 0, expected 1 and 1"),
    ], ids=["ucca-cycle", "drg-dangling-relation"])
    def test_transform_failure_is_data_error(self, command, framework, graph, config,
                                             message, tmp_path, capsys):
        corpus = tmp_path / "g.jsonl"
        corpus.write_text(f'{{"id":"g","flavor":1,"framework":"{framework}",'
                          f'"input":"a b",{graph}}}\n')
        table = tmp_path / "rules.txt"
        table.write_text('absolute\t"x"\n')
        argv = [command, "--framework", framework, "--input", str(corpus)]
        if command != "rules-infer":
            argv += ["--rule-table", str(table)]
        if config:
            (tmp_path / "fw.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "fw.cfg")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err) == {"error": "data", "message": message}

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
        'number\t1\t"x"',
    ], ids=["string-count", "float-count", "bool-count", "list-separator", "bad-json",
            "number-field"])
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

    def test_cache_dir_env_is_ignored(self, tmp_path, capsys, monkeypatch):
        def infer(table):
            code, out, err = run_cli(["rules-infer", "--framework", "eds",
                                      "--input", fixture_path("eds.jsonl"),
                                      "--rule-table", str(table)], capsys)
            assert (code, err) == (0, "")
            return out, table.read_bytes()

        monkeypatch.delenv("MRPARSE_CACHE_DIR", raising=False)
        unset = infer(tmp_path / "unset.txt")
        cache = tmp_path / "cache"
        monkeypatch.setenv("MRPARSE_CACHE_DIR", str(cache))
        assert infer(tmp_path / "set.txt") == unset
        assert not cache.exists()


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
        ("4\n2 1 1 1\n2 1 1 1\n1 1 1 1\n2 2 0 1\n", "0 2 3 1\nscore 6\n"),
        ("5\n2 1 1 2 1\n1 0 1 2 0\n0 2 1 2 0\n2 0 1 2 0\n1 2 1 0 1\n",
         "0 2 1 3 4\nscore 8\n"),
    ])
    def test_square_ties_keep_permutation(self, tmp_path, capsys, text, expected):
        # tie-laden matrices with several optimal permutations: the printed
        # one is pinned, and it reaches the exhaustive optimum
        matrix = tmp_path / "scores.txt"
        matrix.write_text(text)
        code, out, _ = run_cli(["match", "--input", str(matrix)], capsys)
        assert code == 0
        assert out == expected
        scores = np.array([row.split() for row in text.splitlines()[1:]], dtype=float)
        permutation = [int(j) for j in out.splitlines()[0].split()]
        _, optimum = brute_force_assignment(scores)
        assert scores[np.arange(len(scores)), permutation].sum() == optimum

    def test_bad_matrix_exit_two(self, tmp_path, capsys):
        matrix = tmp_path / "scores.txt"
        matrix.write_text("3\n0.1 0.9\n")
        code, _, err = run_cli(["match", "--input", str(matrix)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "data"

    @pytest.mark.parametrize("text, code, expected", [
        ("2 2\n0.1 0.9\n0.9 0.1\n", 2, ""),           # two numbers in the header
        ("2\n0.1 0.9\n0.9 0.1\n0.5 0.5\n", 2, ""),    # a row past the n rows
        ("0\n", 0, "\nscore 0\n"),                     # the empty matrix
    ])
    def test_reads_exactly_header_and_n_rows(self, tmp_path, capsys, text, code,
                                             expected):
        matrix = tmp_path / "scores.txt"
        matrix.write_text(text)
        got, out, err = run_cli(["match", "--input", str(matrix)], capsys)
        assert (got, out) == (code, expected)
        if code:
            assert json.loads(err)["error"] == "data"

    def test_scores_near_float_range(self, tmp_path, capsys):
        # the solver's potentials overflowed on this matrix, which printed
        # "1 0" and "score -1e+308" with RuntimeWarnings on stderr
        matrix = tmp_path / "scores.txt"
        matrix.write_text("2\n-1.5e308 5e307\n-1.5e308 1.5e308\n")
        assert run_cli(["match", "--input", str(matrix)], capsys) == (
            0, "0 1\nscore 0\n", "")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
def test_match_score_near_float_range_equals_brute_force(tmp_path_factory, n, seed):
    # the oracle enumerates the matrix scaled by 1/8, so that no partial sum of
    # five entries overflows, and scales its optimum back
    rng = np.random.default_rng(seed)
    scores = rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(1.4e308, 1.6e308, (n, n))
    path = tmp_path_factory.mktemp("match") / "scores.txt"
    path.write_text(f"{n}\n" + "".join(" ".join(map(repr, row.tolist())) + "\n"
                                       for row in scores))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(["match", "--input", str(path)])
    _, best = brute_force_assignment(scores / 8.0)
    assert (code, err.getvalue(), caught) == (0, "", [])
    assert out.getvalue().splitlines()[1] == f"score {best * 8.0:.12g}"


# text made of the characters of a score matrix, so that near-valid
# matrices come up as often as noise
_MATRIX_TEXT = st.text(alphabet="0123456789 \t\n-+.enaif", max_size=80)


@settings(max_examples=300, deadline=None)
@given(st.text() | _MATRIX_TEXT)
@example("2\n1 nan\n0 1\n")
@example("1\n1e999\n")
@example("-1\n")
@example("")
def test_match_exits_zero_or_two_with_one_json_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("match") / "scores.txt"
    path.write_text(text, encoding="utf-8", newline="")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["match", "--input", str(path)])
    if code == 0:
        lines = out.getvalue().split("\n")
        assert len(lines) == 3 and lines[1].startswith("score ") and lines[2] == ""
        assert err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "data"


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
        assert set(record) == {"epoch", "f1", "losses", "warnings", "weights"}

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
                                                       capsys, monkeypatch):
        from mrparse import graph, trainer
        ckpt = tmp_path / "model.ckpt"
        code, _, _ = run_cli(["train-toy", "--seed", "3", "--config", short_config,
                              "--checkpoint", str(ckpt),
                              "--output", str(tmp_path / "m.jsonl")], capsys)
        assert code == 0
        # read-ahead windows of 4 over 10 sentences: 4, 4, 2 (the blank line is
        # skipped); mixed lengths, a one-token line, a length met twice in a window
        monkeypatch.setattr(cli, "PREDICT_READ_AHEAD", 4)
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

    def test_predict_without_accepted_queries(self, short_config, tmp_path, capsys):
        # a null-biased label head accepts no query, so every group decodes
        # to graphs without nodes
        from mrparse import graph, trainer
        ckpt = tmp_path / "model.ckpt"
        code, _, _ = run_cli(["train-toy", "--seed", "3", "--config", short_config,
                              "--checkpoint", str(ckpt),
                              "--output", str(tmp_path / "m.jsonl")], capsys)
        assert code == 0
        trained = trainer.TrainedModel.load(str(ckpt))
        trained.params["label.out_b"][-1] = 1e3
        trained.save(str(ckpt))
        lines = ["the cat is diving", "dog", "Alice is taking the box", "",
                 "the dog of Carol is jumping", "frogs"]
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("".join(line + "\n" for line in lines))
        out_path = tmp_path / "pred.jsonl"
        code, _, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                "--input", str(sentences),
                                "--output", str(out_path)], capsys)
        assert (code, err) == (0, "")
        graphs = graph.load_graphs(str(out_path))
        assert [g.input for g in graphs] == [line for line in lines if line]
        assert all(not g.nodes and not g.edges for g in graphs)

    def test_corpus_without_edges_trains_and_parses(self, tmp_path, capsys):
        # edgel.u keeps one label class when the corpus has no edge label,
        # and a pair the presence head accepts must not decode to it
        from mrparse import graph
        from mrparse.corpus import synth_corpus
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(graph.serialize_graph(dataclasses.replace(
            g, edges=(), nodes=tuple(dataclasses.replace(n, properties=())
                                     for n in g.nodes))) + "\n"
            for g in synth_corpus(2, 24)))
        config = tmp_path / "toy.cfg"
        config.write_text("dim = 16\nffn_dim = 24\nepochs = 1\n")
        ckpt = tmp_path / "model.ckpt"
        code, _, _ = run_cli(["train-toy", "--input", str(corpus), "--config", str(config),
                              "--checkpoint", str(ckpt),
                              "--output", str(tmp_path / "m.jsonl")], capsys)
        assert code == 0
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("the cat is diving\nAlice is taking the box\n")
        out_path = tmp_path / "pred.jsonl"
        code, _, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                "--input", str(sentences),
                                "--output", str(out_path)], capsys)
        assert (code, err) == (0, "")
        graphs = graph.load_graphs(str(out_path))
        assert len(graphs) == 2 and all(not g.edges for g in graphs)

    def test_rule_table_without_absolute_rule_trains_and_parses(self, tmp_path, capsys):
        # every label is the lowercased first anchored token form, so the
        # table holds a token and a lemma rule and no absolute one; a query
        # whose anchored tokens realize no label then decodes as a null
        from mrparse import graph
        from mrparse.corpus import synth_corpus
        graphs = []
        for g in synth_corpus(3, 60):
            tokens = graph.graph_tokens(g)
            graphs.append(dataclasses.replace(g, nodes=tuple(
                dataclasses.replace(n, properties=(), label=tokens[
                    graph.anchored_token_indices(n, tokens)[0]].form.lower())
                for n in g.nodes)))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(graph.serialize_graph(g) + "\n" for g in graphs))
        code, _, _ = run_cli(["rules-infer", "--input", str(corpus), "--framework", "eds",
                              "--rule-table", str(tmp_path / "rules.txt")], capsys)
        assert code == 0
        assert [line.split("\t")[0] for line in
                (tmp_path / "rules.txt").read_text().splitlines()] == ["token", "lemma"]
        # on the 0-epoch model the third sentence has a query whose anchored
        # tokens no rule of the table realizes
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("the cat is diving\nAlice is taking the box\n"
                             "sixty seven frogs are diving\n")
        for epochs in (1, 0):
            config = tmp_path / "toy.cfg"
            config.write_text(f"dim = 16\nffn_dim = 24\nepochs = {epochs}\n")
            ckpt = tmp_path / f"model{epochs}.ckpt"
            code, out, _ = run_cli(["train-toy", "--input", str(corpus), "--config",
                                    str(config), "--checkpoint", str(ckpt)], capsys)
            assert code == 0
            records = [json.loads(line) for line in out.splitlines()]
            assert [record["epoch"] for record in records] == list(range(1, epochs + 1))
        code, out, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                  "--input", str(sentences)], capsys)
        assert (code, err) == (0, "")
        assert [json.loads(line)["input"] for line in out.splitlines()] == [
            "the cat is diving", "Alice is taking the box", "sixty seven frogs are diving"]

    def test_train_predict_bytes_pinned(self, tmp_path, capsys):
        # recorded with the balance norms on the last shared layer, one
        # backward and one pass of every head per length group, no top bias,
        # no anchor-mask, balancing or edge-label switches in the stored
        # config, the mixture and query contractions as matmuls and no
        # attention key biases: the training arithmetic, the checkpoint bytes
        # and decoding, each pinned on its own
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
            "m.jsonl": "18831e4a394d945483c32863a3403272c7103d77b32e1fbf5ee32d635eb977e0",
            "model.ckpt": "7d813cec496b1290de9e5e4b72443fed06205946c6780ea01797be26896b31b6",
            "pred.jsonl": "075bd7cdd054e5c5777fc14cc69c869f510e6503a78625cbf06e1270aff95d43"}

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

    @pytest.mark.parametrize("line", ["batch_size = 0", "queries_per_token = 0",
                                      "encoder_layers = -1", "warmup_steps = 0",
                                      "mos_components = 0", "layer_dropout = 1.0",
                                      "dim = 0", "eval_fraction = 1.5", "seed = -1",
                                      "corpus_size = 0", "lr_rest = inf",
                                      "label_smoothing = nan"])
    def test_out_of_range_config_rejected_before_training(self, line, tmp_path,
                                                          capsys):
        config = tmp_path / "range.cfg"
        config.write_text(f"corpus_size = 16\nepochs = 1\n{line}\n")
        out_path = tmp_path / "m.jsonl"
        code, _, err = run_cli(["train-toy", "--config", str(config),
                                "--output", str(out_path)], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "config"
        assert record["message"].startswith(f"{config}: {line.split()[0]} must be ")
        assert not out_path.exists()

    @pytest.mark.parametrize("name,low,high", SIZE_BOUNDS)
    def test_oversized_config_rejected_before_allocation(self, name, low, high,
                                                         tmp_path, capsys, monkeypatch):
        # dim 10**30 used to pass the config checks and die in
        # model.init_encoder with a traceback
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(trainer, "prepare", no_model)
        monkeypatch.setattr(trainer, "init_model", no_model)
        config = tmp_path / "size.cfg"
        out_path = tmp_path / "m.jsonl"
        for value in (high + 1, 10**30):
            config.write_text(f"epochs = 1\n{name} = {value}\n")
            code, _, err = run_cli(["train-toy", "--config", str(config),
                                    "--output", str(out_path)], capsys)
            assert (code, len(err.splitlines())) == (2, 1)
            assert json.loads(err) == {
                "error": "config",
                "message": f"{config}: {name} must be in [{low}, {high}], got {value}"}
            assert not out_path.exists()
            assert predict_with_stored_config({name: value}, tmp_path, capsys) == \
                f"checkpoint: {name} must be in [{low}, {high}], got {value}"

    def test_negative_seed_rejected(self, short_config, tmp_path, capsys):
        code, _, err = run_cli(["train-toy", "--seed", "-1", "--config", short_config,
                                "--output", str(tmp_path / "m.jsonl")], capsys)
        assert code == 2
        assert json.loads(err) == {"error": "config", "message": "seed must be at least 0, "
                                                                "got -1"}

    def test_predict_out_of_range_stored_config(self, tmp_path, capsys):
        assert predict_with_stored_config({"layer_dropout": 1.0}, tmp_path, capsys) == \
            "checkpoint: layer_dropout must be in [0.0, 1.0), got 1.0"

    @pytest.mark.parametrize("name,value,message", [
        ("epochs", "30", "epochs must be an integer, got '30'"),
        ("dim", True, "dim must be an integer, got True"),
        ("queries_per_token", 2.5, "queries_per_token must be an integer, got 2.5"),
        ("lr_rest", "0.003", "lr_rest must be a number, got '0.003'")])
    def test_predict_wrongly_typed_stored_config(self, name, value, message, tmp_path,
                                                 capsys):
        assert predict_with_stored_config({name: value}, tmp_path, capsys) == \
            f"checkpoint: {message}"

    @pytest.mark.parametrize("value,shown", [(3, "3"), ({"bleu": 1}, "{'bleu': 1}")])
    def test_predict_malformed_stored_stop_when(self, value, shown, tmp_path, capsys):
        assert predict_with_stored_config({"stop_when": value}, tmp_path, capsys) == \
            (f"checkpoint: stop_when must be a JSON object mapping "
             f"tops/labels/properties/anchors/edges to finite numbers, got {shown}")

    @pytest.mark.parametrize("value,shown", [({"labels": 2}, "{'labels': 2}"),
                                             ({"edges": -1}, "{'edges': -1}")])
    def test_predict_unreachable_stored_stop_when(self, value, shown, tmp_path, capsys):
        assert predict_with_stored_config({"stop_when": value}, tmp_path, capsys) == \
            (f"checkpoint: stop_when thresholds must be in [0, 1], where an F1 lies, "
             f"got {shown}")

    @pytest.mark.parametrize("value", ['{"labels": 2}', '{"labels": -1}',
                                       '{"labels": 1%s}' % ("0" * 400)])
    def test_unreachable_stop_when_rejected_before_training(self, value, tmp_path,
                                                            capsys):
        config = tmp_path / "stop.cfg"
        config.write_text(f"corpus_size = 16\nepochs = 1\nstop_when = {value}\n")
        out_path = tmp_path / "m.jsonl"
        code, out, err = run_cli(["train-toy", "--config", str(config),
                                  "--output", str(out_path)], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err) == {
            "error": "config", "message": f"{config}:3: stop_when thresholds must be in "
                                         f"[0, 1], where an F1 lies, got {value}"}
        assert not out_path.exists()

    def test_predict_checkpoint_with_top_bias(self, tmp_path, capsys):
        # a checkpoint saved while the top head had its (shift-invariant,
        # never trained) bias fails the parameter shape check
        import numpy as np
        from mrparse import trainer
        meta = trainer.ModelMeta(vocab={"<unk>": 0, "cat": 1}, rule_table=(),
                                 edge_labels=("ARG1",),
                                 config=trainer.TrainConfig(dim=8, ffn_dim=8))
        params = trainer.init_model(meta, np.random.default_rng(0))
        params["top.b"] = np.zeros(())
        ckpt = tmp_path / "old.ckpt"
        trainer.TrainedModel(params=params, meta=meta).save(str(ckpt))
        sentences = tmp_path / "s.txt"
        sentences.write_text("the cat\n")
        code, out, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                  "--input", str(sentences)], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err) == {"error": "data", "message": "checkpoint: parameters "
                                   "differ from what the stored config builds: top.b"}

    def test_predict_checkpoint_with_key_biases(self, tmp_path, capsys):
        # a checkpoint saved while the attention keys had their (shift-
        # invariant, never trained) biases fails the parameter shape check
        import numpy as np
        from mrparse import trainer
        meta = trainer.ModelMeta(vocab={"<unk>": 0, "cat": 1}, rule_table=(),
                                 edge_labels=("ARG1",),
                                 config=trainer.TrainConfig(dim=8, ffn_dim=8))
        params = trainer.init_model(meta, np.random.default_rng(0))
        for prefix in ("enc0.self", "enc1.self", "dec.self", "dec.cross"):
            params[f"{prefix}.bk"] = np.zeros(8)
        ckpt = tmp_path / "old.ckpt"
        trainer.TrainedModel(params=params, meta=meta).save(str(ckpt))
        sentences = tmp_path / "s.txt"
        sentences.write_text("the cat\n")
        code, out, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                  "--input", str(sentences)], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err) == {
            "error": "data", "message": "checkpoint: parameters differ from what the "
            "stored config builds: dec.cross.bk, dec.self.bk, enc0.self.bk, enc1.self.bk"}

    @pytest.mark.parametrize("name", REMOVED_SWITCHES)
    def test_predict_stored_config_with_removed_switch(self, name, tmp_path, capsys):
        # a checkpoint saved while the switch was an option stores its value
        message = predict_with_stored_config({name: False}, tmp_path, capsys)
        assert message.startswith("checkpoint: ") and repr(name) in message

    @pytest.mark.parametrize("name", REMOVED_SWITCHES)
    def test_config_with_removed_switch_rejected(self, name, tmp_path, capsys):
        config = tmp_path / "old.cfg"
        config.write_text(f"epochs = 1\n{name} = true\n")
        out_path = tmp_path / "m.jsonl"
        code, _, err = run_cli(["train-toy", "--config", str(config),
                                "--output", str(out_path)], capsys)
        assert code == 2
        assert json.loads(err) == {"error": "config",
                                   "message": f"{config}:2: unknown option {name!r}"}
        assert not out_path.exists()

    def test_nodes_over_query_capacity_is_data_error(self, tmp_path, capsys):
        # 5 nodes on a 2-token input, whose 2 x 2 queries cannot hold them
        node = '{{"id":{},"label":"n{}","anchors":[{{"from":0,"to":1}}]}}'
        line = graph_line(",".join(node.format(i, i) for i in range(5)))
        corpus = tmp_path / "crowded.jsonl"
        corpus.write_text(line * 2)
        config = tmp_path / "toy.cfg"
        config.write_text("dim = 16\nffn_dim = 24\nepochs = 1\n")
        code, _, err = run_cli(["train-toy", "--input", str(corpus),
                                "--config", str(config),
                                "--output", str(tmp_path / "m.jsonl")], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error == {"error": "data", "message": "5 target nodes exceed 4 queries; "
                                                     "increase the per-token query budget"}

    @pytest.mark.parametrize("corpus_size", [20, 60])
    def test_diverging_training_is_data_error(self, corpus_size, tmp_path, capsys):
        # overflow fails the run at once: no warnings, no checkpoint
        config = tmp_path / "toy.cfg"
        config.write_text(f"lr_rest = 1e300\ncorpus_size = {corpus_size}\n"
                          f"epochs = 1\ndim = 8\nffn_dim = 8\n")
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run_cli(["train-toy", "--config", str(config),
                                "--checkpoint", str(ckpt)], capsys)
        assert (code, len(err.splitlines())) == (2, 1)
        error = json.loads(err)
        assert error["error"] == "data"
        assert error["message"].startswith("training diverged (")
        assert not ckpt.exists()

    def test_empty_training_split_is_data_error(self, tmp_path, capsys):
        # the one graph of the corpus is held out for evaluation
        config = tmp_path / "toy.cfg"
        config.write_text("dim = 16\nffn_dim = 24\ncorpus_size = 1\nepochs = 1\n")
        out_path = tmp_path / "m.jsonl"
        code, out, err = run_cli(["train-toy", "--config", str(config),
                                  "--output", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "data", "message": "eval_fraction 0.2 holds out every graph of a "
                                        "1-graph corpus, leaving none to train on"}
        assert out_path.read_text() == ""

    def test_graph_without_tokens_is_data_error(self, tmp_path, capsys):
        # validate accepts the empty graph; training cannot use it
        from mrparse.corpus import synth_corpus
        from mrparse.graph import serialize_graph
        empty = '{"id":"no-tokens","flavor":1,"framework":"eds","input":"","nodes":[],"edges":[]}'
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join([empty] + [serialize_graph(g)
                                               for g in synth_corpus(5, 11)]) + "\n")
        code, out, _ = run_cli(["validate", "--input", str(corpus)], capsys)
        assert code == 0 and "validated 12 graphs, 0 violations" in out
        config = tmp_path / "toy.cfg"
        config.write_text("dim = 16\nffn_dim = 24\nepochs = 1\n")
        out_path = tmp_path / "m.jsonl"
        code, out, err = run_cli(["train-toy", "--input", str(corpus),
                                  "--config", str(config), "--output", str(out_path)],
                                 capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "data", "message": "training graph no-tokens "
                                   "has no tokens, so no queries to train on"}
        assert out_path.read_text() == ""

    @pytest.mark.parametrize("framework", ["amr", "drg", "ptg", "ucca"])
    def test_non_eds_corpus_is_data_error(self, framework, tmp_path, capsys):
        # training runs the eds pipeline and writes eds graphs, so a graph of
        # any other framework is refused before anything is trained
        with open(fixture_path(f"{framework}.jsonl")) as handle:
            line = handle.readline()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(line * 2)
        config = tmp_path / "toy.cfg"
        config.write_text("dim = 16\nffn_dim = 24\nepochs = 1\n")
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run_cli(["train-toy", "--input", str(corpus), "--config",
                                  str(config), "--checkpoint", str(ckpt)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        graph_id = json.loads(line)["id"]
        assert json.loads(err) == {"error": "data", "message": f"graph {graph_id} is "
                                   f"{framework}; training takes eds graphs only"}
        assert not ckpt.exists()

    def test_mixed_framework_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        with open(fixture_path("eds.jsonl")) as eds, open(fixture_path("amr.jsonl")) as amr:
            corpus.write_text(eds.read() + amr.read())
        config = tmp_path / "toy.cfg"
        config.write_text("dim = 16\nffn_dim = 24\nepochs = 1\n")
        code, out, err = run_cli(["train-toy", "--input", str(corpus), "--config",
                                  str(config)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "data", "message": "graph amr-fig is amr; "
                                   "training takes eds graphs only"}

    def test_unlabeled_training_node_is_data_error(self, tmp_path, capsys):
        # rules-infer skips an unlabeled node; training used to exit 3 with a
        # message that named no graph or node
        with open(fixture_path("eds.jsonl")) as handle:
            graph = json.loads(handle.readline())
        copies = [dict(graph, id=f"eds-copy-{i}") for i in range(8)]
        copies[0]["nodes"] = [{k: v for k, v in node.items() if k != "label"}
                              if node["id"] == 0 else node for node in graph["nodes"]]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(g) + "\n" for g in copies))
        config = tmp_path / "toy.cfg"
        config.write_text("dim = 16\nffn_dim = 24\nepochs = 1\n")
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(["rules-infer", "--framework", "eds", "--input", str(corpus),
                        "--rule-table", str(tmp_path / "rules.txt")], capsys)[0] == 0
        code, out, err = run_cli(["train-toy", "--input", str(corpus), "--config",
                                  str(config), "--checkpoint", str(ckpt)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "data", "message": "training graph "
                                   "eds-copy-0 node 0 has no label; every training "
                                   "node needs one to learn"}
        assert not ckpt.exists()

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

    def test_predict_deeply_nested_meta_json(self, tmp_path, capsys):
        # json.loads raised RecursionError, a traceback with exit 1
        message = predict_with_stored_config({}, tmp_path, capsys, vocab_json="[" * 100000)
        assert message.startswith("checkpoint: maximum recursion depth exceeded")

    @pytest.mark.parametrize("value, message", [
        (np.inf, "array 'meta.config_json' holds values that are not finite"),
        (np.nan, "array 'meta.config_json' holds values that are not finite"),
        (65.5, "text array holds 65.5, which is not a byte 0..255"),
        (-1.0, "text array holds -1.0, which is not a byte 0..255"),
        (256.0, "text array holds 256.0, which is not a byte 0..255")])
    def test_predict_text_array_value_not_a_byte(self, value, message, tmp_path, capsys):
        # inf died with an OverflowError traceback; 65.5 was read as "B"
        config = json.dumps(dataclasses.asdict(trainer.TrainConfig()))
        text = model.pack_text(config)
        text[1] = value
        ckpt = tmp_path / "bad.ckpt"
        model.save_params({"meta.config_json": text}, str(ckpt))
        sentences = tmp_path / "s.txt"
        sentences.write_text("hello\n")
        code, out, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                  "--input", str(sentences)], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err) == {"error": "data", "message": f"checkpoint: {message}"}

    @pytest.mark.parametrize("value, message", [
        (np.nan, "array 'emb' holds values that are not finite"),
        (1e200, "parameters give no prediction (overflow encountered in multiply)")])
    def test_predict_extreme_parameters(self, value, message, tiny_checkpoint,
                                        tmp_path, capsys):
        # 1e200 used to print graphs and RuntimeWarnings, exiting 0
        original, sentences = tiny_checkpoint
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(original)
        trained = trainer.TrainedModel.load(str(ckpt))
        trained.params["emb"][:, 0] = value
        trained.save(str(ckpt))
        code, out, err = run_cli(["predict", "--checkpoint", str(ckpt),
                                  "--input", str(sentences)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "data", "message": f"checkpoint: {message}"}


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """The bytes of a small trained checkpoint, and a sentence file."""
    from test_trainer import tiny_config
    trained, _ = trainer.train(tiny_config(dim=4, ffn_dim=4, corpus_size=8,
                                           encoder_layers=0, mos_components=1))
    root = tmp_path_factory.mktemp("tiny")
    trained.save(str(root / "model.ckpt"))
    sentences = root / "s.txt"
    sentences.write_text("the cat is diving\nforty two birds are singing\n")
    return (root / "model.ckpt").read_bytes(), sentences


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=255))
@example(position=12, value=0)  # a name length that makes the next shape unreadable
def test_predict_byte_replaced_checkpoint_exits_zero_or_two(tiny_checkpoint,
                                                          tmp_path_factory,
                                                          position, value):
    # one byte replaced, never inserted, so that no stored size can grow past
    # the file: every corrupted checkpoint parses or is a one-line data error
    original, sentences = tiny_checkpoint
    position %= len(original)
    mutated = bytearray(original)
    mutated[position] = value
    ckpt = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    ckpt.write_bytes(bytes(mutated))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a RuntimeWarning would print on stderr
        code = cli.run(["predict", "--checkpoint", str(ckpt), "--input", str(sentences)])
    assert not caught
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "data"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert cli.run(["validate"]) == 1

    def test_runs_share_one_parser(self, capsys):
        cli.build_parser()
        before = cli.build_parser.cache_info()
        for _ in range(2):
            assert cli.run(["validate", "--input", fixture_path("eds.jsonl")]) == 0
        after = cli.build_parser.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 2)

    @pytest.mark.parametrize("argv", [
        ["validate", "--seed", "1"],
        ["match", "--jobs", "2"],
        ["rules-stats", "--framework", "eds", "--cache-dir", "cache"],
        ["rules-infer", "--framework", "eds", "--cache-dir", "x"],
        ["preprocess", "--framework", "eds", "--cache-dir", "x"],
        ["train-toy", "--cache-dir", "x"],
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
