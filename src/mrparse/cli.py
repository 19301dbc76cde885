"""Command line interface exposing the pipeline for batch use.

Subcommands: validate, preprocess, rules-infer, rules-apply, rules-stats,
match, train-toy, predict, evaluate.  Exit codes: 0 success, 1 usage error,
2 data error, 3 infeasibility.  Errors print one machine-parseable JSON
record on stderr.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

import numpy as np

from . import graph as graph_mod
from . import matcher, model, rules, scorer, trainer, transform

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fail(kind: str, message: str, code: int):
    raise CliError(json.dumps({"error": kind, "message": message}), code)


@contextlib.contextmanager
def _decoding(path: str):
    """Report a file that is not UTF-8 text as a data error naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        _fail("data", f"{name}: not UTF-8 text: {exc}", EXIT_DATA)


@contextlib.contextmanager
def _open_input(path: str):
    with _decoding(path):
        if path == "-":
            yield sys.stdin
        else:
            with open(path, encoding="utf-8") as handle:
                yield handle


@contextlib.contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _load_graphs(path: str) -> list[graph_mod.Graph]:
    try:
        with _open_input(path) as handle:
            return list(graph_mod.read_graphs(handle))
    except graph_mod.GraphError as exc:
        _fail("data", str(exc), EXIT_DATA)
    except OSError as exc:
        _fail("io", str(exc), EXIT_DATA)


def _framework_config(args) -> transform.FrameworkConfig:
    if args.config:
        try:
            with _decoding(args.config):
                return transform.load_framework_config(args.config)
        except (OSError, transform.TransformError) as exc:
            _fail("config", str(exc), EXIT_DATA)
    return transform.FrameworkConfig()


def _load_rule_table(path: str) -> tuple[rules.RelativeRule, ...]:
    try:
        with _decoding(path):
            return rules.load_rule_table(path)
    except (OSError, rules.RuleError) as exc:
        _fail("data", f"rule table: {exc}", EXIT_DATA)


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    violations = 0
    graphs = 0
    lines = []
    with _open_input(args.input) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                g = graph_mod.parse_graph(line)
            except graph_mod.GraphError as exc:
                violations += 1
                lines.append(f"line {lineno}: parse: {exc}")
                continue
            graphs += 1
            for v in graph_mod.validate(g):
                violations += 1
                lines.append(f"line {lineno}: {v.subject}: {v.rule}: {v.message}")
    with _open_output(args.output) as out:
        for line in lines:
            print(line, file=out)
        print(f"validated {graphs} graphs, {violations} violations", file=out)
    return 0 if violations == 0 else EXIT_DATA


def cmd_preprocess(args) -> int:
    config = _framework_config(args)
    graphs = _load_graphs(args.input)
    try:
        processed = [transform.preprocess(args.framework, g, config)[0] for g in graphs]
        if args.framework == "amr":
            processed, _, _ = rules.anchor_flavor2_corpus(processed,
                                                          cache_dir=args.cache_dir)
    except transform.TransformError as exc:
        _fail("data", str(exc), EXIT_DATA)
    except rules.InfeasibleEncodingError as exc:
        _fail("infeasible", str(exc), EXIT_INFEASIBLE)
    with _open_output(args.output) as out:
        for g in processed:
            print(graph_mod.serialize_graph(g), file=out)
    return 0


def _corpus_items(graphs, framework, config):
    return rules.label_items([transform.preprocess(framework, g, config)[0]
                              for g in graphs])


def cmd_rules_infer(args) -> int:
    """Solve the minimal rule set; table to --rule-table (or --output),
    label/rule counts to stdout."""
    config = _framework_config(args)
    graphs = _load_graphs(args.input)
    items, names = _corpus_items(graphs, args.framework, config)
    problem = rules.build_problem(items, names=names)
    try:
        solution = rules.minimal_rule_set(problem, cache_dir=args.cache_dir)
    except rules.InfeasibleEncodingError as exc:
        _fail("infeasible", str(exc), EXIT_INFEASIBLE)
    table = [problem.universe[i] for i in solution]
    table_path = args.rule_table or args.output
    if table_path and table_path != "-":
        rules.save_rule_table(table, table_path)
    labels = {label for _, _, label in items}
    print(json.dumps({"labels": len(labels), "rules": len(table)}))
    return 0


def cmd_rules_apply(args) -> int:
    if not args.rule_table:
        _fail("usage", "--rule-table is required", EXIT_USAGE)
    table = _load_rule_table(args.rule_table)
    config = _framework_config(args)
    graphs = _load_graphs(args.input)
    items, names = _corpus_items(graphs, args.framework, config)
    with _open_output(args.output) as out:
        records = []
        for (tokens, lemmas, label), name in zip(items, names):
            applicable = [i for i, rule in enumerate(table)
                          if rules.apply_rule(rule, tokens, lemmas) == label]
            if not applicable:
                _fail("infeasible", f"{name}: no retained rule encodes {label!r}",
                      EXIT_INFEASIBLE)
            records.append({"node": name, "label": label, "rules": applicable})
        for record in records:
            print(json.dumps(record, ensure_ascii=False), file=out)
    return 0


def cmd_rules_stats(args) -> int:
    config = _framework_config(args)
    graphs = _load_graphs(args.input)
    items, _ = _corpus_items(graphs, args.framework, config)
    labels = {label for _, _, label in items}
    payload = {"labels": len(labels), "nodes": len(items)}
    if args.rule_table:
        payload["rules"] = len(_load_rule_table(args.rule_table))
    with _open_output(args.output) as out:
        print(json.dumps(payload), file=out)
    return 0


def cmd_match(args) -> int:
    try:
        with _open_input(args.input) as handle:
            rows = [line.split() for line in handle if line.strip()]
        n = int(rows[0][0])
        matrix = np.array([[float(x) for x in row] for row in rows[1:n + 1]])
        if matrix.shape != (n, n):
            raise ValueError(f"expected {n}x{n} matrix, got {matrix.shape}")
    except (OSError, ValueError, IndexError) as exc:
        _fail("data", f"score matrix: {exc}", EXIT_DATA)
    try:
        assignment = matcher.optimal_assignment(matrix)
    except matcher.MatchError as exc:
        _fail("data", str(exc), EXIT_DATA)
    with _open_output(args.output) as out:
        print(" ".join(str(j) for j in assignment.perm), file=out)
        print(f"score {assignment.score:.12g}", file=out)
    return 0


def cmd_train_toy(args) -> int:
    config = trainer.TrainConfig()
    if args.config:
        try:
            with _decoding(args.config):
                config = trainer.load_train_config(args.config)
        except (OSError, trainer.TrainError, ValueError) as exc:
            _fail("config", str(exc), EXIT_DATA)
    if args.seed is not None:
        config.seed = args.seed
    graphs = _load_graphs(args.input) if args.input else None
    with _open_output(args.output) as out:

        def emit(record):
            print(json.dumps(record, sort_keys=True), file=out, flush=True)

        try:
            trained, _ = trainer.train(config, graphs=graphs, on_epoch=emit,
                                       cache_dir=args.cache_dir)
        except rules.InfeasibleEncodingError as exc:
            _fail("infeasible", str(exc), EXIT_INFEASIBLE)
        except trainer.TrainError as exc:
            _fail("data", str(exc), EXIT_DATA)
    if args.checkpoint:
        trained.save(args.checkpoint)
    if args.rule_table:
        rules.save_rule_table(trained.meta.rule_table, args.rule_table)
    return 0


def cmd_predict(args) -> int:
    if not args.checkpoint:
        _fail("usage", "--checkpoint is required", EXIT_USAGE)
    try:
        trained = trainer.TrainedModel.load(args.checkpoint)
    except OSError as exc:
        _fail("io", str(exc), EXIT_DATA)
    except (model.CheckpointError, KeyError, ValueError, TypeError,
            json.JSONDecodeError, rules.RuleError) as exc:
        _fail("data", f"checkpoint: {exc}", EXIT_DATA)
    with _open_output(args.output) as out, _open_input(args.input) as handle:
        sentences = (line.rstrip("\n") for line in handle if line.strip())
        # one chunk at a time, so output streams as the input is read
        while chunk := list(itertools.islice(sentences, trained.meta.config.batch_size)):
            for g in trainer.predict_batch(trained, chunk):
                print(graph_mod.serialize_graph(g), file=out)
    return 0


def cmd_evaluate(args) -> int:
    gold = _load_graphs(args.gold)
    pred = _load_graphs(args.input)
    if len(gold) != len(pred):
        _fail("data", f"{len(gold)} gold graphs but {len(pred)} predictions",
              EXIT_DATA)
    try:
        reports = [scorer.score_pair(g, p) for g, p in zip(gold, pred)]
    except scorer.ScoreError as exc:
        _fail("data", str(exc), EXIT_DATA)
    total = scorer.aggregate(reports)
    with _open_output(args.output) as out:
        print(json.dumps(scorer.report_to_json(total), sort_keys=True), file=out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrparse",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    default_cache = os.environ.get("MRPARSE_CACHE_DIR") or None

    def common(p, *options, framework=False):
        p.add_argument("--input", required=True, help="JSONL path or - for stdin")
        p.add_argument("--output", default=None, help="output path, default stdout")
        if framework:
            p.add_argument("--framework", required=True,
                           choices=graph_mod.FRAMEWORKS)
            p.add_argument("--config", default=None, help="framework config path")
        if "rule_table" in options:
            p.add_argument("--rule-table", dest="rule_table", default=None)
        if "cache_dir" in options:
            p.add_argument("--cache-dir", dest="cache_dir", default=default_cache,
                           help="rule-set cache (default: MRPARSE_CACHE_DIR)")
        return p

    common(sub.add_parser("validate", help="check graphs against the schema"))
    common(sub.add_parser("preprocess", help="framework canonicalization"),
           "cache_dir", framework=True)
    common(sub.add_parser("rules-infer", help="solve the minimal rule set"),
           "rule_table", "cache_dir", framework=True)
    common(sub.add_parser("rules-apply", help="encode nodes with a rule table"),
           "rule_table", framework=True)
    common(sub.add_parser("rules-stats", help="label/rule counts"),
           "rule_table", framework=True)
    common(sub.add_parser("match", help="solve an assignment score matrix"))

    train_p = sub.add_parser("train-toy", help="train on the synthetic corpus")
    train_p.add_argument("--input", default=None,
                         help="optional gold JSONL corpus; default is synthetic")
    train_p.add_argument("--output", default=None, help="metrics stream, default stdout")
    train_p.add_argument("--config", default=None)
    train_p.add_argument("--seed", type=int, default=None)
    train_p.add_argument("--rule-table", dest="rule_table", default=None)
    train_p.add_argument("--cache-dir", dest="cache_dir", default=default_cache)
    train_p.add_argument("--checkpoint", default=None)

    predict_p = sub.add_parser("predict", help="parse plain-text sentences")
    common(predict_p)
    predict_p.add_argument("--checkpoint", default=None)

    eval_p = sub.add_parser("evaluate", help="score predictions against gold")
    common(eval_p)
    eval_p.add_argument("--gold", required=True, help="gold JSONL path")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "preprocess": cmd_preprocess,
    "rules-infer": cmd_rules_infer,
    "rules-apply": cmd_rules_apply,
    "rules-stats": cmd_rules_stats,
    "match": cmd_match,
    "train-toy": cmd_train_toy,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return EXIT_DATA


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
