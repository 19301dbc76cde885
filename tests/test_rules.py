import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrparse import rules
from mrparse.rules import (AbsoluteRule, DecodeError, InfeasibleEncodingError,
                           LemmaRule, NumberRule, TokenRule,
                           apply_rule, build_problem, build_rule_target,
                           decode_label, load_rule_table, rule_from_line,
                           rule_to_line, save_rule_table, words_to_number)
from oracles import (canonical_problem, enumerate_applicable_rules,
                     enumerate_rules_oracle, one_token_join, problem_digest,
                     reference_anchor_flavor2_corpus,
                     reference_enumerate_applicable_rules, reference_rule_key,
                     reference_rule_problem, without_one_token_separator_variants)


def _names(items):
    """A name for each item, as build_problem requires."""
    return [f"n{k}" for k in range(len(items))]


@functools.cache
def _seed1_training_items():
    """The labelled nodes of the seed-1 training graphs, and their names."""
    from mrparse import corpus, trainer
    config = trainer.TrainConfig(seed=1, corpus_size=500)
    train_graphs, _ = trainer.split_corpus(
        corpus.synth_corpus(config.seed, config.corpus_size), config.eval_fraction)
    return rules.label_items([trainer.preprocess_gold(g)[0] for g in train_graphs])


class TestApplyRule:
    def test_multiword_affix_rule(self):
        rule = TokenRule(0, 1, "+", 0, 0, "_", "_a_1")
        tokens = ["at", "the", "very", "least", ","]
        assert apply_rule(rule, tokens, tokens) == "_at+the+very+least_a_1"

    def test_strip_and_append(self):
        rule = TokenRule(0, 0, "", 0, 3, "", "e")
        assert apply_rule(rule, ["diving"], ["diving"]) == "dive"

    def test_number_rule(self):
        assert apply_rule(NumberRule(), ["forty", "two"], []) == "42"

    def test_lemma_rule_uses_lemmas(self):
        rule = LemmaRule(0, 0, "", 0, 0, "", "")
        assert apply_rule(rule, ["Diving"], ["dive"]) == "dive"

    def test_absolute_ignores_anchoring(self):
        assert apply_rule(AbsoluteRule("person"), [], []) == "person"
        assert apply_rule(AbsoluteRule("person"), ["x"], ["x"]) == "person"

    def test_drop_all_tokens_inapplicable(self):
        rule = TokenRule(1, 1, "", 0, 0, "", "")
        assert apply_rule(rule, ["a", "b"], ["a", "b"]) is None

    def test_strip_exhausts_inapplicable(self):
        rule = TokenRule(0, 0, "", 2, 2, "x", "y")
        assert apply_rule(rule, ["abcd"], ["abcd"]) is None
        assert apply_rule(rule, ["abcde"], ["abcde"]) == "xcy"

    def test_unrecognized_numeral_inapplicable(self):
        assert apply_rule(NumberRule(), ["cat"], []) is None


class TestNumerals:
    @pytest.mark.parametrize("phrase,expected", [
        (["forty", "two"], "42"),
        (["forty-two"], "42"),
        (["seventeen"], "17"),
        (["zero"], "0"),
        (["one", "hundred", "and", "five"], "105"),
        (["two", "hundred", "thousand", "and", "five"], "200005"),
        (["nine", "hundred", "ninety", "nine", "thousand",
          "nine", "hundred", "ninety", "nine"], "999999"),
        (["Sixty", "Seven"], "67"),
    ])
    def test_recognized(self, phrase, expected):
        assert words_to_number(phrase) == expected

    @pytest.mark.parametrize("phrase", [
        ["cat"], ["and"], [], ["forty", "cats"],
        # numeral words out of order
        ["one", "two"], ["twenty", "thirty"], ["seven", "eleven"], ["ten", "five"],
        ["hundred", "hundred"], ["thousand", "thousand"],
    ])
    def test_unrecognized(self, phrase):
        assert words_to_number(phrase) is None


class TestEnumerate:
    def test_ids_number_rules_in_first_found_order(self):
        ids = {}
        dive = rules.enumerate_applicable_rules(["diving"], ["dive"], "dive", ids)
        # the absolute rule is found first; ids are the table positions
        assert list(ids)[0] == AbsoluteRule("dive")
        assert dive == frozenset(range(len(ids)))
        before = dict(ids)
        take = rules.enumerate_applicable_rules(["taking"], ["take"], "take", ids)
        assert dict(list(ids.items())[:len(before)]) == before  # earlier ids kept
        universe = list(ids)
        # one token: every token and lemma rule joins with the first separator
        assert {universe[i] for i in take} == {
            r for r in enumerate_applicable_rules(["taking"], ["take"], "take")
            if r.separator == rules.SEPARATORS[0]}
        shared = LemmaRule(0, 0, "", 0, 0, "", "")
        assert ids[shared] in dive & take and ids[shared] < len(before)
        assert set(take) - set(dive) == set(range(len(before), len(ids)))

    def test_diving_contains_expected_rules(self):
        found = enumerate_applicable_rules(["diving"], ["dive"], "dive")
        assert LemmaRule(0, 0, "", 0, 0, "", "") in found
        assert TokenRule(0, 0, "", 0, 3, "", "e") in found
        assert AbsoluteRule("dive") in found

    def test_no_overlap_only_absolute(self):
        found = enumerate_applicable_rules(["xyz"], ["xyz"], "qqq")
        assert found == {AbsoluteRule("qqq")}

    def test_numeral_contains_number_rule(self):
        found = enumerate_applicable_rules(["forty", "two"], ["forty", "two"], "42")
        assert NumberRule() in found

    def test_soundness(self):
        cases = [(["diving"], ["dive"], "dive"),
                 (["forty", "two"], ["forty", "two"], "42"),
                 (["the", "cat"], ["the", "cat"], "_cat_n")]
        for tokens, lemmas, label in cases:
            for rule in enumerate_applicable_rules(tokens, lemmas, label):
                assert apply_rule(rule, tokens, lemmas) == label

    @pytest.mark.parametrize("tokens,lemmas,label", [
        (["diving"], ["dive"], "dive"),
        (["cats"], ["cat"], "_cat_n"),
        (["at", "least"], ["at", "least"], "_at+least_a"),
        (["forty", "two"], ["forty", "two"], "42"),
    ])
    def test_completeness_against_oracle(self, tokens, lemmas, label):
        ours = enumerate_applicable_rules(tokens, lemmas, label)
        assert ours == enumerate_rules_oracle(tokens, lemmas, label)

    def test_matches_at_both_window_edges(self):
        # "ab" fits "xxxxxxab" (prefix of exactly MAX_AFFIX_LEN) and
        # "abxxxxxx" (suffix of exactly MAX_AFFIX_LEN), not one character further
        assert rules.MAX_AFFIX_LEN == 6
        assert TokenRule(0, 0, "", 0, 0, "x" * 6, "") in \
            enumerate_applicable_rules(["ab"], ["ab"], "x" * 6 + "ab")
        assert TokenRule(0, 0, "", 0, 0, "", "x" * 6) in \
            enumerate_applicable_rules(["ab"], ["ab"], "ab" + "x" * 6)
        assert enumerate_applicable_rules(["ab"], ["ab"], "x" * 7 + "ab") == \
            {AbsoluteRule("x" * 7 + "ab")}
        # the occurrence at 0 leaves an 8-character suffix; the one at 2 fits
        assert {r for r in enumerate_applicable_rules(["ab"], ["ab"], "abab" + "x" * 6)
                if r.kind == rules.TOKEN and r.separator == ""
                and r.strip_left == r.strip_right == 0} == \
            {TokenRule(0, 0, "", 0, 0, "ab", "x" * 6)}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_under_default_bounds(self, data):
        tokens, lemmas, label = data.draw(_enumeration_cases(affix_room=8))
        assert enumerate_applicable_rules(tokens, lemmas, label) == \
            reference_enumerate_applicable_rules(tokens, lemmas, label)

    # the oracle applies up to 110 250 token and lemma rules a case
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_oracle(self, data):
        case = data.draw(_enumeration_cases(affix_room=rules.MAX_AFFIX_LEN + 2))
        assert enumerate_applicable_rules(*case) == enumerate_rules_oracle(*case)

    def test_fixture_items_match_reference(self):
        from mrparse import transform
        from mrparse.corpus import synth_corpus
        from mrparse.graph import graph_tokens, load_graphs
        from conftest import fixture_path
        items = []
        for name in ("eds", "amr", "ucca"):
            graphs = [transform.preprocess(name, g)[0]
                      for g in load_graphs(fixture_path(f"{name}.jsonl"))]
            items += rules.label_items(graphs)[0]
            # the single-token candidates of flavor-2 anchoring
            items += [([t.form], [t.lemma], node.label) for g in graphs
                      for t in graph_tokens(g) for node in g.nodes
                      if node.label is not None]
        synth = [transform.preprocess("eds", g)[0] for g in synth_corpus(1, 500)]
        items += rules.label_items(synth)[0]
        distinct = dict.fromkeys((tuple(t), tuple(l), label) for t, l, label in items)
        assert len(distinct) > 100
        for tokens, lemmas, label in distinct:
            assert enumerate_applicable_rules(tokens, lemmas, label) == \
                reference_enumerate_applicable_rules(tokens, lemmas, label)


_PIECE = st.text(alphabet="abé", max_size=4)


@st.composite
def _enumeration_cases(draw, affix_room):
    """(tokens, lemmas, label): 0-3 tokens from a small pool, so tokens repeat;
    lemmas equal to the forms or not; the label free text, an overlapping
    repeat, or a slice of a joined string between affixes of up to
    affix_room characters."""
    pool = draw(st.lists(_PIECE, min_size=1, max_size=3))
    tokens = draw(st.lists(st.sampled_from(pool), max_size=3))
    if draw(st.booleans()):
        lemmas = list(tokens)
    else:
        lemmas = draw(st.lists(st.one_of(st.sampled_from(pool), _PIECE), max_size=3))
    shape = draw(st.sampled_from(["free", "repeat", "around"]))
    if shape == "free":
        label = draw(st.text(alphabet="abé+", max_size=24))
    elif shape == "repeat":
        label = draw(st.text(alphabet="ab", min_size=1, max_size=2)) * \
            draw(st.integers(1, 8))
    else:
        source = draw(st.sampled_from([tokens, lemmas]))
        joined = draw(st.sampled_from(["", "+", "a", " "])).join(source)
        start = draw(st.integers(0, len(joined)))
        core = joined[start:draw(st.integers(start, len(joined)))]
        affix = st.text(alphabet="abé", max_size=affix_room)
        label = draw(affix) + core + draw(affix)
    return tokens, lemmas, label


class TestRuleTable:
    def test_line_round_trip(self):
        table = [TokenRule(0, 1, "+", 0, 0, "_", "_a_1"),
                 LemmaRule(1, 0, " ", 2, 0, "", "x"),
                 NumberRule(), AbsoluteRule("person"),
                 AbsoluteRule("with\ttab"), TokenRule(0, 0, "\t", 0, 0, "", "")]
        for rule in table:
            assert rule_from_line(rule_to_line(rule)) == rule

    def test_file_round_trip_preserves_order(self, tmp_path):
        table = (NumberRule(), AbsoluteRule("b"), AbsoluteRule("a"))
        path = str(tmp_path / "rules.txt")
        save_rule_table(table, path)
        assert load_rule_table(path) == table

    def test_bad_kind(self):
        with pytest.raises(rules.RuleError):
            rule_from_line('banana\t"x"')

    @pytest.mark.parametrize("line", [
        'token\t"a"\t0\t""\t0\t0\t""\t""',
        'token\t1.7\t0\t""\t0\t0\t""\t""',
        'lemma\t0\ttrue\t""\t0\t0\t""\t""',
        'token\t0\t0\t""\t-1\t0\t""\t""',
        'token\t0\t0\t""\t0\tnull\t""\t""',
        'token\t0\t0\t[1]\t0\t0\t""\t""',
        'lemma\t0\t0\t""\t0\t0\t1\t""',
        'token\t0\t0\t""\t0\t0\t""\tfalse',
        'absolute\t7',
        'absolute\t{"x": 1}',
        'absolute\t"unterminated',
        'number\t1\t"x"',
        'number\t0',
    ])
    def test_field_types_enforced(self, line):
        with pytest.raises(rules.RuleError):
            rule_from_line(line)

    def test_load_names_path_and_line(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text('absolute\t"a"\n\ntoken\t1.7\t0\t""\t0\t0\t""\t""\n',
                        encoding="utf-8")
        with pytest.raises(rules.RuleError) as excinfo:
            load_rule_table(str(path))
        assert str(excinfo.value).startswith(f"{path}:3: token rule needs")


_texts = st.text(alphabet="ab\t\"é", max_size=3)
_counts = st.integers(0, 2)
_seven = (_counts, _counts, _texts, _counts, _counts, _texts, _texts)
_any_rule = st.one_of(st.builds(TokenRule, *_seven), st.builds(LemmaRule, *_seven),
                      st.just(NumberRule()), st.builds(AbsoluteRule, _texts))


class TestRuleOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_any_rule, max_size=30))
    def test_tuple_order_is_reference_order(self, table):
        assert sorted(table) == sorted(table, key=reference_rule_key)
        for rule in table:
            assert rule_from_line(rule_to_line(rule)) == rule

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*_seven))
    def test_token_and_lemma_twins_differ(self, fields):
        token, lemma = TokenRule(*fields), LemmaRule(*fields)
        assert token != lemma
        assert len({token, lemma}) == 2
        assert (token.kind, lemma.kind) == (rules.TOKEN, rules.LEMMA)


class TestRuleTarget:
    def test_uniform_over_applicable(self):
        target = build_rule_target([0, 2], 4)
        assert target.tolist() == [0.5, 0.0, 0.5, 0.0, 0.0]

    def test_empty_applicable_raises(self):
        with pytest.raises(InfeasibleEncodingError):
            build_rule_target([], 3)


class TestDecode:
    table = (TokenRule(0, 0, "", 0, 3, "", "e"), AbsoluteRule("x"), NumberRule())

    def test_one_hot_token_rule(self):
        probs = np.array([1.0, 0.0, 0.0, 0.0])
        assert decode_label(probs, ["diving"], ["diving"], self.table) == "dive"

    def test_inapplicable_falls_through_probability_order(self):
        # top rule needs >=4 chars; runner-up absolute fires
        probs = np.array([0.6, 0.3, 0.05, 0.05])
        assert decode_label(probs, ["ab"], ["ab"], self.table) == "x"

    def test_null_wins(self):
        probs = np.array([0.1, 0.2, 0.1, 0.6])
        assert decode_label(probs, ["diving"], ["diving"], self.table) is None

    def test_no_applicable_rule_returns_none(self):
        # a table without an absolute rule cannot always realize a label:
        # the query decodes as a null
        table = (TokenRule(0, 0, "", 0, 3, "", "e"),)
        assert decode_label(np.array([0.9, 0.1]), ["ab"], ["ab"], table) is None

    def test_probability_count_mismatch_raises(self):
        with pytest.raises(DecodeError):
            decode_label(np.array([0.9, 0.1]), ["ab"], ["ab"], self.table)

    def test_all_inapplicable_uses_best_absolute(self):
        table = (NumberRule(), AbsoluteRule("low"), AbsoluteRule("high"))
        probs = np.array([0.5, 0.1, 0.3, 0.1])
        assert decode_label(probs, ["cat"], ["cat"], table) == "high"


class TestMinimalRuleSet:
    def test_compression_bound(self):
        items = [(["diving"], ["diving"], "dive"),
                 (["taking"], ["taking"], "take"),
                 (["xyz"], ["xyz"], "person"),
                 (["abc"], ["abc"], "person")]
        problem = build_problem(items, names=_names(items))
        solution = rules.minimal_rule_set(problem)
        labels = {label for _, _, label in items}
        assert len(solution) <= len(labels)
        assert len(solution) < len(labels)  # shared verb rule compresses

    def test_infeasible_names_node(self):
        problem = rules.RuleSetProblem(universe=(AbsoluteRule("x"),),
                                       per_node=(frozenset(),),
                                       node_names=("graph g9 node 3",))
        with pytest.raises(InfeasibleEncodingError) as err:
            rules.minimal_rule_set(problem)
        assert "graph g9 node 3" in str(err.value)

    def test_infeasible_names_first_empty_node(self):
        problem = rules.RuleSetProblem(universe=(AbsoluteRule("x"),),
                                       per_node=(frozenset({0}), frozenset(), frozenset()),
                                       node_names=("graph g1 node 0", "graph g1 node 1",
                                                   "graph g2 node 0"))
        with pytest.raises(InfeasibleEncodingError) as err:
            rules.minimal_rule_set(problem)
        assert str(err.value) == "graph g1 node 1 has no applicable rules"

    def test_seed1_solution_pinned(self):
        # recorded with the element-mask solver (tests/oracles.py reference)
        # on the all-separator reference problem, indices in canonical rule
        # order; the package solves the same problem less the one-token
        # separator variants and picks the same rules
        from mrparse import trainer
        items, names = _seed1_training_items()
        reference = reference_rule_problem(items, names=names)
        assert (len(reference.per_node), len(reference.universe)) == (1439, 4547)
        assert problem_digest(reference) == (
            "fc6a1be680f18b0fc336294cf7a58becdd1a349d1ac777087aa56e2a3ceb926d")
        reference_solution = rules.minimal_rule_set(reference)
        assert reference_solution == (0, 1, 2, 44, 45, 4450, 4532, 4533, 4534)
        problem = build_problem(items, names=names)
        solution = rules.minimal_rule_set(problem)
        _assert_same_problem(problem, reference, items)
        assert (len(problem.per_node), len(problem.universe)) == (1439, 987)
        table = tuple(problem.universe[i] for i in solution)
        assert table == tuple(reference.universe[i] for i in reference_solution)
        meta = trainer.prepare(trainer.TrainConfig(seed=1, corpus_size=500))[0]
        assert meta.rule_table == table

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_solution_independent_of_item_order(self, order):
        # the universe is numbered in first-found order, so reordering the
        # items renumbers the rules; the chosen rules stay the same
        items, names = _seed1_training_items()
        problem = build_problem(items, names=names)
        expected = [problem.universe[i] for i in rules.minimal_rule_set(problem)]
        perm = list(range(len(items)))[::-1]
        if order == "shuffled":
            perm = [int(k) for k in np.random.default_rng(1).permutation(len(items))]
        moved = build_problem([items[k] for k in perm], names=[names[k] for k in perm])
        assert moved.universe != problem.universe
        assert sorted(moved.universe) == sorted(problem.universe)
        assert [moved.universe[i] for i in rules.minimal_rule_set(moved)] == expected

    def test_encode_decode_consistency(self):
        items = [(["diving"], ["diving"], "dive"),
                 (["cats"], ["cat"], "_cat_n"),
                 (["forty", "two"], ["forty", "two"], "42"),
                 (["bob"], ["bob"], "person")]
        problem = build_problem(items, names=_names(items))
        solution = rules.minimal_rule_set(problem)
        table = [problem.universe[i] for i in solution]
        for tokens, lemmas, label in items:
            applicable = [k for k, rule in enumerate(table)
                          if apply_rule(rule, tokens, lemmas) == label]
            target = build_rule_target(applicable, len(table))
            assert decode_label(target, tokens, lemmas, table) == label


_WORDS = st.sampled_from(["diving", "cats", "forty", "two", "ab", "taking"])
_ITEM_POOL = st.lists(
    st.tuples(st.lists(_WORDS, max_size=3), st.lists(_WORDS, max_size=3),
              st.sampled_from(["dive", "_cat_n", "42", "ab", "take", "x"])),
    min_size=1, max_size=4)


def _assert_same_problem(got, reference, items):
    """got is the all-separator reference problem of items less the
    separator variants that no multi-token item derives."""
    expected = without_one_token_separator_variants(reference, items)
    got, _ = canonical_problem(got)
    assert got.universe == expected.universe
    assert got.per_node == expected.per_node
    assert got.node_names == expected.node_names
    assert problem_digest(got) == problem_digest(expected)


class TestBuildProblem:
    @settings(max_examples=40, deadline=None)
    @given(pool=_ITEM_POOL, picks=st.lists(st.integers(0, 3), max_size=10))
    def test_matches_per_item_reference(self, pool, picks):
        # items drawn with repetition from a small pool; lists and tuples mix
        items = [pool[k % len(pool)] for k in picks]
        items = [(tuple(f), l, label) if k % 2 else (f, l, label)
                 for k, (f, l, label) in enumerate(items)]
        _assert_same_problem(build_problem(items, names=_names(items)),
                             reference_rule_problem(items, names=_names(items)), items)

    def test_empty_corpus(self):
        _assert_same_problem(build_problem([], names=[]),
                             reference_rule_problem([], names=[]), [])
        assert build_problem([], names=[]).universe == ()

    def test_one_enumeration_per_distinct_item(self, monkeypatch):
        # the last two items make build_problem add a separator variant back
        items = [(["diving"], ["diving"], "dive"), (("diving",), ("diving",), "dive"),
                 ([], [], "x"), ([], [], "x"), (["cats"], ["cat"], "_cat_n"),
                 (["diving"], ["diving"], "dive"),
                 (["b", "b"], ["b", "b"], "b b"), (["a"], ["a"], "a")]
        calls = []
        original = rules.enumerate_applicable_rules
        expected = reference_rule_problem(items, names=_names(items))

        def counted(*args):
            calls.append(args[:3])
            return original(*args)

        def no_apply(*args):
            raise AssertionError("build_problem applied a rule")

        monkeypatch.setattr(rules, "enumerate_applicable_rules", counted)
        monkeypatch.setattr(rules, "apply_rule", no_apply)
        first = build_problem(items, names=_names(items))
        _assert_same_problem(first, expected, items)
        assert len(calls) == len(set(calls)) == 5
        # a second call enumerates the same items again: the memo is call-local
        assert build_problem(items, names=_names(items)) == first
        assert len(calls) == 10 and calls[5:] == calls[:5]

    def test_one_token_item_takes_a_multi_token_separator_variant(self):
        # "b b" joins two tokens with " "; "a" is one token, which every
        # separator joins alike, so one rule derives both labels
        items = [(["b", "b"], ["b", "b"], "b b"), (["a"], ["a"], "a")]
        problem = build_problem(items, names=_names(items))
        assert [problem.universe[i] for i in rules.minimal_rule_set(problem)] == \
            [TokenRule(0, 0, " ", 0, 0, "", "")]

    def test_separator_joined_labels_choose_all_separator_rules(self):
        # labels joined from 1-3 tokens or lemmas with a random separator,
        # between optional eds-style affixes: the package's problem picks
        # the rules of the all-separator reference problem
        rng = np.random.default_rng(37)
        pool = ["a", "b", "ab", "ba", "c"]
        added = 0
        for _ in range(300):
            items = []
            for _ in range(int(rng.integers(2, 6))):
                tokens = [str(t) for t in rng.choice(pool, size=int(rng.integers(1, 4)))]
                lemmas = list(tokens) if rng.random() < 0.6 else \
                    [t + "e" if rng.random() < 0.5 else t for t in tokens]
                source = tokens if rng.random() < 0.5 else lemmas
                label = str(rng.choice(rules.SEPARATORS)).join(source)
                if rng.random() < 0.3:
                    label = "_" + label + "_n"
                items.append((tokens, lemmas, label))
            names = _names(items)
            problem = build_problem(items, names=names)
            reference = reference_rule_problem(items, names=names)
            assert [problem.universe[i] for i in rules.minimal_rule_set(problem)] == \
                [reference.universe[i] for i in rules.minimal_rule_set(reference)]
            # the enumerator gives a one-token join no separator variant, so
            # such a variant in a set was added back by build_problem
            added += any(rule.separator and one_token_join(rule, tokens, lemmas)
                         for (tokens, lemmas, _), found in zip(items, problem.per_node)
                         for rule in (problem.universe[i] for i in found))
        assert added >= 50


def assert_matches_all_separator_reference(graphs):
    """The reference enumerates every separator; the anchoring keeps only
    the smallest one for token and lemma rules, which leaves the anchors
    unchanged.  Returns the reference's (problem, solution)."""
    anchored, problem, solution = reference_anchor_flavor2_corpus(graphs)
    assert rules.anchor_flavor2_corpus(graphs) == anchored
    return problem, solution


def flavor2_synth(seed, size):
    from dataclasses import replace
    from mrparse.corpus import synth_corpus
    return [replace(g, framework="amr", flavor=2,
                    nodes=tuple(replace(n, anchors=()) for n in g.nodes))
            for g in synth_corpus(seed, size)]


class TestArtificialAnchoring:
    def test_assign_keeps_compatible_candidates(self):
        sets = [[frozenset({0}), frozenset({1})],
                [frozenset(), frozenset({2})]]
        kept = rules.assign_artificial_anchors(sets, {0, 2})
        assert kept == [[0], [1]]

    def test_flavor2_corpus_anchoring(self):
        # "xyzzy" shares no characters with any token, so only its absolute
        # rule exists and the node stays unanchored; the verbs share one
        # strip rule and get anchored to their gerund tokens.
        from mrparse.graph import Graph, Node
        graphs = [
            Graph(id="a", framework="amr", flavor=2, input="the dog is diving",
                  nodes=(Node(0, "dive", is_top=True), Node(1, "dog"))),
            Graph(id="b", framework="amr", flavor=2, input="the cat is taking",
                  nodes=(Node(0, "take", is_top=True), Node(1, "cat"))),
            Graph(id="c", framework="amr", flavor=2, input="bob is hiding",
                  nodes=(Node(0, "hide", is_top=True), Node(1, "xyzzy"))),
            Graph(id="d", framework="amr", flavor=2, input="sue was waving",
                  nodes=(Node(0, "wave", is_top=True), Node(1, "xyzzy"))),
        ]
        anchored = rules.anchor_flavor2_corpus(graphs)
        # verbs anchored to their gerund token via a shared strip rule
        dive = anchored[0].node_by_id(0)
        assert len(dive.anchors) >= 1
        spans = {(a.start, a.end) for a in dive.anchors}
        assert (11, 17) in spans  # "diving"
        # underivable label: absolute rule only, therefore unanchored
        assert anchored[2].node_by_id(1).anchors == ()
        assert anchored[3].node_by_id(1).anchors == ()
        # every artificial anchor is one of the sentence's token spans
        for g in anchored:
            from mrparse.graph import whitespace_tokens
            token_spans = {(t.start, t.end) for t in whitespace_tokens(g.input)}
            for node in g.nodes:
                for anchor in node.anchors:
                    assert (anchor.start, anchor.end) in token_spans

    @pytest.mark.parametrize("seed", [1, 2])
    def test_flavor2_corpus_matches_per_token_reference(self, seed):
        assert_matches_all_separator_reference(flavor2_synth(seed, 20))

    def test_flavor2_solution_pinned(self):
        # the same 13 rules the element-mask solver (tests/oracles.py
        # reference) chose over the all-separator universe of 6181 rules
        problem, solution = assert_matches_all_separator_reference(
            flavor2_synth(3, 60))
        assert (len(problem.per_node), len(problem.universe)) == (205, 6181)
        assert solution == (0, 1, 11, 66, 67, 137, 218,
                            6135, 6136, 6137, 6138, 6139, 6140)
        assert [rule_to_line(problem.universe[i]) for i in solution] == [
            'token\t0\t0\t""\t0\t0\t"_"\t"_n"',
            'token\t0\t0\t""\t0\t0\t"_"\t"_q"',
            'token\t0\t0\t""\t0\t1\t"_"\t"_n"',
            'token\t0\t0\t""\t0\t3\t""\t""',
            'token\t0\t0\t""\t0\t3\t""\t"e"',
            'token\t0\t0\t""\t1\t0\t"per"\t"on"',
            'token\t0\t0\t""\t1\t2\t"plac"\t""',
        ] + [f'absolute\t"{n}"' for n in ("27", "54", "58", "62", "77", "99")]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_anchors_independent_of_graph_order(self, seed, monkeypatch):
        # reversing the graphs renumbers the rule table; every graph keeps
        # its anchors
        from mrparse import transform
        graphs = [transform.preprocess("amr", g)[0] for g in flavor2_synth(seed, 60)]
        universes = []
        solve = rules.minimal_rule_set

        def spy(problem):
            universes.append(problem.universe)
            return solve(problem)

        monkeypatch.setattr(rules, "minimal_rule_set", spy)
        forward = rules.anchor_flavor2_corpus(graphs)
        backward = rules.anchor_flavor2_corpus(graphs[::-1])
        assert universes[0] != universes[1]
        assert sorted(universes[0]) == sorted(universes[1])
        assert backward[::-1] == forward
        assert any(node.anchors for g in forward for node in g.nodes)

    def test_amr_fixture_matches_per_token_reference(self):
        from mrparse import transform
        from mrparse.graph import load_graphs
        from conftest import fixture_path
        graphs = [transform.preprocess("amr", g)[0]
                  for g in load_graphs(fixture_path("amr.jsonl"))]
        assert_matches_all_separator_reference(graphs)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.text(alphabet="abcé-", min_size=1, max_size=6)
                              | st.sampled_from(["one", "twelve", "sixty", "Seven"]),
                              st.none() | st.text(alphabet="abcé-", min_size=1,
                                                  max_size=6)),
                    min_size=1, max_size=4),
           st.lists(st.text(alphabet="abcé-_ 12", min_size=1, max_size=10)
                    | st.sampled_from(["1", "12", "60", "7", "xyz", "_cab_n"]),
                    min_size=1, max_size=3))
    @example([("sixty", None), ("Seven", "seven"), ("abc", "xbz")], ["60", "7", "xyz"])
    def test_candidate_sets_are_one_token_enumerations(self, words, labels):
        # each candidate's rules are those the enumerator finds for its form
        # and lemma alone, less the absolute rule: a lemma unlike the form,
        # labels sharing no character with the token ("xyz"), and number
        # words whose digits share none ("sixty" -> "60") included
        from unittest import mock

        from mrparse.graph import Graph, Node, Token
        tokens, start = [], 0
        for form, lemma in words:
            tokens.append(Token(form, start, start + len(form),
                                form if lemma is None else lemma))
            start += len(form) + 1
        graph = Graph(id="g", framework="amr", flavor=2,
                      input=" ".join(form for form, _ in words),
                      nodes=tuple(Node(i, label) for i, label in enumerate(labels)),
                      tokens=tuple(tokens))
        seen = {}
        solve, assign = rules.minimal_rule_set, rules.assign_artificial_anchors

        def spy_solve(problem):
            seen["universe"] = problem.universe
            return solve(problem)

        def spy_assign(candidate_rule_sets, minimal_set):
            seen["candidates"] = candidate_rule_sets
            return assign(candidate_rule_sets, minimal_set)

        with mock.patch.object(rules, "minimal_rule_set", spy_solve), \
                mock.patch.object(rules, "assign_artificial_anchors", spy_assign):
            rules.anchor_flavor2_corpus([graph])
        universe = seen["universe"]
        for label, candidates in zip(labels, seen["candidates"]):
            assert len(candidates) == len(tokens)
            for token, found in zip(tokens, candidates):
                ids = {}
                expected = rules.enumerate_applicable_rules(
                    [token.form], [token.lemma], label, ids)
                table = list(ids)
                assert {universe[i] for i in found} == \
                    {table[i] for i in expected} - {AbsoluteRule(label)}

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcé-", min_size=1, max_size=6)
           | st.sampled_from(["one", "twelve", "twenty-one"]),
           st.text(alphabet="abcé-", min_size=1, max_size=6),
           st.text(alphabet="abcé-_ 12", min_size=1, max_size=10)
           | st.sampled_from(["1", "12", "21"]))
    def test_separator_never_matters_for_one_token(self, form, lemma, label):
        # the package joins one token with the first separator only;
        # expanding each token or lemma rule to every separator gives the
        # all-separator enumeration
        ids = {}
        rules.enumerate_applicable_rules([form], [lemma], label, ids)
        assert all(r.separator == rules.SEPARATORS[0] for r in ids)
        assert enumerate_applicable_rules([form], [lemma], label) == \
            reference_enumerate_applicable_rules([form], [lemma], label)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abcde", min_size=1, max_size=8),
       st.text(alphabet="abcde", min_size=1, max_size=8))
def test_enumerate_soundness_property(token, label):
    found = enumerate_applicable_rules([token], [token], label)
    for rule in found:
        assert apply_rule(rule, [token], [token]) == label
