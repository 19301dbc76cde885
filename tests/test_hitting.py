import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrparse import hitting
from mrparse.hitting import InfeasibleError, minimal_hitting_set
from oracles import (UniverseTooLargeError, brute_force_min_hitting_set,
                     canonical_problem, reference_anchor_flavor2_corpus,
                     reference_kept_constraints, reference_minimal_hitting_set,
                     reference_rule_problem, without_one_token_separator_variants)


def random_instance(rng, max_rules=12, max_nodes=8):
    n_rules = int(rng.integers(1, max_rules + 1))
    n_nodes = int(rng.integers(1, max_nodes + 1))
    sets = []
    for _ in range(n_nodes):
        size = int(rng.integers(1, n_rules + 1))
        sets.append(frozenset(int(x) for x in
                              rng.choice(n_rules, size=size, replace=False)))
    return sets, n_rules


def test_unique_singleton():
    assert minimal_hitting_set([frozenset({0, 1}), frozenset({1, 2})], range(3)) == (1,)


def test_disjoint_needs_both():
    assert minimal_hitting_set([frozenset({0}), frozenset({1})], range(2)) == (0, 1)


def test_empty_problem():
    assert minimal_hitting_set([], range(4)) == ()


def test_empty_set_infeasible():
    with pytest.raises(InfeasibleError) as err:
        minimal_hitting_set([frozenset({0}), frozenset()], range(2))
    assert err.value.constraint_index == 1
    # the reported index is the input position, not a position after dedupe
    with pytest.raises(InfeasibleError) as err:
        minimal_hitting_set([frozenset({0}), frozenset({0}), frozenset()], range(2))
    assert err.value.constraint_index == 2


def test_brute_force_universe_cap():
    with pytest.raises(UniverseTooLargeError):
        brute_force_min_hitting_set([frozenset({0})], 21)


def test_matches_brute_force_cardinality_and_ties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        sets, n = random_instance(rng)
        exact = minimal_hitting_set(sets, range(n))
        brute = brute_force_min_hitting_set(sets, n)
        assert exact == brute  # same minimum AND same lexicographic tie-break


def _minimum_solutions(sets, n):
    """Every minimum-cardinality hitting set, by subset enumeration."""
    for size in range(n + 1):
        found = [combo for combo in itertools.combinations(range(n), size)
                 if all(s.intersection(combo) for s in sets)]
        if found:
            return found
    return []


def test_orders_elements_by_universe_value():
    # elements carry shuffled distinct values; the answer is the brute-force
    # answer of the instance relabeled into value order, mapped back
    rng = np.random.default_rng(41)
    ties = 0
    for _ in range(200):
        sets, n = random_instance(rng)
        values = [int(v) for v in rng.choice(1000, size=n, replace=False)]
        rank = {e: r for r, e in enumerate(sorted(range(n), key=values.__getitem__))}
        by_rank = sorted(range(n), key=values.__getitem__)
        relabeled = [frozenset(rank[e] for e in s) for s in sets]
        expected = tuple(by_rank[r] for r in brute_force_min_hitting_set(relabeled, n))
        assert minimal_hitting_set(sets, values) == expected
        ties += len(_minimum_solutions(sets, n)) > 1
    assert ties >= 20  # many instances have several minimum sets to choose from


def test_value_order_overrides_index_order():
    # {0, 3} and {1, 2} are both minimum; index order picks {0, 3}, but
    # with 0 and 1 swapping values {1, 2} holds the smallest value, 1's
    sets = [frozenset({0, 1}), frozenset({0, 2}), frozenset({3, 1}), frozenset({3, 2})]
    assert minimal_hitting_set(sets, range(4)) == (0, 3)
    assert minimal_hitting_set(sets, [1, 0, 2, 3]) == (1, 2)
    assert minimal_hitting_set(sets, "badc") == (1, 2)
    assert minimal_hitting_set(sets, [3, 2, 1, 0]) == (3, 0)  # listed in value order


def test_lexicographic_tie_break():
    # both {0,3} and {1,2} are minimum; lexicographically smaller wins
    sets = [frozenset({0, 1}), frozenset({0, 2}), frozenset({3, 1}), frozenset({3, 2})]
    assert minimal_hitting_set(sets, range(4)) == brute_force_min_hitting_set(sets, 4) == (0, 3)


def test_deterministic():
    rng = np.random.default_rng(11)
    sets, n = random_instance(rng, max_rules=10, max_nodes=6)
    results = {minimal_hitting_set(sets, range(n)) for _ in range(5)}
    assert len(results) == 1


def test_solution_hits_every_set_property():
    rng = np.random.default_rng(23)
    for _ in range(100):
        sets, n = random_instance(rng, max_rules=16, max_nodes=12)
        solution = set(minimal_hitting_set(sets, range(n)))
        assert all(solution & s for s in sets)


def test_class_with_members_around_earlier_pick():
    # 0 and 5 lie in the same sets and so form one class, with members on
    # both sides of the forced pick 1
    sets = [frozenset({1}), frozenset({0, 3, 5}), frozenset({3})]
    assert minimal_hitting_set(sets, range(6)) == brute_force_min_hitting_set(sets, 6) == (1, 3)


@st.composite
def class_instances(draw, max_universe=200):
    """Sets built from a few coverage classes, then duplicated, widened
    and mixed with arbitrary sets, over universes of up to max_universe
    elements, by default beyond the reach of brute force."""
    universe = draw(st.integers(1, max_universe))
    num_classes = draw(st.integers(1, 16))
    class_of = draw(st.lists(st.integers(0, num_classes - 1),
                             min_size=universe, max_size=universe))
    element = st.integers(0, universe - 1)
    sets = []
    for chosen in draw(st.lists(st.sets(st.integers(0, num_classes - 1),
                                        min_size=1, max_size=3), max_size=25)):
        members = frozenset(e for e in range(universe) if class_of[e] in chosen)
        if members:
            sets.append(members)
    sets += draw(st.lists(st.frozensets(element, min_size=1, max_size=8), max_size=10))
    if sets:
        for i, extra in draw(st.lists(st.tuples(st.integers(0, len(sets) - 1),
                                                st.frozensets(element, max_size=3)),
                                      max_size=10)):
            sets.append(sets[i] | extra)  # a duplicate when extra is empty
    order = draw(st.permutations(range(len(sets))))
    return [sets[i] for i in order][:40], universe


@settings(max_examples=150, deadline=None)
@given(class_instances())
def test_matches_element_mask_reference(instance):
    sets, universe = instance
    assert minimal_hitting_set(sets, range(universe)) == reference_minimal_hitting_set(
        sets, universe)


@settings(max_examples=200, deadline=None)
@given(class_instances(max_universe=40)
       | st.lists(st.frozensets(st.integers(0, 9), min_size=1, max_size=5),
                  max_size=40).map(lambda sets: (sets, 10)))
def test_kept_constraints_match_pairwise_scan(instance):
    # the index on smallest elements finds the same kept sets, in the same
    # order, as testing every set against every kept set
    sets, _ = instance
    assert hitting._kept_constraints(sets) == reference_kept_constraints(sets)


def test_kept_constraint_filed_under_an_element_the_set_lacks():
    # {1, 5} is filed under 1; {2, 5} holds 5 but not 1, so it is kept, and
    # {1, 2, 5} holds 1 and is dropped
    sets = [frozenset({1, 2, 5}), frozenset({2, 5}), frozenset({1, 5})]
    assert hitting._kept_constraints(sets) == [frozenset({2, 5}), frozenset({1, 5})]


@st.composite
def component_instances(draw):
    """Two to five class_instances blocks over disjoint element ranges, their
    sets shuffled together, so each block holds one or more components;
    blocks of at most 4 elements keep many instances within brute force."""
    block_universe = draw(st.sampled_from([4, 200]))
    sets, offset = [], 0
    for block, universe in draw(st.lists(class_instances(block_universe),
                                         min_size=2, max_size=5)):
        sets += [frozenset(e + offset for e in s) for s in block]
        offset += universe
    order = draw(st.permutations(range(len(sets))))
    return [sets[i] for i in order], offset


@settings(max_examples=100, deadline=None)
@given(component_instances())
def test_components_match_element_mask_reference(instance):
    sets, universe = instance
    result = minimal_hitting_set(sets, range(universe))
    assert result == reference_minimal_hitting_set(sets, universe)
    if universe <= 20:
        assert result == brute_force_min_hitting_set(sets, universe)


def test_disjoint_tie_breaks_each_take_their_smallest():
    tie = [frozenset({0, 1}), frozenset({0, 2}), frozenset({3, 1}), frozenset({3, 2})]
    sets = [frozenset(e + offset for e in s) for offset in (8, 0, 4) for s in tie]
    assert minimal_hitting_set(sets, range(12)) == (0, 3, 4, 7, 8, 11)


# {0, 5} and {2, 3} are the smallest minima of two separate components
INTERLEAVED = [frozenset({0, 6}), frozenset({2, 8}), frozenset({0, 7}), frozenset({3, 8}),
               frozenset({5, 6}), frozenset({2, 9}), frozenset({5, 7}), frozenset({3, 9})]


def test_interleaved_components_are_merged_in_order():
    assert minimal_hitting_set(INTERLEAVED, range(10)) == brute_force_min_hitting_set(
        INTERLEAVED, 10) == (0, 2, 3, 5)


def test_each_component_searches_only_its_own_classes(monkeypatch):
    masks, _ = hitting._coverage_classes(INTERLEAVED, range(10))
    unions = [union for _, union in hitting._components(masks)]
    assert len(unions) == 2
    allowed_seen = []
    min_size = hitting._min_size

    def spy(masks, allowed, budget):
        allowed_seen.append(allowed)
        return min_size(masks, allowed, budget)

    monkeypatch.setattr(hitting, "_min_size", spy)
    assert minimal_hitting_set(INTERLEAVED, range(10)) == (0, 2, 3, 5)
    assert allowed_seen
    assert all(any(allowed & ~union == 0 for union in unions) for allowed in allowed_seen)


def test_min_size_within_budget_else_none():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        masks = [int(m) for m in rng.integers(1, 1 << n, size=int(rng.integers(0, 8)))]
        allowed = int(rng.integers(0, 1 << n))
        # the smallest number of allowed elements hitting every mask, by brute force
        sizes = [subset.bit_count() for subset in range(1 << n)
                 if subset & ~allowed == 0 and all(m & subset for m in masks)]
        optimum = min(sizes) if sizes else None
        if any(m & allowed == 0 for m in masks):
            assert optimum is None  # allowed empties a constraint
        for budget in range(n + 1):
            expected = optimum if optimum is not None and optimum <= budget else None
            assert hitting._min_size(masks, allowed, budget) == expected


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_sized_problems_match_element_mask_reference(seed):
    """The rules-infer problem and the all-separator artificial anchoring
    problem of a 125-graph corpus, the size of the problems rules-infer, amr
    preprocessing and training solve: hundreds of sets over about a thousand
    rules (eds, less the one-token separator variants) and thousands (amr);
    the all-separator eds problem picks the same rules."""
    from dataclasses import replace

    from mrparse import rules, transform
    from mrparse.corpus import synth_corpus

    graphs = synth_corpus(seed, 125)
    items, names = rules.label_items([transform.preprocess("eds", g)[0] for g in graphs])
    eds = rules.build_problem(items, names=names)
    reference = reference_rule_problem(items, names=names)
    unanchored = [replace(g, framework="amr", flavor=2,
                          nodes=tuple(replace(n, anchors=()) for n in g.nodes))
                  for g in graphs]
    amr_graphs = [transform.preprocess("amr", g)[0] for g in unanchored]
    anchored, amr, amr_solution = reference_anchor_flavor2_corpus(amr_graphs)
    assert rules.anchor_flavor2_corpus(amr_graphs) == anchored
    assert len(reference.universe) > 3000 and len(amr.universe) > 1500
    # the eds universe is in first-found order: compare in canonical indices
    eds, eds_solution = canonical_problem(eds, rules.minimal_rule_set(eds))
    assert eds == without_one_token_separator_variants(reference, items)
    assert len(eds.universe) > 500
    for problem, solution in ((eds, eds_solution), (amr, amr_solution)):
        assert len(problem.per_node) > 400
        assert hitting._kept_constraints(problem.per_node) == \
            reference_kept_constraints(problem.per_node)
        assert solution == reference_minimal_hitting_set(problem.per_node,
                                                         len(problem.universe))
    all_separator = reference_minimal_hitting_set(reference.per_node,
                                                  len(reference.universe))
    assert [reference.universe[i] for i in all_separator] == \
        [eds.universe[i] for i in eds_solution]
