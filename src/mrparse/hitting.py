"""Exact minimum hitting set over rule sets given as universe indices.

Elements are ordered by their values in the universe (for rule problems,
canonical rule order; range(n) gives index order), not by their indices, so
the answer does not depend on how the elements were numbered.  The input is
first reduced to coverage classes: duplicate sets and sets containing
another set are dropped (each kept set is filed under its smallest element,
so a set is checked only against the kept sets filed under its own
elements, not against all of them), and elements lying in exactly the same
remaining sets form one class (elements in none of them are never useful).
A minimum hitting set never holds two members of one class, and the
lexicographically smallest one takes each class's smallest member, so only
those minima are ordered, and the search runs on bitmasks over classes
numbered in their minima's order, a few hundred bits where the universe has
thousands of elements.  Constraints sharing a class form one connected component, and
each component, a few dozen constraints where the problem has over a
hundred, is solved on its own: a branch-and-bound that branches on the
smallest constraint and prunes when pairwise-disjoint constraints, each
needing its own class, exceed the budget, followed by a lexicographic
refinement pass over the component's classes in order.  The union of the
component answers, in class order, is the lexicographically smallest among
all minimum-cardinality solutions.
"""

from __future__ import annotations

from typing import Any, Sequence


class InfeasibleError(Exception):
    """Some constraint set is empty; names the offending constraint."""

    def __init__(self, constraint_index: int):
        super().__init__(f"constraint {constraint_index} has no candidate elements")
        self.constraint_index = constraint_index


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _packing_bound(masks: list[int]) -> int:
    # pairwise-disjoint constraints each need their own element
    packed = 0
    count = 0
    for mask in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if not mask & packed:
            packed |= mask
            count += 1
    return count


def _search(current: list[int], used: int, budget: int, best: int | None) -> int | None:
    """best, or the size of a smaller hitting set of current found under it
    with used elements already taken; a module-level function, since a
    recursive closure is a reference cycle that only the collector frees."""
    limit = budget if best is None else best - 1
    if used + _packing_bound(current) > limit:
        return best
    if not current:
        return used
    # every solution hits the smallest constraint: branch on its elements,
    # those hitting the most constraints first
    pivot = min(current, key=lambda m: (m.bit_count(), m))
    bit_gain = {e: sum(1 for m in current if m & (1 << e)) for e in _bits(pivot)}
    for e in sorted(bit_gain, key=lambda e: (-bit_gain[e], e)):
        bit = 1 << e
        best = _search([m for m in current if not m & bit], used + 1, budget, best)
    return best


def _min_size(masks: list[int], allowed: int, budget: int) -> int | None:
    """Smallest hitting set size within budget using allowed elements, else None."""
    masks = [m & allowed for m in masks]
    if not all(masks):
        return None
    return _search(masks, 0, budget, None)


def _kept_constraints(sets: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """The distinct sets that contain no other set, shortest first (ties in
    input order).

    Each kept set is filed under its smallest index, and a set is tested
    against only the kept sets filed under its own elements: a kept k <= s
    holds min(k), an element of s, so no subset is missed and the pairwise
    scan over all kept sets is avoided.
    """
    distinct = dict.fromkeys(sets)
    if frozenset() in distinct:
        raise InfeasibleError(list(sets).index(frozenset()))
    kept: list[frozenset[int]] = []
    by_least: dict[int, list[frozenset[int]]] = {}
    for s in sorted(distinct, key=len):
        if not any(k <= s for e in s if e in by_least for k in by_least[e]):
            kept.append(s)
            by_least.setdefault(min(s), []).append(s)
    return kept


def _coverage_classes(sets: Sequence[frozenset[int]],
                      universe: Sequence[Any]) -> tuple[list[int], list[int]]:
    """Constraint masks over coverage classes, and each class's smallest member.

    The kept constraints (_kept_constraints) are the distinct sets that
    contain no other set, found through an index on their smallest elements;
    elements lying in exactly the same kept constraints form one class.  A
    member is smaller when its value in universe is, and classes are
    numbered in increasing order of their smallest member.
    """
    kept = _kept_constraints(sets)
    cover: dict[int, int] = {}
    for j, s in enumerate(kept):
        bit = 1 << j
        for e in s:
            cover[e] = cover.get(e, 0) | bit
    first: dict[int, int] = {}
    for e, constraints in cover.items():
        least = first.get(constraints)
        if least is None or universe[e] < universe[least]:
            first[constraints] = e
    members = sorted(first.values(), key=universe.__getitem__)
    masks = [0] * len(kept)
    for c, e in enumerate(members):
        for j in _bits(cover[e]):
            masks[j] |= 1 << c
    return masks, members


def _components(masks: list[int]) -> list[tuple[list[int], int]]:
    """Constraints grouped by shared classes, each group with its class union."""
    groups: list[tuple[list[int], int]] = []
    for mask in masks:
        # group unions are disjoint, so a group joins this one iff it meets mask
        joined, union, apart = [mask], mask, []
        for group in groups:
            if group[1] & mask:
                joined += group[0]
                union |= group[1]
            else:
                apart.append(group)
        groups = apart + [(joined, union)]
    return groups


def _lexicographic_min(masks: list[int], allowed: int) -> list[int]:
    """Lexicographically smallest minimum set of allowed classes hitting masks."""
    optimum = _min_size(masks, allowed, allowed.bit_count())
    assert optimum is not None
    chosen: list[int] = []
    remaining = masks
    while remaining:
        need = optimum - len(chosen)
        useful = 0
        for m in remaining:
            useful |= m
        for c in _bits(allowed & useful):
            bit = 1 << c
            rest = [m for m in remaining if not m & bit]
            higher = allowed & ~((bit << 1) - 1)  # classes whose minimum is above
            if not rest:
                sub = 0
            else:
                sub = _min_size(rest, higher, need - 1)
            if sub is not None and sub <= need - 1:
                chosen.append(c)
                remaining = rest
                allowed = higher
                break
        else:  # pragma: no cover - optimum guarantees progress
            raise AssertionError("lexicographic refinement failed")
    return chosen


def minimal_hitting_set(sets: Sequence[frozenset[int]],
                        universe: Sequence[Any]) -> tuple[int, ...]:
    """Lexicographically smallest minimum-cardinality hitting set.

    sets hold indices into universe, whose values are distinct and totally
    ordered; the answer lists indices in increasing order of value, and of
    two equal-size answers the one holding the smaller value first wins.
    Every returned index set intersects all input sets; cardinality is
    provably minimum (branch-and-bound under a packing bound, cross-checked
    against brute force in the test suite).  The search runs over coverage
    classes, one connected component at a time, and returns each picked
    class's smallest member.  The union of the component answers is the
    answer: every minimum hitting set is a union of component minima, and of
    two equal-size sets the one holding the smallest element of their
    symmetric difference sorts first; that element lies in one component,
    whose lexicographically smallest minimum wins.
    """
    masks, members = _coverage_classes(sets, universe)
    return tuple(members[c] for c in sorted(c for group, union in _components(masks)
                                            for c in _lexicographic_min(group, union)))
