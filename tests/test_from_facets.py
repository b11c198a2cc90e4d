"""The antichain filter of the constructor, reached directly and through
from_facets, against the pairwise filter of oracles.py."""

import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from scx import (InvalidParameter, SimplicialComplex, bit_indices, boundary_simplex, cross_polytope,
                 from_facets, parse_facet_text)
from oracles import maximal_masks_by_pairs

LABELS = ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "a", "b"]


def _expected(raw):
    """(labels, facet masks) of the canonical complex, without from_facets."""
    labels = tuple(sorted({str(v) for f in raw for v in f}))
    index = {lab: i for i, lab in enumerate(labels)}
    masks = [sum(1 << index[str(v)] for v in f) for f in raw]
    return labels, maximal_masks_by_pairs(masks)


def _assert_matches_oracle(raw):
    c = from_facets(raw)
    assert (c.labels, c.facet_masks) == _expected(raw)
    return c


def test_duplicates_nested_chains_and_the_empty_facet():
    cases = [
        [[]],
        [[], []],
        [[], [1]],
        [[1], []],
        [[1], [1], [1]],
        [[1], [1, 2], [1, 2, 3], [2, 3], [3]],
        [[1, 2, 3], [1, 2], [1], [], [4], [4, 5], [5]],
        [[1, 2], [2, 1], [2, 3], [3, 2], [1, 3]],
        [["a", "b"], ["b"], ["c"], ["a", "b", "c", "d"], ["d", "e"], ["e"]],
        [list(range(1, k + 1)) for k in range(12)],
        [[1, 2], [3, 4], [1, 3], [2, 4], [1, 2, 3], [3, 4]],
    ]
    for raw in cases:
        _assert_matches_oracle(raw)
    assert from_facets([[], [1]]).facet_masks == (1,)
    assert from_facets([[]]).facet_masks == (0,)


def _with_codimension_one_faces(c):
    facets = list(c.facets())
    return facets + [f[:i] + f[i + 1:] for f in facets for i in range(len(f))]


def test_generator_families():
    for d in range(1, 9):
        for c in (cross_polytope(d), boundary_simplex(d)):
            raw = _with_codimension_one_faces(c)
            random.Random(d).shuffle(raw)
            assert _assert_matches_oracle(raw) == c


def _cli_shaped(seed, n=24, facets=1500, max_size=7):
    rng = random.Random(seed)
    return [[str(v) for v in rng.sample(range(1, n + 1), rng.randint(1, max_size))]
            for _ in range(facets)]


def test_random_non_pure_lists_shaped_like_cli_files():
    for seed in range(3):
        c = _assert_matches_oracle(_cli_shaped(seed))
        assert not c.is_pure()


def test_input_order_does_not_matter():
    rng = random.Random(7)
    for raw in (_cli_shaped(11, facets=300), _with_codimension_one_faces(cross_polytope(5))):
        c = from_facets(raw)
        for _ in range(5):
            shuffled = [rng.sample(list(f), len(f)) for f in raw]
            rng.shuffle(shuffled)
            assert from_facets(shuffled) == c


facet_lists = st.lists(st.lists(st.sampled_from(LABELS), unique=True, max_size=6), max_size=14)


@given(facet_lists)
def test_facet_text_round_trip(raw):
    c = from_facets(raw)
    assert parse_facet_text(c.to_facet_text()) == c


@settings(max_examples=500)
@given(facet_lists)
def test_from_facets_equals_the_pairwise_filter(raw):
    _assert_matches_oracle(raw)


masks_over_labels = st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=12)))


@settings(max_examples=300)
@given(masks_over_labels)
def test_constructor_equals_from_facets_and_the_pairwise_filter(drawn):
    n, masks = drawn
    labels = tuple("abcdef"[:n])
    if reduce(or_, masks, 0) != (1 << n) - 1:  # some label in no mask
        with pytest.raises(InvalidParameter):
            SimplicialComplex(labels, masks)
        return
    c = SimplicialComplex(labels, masks)
    assert (c.labels, c.facet_masks) == (labels, maximal_masks_by_pairs(masks))
    assert c == from_facets([[labels[v] for v in bit_indices(m)] for m in masks])


label_values = st.one_of(st.sampled_from(["a", "b", "10", "a b", ""]), st.text(max_size=3),
                         st.integers(0, 3), st.booleans(), st.none())


def _outcome(facets):
    try:
        c = from_facets(facets)
    except Exception as exc:  # a refusal must be the same error with the same message
        return type(exc), str(exc)
    return c.labels, c.facet_masks


@given(st.lists(st.lists(label_values, max_size=4), max_size=5))
@example([["a b", ""]])  # as many words as labels, but not the same ones
@example([["a", "b", "a"]])
def test_whole_facet_check_agrees_with_the_label_rule(raw):
    # lists and tuples are checked whole; an iterator takes the rule label by label
    want = _outcome([iter(f) for f in raw])
    assert _outcome(raw) == want
    assert _outcome([tuple(f) for f in raw]) == want
