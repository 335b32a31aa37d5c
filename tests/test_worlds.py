"""Assignments as partial world descriptions."""

import random

import pytest
from hypothesis import given, strategies as st

from helpers import mutually_exclusive
from plpmcmc.lang import parse_program
from plpmcmc.evaluator import sample_outcome
from plpmcmc.oracle import prob

PROG = parse_program(
    """
values(x, [t, f]).
values(y, [a, b, c]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.2, 0.5, 0.3]).
"""
)


def test_sample_outcome_cdf_walk():
    class Fixed:
        def __init__(self, r):
            self.r = r

        def random(self):
            return self.r

    outs, probs = ("a", "b", "c"), (0.2, 0.5, 0.3)
    assert sample_outcome(outs, probs, Fixed(0.0)) == "a"
    assert sample_outcome(outs, probs, Fixed(0.19)) == "a"
    assert sample_outcome(outs, probs, Fixed(0.2)) == "b"
    assert sample_outcome(outs, probs, Fixed(0.69)) == "b"
    assert sample_outcome(outs, probs, Fixed(0.7)) == "c"
    assert sample_outcome(outs, probs, Fixed(0.999)) == "c"


def test_sample_outcome_frequencies():
    rng = random.Random(123)
    outs, probs = ("a", "b", "c"), (0.2, 0.5, 0.3)
    n = 50_000
    counts = {o: 0 for o in outs}
    for _ in range(n):
        counts[sample_outcome(outs, probs, rng)] += 1
    for o, p in zip(outs, probs):
        assert abs(counts[o] / n - p) < 0.01


def test_mutual_exclusion_and_compatibility():
    a = {("x", 0): "t", ("y", 0): "a"}
    assert mutually_exclusive(a, {("x", 0): "f"})
    assert not mutually_exclusive(a, {("x", 0): "t", ("z", 0): "q"})
    assert not mutually_exclusive(a, {})  # disjoint domains never exclude
    assert not mutually_exclusive(a, {("y", 0): "a"})
    assert mutually_exclusive(a, {("y", 0): "b"})


def test_prob_is_product_of_entry_probabilities():
    assert prob({}, PROG) == 1.0
    assert prob({("x", 0): "t"}, PROG) == 0.3
    assert prob({("x", 0): "f", ("y", 0): "b"}, PROG) == pytest.approx(0.35)
    # distinct instances of one switch multiply independently
    assert prob({("x", 0): "t", ("x", 1): "t"}, PROG) == pytest.approx(0.09)


def test_prob_rejects_undeclared_outcome():
    from plpmcmc.lang import ProgramError

    with pytest.raises(ProgramError, match="not declared"):
        prob({("x", 0): "zzz"}, PROG)


keys = st.sampled_from([("x", 0), ("y", 0), ("z", 0), ("x", 1)])
vals = st.sampled_from(["t", "f", "a"])
assignments = st.dictionaries(keys, vals, max_size=4)


@given(assignments, assignments)
def test_exclusion_iff_some_shared_key_conflicts(a, b):
    conflicting = [k for k, v in a.items() if k in b and b[k] != v]
    assert mutually_exclusive(a, b) == bool(conflicting)


@given(assignments, assignments)
def test_exclusion_is_symmetric_and_irreflexive(a, b):
    assert mutually_exclusive(a, b) == mutually_exclusive(b, a)
    assert not mutually_exclusive(a, a)
