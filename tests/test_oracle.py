"""Exact inference oracles: evaluation-tree enumeration and world enumeration.

The two oracles are deliberately independent implementations; several tests
here assert their agreement so that either one can vouch for sampler
estimates elsewhere.
"""

import pytest

from plpmcmc.lang import parse_program
from plpmcmc.oracle import (
    BranchLimitExceeded,
    exact_conditional,
    exact_conditional_worlds,
    holds_in_world,
    iter_eval_leaves,
    iter_worlds,
    world_universe,
)
from plpmcmc.worlds import mutually_exclusive, prob
from plpmcmc.bench import fig1

TINY = parse_program(
    """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
both :- msw(x, t), msw(y, t).
either :- msw(x, t).
either :- msw(y, t).
"""
)


def test_single_switch_probability():
    goal = ("msw", "x", 0, "t")
    assert exact_conditional(TINY, goal, "true").p_query == pytest.approx(0.3, abs=1e-15)
    assert exact_conditional_worlds(TINY, goal, "true").p_query == pytest.approx(0.3, abs=1e-15)


def test_hand_computed_conjunction_and_disjunction():
    assert exact_conditional(TINY, "both", "true").p_query == pytest.approx(0.18, abs=1e-15)
    # P(x=t or y=t) = 0.3 + 0.7*0.6
    assert exact_conditional(TINY, "either", "true").p_query == pytest.approx(0.72, abs=1e-15)
    res = exact_conditional(TINY, "both", "either")
    assert res.p_evidence == pytest.approx(0.72, abs=1e-15)
    assert res.p_joint == pytest.approx(0.18, abs=1e-15)
    assert res.p_conditional == pytest.approx(0.25, abs=1e-15)


def test_deterministic_goals_are_zero_or_one():
    # r(a) fails by clause-head mismatch rather than by being undefined
    prog = parse_program("p. q :- r(a). r(b).")
    assert exact_conditional(prog, "p", "true").p_query == 1.0
    assert exact_conditional(prog, "q", "true").p_query == 0.0


def test_fig1_published_value():
    case = fig1()
    p = exact_conditional(case.program, case.evidence, "true").p_query
    assert p == pytest.approx(0.02882, abs=5e-6)
    p_query = exact_conditional(case.program, case.query, "true").p_query
    assert p_query == pytest.approx(0.7592, abs=1e-12)


def test_fig1_conditional_frozen_values():
    case = fig1()
    res = exact_conditional(case.program, case.query, case.evidence)
    assert res.p_evidence == pytest.approx(0.028820000000000005, abs=1e-15)
    assert res.p_query == pytest.approx(0.7592000000000001, abs=1e-15)
    assert res.p_joint == pytest.approx(0.025602800000000005, abs=1e-15)
    assert res.p_conditional == pytest.approx(0.8883691880638446, abs=1e-12)
    assert res.leaf_count == 36


def test_oracles_agree():
    case = fig1()
    a = exact_conditional(case.program, case.query, case.evidence)
    b = exact_conditional_worlds(case.program, case.query, case.evidence)
    assert a.p_conditional == pytest.approx(b.p_conditional, abs=1e-12)
    assert a.p_evidence == pytest.approx(b.p_evidence, abs=1e-12)
    assert a.p_joint == pytest.approx(b.p_joint, abs=1e-12)


def test_eval_leaves_partition_probability_space():
    # success and failure leaves together carry total probability one, and any
    # two leaves describe disjoint world sets
    leaves = list(iter_eval_leaves(TINY, "either", {}))
    total = sum(prob(sigma, TINY) for _ok, sigma in leaves)
    assert total == pytest.approx(1.0, abs=1e-12)
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            assert mutually_exclusive(leaves[i][1], leaves[j][1])


def test_eval_leaves_respect_base_assignment():
    leaves = list(iter_eval_leaves(TINY, "either", {("x", 0): "f"}))
    assert all(sigma[("x", 0)] == "f" for _ok, sigma in leaves)
    p = sum(prob({k: v for k, v in s.items() if k != ("x", 0)}, TINY)
            for ok, s in leaves if ok)
    # P(either | x=f) = P(y=t)
    assert p == pytest.approx(0.6, abs=1e-12)


def test_eval_leaves_are_deterministically_ordered():
    a = [(ok, dict(s)) for ok, s in iter_eval_leaves(TINY, "either", {})]
    b = [(ok, dict(s)) for ok, s in iter_eval_leaves(TINY, "either", {})]
    assert a == b


def test_branch_limit():
    case = fig1()
    with pytest.raises(BranchLimitExceeded):
        exact_conditional(case.program, case.evidence, "true", branch_limit=5)


def test_unsatisfiable_evidence_is_an_error():
    prog = parse_program(
        "values(x,[t,f]). :- set_sw(x,[0.5,0.5]). e :- msw(x,t), msw(x,f)."
    )
    with pytest.raises(Exception, match="unsatisfiable"):
        exact_conditional(prog, ("msw", "x", 0, "t"), "e")


def test_world_universe_and_enumeration():
    keys = world_universe(TINY)
    assert set(keys) == {("x", 0), ("y", 0)}
    worlds = list(iter_worlds(TINY))
    assert len(worlds) == 4
    assert sum(p for _w, p in worlds) == pytest.approx(1.0, abs=1e-12)
    probs = {frozenset(w.items()): p for w, p in worlds}
    assert probs[frozenset({("x", 0): "t", ("y", 0): "t"}.items())] == pytest.approx(0.18)


def test_holds_in_world():
    w_tt = {("x", 0): "t", ("y", 0): "t"}
    w_ft = {("x", 0): "f", ("y", 0): "t"}
    assert holds_in_world(TINY, "both", w_tt)
    assert not holds_in_world(TINY, "both", w_ft)
    assert holds_in_world(TINY, "either", w_ft)


def test_world_count_guard():
    # 2^20 worlds exceed DEFAULT_BRANCH_LIMIT; the count is checked before
    # the first world is decided
    decls = "".join(
        f"values(s{k}, [t, f]).\n:- set_sw(s{k}, [0.5, 0.5]).\n" for k in range(20)
    )
    prog = parse_program(decls + "q :- msw(s0, t).\n")
    with pytest.raises(BranchLimitExceeded, match="world count"):
        exact_conditional_worlds(prog, "q", "true")


def test_conditional_of_query_equal_to_evidence_is_one():
    case = fig1()
    res = exact_conditional(case.program, case.evidence, case.evidence)
    assert res.p_conditional == pytest.approx(1.0, abs=1e-12)


def test_true_evidence_reduces_to_marginal():
    res = exact_conditional(TINY, "both", "true")
    assert res.p_evidence == 1.0
    assert res.p_conditional == pytest.approx(0.18, abs=1e-15)
