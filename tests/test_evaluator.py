"""First-derivation sampling evaluator: frozen picks, traces, exclusivity."""

import random

import pytest

from plpmcmc.evaluator import (
    EvalError,
    StepLimitExceeded,
    UnsatisfiableEvidence,
    initial_sample,
    run_first,
    sample_eval,
)
from plpmcmc.lang import Clause, parse_goal, parse_program
from plpmcmc.oracle import holds_in_world, world_universe
from plpmcmc.worlds import mutually_exclusive

TWO_COINS = parse_program(
    """
values(c(_), [h, t]).
:- set_sw(c(1), [0.5, 0.5]).
:- set_sw(c(2), [0.5, 0.5]).
pair :- msw(c(1), h), msw(c(2), h).
"""
)

TWO_ROUTES = parse_program(
    """
values(s(_), [t, f]).
:- set_sw(s(a), [0.3, 0.7]).
:- set_sw(s(b), [0.6, 0.4]).
e :- msw(s(a), t).
e :- msw(s(b), t).
"""
)

KA = ("c", 1)
KB = ("c", 2)


def test_replay_success_and_failure_are_deterministic():
    ok = sample_eval(TWO_COINS, "pair", {(KA, 0): "h", (KB, 0): "h"}, rng=None)
    assert ok.success
    assert ok.assignment == {(KA, 0): "h", (KB, 0): "h"}
    assert ok.trace == [(KA, 0, "h"), (KB, 0, "h")]

    bad = sample_eval(TWO_COINS, "pair", {(KA, 0): "h", (KB, 0): "t"}, rng=None)
    assert not bad.success
    # the failing consult is still on the trace
    assert bad.trace == [(KA, 0, "h"), (KB, 0, "t")]


def test_first_failing_pick_short_circuits():
    res = sample_eval(TWO_COINS, "pair", {(KA, 0): "t", (KB, 0): "h"}, rng=None)
    assert not res.success
    assert res.trace == [(KA, 0, "t")]
    assert res.assignment == {(KA, 0): "t"}


def test_assignment_is_exactly_the_touched_set():
    # input entries never consulted must not leak into the output
    base = {(KA, 0): "t", (KB, 0): "h", (("c", 9), 0): "h"}
    res = sample_eval(TWO_COINS, "pair", base, rng=None)
    assert res.assignment == {(KA, 0): "t"}
    assert base == {(KA, 0): "t", (KB, 0): "h", (("c", 9), 0): "h"}


def test_fresh_picks_are_frozen_within_one_evaluation():
    # both clauses consult different switches; a frozen first pick must not be
    # re-drawn when the engine backtracks into the second clause
    for seed in range(50):
        res = sample_eval(TWO_ROUTES, "e", {}, rng=random.Random(seed))
        if not res.success:
            assert res.assignment[(("s", "a"), 0)] == "f"
            assert res.assignment[(("s", "b"), 0)] == "f"
        keys = [(s, i) for s, i, _v in res.trace]
        assert len(set(keys)) == len(keys)


def test_trace_records_repeated_consults():
    prog = parse_program(
        """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.5, 0.5]).
:- set_sw(y, [0.5, 0.5]).
p :- msw(x, t).
p :- msw(x, t), msw(y, t).
"""
    )
    res = sample_eval(prog, "p", {("x", 0): "f", ("y", 0): "t"}, rng=None)
    assert not res.success
    assert res.trace == [("x", 0, "f"), ("x", 0, "f")]


def test_replay_without_rng_raises_on_fresh_switch():
    with pytest.raises(EvalError, match="no rng"):
        sample_eval(TWO_COINS, "pair", {}, rng=None)


def test_goal_must_be_ground():
    from plpmcmc.lang import Var

    with pytest.raises(EvalError, match="ground"):
        sample_eval(TWO_COINS, ("p", Var("V")), {}, rng=None)


def test_same_seed_same_result():
    a = sample_eval(TWO_ROUTES, "e", {}, rng=random.Random(3))
    b = sample_eval(TWO_ROUTES, "e", {}, rng=random.Random(3))
    assert a == b


def test_disjunction_backtracks_into_right_branch():
    prog = parse_program(
        """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.5, 0.5]).
:- set_sw(y, [0.5, 0.5]).
d :- (msw(x, t) ; msw(y, t)).
"""
    )
    res = sample_eval(prog, "d", {("x", 0): "f", ("y", 0): "t"}, rng=None)
    assert res.success
    assert res.trace == [("x", 0, "f"), ("y", 0, "t")]


def test_equality_and_comparison_are_not_builtins():
    # the parser has no `=` or comparison token, so both engines treat a
    # hand-built goal of that shape as a call to an undefined predicate
    world = {(KA, 0): "h", (KB, 0): "h"}
    for goal in [("=", "a", "a"), ("<", 1, 2)]:
        with pytest.raises(EvalError, match=f"unknown predicate {goal[0]}/2"):
            sample_eval(TWO_COINS, goal, {}, rng=None)
        with pytest.raises(EvalError, match=f"unknown predicate {goal[0]}/2"):
            holds_in_world(TWO_COINS, goal, world)


def test_true_and_unknown_predicates():
    assert sample_eval(TWO_COINS, "true", {}, rng=None).success
    with pytest.raises(EvalError, match="unknown predicate"):
        sample_eval(TWO_COINS, "nonsense", {}, rng=None)


def test_first_argument_dispatch_keeps_clause_order_semantics():
    prog = parse_program(
        """
f(a, 1).
f(X, 2) :- g(X).
f(b, 3).
g(b).
"""
    )
    assert sample_eval(prog, ("f", "a", 1), {}, rng=None).success
    assert sample_eval(prog, ("f", "b", 2), {}, rng=None).success  # via the var clause
    assert sample_eval(prog, ("f", "b", 3), {}, rng=None).success
    assert not sample_eval(prog, ("f", "c", 2), {}, rng=None).success
    assert not sample_eval(prog, ("f", "a", 3), {}, rng=None).success


def test_msw_switch_must_resolve_to_ground():
    prog = parse_program(
        """
values(q(_), [t, f]).
:- set_sw(q(a), [0.5, 0.5]).
b :- msw(q(X), t).
c :- msw(q(a), f(I), t).
"""
    )
    with pytest.raises(EvalError, match="msw switch name is not ground"):
        sample_eval(prog, "b", {}, rng=random.Random(0))
    with pytest.raises(EvalError, match="msw instance is not ground"):
        sample_eval(prog, "c", {}, rng=random.Random(0))


def test_step_limit():
    prog = parse_program("loop :- loop.")
    with pytest.raises(StepLimitExceeded):
        sample_eval(prog, "loop", {}, rng=None, step_limit=500)


def test_run_first_with_explicit_picker():
    picks = {}

    def picker(key):
        picks[key] = "h"
        return "h"

    ok, sigma, trace = run_first(TWO_COINS, "pair", {}, picker)
    assert ok and sigma == {(KA, 0): "h", (KB, 0): "h"}
    assert set(picks) == {(KA, 0), (KB, 0)}
    assert trace == [(KA, 0, "h"), (KB, 0, "h")]


def test_outputs_identical_or_mutually_exclusive():
    # two evaluations from the empty assignment may disagree only by landing
    # in conflicting worlds
    from plpmcmc.bench import fig1

    case = fig1()
    prog, goal = case.program, case.evidence
    results = [sample_eval(prog, goal, {}, rng=random.Random(s)) for s in range(300)]
    for i in range(0, 300, 7):
        for j in range(i + 1, 300, 11):
            a, b = results[i], results[j]
            if a.assignment == b.assignment:
                assert a.success == b.success
            else:
                assert mutually_exclusive(a.assignment, b.assignment)


def test_initial_sample_witness_makes_evidence_true_in_every_extension():
    # the witness pins a full derivation, so evidence must hold in every
    # complete world extending it (checked exhaustively: <= 2^6 worlds)
    from plpmcmc.bench import fig1
    from itertools import product

    case = fig1()
    keys = world_universe(case.program)
    for seed in range(10):
        sigma = initial_sample(case.program, case.evidence, random.Random(seed))
        assert sigma  # evidence consults at least one switch
        free = [k for k in keys if k not in sigma]
        outcome_sets = [case.program.outcomes_for(k[0]) for k in free]
        for combo in product(*outcome_sets):
            world = dict(sigma)
            world.update(zip(free, combo))
            assert holds_in_world(case.program, case.evidence, world)


def test_initial_sample_rejects_unsatisfiable_evidence():
    prog = parse_program(
        """
values(x, [t, f]).
:- set_sw(x, [0.5, 0.5]).
e :- msw(x, t), msw(x, f).
"""
    )
    with pytest.raises(UnsatisfiableEvidence):
        initial_sample(prog, "e", random.Random(0))


def test_initial_sample_randomizes_the_witness():
    # with shuffled search the witness is not always the first derivation
    seen = set()
    for seed in range(40):
        sigma = initial_sample(TWO_ROUTES, "e", random.Random(seed))
        seen.add(frozenset(sigma.items()))
    assert len(seen) > 1


def test_added_clause_is_seen_after_an_evaluation():
    prog = parse_program("values(x, [t, f]). :- set_sw(x, [0.5, 0.5]). a :- msw(x, t).")
    assert not sample_eval(prog, "a", {("x", 0): "f"}, rng=None).success
    prog.add_clause(Clause("a", []))
    assert sample_eval(prog, "a", {("x", 0): "f"}, rng=None).success
