"""First-derivation sampling evaluator: frozen picks, traces, exclusivity."""

import functools
import gc
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HEAD_SHAPES_TEXT, MSW_VALUE_TEXT, mutually_exclusive
from plpmcmc import evaluator
from plpmcmc.adapt import AdaptedSource, QStore, adapt
from plpmcmc.bench import fig1, gen_bn, small_benchmarks
from plpmcmc.evaluator import (
    EvalError,
    StepLimitExceeded,
    UnsatisfiableEvidence,
    initial_sample,
    run_first,
    sample_eval,
    sample_outcome,
)
from plpmcmc.lang import Clause, PlpError, parse_goal, parse_program, term_to_str
from plpmcmc.oracle import (
    exact_conditional,
    exact_conditional_worlds,
    holds_in_world,
    world_universe,
)

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


def test_ground_keys_read_a_variable_two_compounds_deep():
    # the msw key of `r` and the index key of `q`'s call hold X inside f(_)
    # inside g(_), so the inner rewrite must reach the outer term
    prog = parse_program(
        """
values(s(_), [t, f]).
:- set_sw(s(g(f(a))), [0.5, 0.5]).
v(a).
p(g(f(a))) :- msw(s(g(f(a))), t).
p(g(f(b))).
q :- v(X), p(g(f(X))).
r :- v(X), msw(s(g(f(X))), t).
"""
    )
    key = (("s", ("g", ("f", "a"))), 0)
    for goal in ("q", "r"):
        res = sample_eval(prog, goal, {key: "t"}, rng=None)
        assert res.success and res.trace == [(*key, "t")]
        assert run_first(prog, goal, {key: "t"}, None) == (True, {key: "t"}, [(*key, "t")])


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


def test_initial_sample_shuffles_disjunction_branches():
    prog = parse_program(
        """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
e :- (msw(x, t) ; msw(y, t)).
"""
    )
    seen = {frozenset(initial_sample(prog, "e", random.Random(seed)).items()) for seed in range(20)}
    assert seen == {frozenset({(("x", 0), "t")}), frozenset({(("y", 0), "t")})}


def test_added_clause_is_seen_after_an_evaluation():
    prog = parse_program("values(x, [t, f]). :- set_sw(x, [0.5, 0.5]). a :- msw(x, t).")
    assert not sample_eval(prog, "a", {("x", 0): "f"}, rng=None).success
    prog.add_clause(Clause("a", []))
    assert sample_eval(prog, "a", {("x", 0): "f"}, rng=None).success


def _len_program(n):
    items = ",".join(f"a{k}" for k in range(n))
    return (
        "values(x, [t, f]).\n:- set_sw(x, [0.5, 0.5]).\n"
        f"data([{items}]).\n"
        "len([], z).\nlen([_|T], s(N)) :- len(T, N).\n"
        "q :- msw(x, t), data(L), len(L, N).\n"
    )


def test_list_length_walk_of_2000_elements():
    # len/2 is indexed on its first argument; walking a ground 2000-element
    # list through it answers under sample_eval and the tree route
    prog = parse_program(_len_program(2000))
    res = sample_eval(prog, "q", {("x", 0): "t"}, rng=None)
    assert res.success and res.trace == [("x", 0, "t")]
    assert exact_conditional(prog, "q", "true").p_conditional == 0.5


def test_ground_list_walk_runs_no_occurs_check(monkeypatch):
    # a head variable at its first occurrence takes the call's subterm, and a
    # cell meets only ground or newly built head arguments, so the walk is
    # linear: no occurs check runs at all
    prog = parse_program(_len_program(3200))
    calls = []
    occurs = evaluator._occurs
    monkeypatch.setattr(evaluator, "_occurs", lambda cell, t: calls.append(t) or occurs(cell, t))
    res = sample_eval(prog, "q", {("x", 0): "t"}, rng=None)
    assert res.success and res.trace == [("x", 0, "t")]
    assert calls == []


def test_search_down_a_ground_list_reads_no_compound_key(monkeypatch):
    # the search knows the program's and the goal's fixed terms are ground,
    # so walking a ground list never asks `_ground` about a compound
    prog = parse_program(_len_program(3200))
    items, n = "[]", "z"
    for k in reversed(range(3200)):
        items, n = (".", f"a{k}", items), ("s", n)
    walks = []
    ground = evaluator._ground
    monkeypatch.setattr(
        evaluator, "_ground",
        lambda t, frame=None: walks.append(t) if type(t) is tuple else ground(t, frame),
    )
    assert initial_sample(prog, "q", random.Random(0)) == {("x", 0): "t"}
    assert run_first(prog, ("len", items, n), {}, None, shuffle=random.Random(0).shuffle)[0]
    assert walks == []


OCCURS = parse_program(
    """
values(x, [t, f]).
:- set_sw(x, [0.5, 0.5]).
occ(X, f(X)).
p(f(X, X)).
a :- msw(x, t), occ(Y, Y).
b :- msw(x, t), p(f(g(Z), Z)).
c :- msw(x, t), occ(W, f(W)), p(f(W, V)).
"""
)


@pytest.mark.parametrize("route", [exact_conditional, exact_conditional_worlds])
def test_repeated_head_variables_keep_the_occurs_check(route):
    assert route(OCCURS, "a", "true").p_joint == 0.0
    assert route(OCCURS, "b", "true").p_joint == 0.0
    assert route(OCCURS, "c", "true").p_joint == 0.5


def test_a_float_or_bool_key_does_not_match_an_int_head():
    # 1.0 and True equal 1 and hash alike, so they reach the index entry of
    # p(1, a); the head must still refuse them, as `_unify` does
    prog = parse_program("p(1, a).\np(X, b).\np(2, c).\nr(K, V) :- p(K, V).\n")
    for key in (1.0, True):
        for goal in (("p", key, "a"), ("r", key, "a")):
            assert run_first(prog, goal, {}, None) == (False, {}, [])
            assert run_first(prog, goal, {}, None, shuffle=random.Random(0).shuffle)[0] is False
        assert run_first(prog, ("p", key, "b"), {}, None)[0]
        assert run_first(prog, ("r", key, "b"), {}, None)[0]
    assert run_first(prog, ("p", 1, "a"), {}, None)[0]
    assert run_first(prog, ("r", 1, "a"), {}, None)[0]


def test_a_goal_is_compiled_once_per_program(monkeypatch):
    prog = parse_program("p(1, a).\np(X, b).\np(2, c).\n")
    compiled = []
    compile_goal = evaluator._compile_goal
    monkeypatch.setattr(
        evaluator, "_compile_goal", lambda t, *a: compiled.append(t) or compile_goal(t, *a)
    )
    goal, other = ("p", 1, "a"), ("p", 1.0, "a")
    for _ in range(3):
        assert run_first(prog, goal, {}, None)[0]
    assert compiled == [goal]
    # an equal goal of another object is compiled for itself, and does not
    # read the other's trie either
    for g, ok in ((other, False), (goal, True), (other, False), (goal, True)):
        assert run_first(prog, g, {}, None)[0] is ok
        assert sample_eval(prog, g, {}).success is ok
    prog.add_clause(Clause(("p", 3, "d"), []))
    assert run_first(prog, goal, {}, None)[0]
    assert compiled == [goal, other, goal, other, goal, goal]


def test_search_on_a_compound_argument_draws_as_before():
    # p/2 is indexed on atoms only, so a list argument can match only its
    # generic clauses; the search still shuffles the full clause list, so its
    # witnesses keep the hash they had before evaluation skipped that lookup
    prog = parse_program(
        """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.5, 0.5]).
:- set_sw(y, [0.5, 0.5]).
p([], a).
p([_|_], b) :- msw(x, t).
p([_|_], c) :- msw(y, t).
e :- p([_], V), msw(x, _).
"""
    )
    witnesses = [list(initial_sample(prog, "e", random.Random(s)).items()) for s in range(40)]
    digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16]
    assert digest == "e0d4ef671c2752d7"


# -- memoised evaluation ---------------------------------------------------
#
# `sample_eval` walks a per-goal trie of the runs it has seen.  Every case
# below compares it, on a program whose tries are warm, with `run_first` on a
# freshly parsed copy of the program, drawing through the picker that
# `sample_eval` documents.

MEMO_CASES = [fig1(), gen_bn(3, 3, 2, seed=0)] + small_benchmarks()


def _live(prog, goal, base, dist, rng, step_limit=evaluator.DEFAULT_STEP_LIMIT):
    def picker(key):
        if rng is None:
            raise EvalError(
                f"fresh switch instance {term_to_str(key[0])}/{term_to_str(key[1])}"
                " encountered but no rng was provided"
            )
        info = prog.switch_info(key[0])
        probs = info.probs if dist is None else dist(key[0], key[1], info)
        return sample_outcome(info.outcomes, probs, rng)

    return run_first(prog, goal, base, picker, step_limit)


def _outcome(call):
    """A call's (success, assignment items, trace), or its error."""
    try:
        ok, sigma, trace = call()
    except EvalError as exc:
        return type(exc).__name__, str(exc)
    return ok, list(sigma.items()), list(trace)


@functools.cache
def _memo_case(k):
    """(case, fresh copy of its program, adapted source), with the case's
    tries warmed by 300 evaluations of each goal."""
    case = MEMO_CASES[k]
    rng = random.Random(k)
    store = QStore()
    for s in case.program.dists:
        for v in case.program.switch_info(s).outcomes:
            adapt([(s, 0, v)], rng.uniform(0.05, 1.0), store, case.program)
    source = AdaptedSource(store)
    for n in range(300):
        for goal in (case.query, case.evidence):
            sample_eval(case.program, goal, {}, dist=source if n % 2 else None, rng=rng)
    return case, parse_program(case.text), source


def _memo_example(data):
    k = data.draw(st.integers(0, len(MEMO_CASES) - 1), label="case")
    case, fresh, source = _memo_case(k)
    goal = data.draw(st.sampled_from([case.query, case.evidence]), label="goal")
    base = {}
    for key in world_universe(case.program):
        if data.draw(st.booleans()):
            base[key] = data.draw(st.sampled_from(case.program.switch_info(key[0]).outcomes))
    dist = source if data.draw(st.booleans(), label="adapted") else None
    seed = data.draw(st.integers(0, 2**16), label="seed")
    # a copy whose tries hold one run of each goal, so that most of its
    # misses resume from a checkpoint
    sparse = parse_program(case.text)
    for g in (case.query, case.evidence):
        sample_eval(sparse, g, {}, rng=random.Random(seed))
    return (case.program, sparse), fresh, goal, base, dist, seed


def _count_resumes(monkeypatch):
    """A list that gets an entry for each trie miss `sample_eval` resumes
    from a checkpoint."""
    resumed = []
    run_first = evaluator.run_first

    def counted(*args, resume=None, **kwargs):
        if resume is not None:
            resumed.append(len(resume[0]))
        return run_first(*args, resume=resume, **kwargs)

    monkeypatch.setattr(evaluator, "run_first", counted)
    return resumed


def test_warm_trie_matches_a_live_run(monkeypatch):
    resumed = _count_resumes(monkeypatch)
    examples = []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        progs, fresh, goal, base, dist, seed = _memo_example(data)
        before = len(resumed)
        for prog in progs:
            rng_m, rng_l = random.Random(seed), random.Random(seed)
            memo = _outcome(lambda: sample_eval(prog, goal, dict(base), dist=dist, rng=rng_m))
            live = _outcome(lambda: _live(fresh, goal, dict(base), dist, rng_l))
            assert memo == live
            assert rng_m.getstate() == rng_l.getstate()
            # without an rng, the same result or the same fresh-switch error
            assert _outcome(lambda: sample_eval(prog, goal, dict(base))) == _outcome(
                lambda: _live(fresh, goal, dict(base), None, None)
            )
        examples.append(len(resumed) > before)

    check()
    assert sum(examples) >= len(examples) // 4


def _smallest_limit(call):
    """The smallest step limit under which `call(limit)` does not raise
    StepLimitExceeded."""
    def raises(limit):
        try:
            call(limit)
        except StepLimitExceeded:
            return True
        return False

    lo, hi = 0, 1
    while raises(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if raises(mid):
            lo = mid
        else:
            hi = mid
    return hi


def test_step_limit_is_met_where_a_live_run_meets_it(monkeypatch):
    resumed = _count_resumes(monkeypatch)
    examples = []

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        progs, fresh, goal, base, dist, seed = _memo_example(data)
        before = len(resumed)

        def memo(limit, rng=None, prog=progs[0]):
            rng = random.Random(seed) if rng is None else rng
            return sample_eval(prog, goal, dict(base), dist=dist, rng=rng, step_limit=limit)

        def live(limit, rng=None):
            rng = random.Random(seed) if rng is None else rng
            return _live(fresh, goal, dict(base), dist, rng, limit)

        # a resumed run that a limit stops is not kept, so each probe of a
        # new path resumes until one finishes; then the probes walk the trie
        limit = _smallest_limit(live)
        assert _smallest_limit(functools.partial(memo, prog=progs[1])) == limit
        memo(evaluator.DEFAULT_STEP_LIMIT)
        assert _smallest_limit(memo) == limit
        # one step less raises in both, after the same draws
        rng_m, rng_l = random.Random(seed), random.Random(seed)
        assert _outcome(lambda: memo(limit - 1, rng_m)) == _outcome(lambda: live(limit - 1, rng_l))
        assert rng_m.getstate() == rng_l.getstate()
        examples.append(len(resumed) > before)

    check()
    assert sum(examples) >= len(examples) // 4


def test_repeated_evaluation_walks_the_trie(monkeypatch):
    prog = fig1().program
    goal = parse_goal("reach(a,e)")
    first = [sample_eval(prog, goal, {}, rng=random.Random(s)) for s in range(200)]
    runs = []
    monkeypatch.setattr(evaluator, "run_first", lambda *a, **k: runs.append(a))
    again = [sample_eval(prog, goal, {}, rng=random.Random(s)) for s in range(200)]
    assert runs == [] and again == first


def test_added_clause_clears_the_tries():
    prog = parse_program("values(x, [t, f]). :- set_sw(x, [0.5, 0.5]). a :- msw(x, t).")
    assert not sample_eval(prog, "a", {("x", 0): "f"}, rng=None).success
    assert prog._engine_memo is not None
    prog.add_clause(Clause("a", []))
    assert prog._engine_memo is None
    assert sample_eval(prog, "a", {("x", 0): "f"}, rng=None) == (True, {("x", 0): "f"}, [("x", 0, "f")])


# -- the raw engine, pinned -------------------------------------------------
#
# One hash over `run_first`'s raw output, steps included, on the catalogue,
# four 4x4 networks and a corpus of head shapes.  It was computed before the
# resolution loop was specialised at compile time; any change to a
# derivation, a trace or a step count changes it.

HEAD_SHAPES = parse_program(HEAD_SHAPES_TEXT)

HEAD_SHAPE_GOALS = [f"r{k}" for k in range(1, 21)] + [
    ("q", 1, 6), ("q", 1.0, 6), ("q", True, 6), ("q", 1.0, 2), ("q", "a", 1),
    ("q", ("g", "a"), 4), ("q", ("g", 1.0), 5), ("p", ("f", "b", "b")),
    ("occ", "a", ("f", "a")), ("len", (".", "a", (".", "b", "[]")), ("s", ("s", "z"))),
]


def _pin_cases():
    for case in small_benchmarks() + [gen_bn(4, 4, 3, seed=s) for s in (0, 1, 2, 4)]:
        yield case.name, case.program, [case.query, case.evidence]
    yield "head-shapes", HEAD_SHAPES, HEAD_SHAPE_GOALS


def _pinned_runs():
    """(success, assignment items, trace, steps_out) of every pinned run, or
    the error and the steps it reached; searches without the steps."""
    out = []
    for name, prog, goals in _pin_cases():
        for g, goal in enumerate(goals):
            seen = {}
            for trial in range(12):
                rng = random.Random(f"{name}/{g}/{trial}")
                base = {
                    key: rng.choice(prog.switch_info(key[0]).outcomes)
                    for key in seen
                    if rng.random() < 0.5
                }
                steps = []
                limit = 40 if trial == 11 else evaluator.DEFAULT_STEP_LIMIT
                try:
                    ok, sigma, trace = run_first(
                        prog, goal, base,
                        lambda key: rng.choice(prog.switch_info(key[0]).outcomes),
                        limit, steps_out=steps,
                    )
                except PlpError as exc:
                    out.append((type(exc).__name__, str(exc), steps))
                    continue
                seen.update(sigma)
                out.append((ok, list(sigma.items()), trace, steps))
            for seed in range(3):
                rng = random.Random(f"{name}/{g}/search/{seed}")
                try:
                    ok, sigma, trace = run_first(prog, goal, {}, None, shuffle=rng.shuffle)
                except PlpError as exc:
                    out.append((type(exc).__name__, str(exc)))
                    continue
                out.append((ok, list(sigma.items()), trace))
    return out


def test_run_first_raw_output_is_pinned():
    digest = hashlib.sha256(repr(_pinned_runs()).encode()).hexdigest()[:16]
    assert digest == "162e47f4a11dfefd"


# -- resumed runs -------------------------------------------------------------
#
# A trie miss resumes `run_first` from the checkpoint at the deepest node of
# its path.  Each case below checks one long-lived program, whose misses
# resume, against the same calls on a program whose tries are dropped before
# every call, so that every call runs from the goal.


def _differential_cases():
    for case in small_benchmarks() + [gen_bn(4, 4, 3, seed=s) for s in (0, 1, 2, 4)] + [fig1()]:
        yield pytest.param(case.name, case.text, [case.query, case.evidence], id=case.name)
    yield pytest.param("head-shapes", HEAD_SHAPES_TEXT, HEAD_SHAPE_GOALS, id="head-shapes")
    yield pytest.param("msw-value", MSW_VALUE_TEXT, ["q", "e"], id="msw-value")


@pytest.mark.parametrize("name, text, goals", list(_differential_cases()))
def test_a_resumed_run_matches_a_run_from_the_goal(monkeypatch, name, text, goals):
    resumed = _count_resumes(monkeypatch)
    warm, cold = parse_program(text), parse_program(text)
    rng = random.Random(f"{name}/differential")
    seen = {}
    for n in range(1500):
        goal = goals[n % len(goals)]
        base = {
            key: rng.choice(warm.switch_info(key[0]).outcomes)
            for key in seen
            if rng.random() < 0.5
        }
        limit = rng.randint(1, 150) if rng.random() < 0.25 else evaluator.DEFAULT_STEP_LIMIT
        seed = rng.randrange(2**32)
        rng_w, rng_c = random.Random(seed), random.Random(seed)
        cold._engine_memo = None
        out = _outcome(lambda: sample_eval(warm, goal, dict(base), rng=rng_w, step_limit=limit))
        assert out == _outcome(
            lambda: sample_eval(cold, goal, dict(base), rng=rng_c, step_limit=limit)
        ), (n, goal)
        assert rng_w.getstate() == rng_c.getstate()
        if type(out[0]) is bool:
            seen.update(out[1])
    assert resumed


def _walk_program(n):
    items = ",".join(f"e{k}" for k in range(n))
    return parse_program(
        "values(x, [a, b]).\n:- set_sw(x, [0.5, 0.5]).\n"
        "walk([]).\nwalk([H|T]) :- msw(x, H, V), c(V), walk(T).\n"
        f"c(a).\nc(a).\nc(b).\nc(b).\ndata([{items}]).\nq :- data(L), walk(L).\n"
    )


def test_checkpoints_cost_no_more_as_the_choicepoint_stack_grows():
    # every element is a first consult and leaves a choicepoint, so a
    # checkpoint that copied the choicepoints would make the run's memory
    # quadratic; the program is compiled first and the free lists emptied,
    # so the peak counts every object the run makes and nothing else
    peak = {}
    for n in (1600, 3200):
        prog = _walk_program(n)
        sample_eval(prog, "true", {})
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = sample_eval(prog, "q", {}, rng=random.Random(0))
            peak[n] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert res.success and len(res.trace) == n
    assert peak[3200] / peak[1600] <= 2.3
