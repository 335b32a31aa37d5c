"""Exact inference oracles: evaluation-tree enumeration and world enumeration.

The two oracles are deliberately independent implementations; several tests
here assert their agreement so that either one can vouch for sampler
estimates elsewhere.
"""

import functools
import gc
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MSW_VALUE_TEXT, mutually_exclusive
from plpmcmc import oracle
from plpmcmc.evaluator import DEFAULT_STEP_LIMIT, EvalError, StepLimitExceeded, run_first
from plpmcmc.lang import PlpError, ProgramError, parse_goal, parse_program
from plpmcmc.oracle import (
    BranchLimitExceeded,
    exact_conditional,
    exact_conditional_worlds,
    holds_in_world,
    iter_eval_leaves,
    prob,
    world_universe,
)
from plpmcmc.bench import fig1, gen_bn, random_reach, small_benchmarks
from test_mcmc import _digest

TINY_DECLS = """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
"""
TINY = parse_program(
    TINY_DECLS
    + """
both :- msw(x, t), msw(y, t).
either :- msw(x, t).
either :- msw(y, t).
"""
)
ROUTES = [exact_conditional, exact_conditional_worlds]


def test_single_switch_probability():
    goal = ("msw", "x", 0, "t")
    assert exact_conditional(TINY, goal, "true").p_joint == pytest.approx(0.3, abs=1e-15)
    assert exact_conditional_worlds(TINY, goal, "true").p_joint == pytest.approx(0.3, abs=1e-15)


def test_hand_computed_conjunction_and_disjunction():
    assert exact_conditional(TINY, "both", "true").p_joint == pytest.approx(0.18, abs=1e-15)
    # P(x=t or y=t) = 0.3 + 0.7*0.6
    assert exact_conditional(TINY, "either", "true").p_joint == pytest.approx(0.72, abs=1e-15)
    res = exact_conditional(TINY, "both", "either")
    assert res.p_evidence == pytest.approx(0.72, abs=1e-15)
    assert res.p_joint == pytest.approx(0.18, abs=1e-15)
    assert res.p_conditional == pytest.approx(0.25, abs=1e-15)


def test_deterministic_goals_are_zero_or_one():
    # r(a) fails by clause-head mismatch rather than by being undefined
    prog = parse_program("p. q :- r(a). r(b).")
    assert exact_conditional(prog, "p", "true").p_joint == 1.0
    assert exact_conditional(prog, "q", "true").p_joint == 0.0


def test_fig1_published_value():
    case = fig1()
    p = exact_conditional(case.program, case.evidence, "true").p_joint
    assert p == pytest.approx(0.02882, abs=5e-6)
    p_query = exact_conditional(case.program, case.query, "true").p_joint
    assert p_query == pytest.approx(0.7592, abs=1e-12)


def test_fig1_conditional_frozen_values():
    case = fig1()
    res = exact_conditional(case.program, case.query, case.evidence)
    assert res.p_evidence == pytest.approx(0.028820000000000005, abs=1e-15)
    p_query = exact_conditional(case.program, case.query, "true").p_joint
    assert p_query == pytest.approx(0.7592000000000001, abs=1e-15)
    assert res.p_joint == pytest.approx(0.025602800000000005, abs=1e-15)
    assert res.p_conditional == pytest.approx(0.8883691880638446, abs=1e-12)
    assert res.leaf_count == 23


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


def _rerun_leaves(prog, goal, base, step_limit=DEFAULT_STEP_LIMIT):
    """Reference for `iter_eval_leaves`: each leaf by a full scripted re-run
    of `run_first` from the goal, the k-th fresh pick taking the outcome the
    script dictates (the first when it runs out), and the script advanced as
    an odometer, depth-first."""
    script = []
    while True:
        log = []  # (chosen index, number of outcomes) per fresh pick

        def picker(key):
            outcomes = prog.switch_info(key[0]).outcomes
            idx = script[len(log)] if len(log) < len(script) else 0
            log.append((idx, len(outcomes)))
            return outcomes[idx]

        ok, sigma, _trace = run_first(prog, goal, base, picker, step_limit)
        yield ok, sigma
        while log and log[-1][0] == log[-1][1] - 1:
            log.pop()
        if not log:
            return
        script = [idx for idx, _n in log[:-1]] + [log[-1][0] + 1]


def _listed(leaves):
    """A walk's leaves as (success, items in dict order), and the type of
    the error that ended it, if any."""
    out = []
    try:
        for ok, sigma in leaves:
            out.append((ok, list(sigma.items())))
    except PlpError as exc:
        return out, type(exc)
    return out, None


def _tree_route_walks(prog, query, evidence):
    """Each (goal, base) that `exact_conditional` walks, in its order."""
    e_leaves, _error = _listed(_rerun_leaves(prog, evidence, {}))
    return [(evidence, {})] + [(query, dict(sigma)) for ok, sigma in e_leaves if ok]


def _check_walker(prog, query, evidence):
    """Hold `iter_eval_leaves` to the re-running reference on every walk of
    the tree route, leaf by leaf, with a fresh trie and with one trie per
    goal shared across the walks."""
    tries = {}
    for goal, base in _tree_route_walks(prog, query, evidence):
        want = _listed(_rerun_leaves(prog, goal, base))
        assert _listed(iter_eval_leaves(prog, goal, base)) == want
        assert _listed(iter_eval_leaves(prog, goal, base, tries.setdefault(goal, {}))) == want


@pytest.mark.parametrize("case", small_benchmarks(), ids=lambda c: c.name)
def test_walker_matches_the_rerunning_reference_on_the_catalogue(case, monkeypatch):
    # and runs once per read path: as many runs as the world route's proofs
    runs = []

    def counting(*args, **kwargs):
        runs.append(args[1])
        return run_first(*args, **kwargs)

    monkeypatch.setattr(oracle, "run_first", counting)
    _check_walker(case.program, case.query, case.evidence)
    runs.clear()
    exact_conditional(case.program, case.query, case.evidence)
    assert len(runs) == WORLD_PROOFS[case.name]


def test_walker_raises_where_the_reference_does():
    # x = t reads y and succeeds or fails; x = f calls an unknown predicate
    prog = parse_program(TINY_DECLS + "q :- msw(x, t), msw(y, t).\nq :- msw(x, f), nope.\n")
    want = _listed(_rerun_leaves(prog, "q", {}))
    assert want == ([(True, [(("x", 0), "t"), (("y", 0), "t")]),
                     (False, [(("x", 0), "t"), (("y", 0), "f")])], EvalError)
    trie = {}
    assert _listed(iter_eval_leaves(prog, "q", {}, trie)) == want
    assert _listed(iter_eval_leaves(prog, "q", {}, trie)) == want


def test_resumed_runs_spend_the_steps_of_runs_from_the_goal(monkeypatch):
    # a run of fig1's evidence takes up to 33 steps from the goal; under any
    # lower budget the walk raises after the reference's leaves
    case = fig1()
    prog, goal = case.program, case.evidence
    assert len(_listed(_rerun_leaves(prog, goal, {}, 33))[0]) == 13
    assert _listed(_rerun_leaves(prog, goal, {}, 32))[1] is StepLimitExceeded
    for limit in range(1, 34):
        monkeypatch.setattr(oracle, "run_first", functools.partial(run_first, step_limit=limit))
        want = _listed(_rerun_leaves(prog, goal, {}, limit))
        assert _listed(iter_eval_leaves(prog, goal, {})) == want, limit


@pytest.mark.parametrize("value", [1.0, True, 2])
def test_walker_refuses_a_base_value_that_is_not_a_declared_outcome(value):
    # trie children are keyed by value, and 1.0 and True hash like 1, but
    # the msw match is type-strict: the run of 1 is not the run of 1.0
    prog = parse_program("values(b, [0, 1]).\n:- set_sw(b, [0.5, 0.5]).\nq :- msw(b, 1).\n")
    trie = {}
    assert _listed(iter_eval_leaves(prog, "q", {("b", 0): 1}, trie)) == (
        [(True, [(("b", 0), 1)])], None)
    with pytest.raises(ProgramError, match="not declared for switch b"):
        next(iter_eval_leaves(prog, "q", {("b", 0): value}, trie))
    with pytest.raises(ProgramError, match="not declared for switch b"):
        prob({("b", 0): value}, prog)


@pytest.mark.parametrize("route", ROUTES)
def test_branch_limit(route, monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_BRANCH_LIMIT", 5)
    case = fig1()
    with pytest.raises(BranchLimitExceeded):
        route(case.program, case.evidence, "true")


@pytest.mark.parametrize("route", ROUTES)
def test_a_goal_that_is_not_ground_is_refused(route):
    case = fig1()
    open_goal = parse_goal("reach(a, X)")
    for query, evidence in [(open_goal, case.evidence), (case.query, open_goal)]:
        with pytest.raises(EvalError, match=r"^goal must be ground: reach\(a,X\)$"):
            route(case.program, query, evidence)


def test_unsatisfiable_evidence_is_an_error():
    prog = parse_program(
        "values(x,[t,f]). :- set_sw(x,[0.5,0.5]). e :- msw(x,t), msw(x,f)."
    )
    with pytest.raises(Exception, match="unsatisfiable"):
        exact_conditional(prog, ("msw", "x", 0, "t"), "e")


def _reference_worlds(prog):
    """(world, probability) for every complete world, by plain enumeration."""
    keys = world_universe(prog)
    infos = [prog.switch_info(s) for s, _ in keys]
    for combo in itertools.product(*(range(len(i.outcomes)) for i in infos)):
        world = {key: info.outcomes[k] for key, info, k in zip(keys, infos, combo)}
        yield world, math.prod(info.probs[k] for info, k in zip(infos, combo))


def _reference_sums(prog, query, evidence):
    """(p_query, p_evidence, p_joint) with both goals proved in every world."""
    p_q, p_e, p_qe = [], [], []
    for world, p in _reference_worlds(prog):
        q_ok = holds_in_world(prog, query, world)
        e_ok = holds_in_world(prog, evidence, world)
        if q_ok:
            p_q.append(p)
        if e_ok:
            p_e.append(p)
            if q_ok:
                p_qe.append(p)
    return math.fsum(p_q), math.fsum(p_e), math.fsum(p_qe)


def test_world_universe_and_enumeration():
    keys = world_universe(TINY)
    assert set(keys) == {("x", 0), ("y", 0)}
    worlds = list(_reference_worlds(TINY))
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


def _proof_counter(monkeypatch):
    """A list that receives the goal of every world proof."""
    proofs = []

    def counting(*args):
        proofs.append(args[1])
        return holds_in_world(*args)

    monkeypatch.setattr(oracle, "holds_in_world", counting)
    return proofs


def test_a_program_of_2_20_worlds_is_answered_from_its_reads(monkeypatch):
    # 2^20 complete worlds, but the query reads one switch: one read path
    # of the evidence and two of q are proved
    proofs = _proof_counter(monkeypatch)
    decls = "".join(
        f"values(s{k}, [t, f]).\n:- set_sw(s{k}, [0.5, 0.5]).\n" for k in range(20)
    )
    prog = parse_program(decls + "q :- msw(s0, t).\n")
    assert exact_conditional_worlds(prog, "q", "true").p_joint == 0.5
    assert len(proofs) == 3


# The world route sums over the read paths of its own prover and proves each
# goal once per read path; the tests below hold it to plain enumeration of
# every world. Proof counts of every catalogue program (reach10s4 has 4096
# complete worlds, chain10p6s16 1024):
WORLD_PROOFS = {
    "fig1": 22, "fig1rev": 22, "reach4s1": 11, "reach5s2": 34, "reach6s3": 48,
    "reach10s4": 255, "bn1x1e0s5": 3, "bn2x1e1s6": 4, "bn1x3e1s7": 8,
    "bn2x2e1s8": 10, "bn2x2e2s9": 14, "bn2x2e2s10": 8, "hamming2o1s11": 4,
    "hamming3o2s12": 5, "hamming4o3s13": 6, "hamming4o2s14": 10,
    "hamming3o1s15": 4, "grammar4l1": 9, "grammar4l2": 10, "grammar6l2": 27,
    "grammar8l2": 83, "grammar8l3": 90, "chain10p6s16": 10, "chain8p5s17": 9,
}
# The least WORLD_STEP_LIMIT under which each catalogue program's world route
# does not raise: the longest single proof it runs, in steps counted from the
# goal.
WORLD_STEP_NEEDS = {
    "fig1": 33, "fig1rev": 33, "reach4s1": 27, "reach5s2": 43, "reach6s3": 55,
    "reach10s4": 79, "bn1x1e0s5": 2, "bn2x1e1s6": 4, "bn1x3e1s7": 6,
    "bn2x2e1s8": 10, "bn2x2e2s9": 15, "bn2x2e2s10": 10, "hamming2o1s11": 6,
    "hamming3o2s12": 7, "hamming4o3s13": 11, "hamming4o2s14": 13,
    "hamming3o1s15": 6, "grammar4l1": 19, "grammar4l2": 19, "grammar6l2": 27,
    "grammar8l2": 35, "grammar8l3": 35, "chain10p6s16": 24, "chain8p5s17": 20,
}


@pytest.mark.parametrize("case", small_benchmarks(), ids=lambda c: c.name)
def test_world_classes_match_full_enumeration(case, monkeypatch):
    proofs = _proof_counter(monkeypatch)
    res = exact_conditional_worlds(case.program, case.query, case.evidence)
    assert len(proofs) == WORLD_PROOFS[case.name]
    marginal = exact_conditional_worlds(case.program, case.query, "true")
    ref = _reference_sums(case.program, case.query, case.evidence)
    for got, want in zip((marginal.p_joint, res.p_evidence, res.p_joint), ref):
        assert got == pytest.approx(want, abs=1e-12)
    assert res.leaf_count == exact_conditional(case.program, case.query, case.evidence).leaf_count


@pytest.mark.parametrize("case", small_benchmarks(), ids=lambda c: c.name)
def test_world_route_spends_the_steps_of_proofs_from_the_goal(case, monkeypatch):
    # A proof's steps count from its goal, however much of it was shared with
    # an earlier proof, so the budget raises at the same step as full proofs.
    need = WORLD_STEP_NEEDS[case.name]
    monkeypatch.setattr(oracle, "WORLD_STEP_LIMIT", need - 1)
    with pytest.raises(StepLimitExceeded, match="step budget"):
        exact_conditional_worlds(case.program, case.query, case.evidence)
    monkeypatch.setattr(oracle, "WORLD_STEP_LIMIT", need)
    exact_conditional_worlds(case.program, case.query, case.evidence)


def test_proofs_that_read_no_switch_prove_one_class(monkeypatch):
    # one leaf for the evidence and one for the query below it, as in the
    # tree route; each goal is proved once
    proofs = _proof_counter(monkeypatch)
    assert exact_conditional_worlds(TINY, "true", "true").leaf_count == 2
    assert len(proofs) == 2


def _random_program(draw):
    """Three to four switches of two or three outcomes, and goals p0..p3 whose
    clauses read them in any order; p_i calls only p_j with j > i."""
    n_sw = draw(st.integers(3, 4))
    sizes = draw(st.lists(st.integers(2, 3), min_size=n_sw, max_size=n_sw))
    sizes[0] = 3
    lines = []
    for k, size in enumerate(sizes):
        weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        probs = [w / sum(weights) for w in weights]
        outs = ", ".join(f"o{j}" for j in range(size))
        lines.append(f"values(s{k}, [{outs}]).")
        lines.append(f":- set_sw(s{k}, [{', '.join(repr(p) for p in probs)}]).")
    for i in range(4):
        for _ in range(draw(st.integers(1, 3))):
            body = []
            for _ in range(draw(st.integers(1, 3))):
                if i < 3 and draw(st.booleans()) and draw(st.booleans()):
                    body.append(f"p{draw(st.integers(i + 1, 3))}")
                else:
                    k = draw(st.integers(0, n_sw - 1))
                    body.append(f"msw(s{k}, o{draw(st.integers(0, sizes[k] - 1))})")
            lines.append(f"p{i} :- {', '.join(body)}.")
    return parse_program("\n".join(lines))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_world_classes_match_full_enumeration_on_random_programs(data):
    prog = _random_program(data.draw)
    query = data.draw(st.sampled_from(["p0", "p1", "p2", "p3"]), label="query")
    evidence = data.draw(st.sampled_from(["true", "p0", "p1", "p2", "p3"]), label="evidence")
    ref = _reference_sums(prog, query, evidence)
    if ref[1] == 0.0:
        with pytest.raises(EvalError, match="unsatisfiable"):
            exact_conditional_worlds(prog, query, evidence)
        return
    res = exact_conditional_worlds(prog, query, evidence)
    marginal = exact_conditional_worlds(prog, query, "true")
    for got, want in zip((marginal.p_joint, res.p_evidence, res.p_joint), ref):
        assert got == pytest.approx(want, abs=1e-12)


# First arguments of every kind the world prover's clause filter keys on:
# atoms (the outcomes o0 and o1 among them), integers, compounds of two
# arities, the empty list, lists, and variables.
_GROUND_ARGS = ["a", "o0", "o1", "1", "[]", "f(a)", "f(a, b)", "g(a)", "[a, b]"]
_ARG_PATTERNS = _GROUND_ARGS + ["X", "X", "Y", "f(X)", "f(X, Y)", "g(X)", "[X|Y]", "[a|X]"]


def _random_arg_program(draw):
    """Three switches of two or three outcomes, and predicates p0..p3 of
    arity 1 or 2 whose heads and calls have first arguments of every kind;
    bodies read switches, bind variables to outcomes, call p_j with j > i and
    hold disjunctions."""
    sizes = [3] + draw(st.lists(st.integers(2, 3), min_size=2, max_size=2))
    lines = []
    for k, size in enumerate(sizes):
        weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        probs = [w / sum(weights) for w in weights]
        outs = ", ".join(f"o{j}" for j in range(size))
        lines.append(f"values(s{k}, [{outs}]).")
        lines.append(f":- set_sw(s{k}, [{', '.join(repr(p) for p in probs)}]).")
    arity = [draw(st.integers(1, 2)) for _ in range(4)]
    pattern = st.sampled_from(_ARG_PATTERNS)

    def atom(i):
        args = [draw(pattern)] + [draw(st.sampled_from(["X", "Y", "Z", "o0"]))
                                  for _ in range(arity[i] - 1)]
        return f"p{i}({', '.join(args)})"

    def goal(i):
        kind = draw(st.integers(0, 3 if i < 3 else 1))
        k = draw(st.integers(0, 2))
        if kind == 0:
            return f"msw(s{k}, o{draw(st.integers(0, sizes[k] - 1))})"
        if kind == 1:
            return f"msw(s{k}, {draw(st.sampled_from(['X', 'Y', 'Z']))})"
        if kind == 2:
            return atom(draw(st.integers(i + 1, 3)))
        return f"({goal(i)} ; {goal(i)})"

    for i in range(4):
        for _ in range(draw(st.integers(1, 4))):
            body = [goal(i) for _ in range(draw(st.integers(0, 3)))]
            lines.append(f"{atom(i)} :- {', '.join(body)}." if body else f"{atom(i)}.")
    return parse_program("\n".join(lines)), arity


def _random_arg_problem(data):
    """A `_random_arg_program` with a ground query and evidence of its
    predicates (or `true` evidence)."""
    prog, arity = _random_arg_program(data.draw)

    def ground_goal():
        i = data.draw(st.integers(0, 3))
        args = [data.draw(st.sampled_from(_GROUND_ARGS))] + [
            data.draw(st.sampled_from(["o0", "a"])) for _ in range(arity[i] - 1)]
        return parse_goal(f"p{i}({', '.join(args)})")

    query = ground_goal()
    evidence = data.draw(st.one_of(st.just("true"), st.builds(ground_goal)), label="evidence")
    return prog, query, evidence


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_world_route_matches_the_tree_route_on_programs_with_arguments(data):
    prog, query, evidence = _random_arg_problem(data)
    ref = _reference_sums(prog, query, evidence)
    if ref[1] == 0.0:
        for route in ROUTES:
            with pytest.raises(EvalError, match="unsatisfiable"):
                route(prog, query, evidence)
        return
    res = exact_conditional_worlds(prog, query, evidence)
    tree = exact_conditional(prog, query, evidence)
    sums = [(route(prog, query, "true").p_joint, r.p_evidence, r.p_joint)
            for route, r in ((exact_conditional_worlds, res), (exact_conditional, tree))]
    for got, want, tree_got in zip(sums[0], ref, sums[1]):
        assert got == pytest.approx(tree_got, abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)
    assert res.leaf_count == tree.leaf_count


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_walker_matches_the_rerunning_reference_on_programs_with_arguments(data):
    prog, query, evidence = _random_arg_problem(data)
    _check_walker(prog, query, evidence)


def test_a_proof_that_raises_in_a_later_class_raises_in_the_same_world(monkeypatch):
    # The evidence's walk comes first: it proves e where y = t; below that
    # success the query's walk proves q where x = t, then resumes that proof
    # with x = f, where it loops.  The other switches take their first
    # outcome, so the route raises in the world where a proof of q and then
    # e in each world first raises.
    prog = parse_program(TINY_DECLS + "loop :- loop.\nq :- msw(x, t).\nq :- loop.\n"
                         "e :- (msw(y, t) ; msw(y, f)).\n")

    def first_raising_world():
        for world, _p in _reference_worlds(prog):
            try:
                holds_in_world(prog, "q", world)
                holds_in_world(prog, "e", world)
            except StepLimitExceeded:
                return world

    proofs = []

    def recording(prog, goal, world, read=None, marks=None, start=None):
        proofs.append((goal, world[("x", 0)], world[("y", 0)]))
        return holds_in_world(prog, goal, world, read, marks, start)

    monkeypatch.setattr(oracle, "holds_in_world", recording)
    with pytest.raises(StepLimitExceeded, match="step budget"):
        exact_conditional_worlds(prog, "q", "e")
    assert proofs == [("e", "t", "t"), ("q", "t", "t"), ("q", "f", "t")]
    assert first_raising_world() == {("x", 0): "f", ("y", 0): "t"}


def test_world_route_keeps_the_step_budget():
    # the first class (x = t) is proved and skipped; the second loops
    prog = parse_program(TINY_DECLS + "loop :- loop.\nq :- msw(x, f), loop.\n")
    with pytest.raises(StepLimitExceeded, match="step budget"):
        exact_conditional_worlds(prog, "q", "true")


def test_world_route_reports_an_uncovered_instance():
    prog = parse_program(TINY_DECLS + "q :- msw(y, f), msw(x, 1, t).\n")
    with pytest.raises(EvalError, match="does not cover switch instance x/1"):
        exact_conditional_worlds(prog, "q", "true")


def test_conditional_of_query_equal_to_evidence_is_one():
    case = fig1()
    res = exact_conditional(case.program, case.evidence, case.evidence)
    assert res.p_conditional == pytest.approx(1.0, abs=1e-12)


def test_true_evidence_reduces_to_marginal():
    res = exact_conditional(TINY, "both", "true")
    assert res.p_evidence == 1.0
    assert res.p_conditional == pytest.approx(0.18, abs=1e-15)


# Goals held in variables, disjunctive bodies and the occurs check, under both
# routes.
CALLS = parse_program(
    """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
a :- msw(x, t).
b :- msw(y, t).
call1(G) :- G.
e :- (msw(x, t) ; msw(y, t)).
q :- call1((a ; b)).
d :- call1(a), call1(b).
occ(X, f(X)).
loopy :- occ(Y, Y).
unb :- call1(G).
"""
)
# a compound msw value matched against a pattern that binds a variable
MSW_VALUE = parse_program(MSW_VALUE_TEXT)
# Heads whose arguments are distinct variables, called with an unbound
# variable (u), a compound (c) and one variable in two places (r).
FLAT = parse_program(
    """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
sw(S, V) :- msw(S, V).
u :- sw(x, V), sw(y, V).
wrap(A, B) :- open(A, B).
open(f(X), g(X)) :- msw(x, X).
c :- wrap(f(t), g(V)), msw(y, V).
both(A, B) :- msw(x, A), msw(y, B).
r :- both(X, X).
"""
)


@pytest.mark.parametrize(
    ("prog", "query", "evidence", "expected"),
    [
        pytest.param(CALLS, "e", "true", 0.72, id="e-true-0.72"),
        pytest.param(CALLS, "q", "true", 0.72, id="q-true-0.72"),
        pytest.param(CALLS, "d", "e", 0.25, id="d-e-0.25"),
        pytest.param(CALLS, "loopy", "true", 0.0, id="loopy-true-0.0"),
        pytest.param(MSW_VALUE, "q", "e", 0.375, id="msw-value-q-e-0.375"),
        pytest.param(FLAT, "u", "true", 0.46, id="flat-unbound-u-true-0.46"),
        pytest.param(FLAT, "c", "true", 0.18, id="flat-compound-c-true-0.18"),
        pytest.param(FLAT, "r", parse_goal("sw(x, f)"), 0.4, id="flat-shared-var-r-x-f-0.4"),
    ],
)
@pytest.mark.parametrize("route", ROUTES)
def test_call_disjunction_and_occurs_check(route, prog, query, evidence, expected):
    res = route(prog, query, evidence)
    assert res.p_conditional == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("route", ROUTES)
def test_unbound_goal_is_an_error(route):
    with pytest.raises(EvalError, match="unbound goal"):
        route(CALLS, "unb", "true")


def test_catalogue_tree_results_are_pinned():
    results = [exact_conditional(c.program, c.query, c.evidence) for c in small_benchmarks()]
    assert _digest(results) == "a3312f7f65f511b5"


def test_catalogue_world_results_are_pinned():
    results = [(c.name, tuple(exact_conditional_worlds(c.program, c.query, c.evidence)))
               for c in small_benchmarks()]
    assert _digest(results) == "62fb0129d273361c"


def test_world_route_peaks_at_most_twice_the_tree_route():
    # both routes free a node's prover state once every outcome has a
    # child; each peak is of a second call, on a warm program
    case = gen_bn(3, 3, 2, 0)
    peak = {}
    for route in ROUTES:
        route(case.program, case.query, case.evidence)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            route(case.program, case.query, case.evidence)
            peak[route] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peak[exact_conditional_worlds] <= 2 * peak[exact_conditional]


# Beyond the catalogue: grids of 2^25, 2^35 and 2^49 complete worlds and a
# graph of 2^18, answered by both routes with the same leaves.  The 4x4 grid's
# evidence is rare: P(e) = 0.0094.
@pytest.mark.parametrize(
    ("make", "leaves"),
    [
        pytest.param(lambda: gen_bn(3, 3, 2, 0), 164, id="bn3x3e2"),
        pytest.param(lambda: gen_bn(3, 4, 2, 0), 1092, id="bn3x4e2"),
        pytest.param(lambda: random_reach(16, 5, 3), 6528, id="reach16s5"),
        pytest.param(lambda: gen_bn(4, 4, 12, 0), 1880, id="bn4x4e12"),
    ],
)
def test_world_route_matches_the_tree_route_beyond_the_catalogue(make, leaves):
    case = make()
    worlds = exact_conditional_worlds(case.program, case.query, case.evidence)
    tree = exact_conditional(case.program, case.query, case.evidence)
    for got, want in zip(worlds[:3], tree[:3]):
        assert got == pytest.approx(want, abs=1e-12)
    assert worlds.leaf_count == tree.leaf_count == leaves
