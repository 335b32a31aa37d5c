"""Metropolis-Hastings kernel: proposals, acceptance probabilities, chains.

The heavyweight check here builds the chain's *exact* transition matrix on
two-switch programs and on fig1 — forget choices enumerated outright,
evaluation outcomes enumerated with the oracle's leaf walker, acceptance taken
from the real accept_prob (see exact_kernel.py) — solves for the stationary
distribution, and compares it against the product measure the sampler is
supposed to target.  That pins down the kernel to numerical precision instead
of relying on statistical tolerance.
"""

import hashlib
import math
import random
from collections import Counter
from statistics import mean, stdev

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_kernel import build_transition_system, leaf_weight, stationary_distribution
from plpmcmc.adapt import AdaptedSource, QStore
from plpmcmc.bench import fig1, gen_bn, small_benchmarks
from plpmcmc.evaluator import EvalError, UnsatisfiableEvidence, initial_sample, sample_eval
from plpmcmc.lang import Var, parse_goal, parse_program
from plpmcmc.mcmc import (
    DEFENSIVE_FLOOR,
    ChainConfig,
    MultiSwitch,
    SingleSwitch,
    accept_prob,
    resample,
    run_chain,
)
from plpmcmc.oracle import exact_conditional, iter_eval_leaves
from plpmcmc.worlds import prob

DISJ = parse_program(
    """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
e :- msw(x, t).
e :- msw(y, t).
q :- msw(x, t), msw(y, f).
"""
)

PAIR = parse_program(
    """
values(c(_), [0, 1]).
:- set_sw(c(1), [0.5, 0.5]).
:- set_sw(c(2), [0.25, 0.75]).
e :- msw(c(1), 1).
e :- msw(c(2), 1).
q :- msw(c(1), 1), msw(c(2), 1).
"""
)


class FrozenStore(QStore):
    """A Q-store that never learns: all Q-values stay at their initial 1."""

    __slots__ = ()

    def update(self, key, reward):
        pass


# -- resample --------------------------------------------------------------


def test_single_switch_forgets_exactly_one_key():
    sigma = {("a", 0): "t"}
    assert resample(sigma, SingleSwitch(), random.Random(0)) == {}
    assert sigma == {("a", 0): "t"}  # input untouched


def test_single_switch_needs_a_nonempty_assignment():
    with pytest.raises(ValueError):
        resample({}, SingleSwitch(), random.Random(0))


def test_single_switch_choice_is_uniform():
    sigma = {("a", 0): "t", ("b", 0): "t", ("c", 0): "t"}
    rng = random.Random(1)
    n = 100_000
    counts = Counter()
    for _ in range(n):
        out = resample(sigma, SingleSwitch(), rng)
        assert len(out) == 2
        (missing,) = set(sigma) - set(out)
        counts[missing] += 1
    for k in sigma:
        assert counts[k] / n == pytest.approx(1 / 3, abs=0.02)


def test_multi_switch_forget_all():
    sigma = {("a", 0): "t", ("b", 0): "f"}
    assert resample(sigma, MultiSwitch(1.0), random.Random(0)) == {}


def test_multi_switch_drop_frequency():
    sigma = {("a", 0): "t", ("b", 0): "f"}
    rng = random.Random(2)
    n = 20_000
    dropped = Counter()
    for _ in range(n):
        out = resample(sigma, MultiSwitch(0.3), rng)
        for k in sigma:
            if k not in out:
                dropped[k] += 1
    for k in sigma:
        assert dropped[k] / n == pytest.approx(0.3, abs=0.02)


def test_multi_switch_probability_validation():
    with pytest.raises(ValueError):
        MultiSwitch(0.0)
    with pytest.raises(ValueError):
        MultiSwitch(1.5)
    MultiSwitch(1.0)  # closed upper end is allowed


key_strategy = st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.just(0))


@given(
    st.dictionaries(key_strategy, st.sampled_from(["t", "f"]), max_size=4),
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_multi_switch_proposes_sub_assignments(sigma, p, seed):
    out = resample(sigma, MultiSwitch(p), random.Random(seed))
    assert set(out) <= set(sigma)
    assert all(sigma[k] == v for k, v in out.items())


@given(
    st.dictionaries(key_strategy, st.sampled_from(["t", "f"]), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_single_switch_proposes_one_smaller(sigma, seed):
    out = resample(sigma, SingleSwitch(), random.Random(seed))
    assert len(out) == len(sigma) - 1
    assert set(out) <= set(sigma)
    assert all(sigma[k] == v for k, v in out.items())


# -- accept_prob -----------------------------------------------------------


_FIG1_SWITCHES = (
    ("r", "a", "b"), ("r", "a", "c"), ("r", "b", "d"),
    ("r", "b", "e"), ("r", "c", "d"), ("r", "c", "e"),
)


def _state(n):
    """An n-key assignment over n distinct declared fig1 switches."""
    return {(s, 0): "t" for s in _FIG1_SWITCHES[:n]}


def test_single_switch_size_ratio():
    prog = fig1().program
    cur, prop = _state(3), _state(4)
    assert accept_prob(cur, prop, SingleSwitch(), prog) == 0.75
    assert accept_prob(prop, cur, SingleSwitch(), prog) == 1.0


def test_uncapped_ratios_are_reciprocal():
    prog = fig1().program
    for lc in range(1, 5):
        for lp in range(1, 5):
            u = lc / lp
            a_fwd = accept_prob(_state(lc), _state(lp), SingleSwitch(), prog)
            a_bwd = accept_prob(_state(lp), _state(lc), SingleSwitch(), prog)
            assert u * (1.0 / u) == pytest.approx(1.0, abs=1e-15)
            assert a_fwd == min(1.0, u)
            assert a_bwd == min(1.0, 1.0 / u)
            # one direction is always un-capped
            assert a_fwd == 1.0 or a_bwd == 1.0


def test_empty_states_accept():
    prog = fig1().program
    assert accept_prob({}, _state(2), SingleSwitch(), prog) == 1.0
    assert accept_prob(_state(2), {}, SingleSwitch(), prog) == 1.0


def test_multi_switch_nonadaptive_is_always_one():
    prog = fig1().program
    assert accept_prob(_state(3), _state(1), MultiSwitch(0.5), prog) == 1.0
    assert accept_prob(_state(1), _state(4), MultiSwitch(0.9), prog) == 1.0


def test_adaptive_with_all_ones_store_equals_nonadaptive():
    prog = fig1().program
    src = AdaptedSource(QStore())
    for strat in (SingleSwitch(), MultiSwitch(0.5)):
        for cur, prop in ((_state(3), _state(4)), (_state(4), _state(3))):
            plain = accept_prob(cur, prop, strat, prog)
            adap = accept_prob(cur, prop, strat, prog, adapted=src)
            assert adap == plain  # bitwise: the P'/P factors are exactly 1.0


def test_adaptive_ratio_hand_computed():
    # Q(x,t)=0.5 gives P'(x) = (0.15, 0.7)/0.85; flipping x from t to f has
    # ratio P'(t)/P(t) * P(f)/P'(f) = 0.5 exactly in real arithmetic
    store = QStore()
    store.q[("x", 0, "t")] = 0.5
    src = AdaptedSource(store)
    cur = {("x", 0): "t", ("y", 0): "t"}
    prop = {("x", 0): "f", ("y", 0): "t"}
    a = accept_prob(cur, prop, SingleSwitch(), DISJ, adapted=src)
    assert a == pytest.approx(0.5, rel=1e-12)
    assert accept_prob(prop, cur, SingleSwitch(), DISJ, adapted=src) == 1.0

    # multi-switch drops the size factor; shrinking the state to {x: f}
    # multiplies in P'(y=t)/P(y=t) = 1 for the unadapted forgotten key
    a2 = accept_prob(cur, {("x", 0): "f"}, MultiSwitch(0.5), DISJ, adapted=src)
    assert a2 == pytest.approx(0.5, rel=1e-12)


# -- exact kernel stationarity ---------------------------------------------


def _trained_store(prog, query, evidence):
    res = run_chain(
        prog, query, evidence, ChainConfig(steps=1500, seed=9, adaptive=True)
    )
    return res.qstore


_FIG1_CASE = fig1()
FIG1 = (_FIG1_CASE.program, _FIG1_CASE.query, _FIG1_CASE.evidence)

# (label, (program, query, evidence), strategy, store kind).  "trained" runs
# the trained store under the near-zero default floor; "chain" builds the
# source as run_chain does, with the defensive floor.  On fig1 the trained
# store has Q(r(a,c)=f) = 0, so there the floor is what sets that outcome's
# proposal mass.
STATIONARITY_CASES = [
    ("disj-single", (DISJ, "q", "e"), SingleSwitch(), None),
    ("disj-multi", (DISJ, "q", "e"), MultiSwitch(0.5), None),
    ("disj-single-adapted", (DISJ, "q", "e"), SingleSwitch(), "handmade"),
    ("disj-multi-adapted", (DISJ, "q", "e"), MultiSwitch(0.3), "handmade"),
    ("pair-single", (PAIR, "q", "e"), SingleSwitch(), None),
    ("pair-single-trained", (PAIR, "q", "e"), SingleSwitch(), "trained"),
    ("fig1-single-chain-floor", FIG1, SingleSwitch(), "chain"),
    ("fig1-multi-chain-floor", FIG1, MultiSwitch(0.5), "chain"),
]


@pytest.mark.parametrize(
    "label,problem,strategy,store_kind",
    STATIONARITY_CASES,
    ids=[c[0] for c in STATIONARITY_CASES],
)
def test_kernel_is_exactly_stationary(label, problem, strategy, store_kind):
    prog, query, evidence = problem
    if store_kind is None:
        source = None
    elif store_kind == "handmade":
        store = QStore()
        store.q[("x", 0, "t")] = 0.35
        store.q[("y", 0, "t")] = 0.9
        store.q[("y", 0, "f")] = 0.2
        source = AdaptedSource(store)
    elif store_kind == "trained":
        source = AdaptedSource(_trained_store(prog, query, evidence))
    else:
        source = AdaptedSource(
            _trained_store(prog, query, evidence), floor=DEFENSIVE_FLOOR
        )

    T = build_transition_system(prog, query, evidence, strategy, source)
    states = sorted(T, key=lambda s: str(sorted(s, key=repr)))
    for s in states:
        assert math.fsum(T[s].values()) == pytest.approx(1.0, abs=1e-12)

    pi = stationary_distribution(states, T)
    weights = {s: prob(dict(s), prog) for s in states}
    z = math.fsum(weights.values())
    for s in states:
        assert pi[s] == pytest.approx(weights[s] / z, abs=1e-9), label

    # the induced query expectation matches the exact conditional
    expect_q = math.fsum(
        pi[s] for s in states if sample_eval(prog, query, dict(s), rng=None).success
    )
    truth = exact_conditional(prog, query, evidence).p_conditional
    assert expect_q == pytest.approx(truth, abs=1e-9)


def test_chain_source_keeps_defensive_mass_on_trained_fig1_store():
    # a short adaptive fig1 run starves r(a,c)=f (the outcome only the query
    # needs) down to Q = 0; the source a chain draws from must still give it,
    # and every other outcome, at least the floor's share of its declared mass
    prog, query, evidence = FIG1
    store = run_chain(
        prog, query, evidence, ChainConfig(steps=1500, seed=0, adaptive=True)
    ).qstore
    starved = (("r", "a", "c"), 0, "f")
    assert store.q_value(starved) < DEFENSIVE_FLOOR
    source = AdaptedSource(store, floor=DEFENSIVE_FLOOR)
    checked = set()
    for s, i, _v in list(store.q):
        info = prog.switch_info(s)
        probs = source(s, i, info)
        for k, v in enumerate(info.outcomes):
            assert probs[k] >= DEFENSIVE_FLOOR * info.probs[k] * (1 - 1e-12), (s, i, v)
            checked.add((s, i, v))
    assert starved in checked


@pytest.mark.parametrize("base", [{}, {("x", 0): "f"}])
def test_sampled_evidence_frequencies_match_leaf_weights(base):
    # ties the sampling evaluator to the enumeration the stationarity test is
    # built on: realized (success, assignment) frequencies must match the
    # enumerated leaf weights
    dist = {}
    for ok, sigma in iter_eval_leaves(DISJ, "e", dict(base)):
        dist[(ok, frozenset(sigma.items()))] = leaf_weight(DISJ, None, base, sigma)
    rng = random.Random(99)
    n = 4000
    counts = Counter()
    for _ in range(n):
        res = sample_eval(DISJ, "e", dict(base), rng=rng)
        counts[(res.success, frozenset(res.assignment.items()))] += 1
    assert set(counts) <= set(dist)
    for leaf, w in dist.items():
        se = math.sqrt(w * (1.0 - w) / n)
        assert counts[leaf] / n == pytest.approx(w, abs=4 * se + 0.005)


def test_adapted_sampling_matches_adapted_leaf_weights():
    store = QStore()
    store.q[("x", 0, "t")] = 0.25
    src = AdaptedSource(store)
    dist = {}
    for ok, sigma in iter_eval_leaves(DISJ, "e", {}):
        dist[(ok, frozenset(sigma.items()))] = leaf_weight(DISJ, src, {}, sigma)
    rng = random.Random(7)
    n = 4000
    counts = Counter()
    for _ in range(n):
        res = sample_eval(DISJ, "e", {}, dist=src, rng=rng)
        counts[(res.success, frozenset(res.assignment.items()))] += 1
    for leaf, w in dist.items():
        se = math.sqrt(w * (1.0 - w) / n)
        assert counts[leaf] / n == pytest.approx(w, abs=4 * se + 0.005)


# -- run_chain -------------------------------------------------------------


def test_query_equal_to_evidence_estimates_one():
    case = fig1()
    res = run_chain(
        case.program, case.evidence, case.evidence, ChainConfig(steps=300, seed=0)
    )
    assert res.estimate == 1.0
    assert res.n_success == 300


def test_true_evidence_estimates_marginal():
    res = run_chain(DISJ, "q", "true", ChainConfig(steps=15_000, seed=1))
    assert res.estimate == pytest.approx(0.12, abs=0.02)
    assert res.evidence_rejections == 0


def test_conditional_estimate_single_switch():
    truth = exact_conditional(DISJ, "q", "e").p_conditional  # = 1/6
    res = run_chain(DISJ, "q", "e", ChainConfig(steps=30_000, seed=2))
    assert res.estimate == pytest.approx(truth, abs=0.02)
    assert 0.0 <= res.estimate <= 1.0
    assert res.evidence_rejections <= res.steps
    assert res.accepted <= res.steps


def test_conditional_estimate_multi_switch():
    truth = exact_conditional(DISJ, "q", "e").p_conditional
    res = run_chain(
        DISJ, "q", "e", ChainConfig(steps=30_000, seed=3, strategy=MultiSwitch(0.5))
    )
    assert res.estimate == pytest.approx(truth, abs=0.02)


def test_estimator_consistency_across_seeds():
    truth = exact_conditional(DISJ, "q", "e").p_conditional
    ests = [
        run_chain(DISJ, "q", "e", ChainConfig(steps=2000, seed=s)).estimate
        for s in range(10)
    ]
    se = stdev(ests) / math.sqrt(len(ests))
    assert abs(mean(ests) - truth) <= 3 * se + 0.005


def test_burn_in_discards_iterations_from_the_estimate():
    res = run_chain(
        DISJ, "q", "e",
        ChainConfig(steps=100, burn_in=50, seed=4, collect_rows=True),
    )
    assert len(res.rows) == 150
    assert [r[0] for r in res.rows] == list(range(1, 151))
    assert res.rows[-1][1] == res.estimate
    assert res.n_success <= 100


def test_rows_schema():
    res = run_chain(DISJ, "q", "e", ChainConfig(steps=50, seed=5, collect_rows=True))
    for it, est, accepted, e_ok, cum_rej, elapsed_us in res.rows:
        assert 0.0 <= est <= 1.0
        assert isinstance(accepted, bool)
        assert isinstance(e_ok, bool)
        assert cum_rej >= 0
        assert elapsed_us >= 0
    assert res.rows[-1][4] == res.evidence_rejections


def test_every_retained_state_satisfies_evidence():
    # replay the evidence, with no rng, on the state each step retains
    case = fig1()
    for extra in ({}, {"strategy": MultiSwitch(0.5), "adaptive": True}):
        retained = []

        def keep(it, cur, prop, a, accepted):
            retained.append(prop if accepted else cur)

        cfg = ChainConfig(steps=300, seed=6, on_iteration=keep, **extra)
        run_chain(case.program, case.query, case.evidence, cfg)
        assert len(retained) == 300
        for it, state in enumerate(retained, 1):
            again = sample_eval(case.program, case.evidence, state, rng=None)
            assert again.success, f"evidence lost from chain state at iteration {it}"


def test_final_state_is_exactly_the_touched_sets():
    # every retained key was touched by the evidence or query evaluation that
    # produced the state: replaying both against the final state must succeed
    # without fresh draws and reconstruct the key set exactly
    case = fig1()
    for seed in range(5):
        for adaptive in (False, True):
            res = run_chain(
                case.program, case.query, case.evidence,
                ChainConfig(steps=400, seed=seed, adaptive=adaptive),
            )
            st_ = res.final_state
            re_e = sample_eval(case.program, case.evidence, st_, rng=None)
            assert re_e.success
            re_q = sample_eval(case.program, case.query, st_, rng=None)
            assert set(st_) == set(re_e.assignment) | set(re_q.assignment)


def test_frozen_all_ones_adaptive_is_bitwise_nonadaptive():
    case = fig1()
    for strategy in (SingleSwitch(), MultiSwitch(0.5)):
        plain = run_chain(
            case.program, case.query, case.evidence,
            ChainConfig(steps=2500, seed=3, strategy=strategy, collect_rows=True),
        )
        frozen = run_chain(
            case.program, case.query, case.evidence,
            ChainConfig(steps=2500, seed=3, strategy=strategy, collect_rows=True,
                        adaptive=True, initial_qstore=FrozenStore()),
        )
        assert [r[:5] for r in plain.rows] == [r[:5] for r in frozen.rows]
        assert plain.final_state == frozen.final_state
        assert plain.estimate == frozen.estimate
        assert plain.accepted == frozen.accepted
        assert plain.evidence_rejections == frozen.evidence_rejections


# Seeded outputs pinned as the first 16 hex digits of a sha256 over their
# repr: a change meant to leave the sampler's behaviour alone must keep them.
FIG1_DIGESTS = {
    ("single", False): "60a7554bd8873791",
    ("single", True): "9e635d40c8279876",
    ("multi", False): "c88e2f8cf42c5640",
    ("multi", True): "b55cbfe11684d52c",
}
STRATEGIES = {"single": SingleSwitch(), "multi": MultiSwitch(0.5)}


def _digest(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


@pytest.mark.parametrize(("strategy", "adaptive"), list(FIG1_DIGESTS))
def test_seeded_fig1_chains_are_pinned(strategy, adaptive):
    case = fig1()
    res = run_chain(
        case.program, case.query, case.evidence,
        ChainConfig(steps=20000, seed=0, strategy=STRATEGIES[strategy],
                    adaptive=adaptive, collect_rows=True),
    )
    digest = _digest(([r[:5] for r in res.rows], res.final_state, res.estimate))
    assert digest == FIG1_DIGESTS[strategy, adaptive]


def test_seeded_initial_witnesses_are_pinned():
    witnesses = [
        list(initial_sample(c.program, c.evidence, random.Random(seed)).items())
        for c in small_benchmarks()
        for seed in range(10)
    ]
    assert _digest(witnesses) == "0ee9fc9c9b3b7ea8"


def _chain_digest(cases, seed, steps):
    runs = []
    for case in cases:
        for strategy in STRATEGIES.values():
            for adaptive in (False, True):
                res = run_chain(
                    case.program, case.query, case.evidence,
                    ChainConfig(steps=steps, seed=seed, strategy=strategy,
                                adaptive=adaptive, collect_rows=True),
                )
                runs.append(([r[:5] for r in res.rows], res.final_state, res.estimate))
    return _digest(runs)


def test_seeded_bn_chains_are_pinned():
    # bn clause heads have compound arguments such as n(0,1); fig1's have none
    cases = [gen_bn(4, 4, 3, seed) for seed in (0, 1, 2, 4)]
    assert _chain_digest(cases, seed=7, steps=300) == "20538019e87e1a03"


def test_seeded_catalogue_chains_are_pinned():
    assert _chain_digest(small_benchmarks(), seed=0, steps=200) == "8b7110639088367d"


def test_acceptance_values_match_reported_lengths():
    case = fig1()
    seen = []

    def hook(it, cur, prop, a, accepted):
        seen.append((len(cur), None if prop is None else len(prop), a, prop is not None))

    run_chain(
        case.program, case.query, case.evidence,
        ChainConfig(steps=1500, seed=1, on_iteration=hook),
    )
    ok_rows = [r for r in seen if r[3]]
    assert ok_rows
    for cur_len, prop_len, a, _ in ok_rows:
        expect = 1.0 if (cur_len == 0 or prop_len == 0) else min(1.0, cur_len / prop_len)
        assert a == expect
    assert all(r[2] == 0.0 for r in seen if not r[3])


def test_multi_switch_acceptance_identically_one():
    case = fig1()
    values = []

    def hook(it, cur, prop, a, accepted):
        if prop is not None:
            values.append(a)

    run_chain(
        case.program, case.query, case.evidence,
        ChainConfig(steps=1500, seed=2, strategy=MultiSwitch(0.5), on_iteration=hook),
    )
    assert values and all(a == 1.0 for a in values)


def test_adaptive_duplicate_consults_and_trace_dedup():
    # two identical clauses re-consult the frozen switch after the first
    # failure, so a failing evidence evaluation records the key twice, and
    # adaptation rewards each occurrence
    dup = parse_program(
        """
values(x, [t, f]).
:- set_sw(x, [0.5, 0.5]).
e :- msw(x, t).
e :- msw(x, t).
"""
    )
    q = parse_goal("msw(x, t)")
    res = run_chain(dup, q, "e", ChainConfig(steps=300, seed=4, adaptive=True))
    assert res.qstore.count.get(("x", 0, "f"), 0) == 2 * res.evidence_rejections
    assert res.qstore.count.get(("x", 0, "t"), 0) == res.steps - res.evidence_rejections


def test_adaptive_chain_on_conjunctive_evidence():
    # with conjunctive evidence every outcome the adaptation starves is one
    # that falsifies the evidence, so proposals improve without biasing the
    # posterior: rejections drop sharply and the estimate stays on target
    prog = parse_program(
        """
values(x, [t, f]).
values(y, [t, f]).
values(z, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
:- set_sw(z, [0.5, 0.5]).
e :- msw(x, t), msw(y, t).
q :- msw(y, t), msw(z, t).
"""
    )
    truth = exact_conditional(prog, "q", "e").p_conditional  # P(z=t) = 0.5
    plain = run_chain(prog, "q", "e", ChainConfig(steps=20_000, seed=8))
    adap = run_chain(prog, "q", "e", ChainConfig(steps=20_000, seed=8, adaptive=True))
    assert plain.estimate == pytest.approx(truth, abs=0.02)
    assert adap.estimate == pytest.approx(truth, abs=0.02)
    assert adap.evidence_rejections < plain.evidence_rejections / 2
    assert adap.qstore is not None and adap.qstore.count


def test_chain_family_runs_for_every_seed_and_strategy():
    # every catalogue program runs under both strategies, with and without
    # adaptation; the witness search shuffles clause order, so it reaches
    # every clause a derivation can take, and none may lead to an undeclared
    # switch or a state the evidence cannot replay
    for case in small_benchmarks():
        for strategy in (SingleSwitch(), MultiSwitch(0.5)):
            for adaptive in (False, True):
                for seed in range(3):
                    res = run_chain(
                        case.program, case.query, case.evidence,
                        ChainConfig(steps=200, seed=seed, strategy=strategy,
                                    adaptive=adaptive),
                    )
                    assert 0.0 <= res.estimate <= 1.0, (case.name, seed)
                    assert sample_eval(
                        case.program, case.evidence, res.final_state, rng=None
                    ).success, (case.name, seed)


def test_unsatisfiable_evidence_raises():
    prog = parse_program(
        "values(x,[t,f]). :- set_sw(x,[0.5,0.5]). e :- msw(x,t), msw(x,f)."
    )
    with pytest.raises(UnsatisfiableEvidence):
        run_chain(prog, parse_goal("msw(x, t)"), "e", ChainConfig(steps=10, seed=0))


def test_nonground_inputs_rejected():
    with pytest.raises(EvalError, match="ground"):
        run_chain(DISJ, ("q", Var("V")), "e", ChainConfig(steps=10, seed=0))
    with pytest.raises(EvalError, match="ground"):
        run_chain(DISJ, "q", ("e", Var("V")), ChainConfig(steps=10, seed=0))


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(steps=0)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, burn_in=-1)
