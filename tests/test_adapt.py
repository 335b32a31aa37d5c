"""Reward propagation, Q-value bookkeeping, and the adapted proposal
distributions built from them."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DictStore, record
from plpmcmc.adapt import (
    AVERAGING,
    LAST_REWARD,
    Q_FLOOR,
    AdaptedSource,
    QStore,
    adapt,
    adapted_probs,
    independent_sampler,
)
from plpmcmc.bench import small_benchmarks
from plpmcmc.evaluator import EvalError
from plpmcmc.lang import parse_program
from plpmcmc.mcmc import ChainConfig, MultiSwitch, run_chain

AB = parse_program(
    """
values(a, [t, f]).
values(b, [t, f]).
:- set_sw(a, [0.3, 0.7]).
:- set_sw(b, [0.3, 0.7]).
"""
)

XY = parse_program(
    """
values(x, [t, f]).
values(y, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
"""
)


def naive_backward(prog, episodes):
    """Straight-line recomputation of backward reward propagation, kept
    deliberately independent of QStore so the two can vouch for each other."""
    q, counts, totals = {}, {}, {}
    for trace, reward in episodes:
        r = float(reward)
        for s, i, o in reversed(trace):
            key = (s, i, o)
            totals[key] = totals.get(key, 0.0) + r
            counts[key] = counts.get(key, 0) + 1
            q[key] = totals[key] / counts[key]
            info = prog.switch_info(s)
            r = sum(
                p * q.get((s, i, v), 1.0)
                for v, p in zip(info.outcomes, info.probs)
            )
    return q, counts, totals


# -- adapt -----------------------------------------------------------------


def test_single_triple_rewards():
    store = QStore()
    adapt([("a", 0, "t")], 1, store, AB)
    assert store.q[("a", 0, "t")] == 1.0
    assert record(store, ("a", 0, "t"))[1] == 1
    assert record(store, ("a", 0, "t"))[2] == 1.0

    store = QStore()
    adapt([("a", 0, "t")], 0, store, AB)
    assert store.q[("a", 0, "t")] == 0.0


def test_two_triples_propagate_expected_reward():
    # failing evaluation: the later pick gets reward 0, the earlier pick gets
    # the P-weighted Q expectation 0.3*0 + 0.7*1 = 0.7 (unseen outcomes count
    # as Q=1)
    store = QStore()
    adapt([("a", 0, "t"), ("b", 0, "t")], 0, store, AB)
    assert store.q[("b", 0, "t")] == 0.0
    assert store.q[("a", 0, "t")] == pytest.approx(0.7, abs=1e-15)


def test_repeated_adaptation_averages():
    store = QStore()
    trace = [("x", 0, "t"), ("y", 0, "f")]
    adapt(trace, 0, store, XY)
    assert store.q[("y", 0, "f")] == 0.0
    # reward to x: 0.6*Q(y,t)=1 + 0.4*Q(y,f)=0 = 0.6
    assert store.q[("x", 0, "t")] == pytest.approx(0.6, abs=1e-15)
    adapt(trace, 1, store, XY)
    assert store.q[("y", 0, "f")] == pytest.approx(0.5, abs=1e-15)
    # second reward to x: 0.6*1 + 0.4*0.5 = 0.8; mean(0.6, 0.8) = 0.7
    assert store.q[("x", 0, "t")] == pytest.approx(0.7, abs=1e-15)
    assert record(store, ("x", 0, "t"))[1] == 2


def test_duplicate_triples_update_once_per_occurrence():
    store = QStore()
    adapt([("a", 0, "t"), ("a", 0, "t")], 0, store, AB)
    assert record(store, ("a", 0, "t"))[1] == 2
    # later occurrence first: Q=0, then reward 0.3*0+0.7*1=0.7 so Q=0.35
    assert store.q[("a", 0, "t")] == pytest.approx(0.35, abs=1e-15)


def test_empty_trace_is_a_noop():
    store = QStore()
    adapt([], 1, store, AB)
    assert not store.q


def test_q_is_a_read_only_snapshot_of_the_updated_keys():
    store = QStore()
    adapt([("a", 0, "t"), ("b", 0, "f"), ("a", 0, "t")], 0, store, AB)
    # the group built for a, 0 holds a record for ("a", 0, "f"), which was
    # never updated and so is not in `q`
    assert len(store.q) == 2 == len(list(store.items()))
    assert list(store.q) == [("a", 0, "t"), ("b", 0, "f")]
    with pytest.raises(TypeError):
        store.q[("a", 0, "f")] = 0.5
    snapshot = store.q
    adapt([("a", 0, "f")], 1, store, AB)
    assert ("a", 0, "f") not in snapshot
    assert len(store.q) == 3


@pytest.mark.parametrize("mode", [AVERAGING, LAST_REWARD])
@pytest.mark.parametrize("reward", [0.0, 1e-9, 0.25, 0.7, 1.0])
def test_one_update_on_a_fresh_key_sets_q_to_the_reward(mode, reward):
    store = QStore(mode)
    adapt([("x", 0, "t")], reward, store, XY)
    assert store.q[("x", 0, "t")] == reward
    assert record(store, ("x", 0, "t")) == (reward, 1, reward)


def test_last_reward_mode_overwrites():
    store = QStore(LAST_REWARD)
    adapt([("a", 0, "t")], 1, store, AB)
    adapt([("a", 0, "t")], 0, store, AB)
    assert store.q[("a", 0, "t")] == 0.0
    # count still tracked for diagnostics even though Q ignores it
    assert record(store, ("a", 0, "t"))[1] == 2


trace_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.sampled_from([0, 1]),
        st.sampled_from(["t", "f"]),
    ),
    min_size=0,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(trace_strategy, st.sampled_from([0, 1])),
        min_size=1,
        max_size=5,
    )
)
def test_adapt_matches_naive_recomputation(episodes):
    store = QStore()
    for trace, reward in episodes:
        adapt(trace, reward, store, AB)
    q, counts, totals = naive_backward(AB, episodes)
    assert set(store.q) == set(q)
    for key in q:
        assert store.q[key] == pytest.approx(q[key], abs=1e-12)
        assert record(store, key)[1] == counts[key]
        assert record(store, key)[2] == pytest.approx(totals[key], abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(trace_strategy, st.sampled_from([0, 1])),
        min_size=1,
        max_size=8,
    )
)
def test_q_values_stay_in_unit_interval(episodes):
    store = QStore()
    for trace, reward in episodes:
        adapt(trace, reward, store, AB)
    for _key, q, c, t in store.items():
        assert 0.0 <= q <= 1.0
        assert c >= 1
        assert -1e-12 <= t <= c + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=30))
def test_averaging_store_equals_mean_of_rewards(rewards):
    store = QStore()
    for r in rewards:
        adapt([("a", 0, "t")], r, store, AB)
    assert store.q[("a", 0, "t")] == pytest.approx(
        sum(rewards) / len(rewards), abs=1e-12
    )


def increment_within_bound(q_before, q_after, count_before, slack=1e-12) -> bool:
    """Diminishing-adaptation check: |dQ| <= 1/(c+1) for an averaging update.

    The identity dQ = (reward - Q) / (c+1) with rewards and Q in [0,1] gives
    the bound exactly in real arithmetic; `slack` absorbs float rounding.
    """
    return abs(q_after - q_before) <= 1.0 / (count_before + 1) + slack


def test_every_update_respects_diminishing_bound():
    # the dict reference runs in lockstep: it logs every update, and the
    # store must equal it after every call
    rng = random.Random(7)
    store, ref = QStore(), DictStore()
    for _ in range(300):
        trace = [
            (rng.choice("ab"), rng.choice([0, 1]), rng.choice("tf"))
            for _ in range(rng.randrange(1, 5))
        ]
        reward = rng.randrange(2)
        adapt(trace, reward, store, AB)
        ref.adapt(trace, reward, AB)
        assert list(store.items()) == ref.rows()
    assert ref.updates
    for _key, c_before, q_before, q_after in ref.updates:
        assert increment_within_bound(q_before, q_after, c_before)


def test_increment_bound_unit_cases():
    # first-ever update may move Q by a full unit (equality case)
    assert increment_within_bound(1.0, 0.0, 0)
    # tenth update moves at most 1/10
    assert increment_within_bound(0.5, 0.55, 9)
    assert not increment_within_bound(0.5, 0.7, 9)
    assert not increment_within_bound(0.0, 0.002, 999)


# -- adapted distributions -------------------------------------------------


def test_unadapted_switch_returns_declared_vector_object():
    store = QStore()
    info = AB.switch_info("a")
    assert adapted_probs(store, "a", 0, info) is info.probs


def test_uniform_q_cancels():
    store = QStore()
    for v in ("t", "f"):
        adapt([("a", 0, v)], 0.4, store, AB)
    info = AB.switch_info("a")
    assert adapted_probs(store, "a", 0, info) is info.probs


def test_floored_zero_q():
    # P=[0.9,0.1], Q=[0,1]: weights [0.9e-6, 0.1], so the first entry
    # normalizes to ~9.0e-6
    prog = parse_program(
        "values(s,[u,v]). :- set_sw(s,[0.9,0.1])."
    )
    store = QStore()
    adapt([("s", 0, "u")], 0.0, store, prog)
    adapt([("s", 0, "v")], 1.0, store, prog)
    dist = adapted_probs(store, "s", 0, prog.switch_info("s"))
    expect0 = (0.9 * Q_FLOOR) / (0.9 * Q_FLOOR + 0.1)
    assert dist[0] == pytest.approx(expect0, rel=1e-12)
    assert dist[0] == pytest.approx(9.0e-6, rel=1e-3)
    assert dist[1] == pytest.approx(1.0 - expect0, rel=1e-12)


def test_adapted_dist_sums_to_one_and_scale_invariant():
    rng = random.Random(3)
    info = XY.switch_info("x")
    for _ in range(50):
        store = QStore()
        qa, qb = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
        adapt([("x", 0, "t")], qa, store, XY)
        adapt([("x", 0, "f")], qb, store, XY)
        dist = adapted_probs(store, "x", 0, info)
        assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)
        # scaling both Q-values by a common factor (staying above the floor)
        # leaves the normalized vector unchanged
        scale = rng.uniform(0.5, 1.0)
        scaled = QStore()
        adapt([("x", 0, "t")], qa * scale, scaled, XY)
        adapt([("x", 0, "f")], qb * scale, scaled, XY)
        dist2 = adapted_probs(scaled, "x", 0, info)
        for p, p2 in zip(dist, dist2):
            assert p == pytest.approx(p2, rel=1e-9)


def test_adapted_source_caches_until_store_changes():
    store = QStore()
    adapt([("x", 0, "t")], 0, store, XY)
    src = AdaptedSource(store)
    info = XY.switch_info("x")
    first = src("x", 0, info)
    adapt([("x", 0, "t")], 1, store, XY)
    second = src("x", 0, info)
    assert second is not first
    assert second[0] > first[0]


def test_adapted_source_drops_its_cached_vector_on_each_update():
    store = QStore()
    adapt([("x", 0, "t")], 0, store, XY)
    info = XY.switch_info("x")
    src = AdaptedSource(store)
    first = src("x", 0, info)
    assert src("x", 0, info) is first
    adapt([("x", 0, "f")], 0, store, XY)
    second = src("x", 0, info)
    assert second is not first
    assert second == adapted_probs(store, "x", 0, info)
    adapt([("x", 0, "t")], 1, store, XY)
    third = src("x", 0, info)
    assert third != second
    assert third == adapted_probs(store, "x", 0, info)
    # another floor on the same store does not read this floor's vector
    assert AdaptedSource(store, floor=0.5)("x", 0, info) == adapted_probs(
        store, "x", 0, info, 0.5
    )
    assert src("x", 0, info) == third


def test_ratio_reads_vectors_computed_under_its_own_floor():
    store = QStore()
    adapt([("x", 0, "t")], 0.0, store, XY)
    info = XY.switch_info("x")
    AdaptedSource(store, floor=0.5)("x", 0, info)  # caches a 0.5-floored vector
    vec = adapted_probs(store, "x", 0, info)
    expect = 1.0
    expect *= vec[0] / info.probs[0]
    expect *= info.probs[1] / vec[1]
    ratio = AdaptedSource(store).ratio({("x", 0): "t"}, {("x", 0): "f"}, XY)
    assert ratio == expect


# -- the Q-store against a store of plain dicts -----------------------------


ABC = parse_program(
    """
values(a, [t, f]).
values(b, [t, f]).
values(c, [x, y, z]).
:- set_sw(a, [0.3, 0.7]).
:- set_sw(b, [0.3, 0.7]).
:- set_sw(c, [0.2, 0.3, 0.5]).
"""
)

store_key = st.one_of(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([0, 1]), st.sampled_from(["t", "f"])),
    st.tuples(st.just("c"), st.sampled_from([0, 1]), st.sampled_from(["x", "y", "z"])),
)
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("adapt"), st.lists(store_key, max_size=6), st.sampled_from([0.0, 1.0])),
        st.tuples(st.just("probs"), st.sampled_from(["a", "b", "c"]), st.sampled_from([0, 1]),
                  st.sampled_from([Q_FLOOR, 0.02, 0.5])),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([AVERAGING, LAST_REWARD]), store_ops)
def test_store_matches_a_store_of_plain_dicts(mode, ops):
    store, ref = QStore(mode), DictStore(mode)
    sources = {}
    for op in ops:
        if op[0] == "adapt":
            adapt(op[1], op[2], store, ABC)
            ref.adapt(op[1], op[2], ABC)
        else:
            _, s, i, floor = op
            info = ABC.switch_info(s)
            src = sources.setdefault(floor, AdaptedSource(store, floor))
            got, want = src(s, i, info), ref.probs(s, i, info, floor)
            assert got == want
            assert (got is info.probs) == (want is info.probs)
        assert list(store.q.items()) == list(ref.q.items())
        assert {row[0]: row[2] for row in store.items()} == ref.count
        assert {row[0]: row[3] for row in store.items()} == ref.total
    assert list(store.items()) == ref.rows()
    assert store.increases == ref.increases


# -- independent sampler ---------------------------------------------------

CHAIN = parse_program(
    """
values(s1, [u, d]).
values(s2, [u, d]).
values(s3, [u, d]).
:- set_sw(s1, [0.7, 0.3]).
:- set_sw(s2, [0.6, 0.4]).
:- set_sw(s3, [0.5, 0.5]).
up2 :- msw(s1, u), msw(s2, u).
up3 :- msw(s1, u), msw(s2, u), msw(s3, u).
"""
)


def test_independent_sampler_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        independent_sampler(CHAIN, "up3", "up2", 0)


def test_independent_sampler_unsatisfiable_evidence():
    prog = parse_program(
        "values(x,[t,f]). :- set_sw(x,[0.5,0.5]). e :- msw(x,t), msw(x,f)."
    )
    with pytest.raises(EvalError, match="no evidence-consistent samples"):
        independent_sampler(prog, ("msw", "x", 0, "t"), "e", 200, seed=1)


def test_independent_sampler_true_evidence_is_inert():
    # every reward is 1, so adaptation never moves Q off its initial value
    res = independent_sampler(CHAIN, "up2", "true", 4000, seed=5)
    assert res.evidence_successes == 4000
    assert res.estimate == pytest.approx(0.42, abs=0.02)
    assert all(q == 1.0 for _k, q, _c, _t in res.qstore.items())
    assert not res.monotonicity_violations


def test_independent_sampler_conditional_estimate():
    from plpmcmc.oracle import exact_conditional

    truth = exact_conditional(CHAIN, "up3", "up2").p_conditional
    res = independent_sampler(CHAIN, "up3", "up2", 20000, seed=11)
    assert res.estimate == pytest.approx(truth, abs=0.02)
    assert not res.monotonicity_violations
    # adaptation should have pushed evidence acceptance well above the
    # unadapted rate P(up2) = 0.42
    assert res.evidence_successes > 0.9 * res.samples


# -- LastReward paths, pinned ----------------------------------------------
# Seeded outputs as the first 16 hex digits of a sha256 over their repr, as
# the chain pins in test_mcmc are made: a change meant to leave LastReward
# adaptation alone must keep them.


def test_independent_sampler_pinned_on_the_catalogue():
    rows = []
    for case in small_benchmarks():
        res = independent_sampler(case.program, case.query, case.evidence, 2000, seed=0)
        rows.append((case.name, res.estimate, res.evidence_successes, res.joint_successes,
                     res.monotonicity_violations, list(res.qstore.items())))
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "dae18735ab21b867"


def test_last_reward_chain_pinned_on_the_catalogue():
    rows = []
    for case in small_benchmarks():
        res = run_chain(case.program, case.query, case.evidence, ChainConfig(
            steps=2000, seed=0, strategy=MultiSwitch(0.5), adaptive=True,
            initial_qstore=QStore(LAST_REWARD)))
        rows.append((case.name, res.estimate, res.accepted, res.evidence_rejections,
                     res.final_state, list(res.qstore.items())))
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "3b3ede71485ed93a"
