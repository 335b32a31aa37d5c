"""Reward propagation, Q-value bookkeeping, and the adapted proposal
distributions built from them."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plpmcmc.adapt import (
    AVERAGING,
    LAST_REWARD,
    Q_FLOOR,
    AdaptedSource,
    QStore,
    adapt,
    adapted_probs,
    increment_within_bound,
    independent_sampler,
)
from plpmcmc.evaluator import EvalError
from plpmcmc.lang import parse_program

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
    assert store.count[("a", 0, "t")] == 1
    assert store.total[("a", 0, "t")] == 1.0

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
    assert store.count[("x", 0, "t")] == 2


def test_duplicate_triples_update_once_per_occurrence():
    store = QStore()
    adapt([("a", 0, "t"), ("a", 0, "t")], 0, store, AB)
    assert store.count[("a", 0, "t")] == 2
    # later occurrence first: Q=0, then reward 0.3*0+0.7*1=0.7 so Q=0.35
    assert store.q[("a", 0, "t")] == pytest.approx(0.35, abs=1e-15)


def test_empty_trace_is_a_noop():
    store = QStore()
    adapt([], 1, store, AB)
    assert not store.q


def test_last_reward_mode_overwrites():
    store = QStore(LAST_REWARD)
    adapt([("a", 0, "t")], 1, store, AB)
    adapt([("a", 0, "t")], 0, store, AB)
    assert store.q[("a", 0, "t")] == 0.0
    # count still tracked for diagnostics even though Q ignores it
    assert store.count[("a", 0, "t")] == 2


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
        assert store.count[key] == counts[key]
        assert store.total[key] == pytest.approx(totals[key], abs=1e-12)


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
        store.update(("a", 0, "t"), r)
    assert store.q[("a", 0, "t")] == pytest.approx(
        sum(rewards) / len(rewards), abs=1e-12
    )


def test_every_update_respects_diminishing_bound():
    rng = random.Random(7)
    seen = []

    class Audited(QStore):
        __slots__ = ()

        def update(self, key, reward):
            c_before, q_before = self.count.get(key, 0), self.q_value(key)
            super().update(key, reward)
            seen.append(increment_within_bound(q_before, self.q[key], c_before))

    store = Audited()
    for _ in range(300):
        trace = [
            (rng.choice("ab"), rng.choice([0, 1]), rng.choice("tf"))
            for _ in range(rng.randrange(1, 5))
        ]
        adapt(trace, rng.randrange(2), store, AB)
    assert seen and all(seen)


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
        store.q[("a", 0, v)] = 0.4
    info = AB.switch_info("a")
    assert adapted_probs(store, "a", 0, info) is info.probs


def test_floored_zero_q():
    # P=[0.9,0.1], Q=[0,1]: weights [0.9e-6, 0.1], so the first entry
    # normalizes to ~9.0e-6
    prog = parse_program(
        "values(s,[u,v]). :- set_sw(s,[0.9,0.1])."
    )
    store = QStore()
    store.q[("s", 0, "u")] = 0.0
    store.q[("s", 0, "v")] = 1.0
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
        store.q[("x", 0, "t")] = qa
        store.q[("x", 0, "f")] = qb
        dist = adapted_probs(store, "x", 0, info)
        assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)
        # scaling both Q-values by a common factor (staying above the floor)
        # leaves the normalized vector unchanged
        scale = rng.uniform(0.5, 1.0)
        scaled = QStore()
        scaled.q[("x", 0, "t")] = qa * scale
        scaled.q[("x", 0, "f")] = qb * scale
        dist2 = adapted_probs(scaled, "x", 0, info)
        for p, p2 in zip(dist, dist2):
            assert p == pytest.approx(p2, rel=1e-9)


def test_adapted_source_caches_until_store_changes():
    store = QStore()
    store.update(("x", 0, "t"), 0)
    src = AdaptedSource(store)
    info = XY.switch_info("x")
    first = src("x", 0, info)
    store.update(("x", 0, "t"), 1)
    second = src("x", 0, info)
    assert second is not first
    assert second[0] > first[0]


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
