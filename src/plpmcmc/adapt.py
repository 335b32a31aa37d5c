"""Q-value bookkeeping, reward propagation and adapted proposal distributions.

Each (switch, instance, outcome) triple carries a Q-value in [0,1]: the
learned estimate of the probability that choosing that outcome leads to an
evidence-consistent sample.  After every evidence evaluation the trace is
walked backwards: the last triple gets the raw 0/1 reward, and each earlier
triple receives the probability-weighted expectation of the just-updated
successor's Q-values.  Unseen triples count as Q = 1 ("optimistic" prior).

Averaging mode keeps Q = (sum of rewards) / (number of rewards), which gives
the diminishing-adaptation increment bound |dQ| <= 1/(c+1).  LastReward mode
stores the most recent reward directly; it is only sound for program/query
pairs with a Markovian evaluation structure, where it additionally enables
independent sampling.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .lang import Program
from .evaluator import EvalError, sample_eval, DEFAULT_STEP_LIMIT

# Default floor applied to Q-values inside adapted distributions only (stored
# Q-values are not clamped).  A proposal probability of exactly 0 for a
# realized outcome would break acceptance ratios and the support condition for
# ergodicity.  This near-zero floor is what `independent_sampler` uses: its
# unweighted estimate relies on the LastReward-adapted law being the evidence
# conditional itself.  MH chains instead use the much larger
# `mcmc.DEFENSIVE_FLOOR`, which bounds how far adaptation can starve an
# outcome.
Q_FLOOR = 1e-6

AVERAGING = "avg"
LAST_REWARD = "last"


class QStore:
    """Per-(switch, instance, outcome) Q-value, cumulative reward and count."""

    __slots__ = ("mode", "q", "total", "count")

    def __init__(self, mode=AVERAGING):
        if mode not in (AVERAGING, LAST_REWARD):
            raise ValueError(f"unknown QStore mode {mode!r}")
        self.mode = mode
        self.q = {}
        self.total = {}
        self.count = {}

    def q_value(self, key) -> float:
        return self.q.get(key, 1.0)

    def update(self, key, reward):
        t_new = self.total.get(key, 0.0) + reward
        c_new = self.count.get(key, 0) + 1
        self.total[key] = t_new
        self.count[key] = c_new
        self.q[key] = t_new / c_new if self.mode == AVERAGING else reward

    def items(self):
        """(key, Q, count, total) rows for reporting, insertion-ordered."""
        for key, qv in self.q.items():
            yield key, qv, self.count[key], self.total[key]


def adapt(trace, reward, store: QStore, prog: Program):
    """Propagate a 0/1 evidence reward backwards through a trace.

    The triple at position j is updated with the incoming reward, then the
    reward handed to position j-1 is sum_v P(s_j,i_j,v) * Q(s_j,i_j,v) over
    the outcomes of the switch instance just updated (its unseen outcomes
    contributing Q = 1).  Duplicate keys are updated once per occurrence,
    later positions first.  Empty traces are a no-op.
    """
    r = reward
    qd = store.q
    for s, i, v in reversed(trace):
        store.update((s, i, v), r)
        info = prog.switch_info(s)
        acc = 0.0
        outs = info.outcomes
        probs = info.probs
        for k in range(len(outs)):
            acc += probs[k] * qd.get((s, i, outs[k]), 1.0)
        r = acc
    return store


def adapted_probs(store: QStore, s, i, info, floor=Q_FLOOR):
    """Probability vector proportional to P(v) * max(Q(s,i,v), floor).

    Returns the declared vector object itself when all (floored) Q-values are
    equal — the common factor cancels, and reusing the original tuple keeps
    an unadapted run bit-identical to the non-adaptive code path.
    """
    qd = store.q
    outs = info.outcomes
    qs = []
    uniform = True
    first = None
    for v in outs:
        qv = qd.get((s, i, v), 1.0)
        if qv < floor:
            qv = floor
        if first is None:
            first = qv
        elif qv != first:
            uniform = False
        qs.append(qv)
    if uniform:
        return info.probs
    probs = info.probs
    weights = [probs[k] * qs[k] for k in range(len(outs))]
    total = sum(weights)
    return tuple(w / total for w in weights)


class AdaptedSource:
    """Distribution source backed by a QStore.

    Instances are callables with the `(s, i, info) -> probs` signature the
    evaluator expects for its `dist` argument; each call reads the store as
    it stands.
    """

    __slots__ = ("store", "floor")

    def __init__(self, store: QStore, floor=Q_FLOOR):
        self.store = store
        self.floor = floor

    def __call__(self, s, i, info):
        return adapted_probs(self.store, s, i, info, self.floor)


class _MonotonicityAudit(QStore):
    """LastReward store that records every (key, previous, new) reward
    increase.  In LastReward mode a key's Q is its previous reward."""

    __slots__ = ("violations",)

    def __init__(self):
        super().__init__(LAST_REWARD)
        self.violations = []

    def update(self, key, reward):
        if key in self.count and reward > self.q[key] + 1e-9:
            self.violations.append((key, self.q[key], reward))
        super().update(key, reward)


class IndependentResult(NamedTuple):
    estimate: float
    samples: int
    evidence_successes: int
    joint_successes: int
    monotonicity_violations: list
    qstore: QStore


def independent_sampler(
    prog: Program,
    query,
    evidence,
    n: int,
    seed=0,
    step_limit=DEFAULT_STEP_LIMIT,
) -> IndependentResult:
    """LastReward adaptive *independent* sampling for Markovian program/query
    pairs.

    Each of the `n` samples starts from the empty assignment and draws through
    the current LastReward-adapted distribution; after each sample the
    evidence trace is adapted with reward 1/0.  The estimate is
    (#samples where evidence and query both hold) / (#samples where evidence
    holds).  The caller is responsible for only using this on Markovian
    structures; the reward-monotonicity diagnostic (per-key rewards should be
    non-increasing) reports violations, which are expected on non-Markovian
    programs.
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    store = _MonotonicityAudit()
    source = AdaptedSource(store)
    rng = random.Random(f"{seed}/indep")
    n_e = 0
    n_qe = 0
    for _ in range(n):
        res_e = sample_eval(prog, evidence, {}, dist=source, rng=rng, step_limit=step_limit)
        if res_e.success:
            n_e += 1
            # Query-side fresh picks use the *original* distribution: given an
            # evidence-consistent draw, unconstrained switches keep their
            # prior, and sampling them from the adapted source would bias the
            # conditional estimate.
            res_q = sample_eval(
                prog, query, res_e.assignment, rng=rng, step_limit=step_limit
            )
            if res_q.success:
                n_qe += 1
        adapt(res_e.trace, 1.0 if res_e.success else 0.0, store, prog)
    if n_e == 0:
        raise EvalError("no evidence-consistent samples; cannot estimate")
    return IndependentResult(n_qe / n_e, n, n_e, n_qe, store.violations, store)
