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
from types import MappingProxyType
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


class _Record:
    """Q-value, reward total and update count of one (switch, instance,
    outcome) key, and the group of its switch instance's records."""

    __slots__ = ("q", "total", "count", "group")

    def __init__(self, group):
        self.q = 1.0
        self.total = 0.0
        self.count = 0
        self.group = group


class _Group:
    """A switch instance's records as (declared probability, record) pairs in
    outcome order, and the adapted vector last computed from them (None once
    a record changes) with the floor it was computed under."""

    __slots__ = ("pairs", "index", "vec", "floor")

    def __init__(self, probs, index):
        self.pairs = tuple((p, _Record(self)) for p in probs)
        self.index = index
        self.vec = None
        self.floor = None


class QStore:
    """Per-(switch, instance, outcome) Q-value, cumulative reward and count.

    The records of a switch instance's outcomes share a group, built the
    first time the instance is adapted or its adapted vector is asked for,
    which holds them in outcome order together with their declared
    probabilities.  A key enters the store, with its group's record, when it
    is first updated; an outcome never updated has a record (Q = 1) in its
    group but not in the store.  `adapt` is the only writer.  `items()` reads
    the records in the order keys were first updated, and `q` is a read-only
    snapshot of their Q-values.  In LastReward mode, `increases` counts the
    updates that raised an already updated key's Q (its previous reward) by
    more than 1e-9.  A store serves one program.
    """

    __slots__ = ("mode", "increases", "_recs", "_groups")

    def __init__(self, mode=AVERAGING):
        if mode not in (AVERAGING, LAST_REWARD):
            raise ValueError(f"unknown QStore mode {mode!r}")
        self.mode = mode
        self.increases = 0
        self._recs = {}  # updated keys -> record
        self._groups = {}  # (switch, instance) -> group

    @property
    def q(self):
        """Q-value by updated key, in update order (a read-only snapshot)."""
        return MappingProxyType({key: rec.q for key, rec in self._recs.items()})

    def _group(self, s, i, info):
        g = self._groups.get((s, i))
        if g is None:
            g = self._groups[(s, i)] = _Group(info.probs, info.index)
        return g

    def items(self):
        """(key, Q, count, total) rows for reporting, insertion-ordered."""
        for key, rec in self._recs.items():
            yield key, rec.q, rec.count, rec.total


def adapt(trace, reward, store: QStore, prog: Program):
    """Propagate a 0/1 evidence reward backwards through a trace.

    The triple at position j is updated with the incoming reward, then the
    reward handed to position j-1 is sum_v P(s_j,i_j,v) * Q(s_j,i_j,v) over
    the outcomes of the switch instance just updated (its unseen outcomes
    contributing Q = 1).  Duplicate keys are updated once per occurrence,
    later positions first.  Empty traces are a no-op.
    """
    r = reward
    recs = store._recs
    rtrace = trace[::-1]
    averaging = store.mode == AVERAGING
    # Each key is looked up when its turn comes, after the later positions'
    # updates.
    for key, rec in zip(rtrace, map(recs.get, rtrace)):
        if rec is None:
            g = store._group(key[0], key[1], prog.switch_info(key[0]))
            rec = recs[key] = g.pairs[g.index[key[2]]][1]
        t_new = rec.total + r
        c_new = rec.count + 1
        rec.total = t_new
        rec.count = c_new
        if averaging:
            rec.q = t_new / c_new
        else:
            if c_new > 1 and r > rec.q + 1e-9:
                store.increases += 1
            rec.q = r
        g = rec.group
        g.vec = None
        pairs = g.pairs
        if len(pairs) == 2:
            # the common two-outcome switch, summed as `_expected_q` sums it
            (p0, rec0), (p1, rec1) = pairs
            r = 0.0 + p0 * rec0.q + p1 * rec1.q
        else:
            r = _expected_q(g)
    return store


def _expected_q(g):
    """sum_v P(v) * Q(v) over a group, in outcome order."""
    acc = 0.0
    for p, rec in g.pairs:
        acc += p * rec.q
    return acc


def adapted_probs(store: QStore, s, i, info, floor=Q_FLOOR):
    """Probability vector proportional to P(v) * max(Q(s,i,v), floor).

    Returns the declared vector object itself when all (floored) Q-values are
    equal — the common factor cancels, and reusing the original tuple keeps
    an unadapted run bit-identical to the non-adaptive code path.
    """
    weights = []
    first = None
    uniform = True
    for p, rec in store._group(s, i, info).pairs:
        qv = rec.q
        if qv < floor:
            qv = floor
        if first is None:
            first = qv
        elif qv != first:
            uniform = False
        weights.append(p * qv)
    if uniform:
        return info.probs
    total = sum(weights)
    out = []
    for w in weights:
        out.append(w / total)
    return tuple(out)


class AdaptedSource:
    """Distribution source backed by a QStore.

    Instances are callables with the `(s, i, info) -> probs` signature the
    evaluator expects for its `dist` argument.  A call returns the switch
    instance's cached vector when no record of it changed since it was
    computed under this floor, and recomputes it from the store otherwise.
    """

    __slots__ = ("store", "floor", "_groups")

    def __init__(self, store: QStore, floor=Q_FLOOR):
        self.store = store
        self.floor = floor
        self._groups = store._groups

    def __call__(self, s, i, info):
        g = self._groups.get((s, i))
        if g is not None and g.vec is not None and g.floor == self.floor:
            return g.vec
        vec = adapted_probs(self.store, s, i, info, self.floor)
        g = self._groups[(s, i)]
        g.vec = vec
        g.floor = self.floor
        return vec

    def ratio(self, current, proposed, prog: Program) -> float:
        """P'(v)/P(v) over the entries of `current` that `proposed` lacks or
        changes, times P(v)/P'(v) over the entries of `proposed` that
        `current` lacks or changes, multiplied entry by entry in dict order,
        so that an unadapted store (P' == P) cancels exactly."""
        groups = self._groups
        floor = self.floor
        ratio = 1.0
        for a, b in ((current, proposed), (proposed, current)):
            get = b.get
            for key, v in a.items():
                if get(key) == v:
                    continue
                g = groups.get(key)
                if g is None or g.vec is None or g.floor != floor:
                    self(key[0], key[1], prog.switch_info(key[0]))
                    g = groups[key]
                k = g.index[v]
                if a is current:
                    ratio *= g.vec[k] / g.pairs[k][0]
                else:
                    ratio *= g.pairs[k][0] / g.vec[k]
        return ratio


class IndependentResult(NamedTuple):
    estimate: float
    samples: int
    evidence_successes: int
    joint_successes: int
    monotonicity_violations: int
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
    structures.  `monotonicity_violations` is the store's `increases`: the
    number of updates that raised a key's reward above its previous one
    (per-key rewards should be non-increasing), which is expected on
    non-Markovian programs.
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    store = QStore(LAST_REWARD)
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
    return IndependentResult(n_qe / n_e, n, n_e, n_qe, store.increases, store)
