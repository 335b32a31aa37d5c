"""Metropolis-Hastings chain over assignments for conditional queries.

The chain state is an evidence-consistent assignment.  Each iteration forgets
some switch instances (single uniformly-chosen key, or each key independently
with probability p), re-evaluates evidence and query, and accepts or rejects
with the acceptance probability matching the resampling strategy:

    non-adaptive single switch:  min(1, |current| / |proposed|)
    non-adaptive multi switch:   1
    adaptive:                    original/adapted probability ratios over the
                                 dropped and conflicting parts of both states
                                 (times the size ratio in the single case)

Adaptive chains draw fresh switches from Q-weighted distributions whose
Q-values are floored at DEFENSIVE_FLOOR, so no outcome's proposal mass falls
below that share of its declared probability.

Proposals whose evidence evaluation fails are rejected outright; in adaptive
mode the evidence trace is still rewarded (with 0), which is the whole point
of learning from rejections.  The per-iteration query indicator counts the
*retained* state's stored answer, so a rejected proposal contributes the old
answer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .lang import Program, is_ground, term_to_str
from .evaluator import (
    DEFAULT_STEP_LIMIT,
    EvalError,
    initial_sample,
    sample_eval,
)
from .adapt import AdaptedSource, QStore, adapt

# Defensive floor on the Q-values behind an adaptive chain's proposals.  The
# adapted probability of an outcome is P(v) * max(Q, floor) renormalised by a
# sum of at most 1, so every outcome keeps proposal mass >= floor * P(v) and
# the P/P' factors of the acceptance ratio stay below 1/floor.  Adaptation
# can then skew proposals but not starve an outcome the evidence never needs
# and the query does, which would leave the chain unable to reach (or leave)
# the worlds that hold it.  An all-ones store still yields the declared
# distribution objects, so the frozen-store identity is unaffected.
DEFENSIVE_FLOOR = 0.02


@dataclass(frozen=True)
class SingleSwitch:
    """Forget exactly one uniformly chosen defined key per proposal."""


@dataclass(frozen=True)
class MultiSwitch:
    """Forget each defined key independently with probability p."""

    p: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"multi-switch probability must be in (0,1], got {self.p}")


@dataclass
class ChainConfig:
    steps: int
    burn_in: int = 0
    strategy: object = field(default_factory=SingleSwitch)
    adaptive: bool = False
    seed: int = 0
    step_limit: int = DEFAULT_STEP_LIMIT
    # The Q-store an adaptive chain trains (a fresh averaging QStore when
    # None); ignored by non-adaptive chains.  The store carries the update
    # policy: QStore(LAST_REWARD) for last-reward adaptation, or a subclass
    # whose `update` does nothing for a fixed adapted proposal.
    initial_qstore: QStore | None = None
    collect_rows: bool = False
    # on_iteration(it, current, proposed, a, accepted) after every step:
    # `current` is the state the step started from, `proposed` the
    # evidence-consistent proposed state (None when the evidence failed).
    # States are never mutated once built, so the hook may keep them.
    on_iteration: object = None

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.burn_in < 0:
            raise ValueError("burn-in cannot be negative")


@dataclass
class ChainResult:
    estimate: float
    n_success: int
    steps: int
    burn_in: int
    accepted: int
    evidence_rejections: int
    rows: list
    elapsed_s: float
    qstore: QStore | None
    final_state: dict


def resample(assignment, strategy, rng):
    """Forget keys of the assignment according to the strategy."""
    if type(strategy) is SingleSwitch:
        if not assignment:
            raise ValueError("single-switch resampling needs a nonempty assignment")
        keys = list(assignment)
        drop = keys[rng.randrange(len(keys))]
        out = dict(assignment)
        del out[drop]
        return out
    p = strategy.p
    rand = rng.random
    return {k: v for k, v in assignment.items() if rand() >= p}


def accept_prob(current, proposed, strategy, prog: Program, adapted=None) -> float:
    """Metropolis-Hastings acceptance probability for current -> proposed.

    `adapted` is the distribution source in force when the proposal was made
    (None for the non-adaptive sampler).  Both assignments must already be
    evidence-consistent post-evaluation states.
    """
    # Original/adapted probability ratios over the dropped-and-conflicting
    # parts of each state, entry by entry, so that an unadapted store
    # (P' == P) cancels exactly, not just to rounding.  A non-adaptive chain
    # keeps ratio 1.0, and 1.0 * lc / lp is exactly lc / lp.
    ratio = 1.0
    if adapted is not None:
        for key, v in current.items():
            if proposed.get(key) != v:
                s, i = key
                info = prog.switch_info(s)
                idx = info.index[v]
                ratio *= adapted(s, i, info)[idx] / info.probs[idx]
        for key, v in proposed.items():
            if current.get(key) != v:
                s, i = key
                info = prog.switch_info(s)
                idx = info.index[v]
                ratio *= info.probs[idx] / adapted(s, i, info)[idx]
    if type(strategy) is SingleSwitch:
        lc, lp = len(current), len(proposed)
        if lc > 0 and lp > 0:
            ratio *= lc / lp
    return min(1.0, ratio)


def run_chain(prog: Program, query, evidence, cfg: ChainConfig) -> ChainResult:
    """Estimate cond(query | evidence) with the MH chain described above.

    Four independent rng streams (initialization, proposal, evaluation,
    acceptance) are derived from the seed so that toggling adaptation does not
    perturb proposal randomness.
    """
    for name, g in (("query", query), ("evidence", evidence)):
        if not is_ground(g):
            raise EvalError(f"{name} must be ground: {term_to_str(g)}")

    rng_init = random.Random(f"{cfg.seed}/init")
    rng_prop = random.Random(f"{cfg.seed}/proposal")
    rng_eval = random.Random(f"{cfg.seed}/eval")
    rng_accept = random.Random(f"{cfg.seed}/accept")

    qstore = None
    source = None
    if cfg.adaptive:
        qstore = cfg.initial_qstore if cfg.initial_qstore is not None else QStore()
        source = AdaptedSource(qstore, floor=DEFENSIVE_FLOOR)

    step_limit = cfg.step_limit
    strategy = cfg.strategy
    on_iter = cfg.on_iteration
    t0 = time.perf_counter()

    witness = initial_sample(prog, evidence, rng_init, step_limit)
    # Complete the witness into a state with the same shape as every later
    # state: the touched set of an evidence evaluation plus the touched set of
    # a query evaluation.  Evidence evaluation from a witness cannot fail —
    # frozen fresh picks never block the stored derivation — it only fills in
    # the switches the first-derivation route consults.
    res_e = sample_eval(prog, evidence, witness, dist=source, rng=rng_eval,
                        step_limit=step_limit)
    if not res_e.success:
        raise AssertionError("evidence evaluation failed on an initial witness")
    qbase = dict(witness)
    qbase.update(res_e.assignment)
    res_q = sample_eval(prog, query, qbase, dist=source, rng=rng_eval,
                        step_limit=step_limit)
    state = dict(res_e.assignment)
    state.update(res_q.assignment)
    query_holds = res_q.success

    total = cfg.burn_in + cfg.steps
    n_success = 0
    accepted_count = 0
    evidence_rejections = 0
    counted = 0
    rows = [] if cfg.collect_rows else None

    for it in range(1, total + 1):
        iter_t0 = time.perf_counter_ns() if rows is not None else 0

        if state:
            proposal = resample(state, strategy, rng_prop)
        else:
            # Deterministic query/evidence never touch a switch; nothing to
            # forget and nothing to do but re-propose the empty state.
            proposal = {}
        res_e = sample_eval(
            prog, evidence, proposal, dist=source, rng=rng_eval, step_limit=step_limit
        )
        was_accepted = False
        if res_e.success:
            # The query evaluation must see *every* retained entry, not just
            # the evidence-touched ones: a retained key the evidence skipped
            # would otherwise be silently resampled, which creates one-way
            # transitions that no acceptance ratio can balance.  The next
            # state still keeps only what the two evaluations touched, so
            # stale entries drop out as intended.  The proposal and the
            # evaluations' touched sets are fresh dicts owned by this loop, so
            # they are extended in place rather than copied.
            proposal.update(res_e.assignment)
            res_q = sample_eval(
                prog,
                query,
                proposal,
                dist=source,
                rng=rng_eval,
                step_limit=step_limit,
            )
            proposed_state = res_e.assignment
            proposed_state.update(res_q.assignment)
            a = accept_prob(state, proposed_state, strategy, prog, adapted=source)
            was_accepted = a >= 1.0 or rng_accept.random() < a
            if on_iter is not None:
                on_iter(it, state, proposed_state, a, was_accepted)
            if was_accepted:
                accepted_count += 1
                state = proposed_state
                query_holds = res_q.success
        else:
            evidence_rejections += 1
            if on_iter is not None:
                on_iter(it, state, None, 0.0, False)

        if qstore is not None:
            adapt(res_e.trace, 1.0 if res_e.success else 0.0, qstore, prog)

        if it > cfg.burn_in:
            counted += 1
            if query_holds:
                n_success += 1

        if rows is not None:
            est = n_success / counted if counted else 0.0
            rows.append(
                (
                    it,
                    est,
                    was_accepted,
                    res_e.success,
                    evidence_rejections,
                    (time.perf_counter_ns() - iter_t0) // 1000,
                )
            )

    elapsed = time.perf_counter() - t0
    return ChainResult(
        estimate=n_success / cfg.steps,
        n_success=n_success,
        steps=cfg.steps,
        burn_in=cfg.burn_in,
        accepted=accepted_count,
        evidence_rejections=evidence_rejections,
        rows=rows if rows is not None else [],
        elapsed_s=elapsed,
        qstore=qstore,
        final_state=state,
    )
