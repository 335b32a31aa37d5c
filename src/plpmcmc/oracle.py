"""Exact inference oracles used to validate every sampler estimate.

Two deliberately independent routes:

1. Evaluation-tree enumeration (`exact_conditional`): re-run the
   first-derivation evaluator with a scripted outcome chooser and walk every
   fresh-pick branch depth-first.  The evaluator's outputs are pairwise
   mutually exclusive, so summing prob() over success leaves is exact, and
   success + failure leaves together sum to 1.

2. Complete-world enumeration (`exact_conditional_worlds`): enumerate every
   total assignment of the declared switches and decide the goal in each
   world with a plain, substitution-based SLD prover that treats msw as a
   table lookup.  Shares nothing with the sampling engine beyond the term
   layer in `lang`: the term representation and `unify`.

Both sum with math.fsum, so agreement to 1e-12 is meaningful.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .lang import (
    PlpError,
    Program,
    Var,
    is_ground,
    resolve,
    term_to_str,
    unify,
    walk,
)
from .evaluator import EvalError, StepLimitExceeded, run_first
from .worlds import prob

DEFAULT_BRANCH_LIMIT = 10**6
WORLD_STEP_LIMIT = 200000


class BranchLimitExceeded(PlpError):
    """The evaluation tree (or world count) is larger than DEFAULT_BRANCH_LIMIT."""


class ExactResult(NamedTuple):
    p_query: float
    p_evidence: float
    p_joint: float
    p_conditional: float
    leaf_count: int


def _exact_result(q_terms, e_terms, qe_terms, leaf_count, evidence) -> ExactResult:
    """Sum each route's probability terms of the query, evidence and joint
    successes into an ExactResult."""
    p_evidence = math.fsum(e_terms)
    if p_evidence == 0.0:
        raise EvalError(f"evidence {term_to_str(evidence)} is unsatisfiable")
    p_joint = math.fsum(qe_terms)
    return ExactResult(math.fsum(q_terms), p_evidence, p_joint, p_joint / p_evidence,
                       leaf_count)


# ---------------------------------------------------------------------------
# Oracle 1: exhaustive re-execution of the sampling evaluator
# ---------------------------------------------------------------------------


def iter_eval_leaves(prog: Program, goal, base):
    """Yield (success, assignment) for every leaf of the evaluator's decision
    tree rooted at `base`.  Deterministic left-to-right order.

    Each leaf is produced by a full scripted re-run: the k-th fresh pick takes
    the outcome index dictated by the current script (first outcome when the
    script runs out), and the script odometer then advances depth-first.
    Raises BranchLimitExceeded after DEFAULT_BRANCH_LIMIT leaves.
    """
    if not is_ground(goal):
        raise EvalError(f"goal must be ground: {term_to_str(goal)}")
    switch_info = prog.switch_info
    script = []
    leaves = 0
    while True:
        log = []  # (chosen index, number of outcomes) per fresh pick

        def picker(key):
            j = len(log)
            idx = script[j] if j < len(script) else 0
            info = switch_info(key[0])
            if idx >= len(info.outcomes):
                raise AssertionError("scripted pick out of range")
            log.append((idx, len(info.outcomes)))
            return info.outcomes[idx]

        ok, sigma, _trace = run_first(prog, goal, base, picker)
        leaves += 1
        if leaves > DEFAULT_BRANCH_LIMIT:
            raise BranchLimitExceeded(
                f"evaluation tree for {term_to_str(goal)} exceeds {DEFAULT_BRANCH_LIMIT} leaves"
            )
        yield ok, sigma
        # advance the odometer to the next unexplored branch
        while log and log[-1][0] == log[-1][1] - 1:
            log.pop()
        if not log:
            return
        script = [idx for idx, _n in log[:-1]] + [log[-1][0] + 1]


def exact_conditional(prog: Program, query, evidence) -> ExactResult:
    """Exact ExactResult for cond(query | evidence).

    The joint explores evidence first, then continues the query enumeration
    from each evidence-success leaf so shared switches stay shared.
    """
    p_e_terms = []
    p_joint_terms = []
    leaf_count = 0
    for ok_e, sig_e in iter_eval_leaves(prog, evidence, {}):
        leaf_count += 1
        if not ok_e:
            continue
        p_e_terms.append(prob(sig_e, prog))
        for ok_q, sig_q in iter_eval_leaves(prog, query, sig_e):
            leaf_count += 1
            if ok_q:
                union = dict(sig_e)
                union.update(sig_q)
                p_joint_terms.append(prob(union, prog))
    p_query_terms = []
    for ok_q, sig_q in iter_eval_leaves(prog, query, {}):
        leaf_count += 1
        if ok_q:
            p_query_terms.append(prob(sig_q, prog))
    return _exact_result(p_query_terms, p_e_terms, p_joint_terms, leaf_count, evidence)


# ---------------------------------------------------------------------------
# Oracle 2: complete-world enumeration with an ordinary SLD prover
# ---------------------------------------------------------------------------


def world_universe(prog: Program):
    """The switch-instance keys of a complete world: instance 0 of every
    switch that has a distribution."""
    return [(s, 0) for s in prog.dists]


def iter_worlds(prog: Program):
    """Yield (world dict, probability) for every complete world, or raise
    BranchLimitExceeded first if they number over DEFAULT_BRANCH_LIMIT."""
    keys = world_universe(prog)
    infos = [prog.switch_info(s) for s, _ in keys]
    count = 1
    for info in infos:
        count *= len(info.outcomes)
        if count > DEFAULT_BRANCH_LIMIT:
            raise BranchLimitExceeded(f"world count exceeds {DEFAULT_BRANCH_LIMIT}")
    for combo in itertools.product(*(range(len(i.outcomes)) for i in infos)):
        world = {}
        p = 1.0
        for key, info, k in zip(keys, infos, combo):
            world[key] = info.outcomes[k]
            p *= info.probs[k]
        yield world, p


def _rename(t, mapping):
    if isinstance(t, Var):
        v = mapping.get(t)
        if v is None:
            v = Var(t.name)
            mapping[t] = v
        return v
    if type(t) is tuple:
        args = [t[0]]
        for a in t[1:]:
            args.append(_rename(a, mapping))
        return tuple(args)
    return t


def holds_in_world(prog: Program, goal, world) -> bool:
    """Does the ground goal have a derivation in this complete world?

    Depth-first, left-to-right SLD resolution with msw read from `world`.
    Goal lists are linked (goal, rest) pairs, and the stack holds the
    (goals, theta) alternatives still to try, the first clause on top, so a
    proof may be as deep as memory allows.  Each selected goal is one step;
    past WORLD_STEP_LIMIT steps the search raises StepLimitExceeded.
    """
    stack = [((goal, None), {})]
    steps = 0
    while stack:
        goals, theta = stack.pop()
        while goals is not None:
            steps += 1
            if steps > WORLD_STEP_LIMIT:
                raise StepLimitExceeded(
                    f"world prover exceeded its step budget of {WORLD_STEP_LIMIT} steps"
                )
            g, goals = goals
            g = walk(g, theta)
            if isinstance(g, Var):
                raise EvalError("unbound goal in world prover")
            if g == "true":
                continue
            if type(g) is tuple:
                f = g[0]
                if f == "msw" and len(g) == 4:
                    s = resolve(g[1], theta)
                    inst = resolve(g[2], theta)
                    if not is_ground(s) or not is_ground(inst):
                        raise EvalError("msw switch/instance not ground in world prover")
                    v = world.get((s, inst))
                    if v is None:
                        raise EvalError(f"world does not cover switch instance "
                                        f"{term_to_str(s)}/{term_to_str(inst)}")
                    theta = unify(g[3], v, theta)
                    if theta is None:
                        break
                    continue
                if f == "," and len(g) == 3:
                    goals = (g[1], (g[2], goals))
                    continue
                if f == ";" and len(g) == 3:
                    stack.append(((g[2], goals), theta))
                    goals = (g[1], goals)
                    continue
                key = (f, len(g) - 1)
            elif isinstance(g, str):
                key = (g, 0)
            else:
                raise EvalError(f"invalid goal: {g!r}")
            clauses = prog.clauses.get(key)
            if clauses is None:
                raise EvalError(f"unknown predicate {key[0]}/{key[1]}")
            for c in reversed(clauses):
                mapping = {}
                theta2 = unify(g, _rename(c.head, mapping), theta)
                if theta2 is not None:
                    body = goals
                    for b in reversed(c.body):
                        body = (_rename(b, mapping), body)
                    stack.append((body, theta2))
            break
        else:
            return True
    return False


def exact_conditional_worlds(prog: Program, query, evidence) -> ExactResult:
    p_q = []
    p_e = []
    p_qe = []
    count = 0
    for world, p in iter_worlds(prog):
        count += 1
        q_ok = holds_in_world(prog, query, world)
        e_ok = holds_in_world(prog, evidence, world)
        if q_ok:
            p_q.append(p)
        if e_ok:
            p_e.append(p)
            if q_ok:
                p_qe.append(p)
    return _exact_result(p_q, p_e, p_qe, count, evidence)
