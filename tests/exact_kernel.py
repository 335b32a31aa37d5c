"""Exact transition system of the MH chain on desk-scale programs.

Evaluation outcomes are enumerated with the oracle's leaf walker and
acceptance comes from the real `accept_prob`, so the resulting kernel is the
chain's own, not a model of it.  A single-switch row takes one walk per key
the step may drop.  A multi-switch row takes one walk from the empty
assignment, in which a key of the state keeps its value with probability
1 - p and draws a fresh one with probability p at its first consult, and
every other key draws a fresh one.  That is the same law of next states as
forgetting each key first: states are touched-only, so a key the walk never
consults leaves no trace, and a key forgotten and redrawn to its old value
gives the same next state, which is all `accept_prob` reads.  Rows of one
build share each (goal, base) walk's leaf list.  The stationary law is
solved for by Gaussian elimination.  The file name keeps pytest from
collecting it; test modules import it as a helper.
"""

from plpmcmc.mcmc import SingleSwitch, accept_prob
from plpmcmc.oracle import iter_eval_leaves


def leaf_weight(prog, source, base, leaf, held=None, p=1.0):
    """Probability that an evaluation from `base` draws the fresh picks of
    `leaf`, under the declared law (`source=None`) or an adapted one.  A
    fresh pick of a key that `held` maps to a value keeps that value with
    probability 1 - p and is redrawn with probability p."""
    w = 1.0
    for (s, i), v in leaf.items():
        if (s, i) not in base:
            info = prog.switch_info(s)
            probs = info.probs if source is None else source(s, i, info)
            pv = probs[info.index[v]]
            if held and (s, i) in held:
                pv = (1.0 - p) * (v == held[s, i]) + p * pv
            w *= pv
    return w


def leaf_lists(prog):
    """leaves(goal, base): the list of `iter_eval_leaves(prog, goal, base)`,
    walked once per (goal, base) for the life of the returned function, on
    one trie per goal, so each consult path runs once."""
    cache = {}
    tries = {}

    def leaves(goal, base):
        key = (goal, frozenset(base.items()))
        out = cache.get(key)
        if out is None:
            trie = tries.setdefault(goal, {})
            out = cache[key] = list(iter_eval_leaves(prog, goal, dict(base), trie))
        return out

    return leaves


def forget_choices(state, strategy):
    """(base, probability, held, p) for each walk that the strategy's forget
    step takes out of `state`: one per dropped key under single-switch, and
    under multi-switch one from the empty base in which every key of `state`
    is held and forgotten at its first consult with probability p."""
    if state and type(strategy) is SingleSwitch:
        n = len(state)
        for k in state:
            out = dict(state)
            del out[k]
            yield out, 1.0 / n, None, 1.0
    else:
        yield {}, 1.0, state, getattr(strategy, "p", 1.0)


def transition_row(prog, query, evidence, state, strategy, source, leaves):
    """Exact one-step transition distribution out of `state`, mirroring the
    chain loop: forget, evidence evaluation, query evaluation from the
    proposal-plus-evidence base, then Metropolis-Hastings accept/reject.
    `leaves` is a `leaf_lists` function of `prog`."""
    row = {}
    self_key = frozenset(state.items())

    def add(key, w):
        if w:
            row[key] = row.get(key, 0.0) + w

    for base, wf, held, p in forget_choices(state, strategy):
        for eok, sig_e in leaves(evidence, base):
            we = leaf_weight(prog, source, base, sig_e, held, p)
            if not eok:
                add(self_key, wf * we)  # deterministic rejection
                continue
            qbase = dict(base)
            qbase.update(sig_e)
            for qok, sig_q in leaves(query, qbase):
                wq = leaf_weight(prog, source, qbase, sig_q, held, p)
                nxt = dict(sig_e)
                nxt.update(sig_q)
                a = accept_prob(state, nxt, strategy, prog, adapted=source)
                w = wf * we * wq
                add(frozenset(nxt.items()), w * a)
                add(self_key, w * (1.0 - a))
    return row


def build_transition_system(prog, query, evidence, strategy, source=None):
    """{state: transition row} over every state reachable from the states an
    evaluation from the empty assignment can produce."""
    leaves = leaf_lists(prog)
    seeds = []
    for eok, sig_e in leaves(evidence, {}):
        if not eok:
            continue
        for _qok, sig_q in leaves(query, sig_e):
            nxt = dict(sig_e)
            nxt.update(sig_q)
            seeds.append(frozenset(nxt.items()))
    T = {}
    frontier = list(dict.fromkeys(seeds))
    while frontier:
        skey = frontier.pop()
        if skey in T:
            continue
        T[skey] = transition_row(prog, query, evidence, dict(skey), strategy, source,
                                 leaves)
        frontier.extend(k for k in T[skey] if k not in T)
    return T


def stationary_distribution(states, T):
    """Solve pi T = pi with sum(pi) = 1 by Gaussian elimination."""
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}
    a = [[0.0] * n for _ in range(n)]
    b = [0.0] * n
    for i, si in enumerate(states):
        for sj, w in T[si].items():
            a[idx[sj]][i] += w
    for j in range(n):
        a[j][j] -= 1.0
    a[n - 1] = [1.0] * n  # replace one balance equation with normalization
    b[n - 1] = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        assert abs(a[piv][col]) > 1e-14, "singular transition system"
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                b[r] -= f * b[col]
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    pi = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = b[r] - sum(a[r][c] * pi[c] for c in range(r + 1, n))
        pi[r] = acc / a[r][r]
    return {s: pi[i] for i, s in enumerate(states)}


def evidence_rejection_rate(prog, evidence, pi, strategy, source=None):
    """Stationary share of chain steps whose evidence evaluation fails: the
    mass, under `pi`, of forget choices times failing evidence leaves."""
    leaves = leaf_lists(prog)
    total = 0.0
    for skey, p in pi.items():
        for base, wf, held, pf in forget_choices(dict(skey), strategy):
            for eok, sig_e in leaves(evidence, base):
                if not eok:
                    total += p * wf * leaf_weight(prog, source, base, sig_e, held, pf)
    return total
