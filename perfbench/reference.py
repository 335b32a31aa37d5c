"""Reference answers that share no code with the sampling engine.

`bn_conditional` answers a grid Bayesian network written by `gen_bn` (and so
by `plpmcmc genbench --family bn`) by summing over node valuations directly.
It reads only what the parser produced: the `val/2` clauses, which give each
node's parents and the switch its value comes from, and the CPT rows in
`prog.dists`.  The resolution engine is never entered.
"""

from __future__ import annotations

import math

from plpmcmc.lang import Var

FIG1_CONDITIONAL = 0.8883691880638446  # P(reach(a,d) | reach(a,e)), see test_01


class ReferenceError(Exception):
    """The program does not have the structure the reference expects."""


def _conj(goal):
    if type(goal) is tuple and goal[0] == "," and len(goal) == 3:
        return _conj(goal[1]) + _conj(goal[2])
    return [goal]


def grid_network(prog):
    """Nodes in parent-first order, as (node, parents, switch functor).

    A node clause has the shape
    `val(N, V) :- val(P0, X0), ..., msw(cptK(N, X0, ...), V).`
    """
    nodes = []
    for clause in prog.clauses.get(("val", 2), []):
        node, value = clause.head[1], clause.head[2]
        *parent_goals, msw = clause.body
        if not (type(msw) is tuple and msw[0] == "msw" and msw[3] is value):
            raise ReferenceError(f"unexpected val/2 clause body for {node!r}")
        switch = msw[1]
        parents = []
        for k, g in enumerate(parent_goals):
            if not (g[0] == "val" and isinstance(g[2], Var) and switch[2 + k] is g[2]):
                raise ReferenceError(f"unexpected parent goal {g!r} for {node!r}")
            parents.append(g[1])
        if switch[1] != node or len(switch) != 2 + len(parents):
            raise ReferenceError(f"unexpected switch term for {node!r}")
        nodes.append((node, tuple(parents), switch[0]))
    seen = set()
    for node, parents, _ in nodes:
        if not all(p in seen for p in parents):
            raise ReferenceError("val/2 clauses are not in parent-first order")
        seen.add(node)
    return nodes


def _node_goals(goal):
    """{node: value} for a conjunction of `val(node, value)` goals."""
    out = {}
    for g in _conj(goal):
        if g == "true":
            continue
        if not (type(g) is tuple and g[0] == "val" and len(g) == 3):
            raise ReferenceError(f"expected val/2 goals, got {g!r}")
        if out.setdefault(g[1], g[2]) != g[2]:
            return None  # contradictory goal: probability 0
    return out


def bn_probability(prog, fixed):
    """Sum over every node valuation of P(valuation), restricted to the
    valuations that agree with `fixed` ({node: value})."""
    nodes = grid_network(prog)
    cpt = {
        switch: dict(zip(prog.outcomes_for(switch), probs))
        for switch, probs in prog.dists.items()
    }
    values = {}
    terms = []

    def walk(k, p):
        if k == len(nodes):
            terms.append(p)
            return
        node, parents, functor = nodes[k]
        row = cpt.get((functor, node) + tuple(values[q] for q in parents))
        if row is None:
            raise ReferenceError(f"no CPT row for {node!r}")
        choices = row.items()
        if node in fixed:
            choices = [(v, pv) for v, pv in choices if v == fixed[node]]
        for v, pv in choices:
            if pv == 0.0:
                continue
            values[node] = v
            walk(k + 1, p * pv)
        values.pop(node, None)

    walk(0, 1.0)
    return math.fsum(terms)


def bn_conditional(prog, query, evidence):
    """Exact P(query | evidence) for a grid network with val/2 goals."""
    e = _node_goals(evidence)
    q = _node_goals(query)
    if e is None:
        raise ReferenceError("evidence is contradictory")
    p_e = bn_probability(prog, e)
    if p_e == 0.0:
        raise ReferenceError("evidence has probability 0")
    if q is None:
        return 0.0
    joint = dict(e)
    for node, v in q.items():
        if joint.setdefault(node, v) != v:
            return 0.0
    return bn_probability(prog, joint) / p_e
