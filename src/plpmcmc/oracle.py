"""Exact inference oracles used to validate every sampler estimate.

Two deliberately independent provers share one walk, `_walk`, of a goal's
decision trie (PRISM's explanation search, Sato & Kameya 2001): a proof is
a deterministic function of the values its switch instances take at their
first reads, so each route proves once per read path, resuming a new branch
from the state its prover kept where the branch leaves the trie
(recomputation from a checkpoint, Schulte 1999).  Each route walks the query
only below the evidence's successes; P(query) is the `p_joint` of evidence
`true`, whose evidence walk is one leaf.

1. Evaluation-tree enumeration (`exact_conditional`): the first-derivation
   evaluator's `run_first`, resumed from its checkpoints.  Its outputs are
   pairwise mutually exclusive, so summing prob() over success leaves is
   exact, and success + failure leaves together sum to 1.

2. Complete-world summation (`exact_conditional_worlds`): a plain,
   substitution-based SLD prover that treats msw as a table lookup in a
   complete world, resumed from its snapshots.  The worlds that agree with
   one of its read paths share its answer, and their mass is the product of
   the path's probabilities, so the route never counts worlds.  The prover
   skips clauses whose head's first argument has another top functor than
   the call's, and binds a flat head's variables to the call's arguments.
   Shares nothing with the sampling engine beyond the term layer in `lang`:
   the term representation and `unify`.

Both sum with math.fsum, so agreement to 1e-12 is meaningful.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lang import (
    PlpError,
    Program,
    ProgramError,
    Var,
    is_ground,
    resolve,
    term_to_str,
    unify,
    walk,
)
from .evaluator import EvalError, StepLimitExceeded, run_first

DEFAULT_BRANCH_LIMIT = 10**6
WORLD_STEP_LIMIT = 200000


class BranchLimitExceeded(PlpError):
    """A walk of a goal's decision trie (`_walk`) has more than
    DEFAULT_BRANCH_LIMIT leaves."""


class ExactResult(NamedTuple):
    p_evidence: float
    p_joint: float
    p_conditional: float
    leaf_count: int


def _exact_result(e_terms, qe_terms, leaf_count, evidence) -> ExactResult:
    """Sum each route's probability terms of the evidence and joint successes
    into an ExactResult."""
    p_evidence = math.fsum(e_terms)
    if p_evidence == 0.0:
        raise EvalError(f"evidence {term_to_str(evidence)} is unsatisfiable")
    p_joint = math.fsum(qe_terms)
    return ExactResult(p_evidence, p_joint, p_joint / p_evidence, leaf_count)


def _reads(path):
    """The values of a linked (key, value, rest) path, last key first, as a
    dict in path order."""
    items = []
    while path is not None:
        key, value, path = path
        items.append((key, value))
    return dict(reversed(items))


def _walk(trie, prog: Program, goal, fixed, extend):
    """Yield (answer, mass, path) for each leaf of `goal`'s decision trie
    that agrees with `fixed`, depth-first, first outcome first.

    `trie`, a dict, holds the goal's proofs as read paths: its root is
    stored under None, an internal node is [key, children by the key's
    value, the prover's state from before the key's first read or None],
    and a leaf is the proof's answer.  At a key in `fixed` the walk follows
    that value with weight 1; at any other it takes every outcome, weighted
    by its declared probability.  `path` is the leaf's reads as a linked
    (key, value, rest) list, last read first, and `mass` the product of its
    weights from 1.0 in read order.  A missing branch calls `extend(state,
    path)` once, with the state of the node above it (None in an empty trie
    or where the node keeps none): it runs the route's prover from there and
    returns its answer and its new reads as (key, value, state) triples,
    which are inserted below and walked, so each read path is proved once
    per trie.  A node drops its state once every outcome has a child.
    Raises EvalError for a goal that is not ground, and BranchLimitExceeded
    after DEFAULT_BRANCH_LIMIT leaves.
    """
    if not is_ground(goal):
        raise EvalError(f"goal must be ground: {term_to_str(goal)}")
    stack = [(trie, None, None, 1.0, None)]  # children, value, node above, mass, path
    del trie  # so a private trie is freed subtree by subtree
    leaves = 0
    while stack:
        children, value, above, mass, path = frame = stack.pop()
        node = children.get(value)
        if node is None:
            ok, new = extend(None if above is None else above[2], path)
            for key, v, state in new:
                node = children[value] = [key, {}, state]
                children, value = node[1], v
            children[value] = ok
            if above is not None and len(above[1]) == len(prog.switch_info(above[0][0]).outcomes):
                above[2] = None
            stack.append(frame)
        elif type(node) is bool:
            leaves += 1
            if leaves > DEFAULT_BRANCH_LIMIT:
                raise BranchLimitExceeded(f"decision trie of {term_to_str(goal)} exceeds "
                                          f"{DEFAULT_BRANCH_LIMIT} leaves")
            yield node, mass, path
        else:
            key, children = node[0], node[1]
            v = fixed.get(key)
            if v is not None:
                stack.append((children, v, node, mass, (key, v, path)))
            else:
                info = prog.switch_info(key[0])
                for v, p in zip(reversed(info.outcomes), reversed(info.probs)):
                    stack.append((children, v, node, mass * p, (key, v, path)))


# ---------------------------------------------------------------------------
# Oracle 1: the sampling evaluator's decision tree, resumed at its consults
# ---------------------------------------------------------------------------


def prob(assignment, prog: Program) -> float:
    """Product of the declared probabilities of an assignment's outcomes
    (the mass of the worlds that agree with it); 1 for the empty one.
    Raises ProgramError for a value that is not a declared outcome of its
    switch, by type too: 1.0 and True are not the outcome 1."""
    p = 1.0
    for (s, _i), v in assignment.items():
        info = prog.switch_info(s)
        k = info.index.get(v)
        if k is None or type(info.outcomes[k]) is not type(v):
            raise ProgramError(
                f"outcome {term_to_str(v)} is not declared for switch {term_to_str(s)}"
            )
        p *= info.probs[k]
    return p


def _tree_walk(trie, prog: Program, goal, base):
    """`_walk` over the evaluator's runs of `goal` on `base`.  A node's state
    is `run_first`'s checkpoint at the key's first consult, with the step
    count there appended; a missing branch resumes the run from it, or runs
    it from the goal in an empty trie."""
    def extend(ck, path):
        resume = None if ck is None else (_reads(path), [], ck[5] - 1, ck[0], ck[1], ck[2], ck[4])
        checkpoints, steps_out = [], []
        ok, sigma, _trace = run_first(
            prog, goal, base, lambda key: prog.switch_info(key[0]).outcomes[0],
            steps_out=steps_out, checkpoints=checkpoints, resume=resume,
        )
        new = list(sigma.items())[len(sigma) - len(checkpoints):]
        for c, steps in zip(checkpoints, steps_out):
            c.append(steps)
        return ok, [(key, v, c) for (key, v), c in zip(new, checkpoints)]

    return _walk(trie, prog, goal, base, extend)


def iter_eval_leaves(prog: Program, goal, base, trie=None):
    """Yield (success, assignment) for every leaf of the evaluator's decision
    tree rooted at `base`, depth-first, first outcome first (`_tree_walk`),
    in `trie`, a dict of one goal's runs the caller owns (fresh when
    omitted).  Raises ProgramError for a `base` value `prob` refuses."""
    prob(base, prog)  # children are keyed by value, where 1.0 would find 1
    for ok, _mass, path in _tree_walk({} if trie is None else trie, prog, goal, base):
        yield ok, _reads(path)


def exact_conditional(prog: Program, query, evidence) -> ExactResult:
    """Exact ExactResult for cond(query | evidence).

    The evidence's leaves are walked, and below each evidence success the
    query's leaves on the evidence's assignment, so shared switches stay
    shared.  All the query's walks share one trie, so each of its consult
    paths runs once.  An evidence term is its leaf's mass, which is `prob`
    of its assignment, and a joint term `prob` of the two assignments
    merged.
    """
    q_trie = {}
    p_e_terms = []
    p_joint_terms = []
    leaf_count = 0
    for ok_e, mass_e, path in _tree_walk({}, prog, evidence, {}):
        leaf_count += 1
        if not ok_e:
            continue
        p_e_terms.append(mass_e)
        sig_e = _reads(path)
        for ok_q, sig_q in iter_eval_leaves(prog, query, sig_e, q_trie):
            leaf_count += 1
            if ok_q:
                p_joint_terms.append(prob({**sig_e, **sig_q}, prog))
    return _exact_result(p_e_terms, p_joint_terms, leaf_count, evidence)


# ---------------------------------------------------------------------------
# Oracle 2: complete-world enumeration with an ordinary SLD prover
# ---------------------------------------------------------------------------


def world_universe(prog: Program):
    """The switch-instance keys of a complete world: instance 0 of every
    switch that has a distribution."""
    return [(s, 0) for s in prog.dists]


def _rename(t, mapping):
    """`t` with each variable replaced by its fresh copy in `mapping`, built
    with an explicit stack of (arguments so far, argument iterator) frames so
    that a long list does not recurse."""
    if type(t) is not tuple:
        if isinstance(t, Var):
            v = mapping.get(t)
            if v is None:
                v = mapping[t] = Var(t.name)
            return v
        return t
    frames = [([t[0]], iter(t[1:]))]
    while True:
        args, rest = frames[-1]
        for a in rest:
            if type(a) is tuple:
                frames.append(([a[0]], iter(a[1:])))
                break
            if isinstance(a, Var):
                v = mapping.get(a)
                if v is None:
                    v = mapping[a] = Var(a.name)
                a = v
            args.append(a)
        else:
            frames.pop()
            if not frames:
                return tuple(args)
            frames[-1][0].append(tuple(args))


def _first_key(t, theta):
    """The clause-selection key of `t`'s first argument under `theta`, read
    from its top functor only (a list is never walked): an atom or integer
    as itself, a compound as (functor, arity), None for a variable or when
    `t` has no arguments.  Two terms whose keys are both set and differ
    cannot unify."""
    if type(t) is not tuple or len(t) < 2:
        return None
    a = walk(t[1], theta)
    if type(a) is tuple:
        return (a[0], len(a) - 1)
    if isinstance(a, Var):
        return None
    return a


def _world_code(prog: Program):
    """Per-predicate (head, head is ground, the head's arguments when they
    are distinct variables else None, reversed body as (goal, goal is
    ground) pairs, head's `_first_key`) for each clause, cached on the
    program until `Program.add_clause` clears it.  A ground term is used as
    it stands, so only terms with variables are renamed apart, and the
    variables of a flat head stand for the call's arguments themselves."""
    code = prog._world_code
    if code is None:
        code = {
            key: [
                (c.head, is_ground(c.head), _flat_args(c.head),
                 tuple((b, is_ground(b)) for b in reversed(c.body)),
                 _first_key(c.head, {}))
                for c in clauses
            ]
            for key, clauses in prog.clauses.items()
        }
        prog._world_code = code
    return code


def _flat_args(head):
    """A compound head's arguments if they are distinct variables, else None."""
    args = head[1:] if type(head) is tuple else ()
    distinct = len(set(args)) == len(args) and all(isinstance(a, Var) for a in args)
    return args if args and distinct else None


def holds_in_world(prog: Program, goal, world, read=None, marks=None, start=None) -> bool:
    """Does the ground goal have a derivation in this complete world?

    Depth-first, left-to-right SLD resolution with msw read from `world`.
    Goal lists are linked (goal, rest) pairs, and the stack is a linked
    ((goals, theta), rest) list of the alternatives still to try, the first
    clause on top, so a proof may be as deep as memory allows.  Each
    selected goal is one step; past WORLD_STEP_LIMIT steps the search raises
    StepLimitExceeded.  A call skips, before renaming, each clause whose
    head's first argument has another `_first_key` than the call's.

    `read`, a dict, receives every switch-instance key the proof looks up,
    mapped to its value, in first-read order.  The proof is a deterministic
    function of these values in this order: any world that gives the same
    keys the same values gives the same answer after the same reads.

    `unify` never changes a substitution, so (goals, theta, stack, steps)
    is an immutable snapshot.  `marks`, a dict, maps each key first read
    here (not yet in `read`) to the snapshot from before its msw goal was
    selected; `start` resumes from one, steps included.
    """
    code = _world_code(prog)
    if start is None:
        goals, theta, stack, steps = (goal, None), {}, None, 0
    else:
        goals, theta, stack, steps = start
    while True:
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
                    if read is not None and (s, inst) not in read:
                        read[s, inst] = v
                        if marks is not None:
                            marks[s, inst] = ((g, goals), theta, stack, steps - 1)
                    theta = unify(g[3], v, theta)
                    if theta is None:
                        break
                    continue
                if f == "," and len(g) == 3:
                    goals = (g[1], (g[2], goals))
                    continue
                if f == ";" and len(g) == 3:
                    stack = (((g[2], goals), theta), stack)
                    goals = (g[1], goals)
                    continue
                key = (f, len(g) - 1)
            elif isinstance(g, str):
                key = (g, 0)
            else:
                raise EvalError(f"invalid goal: {g!r}")
            clauses = code.get(key)
            if clauses is None:
                raise EvalError(f"unknown predicate {key[0]}/{key[1]}")
            first = _first_key(g, theta)
            for head, head_ground, params, body, head_first in reversed(clauses):
                if first is not None and head_first is not None and head_first != first:
                    continue
                if params is None:
                    mapping = {}
                    theta2 = unify(g, head if head_ground else _rename(head, mapping), theta)
                else:  # a flat head's variables stand for the call's arguments
                    mapping, theta2 = dict(zip(params, g[1:])), theta
                if theta2 is not None:
                    rest = goals
                    for b, b_ground in body:
                        rest = (b if b_ground else _rename(b, mapping), rest)
                    stack = ((rest, theta2), stack)
            break
        else:
            return True
        if stack is None:
            return False
        (goals, theta), stack = stack


def _world_walk(trie, prog: Program, goal, fixed, default, keys):
    """`_walk` over the world prover's proofs of `goal`.  A node's state is
    the prover's snapshot from before the key's first read; a missing branch
    resumes `holds_in_world` from it (from the goal in an empty trie), in
    the world `default` overridden by `fixed` and the path's reads: the
    proof agrees with the node's proof on every earlier read, so this is the
    proof from the goal, step for step.  A node keeps the program's key from
    `keys` (each world key to itself), not each proof's fresh copy of it.

    A node at a key in `fixed` keeps no snapshot: this walk follows one value
    there, so the node would never fill and free it.  A later walk that fixes
    another value proves that branch from the goal, in the world of its
    path's reads, which is the same proof, step for step."""
    def extend(start, path):
        read = _reads(path)
        marks = {}
        ok = holds_in_world(prog, goal, {**default, **fixed, **read}, read, marks, start)
        return ok, [(keys[k], read[k], None if k in fixed else snap) for k, snap in marks.items()]

    return _walk(trie, prog, goal, fixed, extend)


def exact_conditional_worlds(prog: Program, query, evidence) -> ExactResult:
    """Exact ExactResult for cond(query | evidence) by summing over complete
    worlds, grouped by the read paths of the world prover (`_world_walk`).

    Each goal keeps one read trie for the call.  The evidence's leaves are
    summed, and below each evidence success the query's leaves that agree
    with the evidence's reads, each joint term the product of the two
    masses, so the query's trie grows only along the evidence's read paths.
    A proof that raises ends the call.  `leaf_count` is the number of leaves
    summed, which is the tree route's.
    """
    keys = {key: key for key in world_universe(prog)}
    default = {key: prog.switch_info(key[0]).outcomes[0] for key in keys}
    q_trie = {}
    p_e = []
    p_qe = []
    leaf_count = 0
    for e_ok, mass_e, path in _world_walk({}, prog, evidence, {}, default, keys):
        leaf_count += 1
        if not e_ok:
            continue
        p_e.append(mass_e)
        for q_ok, mass_q, _path in _world_walk(q_trie, prog, query, _reads(path), default, keys):
            leaf_count += 1
            if q_ok:
                p_qe.append(mass_e * mass_q)
    return _exact_result(p_e, p_qe, leaf_count, evidence)
