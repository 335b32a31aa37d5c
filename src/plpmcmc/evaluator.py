"""First-derivation resolution engine threading an assignment and a trace.

Two entry points share one resolution loop, `run_first`, which differs
between them only in how `msw` goals and alternatives are handled:

- `sample_eval`: depth-first, left-to-right, textual-clause-order evaluation
  to the *first* derivation.  `msw(s,i,v)` goals consult the assignment; a
  fresh instance is sampled once and then frozen for the rest of the call,
  even across backtracking.  Every msw access (fresh or lookup, duplicates
  included) is recorded in the trace.  The returned assignment holds exactly
  the entries touched by this call.

- `initial_sample`: a randomized backtracking *search* for one derivation of
  the evidence.  Clause order and switch-outcome order are shuffled per choice
  point, and switch outcomes are revised on backtracking — this explores
  worlds rather than sampling one.  The switch bindings of the derivation
  found are returned as the initial chain state.

The engine is iterative (explicit goal stack, choicepoint stack and binding
trail) so deep derivations do not hit Python's recursion limit.  Programs are
compiled once into goal nodes (see "Compiled goals" below), and this module is
the only one that knows that format: `lang.Clause` keeps the parsed head and
body terms, and `_compile_clause` turns them into templates in which each
clause variable is a `Slot`, an index into the clause's frame, and heads into
match instructions.  Clause selection uses first-argument indexing, which
skips exactly the clauses whose head would fail to match, so derivation
order is unchanged.

Evaluation tries: for a fixed goal the engine is deterministic given the
value each switch instance takes at its first consult, so `sample_eval`
keeps, per program and goal, a trie of the consult paths it has run (see
"Evaluation tries" below).  A call whose path is in the trie walks it, taking
each value from the assignment or drawing it exactly as the engine would,
and returns the stored outcome without resolving anything; only a new path
runs `run_first`, resumed from the checkpoint its nodes keep where the path
leaves the trie.  The trie depends neither on the assignment nor on any
probabilities, so plain and adaptive chains and the independent sampler all
share it; it is cached beside the compiled clause tables, cleared with them
by `Program.add_clause`, and cleared when it reaches `MEMO_NODE_CAP` nodes.
The tree oracle calls `run_first` directly, resumed from the checkpoints of
its own per-call trie, and never reads this one.

Assignments: an assignment is a plain dict `{(switch, instance): outcome}`
whose keys and values are ground terms.  It stands for the set of possible
worlds that agree with it, and is the state of the MCMC chain.  Insertion
order is preserved by Python dicts, which keeps runs bit-reproducible for a
fixed seed.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import NamedTuple

from .lang import Program, PlpError, Var, is_ground, term_to_str

DEFAULT_STEP_LIMIT = 10**6


class EvalError(PlpError):
    """Runtime evaluation problem: unknown predicate, unbound goal, ..."""


class StepLimitExceeded(EvalError):
    """The resolution step budget ran out (possibly infinite SLD tree)."""


class UnsatisfiableEvidence(EvalError):
    """The evidence has no derivation in any world."""


class EvalResult(NamedTuple):
    success: bool
    assignment: dict
    trace: list


class Cell:
    """Mutable binding cell for engine variables (trail-undone on backtrack)."""

    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None

    def __repr__(self):
        return f"<cell {id(self):#x}>" if self.ref is None else repr(self.ref)


class Slot:
    """Placeholder for a clause variable in a compiled clause template."""

    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i

    def __repr__(self):
        return f"_S{self.i}"


def _deref(t):
    while type(t) is Cell:
        r = t.ref
        if r is None:
            return t
        t = r
    return t


def _occurs(cell, t):
    stack = [t]
    while stack:
        u = _deref(stack.pop())
        if u is cell:
            return True
        if type(u) is tuple:
            stack.extend(u[1:])
    return False


def _unify(a, b, trail):
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        while type(x) is Cell and x.ref is not None:
            x = x.ref
        while type(y) is Cell and y.ref is not None:
            y = y.ref
        if x is y:
            continue
        if type(x) is Cell:
            if type(y) is tuple and _occurs(x, y):
                return False
            x.ref = y
            trail.append(x)
            continue
        if type(y) is Cell:
            if type(x) is tuple and _occurs(y, x):
                return False
            y.ref = x
            trail.append(y)
            continue
        if type(x) is tuple:
            if type(y) is not tuple or len(x) != len(y) or x[0] != y[0]:
                return False
            stack.extend(zip(x[1:], y[1:]))
            continue
        if x == y and type(x) is type(y):
            continue
        return False
    return True


def _match(t, x, frame, trail, fresh):
    """Unify the clause-head template `t` with the runtime term `x` without
    instantiating `t` first (see "Compiled goals" below).  With `fresh`, no
    variable of `t` occurs twice in the head."""
    stack = [(t, x)]
    while stack:
        t, x = stack.pop()
        while type(x) is Cell and x.ref is not None:
            x = x.ref
        tt = type(t)
        if tt is Slot:
            v = frame[t.i]
            if v is None:
                frame[t.i] = x
                continue
            if _unify(x, v, trail):
                continue
        elif type(x) is Cell:
            b = _build_fill(t, frame)
            if fresh or type(b) is not tuple or not _occurs(x, b):
                x.ref = b
                trail.append(x)
                continue
        elif tt is tuple:
            if type(x) is tuple and len(x) == len(t) and x[0] == t[0]:
                stack.extend(zip(t[1:], x[1:]))
                continue
        elif x == t and type(x) is type(t):
            continue
        return False
    return True


def _build_fill(t, frame):
    """Instantiate a clause template; slots not yet bound get fresh cells.
    Built on an explicit stack, so a long list does not recurse."""
    tt = type(t)
    if tt is Slot:
        v = frame[t.i]
        if v is None:
            v = frame[t.i] = Cell()
        return v
    if tt is not tuple:
        return t
    stack = []
    args = [t[0]]
    k = 1
    while True:
        n = len(t)
        while k < n:
            a = t[k]
            ta = type(a)
            if ta is Slot:
                v = frame[a.i]
                if v is None:
                    v = frame[a.i] = Cell()
                args.append(v)
            elif ta is tuple:
                break
            else:
                args.append(a)
            k += 1
        else:
            g = tuple(args)
            if not stack:
                return g
            t, args = stack.pop()
            args.append(g)
            k = len(args)
            continue
        stack.append((t, args))
        t = a
        args = [a[0]]
        k = 1


def _ground(t, frame=None):
    """The ground term `t` denotes, its clause variables read through `frame`
    and its cells dereferenced, or None when a variable in it is unbound; `t`
    itself when nothing in it is rewritten.  One pass on an explicit stack of
    (term, args so far, rewritten) frames, so a long list does not recurse."""
    tt = type(t)
    if tt is Slot:
        t = frame[t.i]
        tt = type(t)
    while tt is Cell:
        t = t.ref
        tt = type(t)
    if tt is not tuple:
        return t
    stack = []
    args = [t[0]]
    rewritten = False
    k = 1
    while True:
        n = len(t)
        while k < n:
            a = t[k]
            ta = type(a)
            if ta is Slot:
                a = frame[a.i]
                ta = type(a)
            while ta is Cell:
                a = a.ref
                ta = type(a)
            if ta is tuple:
                break
            if a is None:
                return None
            if a is not t[k]:
                rewritten = True
            args.append(a)
            k += 1
        else:
            g = tuple(args) if rewritten else t
            if not stack:
                return g
            t, args, rewritten = stack.pop()
            if g is not t[len(args)]:
                rewritten = True
            args.append(g)
            k = len(args)
            continue
        stack.append((t, args, rewritten))
        t = a
        args = [a[0]]
        rewritten = False
        k = 1


def _undo(trail, mark):
    while len(trail) > mark:
        trail.pop().ref = None


# ---------------------------------------------------------------------------
# Compiled goals
# ---------------------------------------------------------------------------
#
# The engine does not build body goals when a clause is entered.  Clause
# bodies are compiled once per program into goal nodes, and the goal list
# holds (node, frame, rest) triples: a body goal is read out of its clause's
# frame only when it is selected.  A call node resolves its arguments once
# (`xs`), and every candidate clause head is matched against them; a head of
# distinct variables, the common case, is matched by copying `xs` into the new
# frame.  A frame entry that is first filled after the frame was made always
# holds a fresh cell, so a frame revisited after backtracking still reads as
# the clause's variables did at that point.  No term walker recurses.  The
# compiler also records what it knows, and the loop relies on it:
#
# - Head instructions (the WAM's get_variable / get_value split, Warren
#   1983).  A head variable at its first occurrence takes its `xs` entry with
#   no cell, since the frame is new; a later one is unified with it.  A
#   ground argument binds an unbound cell with no occurs check, since it holds
#   no cell.  `_match` matches any other compound in place: a variable with
#   an empty frame entry takes the subterm it meets, and an unbound cell
#   takes its part of the argument as `_build_fill` makes it, with no occurs
#   check if every variable of the argument occurs once in the head (the part
#   then holds only new cells).  So walking a ground list is linear.
# - Constant call keys: a fixed first argument (no clause variable or cell
#   in it) is looked up in the index as it is, without `_ground`.
# - Index-matched heads: the plain map of an index drops the first-argument
#   instruction of the exact matches whose argument is plain (every leaf a
#   str or an int).  Plain keys read it, as for plain terms `==` is
#   `_unify`; others (a float or a bool against an int) read the full map.
#   At run time only an atom or an int is taken as plain.
# - Direct switch keys: an msw whose switch name is f(fixed terms and clause
#   variables) and whose instance is fixed reads its key from the frame
#   entries it names; an msw value that is a clause variable is bound
#   without being built.
# - Ground constants: the compiled code keeps the ids of the compound
#   subterms of its fixed arguments (and so keeps them alive), and a run
#   those of its goal's, so the search knows them ground without a walk.

_CALL, _MSW, _CONJ, _DISJ, _TRUE, _VAR, _INVALID = range(7)
_TRUE_NODE = (_TRUE,)

# How a call node reads one argument, and how an msw node reads its value: a
# term without clause variables or cells, a clause variable (its frame
# index), or a term to instantiate.
_ARG_CONST, _ARG_SLOT, _ARG_BUILD = range(3)

# Head instructions; ops from _H_ATOM on read a ground argument.
_H_FIRST, _H_NEXT, _H_MATCH, _H_FRESH, _H_ATOM, _H_FIXED = range(6)

# `_fixed` of a plain term: for two of them `==` is `_unify`.
_PLAIN = 2


def _fixed(t, ground_ids=None):
    """0 when `t` holds a clause variable or an engine cell; else _PLAIN when
    every leaf is a str or an int, and 1 otherwise.  The ids of a fixed
    term's compound subterms go into `ground_ids`, when given."""
    ids = []
    fixed = _PLAIN
    stack = [t]
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is tuple:
            ids.append(id(t))
            stack.extend(t[1:])
        elif tt is Slot or tt is Cell:
            return 0
        elif tt is not str and tt is not int:
            fixed = 1
    if ids and ground_ids is not None:
        ground_ids.update(ids)
    return fixed


def _compile_goal(t, entries, ground_ids=None):
    """Goal node for a body-goal template or a runtime goal term."""
    tt = type(t)
    if tt is Slot or tt is Cell:
        return (_VAR, t)
    if tt is str:
        if t == "true":
            return _TRUE_NODE
        return (_CALL, entries.get((t, 0)), (t, 0), (), None)
    if tt is not tuple:
        return (_INVALID, t)
    f = t[0]
    n = len(t) - 1
    if f == "msw" and n == 3:
        s, i, v = t[1], t[2], t[3]
        skey = spos = None
        if _fixed(i):
            if _fixed(s):
                skey = (s, i)
            elif type(s) is tuple and all(type(a) is Slot or _fixed(a) for a in s):
                spos = tuple((k, a.i) for k, a in enumerate(s) if type(a) is Slot)
        atom = type(v) is not tuple and _fixed(v)
        vmode = _ARG_SLOT if type(v) is Slot else _ARG_CONST if atom else _ARG_BUILD
        return (_MSW, s, i, v, skey, vmode, spos)
    if f == "," or f == ";":
        sub = [_compile_goal(g, entries, ground_ids) for g in t[1:]]
        return (_CONJ if f == "," else _DISJ, *sub)
    aspec = []
    kmap = None  # the index map a fixed first argument reads (see above)
    for a in t[1:]:
        if type(a) is Slot:
            aspec.append((_ARG_SLOT, a.i))
        elif fixed := _fixed(a, ground_ids):
            aspec.append((_ARG_CONST, a))
            if len(aspec) == 1:
                kmap = 0 if fixed == _PLAIN else 3
        else:
            aspec.append((_ARG_BUILD, a))
    return (_CALL, entries.get((f, n)), (f, n), tuple(aspec), kmap)


def _compile_clause(c, entries, ground_ids):
    """(code, the first head argument when it is ground or None, the code a
    plain call key equal to that argument runs), where code is (head ops,
    variable count, reversed body nodes, padding).

    The clause's variables become Slots numbered in order of first
    occurrence, head first.  The padding is set only for heads whose
    arguments are distinct variables: those are numbered 0..arity-1 in order,
    so the frame is the call's arguments followed by the padding."""
    slots = {}
    hits = []  # the Slot of every variable occurrence, in template order

    def template(t):
        # Pre-order walk, so Slots are numbered left to right; a list holding
        # a compound term marks where its converted arguments are collected.
        out = []
        stack = [t]
        while stack:
            t = stack.pop()
            if type(t) is tuple:
                stack.append([t])
                stack.extend(reversed(t[1:]))
            elif type(t) is Var:
                if t not in slots:
                    slots[t] = Slot(len(slots))
                out.append(slots[t])
                hits.append(slots[t])
            elif type(t) is list:
                k = len(out) - len(t[0]) + 1
                out[k:] = [(t[0][0], *out[k:])]
            else:
                out.append(t)
        return out[0]

    hargs = []
    ends = [0]  # hits[ends[k]:ends[k + 1]] are head argument k's occurrences
    for a in c.head[1:] if type(c.head) is tuple else ():
        hargs.append(template(a))
        ends.append(len(hits))
    ops = []
    key = plain = twice = None
    for k, a in enumerate(hargs):
        if type(a) is Slot:
            ops.append((k, _H_NEXT if a in hits[:ends[k]] else _H_FIRST, a.i))
        elif fixed := _fixed(a, ground_ids):
            ops.append((k, _H_FIXED if type(a) is tuple else _H_ATOM, a))
            if k == 0:
                key, plain = a, fixed == _PLAIN
        else:
            if twice is None:  # the head's repeated variables
                twice = {s for s, n in Counter(hits).items() if n > 1}
            fresh = twice.isdisjoint(hits[ends[k]:ends[k + 1]])
            ops.append((k, _H_FRESH if fresh else _H_MATCH, a))
    body = [template(b) for b in c.body]
    nvars = len(slots)
    flat = all(type(a) is Slot and a.i == k for k, a in enumerate(hargs))
    pad = [None] * (nvars - len(hargs)) if flat else None
    body = tuple(_compile_goal(b, entries, ground_ids) for b in reversed(body))
    code = (tuple(ops), nvars, body, pad)
    return code, key, (tuple(ops[1:]), nvars, body, pad) if plain else code


def _compiled(prog: Program):
    """(per-predicate [clauses, first-arg index] entries, ground constant
    ids, compiled goals), cached on the program until `Program.add_clause`
    clears them.  The compiled goals map a goal to (that goal object, its
    node, its ground ids); an equal goal of another object, such as 1.0 for
    1, is compiled again.

    Call nodes hold their predicate's entry (None for an unknown predicate).
    The index is (plain map, generic, flag, map).  Both maps take each ground
    first argument appearing in some clause head to the clauses able to match
    it -- exact matches merged with clauses whose first head argument is
    non-ground, in textual order -- the plain map with the exact matches'
    plain first arguments dropped.  The generic fallback serves arguments
    matching no ground head, and the flag says whether any ground key is
    compound.  Predicates with no ground first argument anywhere get no index
    (lookups would be pure overhead).
    """
    code = prog._engine_code
    if code is None:
        ground_ids = set()
        entries = {key: [(), None] for key in prog.clauses}
        for key, clauses in prog.clauses.items():
            keyed = [_compile_clause(c, entries, ground_ids) for c in clauses]
            index = None
            if key[1] > 0 and len(keyed) > 1:
                ground_keys = {k for _, k, _ in keyed if k is not None}
                if ground_keys:
                    generic = tuple(cc for cc, k, _ in keyed if k is None)
                    index = ({}, generic, any(type(gk) is tuple for gk in ground_keys), {})
                    for gk in ground_keys:
                        able = [c for c in keyed if c[1] is None or c[1] == gk]
                        index[0][gk] = tuple(c[2] for c in able)
                        index[3][gk] = tuple(c[0] for c in able)
            entries[key][:] = (tuple(c[0] for c in keyed), index)
        code = prog._engine_code = (entries, ground_ids, {})
    return code


# ---------------------------------------------------------------------------
# The resolution loop
# ---------------------------------------------------------------------------

# First element of a choicepoint over a searched switch's outcomes.
_SWITCH_CP = "msw"


def _detach(opened, trail, mark, run):
    """Before backtracking unbinds `trail` above `mark`, give the open
    checkpoints and trail records that read it there a record of those
    bindings, based on the first `mark` of the run's own record `run`."""
    cells = trail[mark:opened[-1][2]]
    part = [cells, [c.ref for c in cells], mark, run]
    while opened and opened[-1][2] > mark:
        opened.pop()[-1] = part
    opened.append(part)


def _restore(record, n):
    """Bind the first `n` bindings of a trail record again; their cells, in
    trail order.  A record is [cells, values, base length, base]: the first
    base length bindings of the base record, then its own."""
    parts = []
    while record is not None:
        cells, values, start, record = record
        if n > start:
            parts.append((cells[:n - start], values))
            n = start
    trail = []
    for cells, values in reversed(parts):
        for c, v in zip(cells, values):
            c.ref = v
        trail += cells
    return trail


def run_first(prog: Program, goal, assignment, picker,
              step_limit=DEFAULT_STEP_LIMIT, shuffle=None, steps_out=None,
              checkpoints=None, resume=None):
    """Evaluate `goal` depth-first, left to right, to its first derivation; the
    raw engine behind both entry points.

    Without `shuffle`, a switch instance takes its value from the output
    assignment, else from the input `assignment`, else from `picker(key)`, and
    keeps it for the rest of the call, backtracking included; every consult is
    traced.  With `shuffle` (an rng's shuffle method) the loop searches
    instead: alternative clauses, disjunction branches and a fresh switch's
    positive-probability outcomes are tried in shuffled order, and switch
    bindings are undone on backtracking.  Returns (success, assignment, trace).

    `steps_out`, a list, receives the step count at each switch instance's
    first consult and then the final step count (without `shuffle` only).
    `checkpoints`, a list, receives a checkpoint [goals, choicepoints, trail
    length, trace length, trail record] at each first consult.  A run given
    `resume`, (sigma, trace, steps, goals, choicepoints, trail length, trail
    record), restarts at such a consult, with the sigma, trace and step
    count the run had there; it must take `checkpoints` too, and its
    `steps_out` must hold the steps of the consults before it (see
    "Evaluation tries" below).
    """
    entries, ground_ids, goal_code = _compiled(prog)
    switch_info = prog.switch_info
    code = goal_code.get(goal)
    if code is None or code[0] is not goal:
        goal_ids = set()  # the ground ids of the goal's own fixed arguments
        code = goal_code[goal] = (goal, _compile_goal(goal, entries, goal_ids), goal_ids)
    goal_ids = code[2]
    atrail = []  # switch keys the search bound, in binding order
    # Choicepoints form a linked stack (top, rest of the stack).  Each ends
    # with the trail and atrail marks to undo to, and begins with (clauses,
    # next index, call args, rest) for a call, (None, goals) for the other
    # branch of a disjunction, or (_SWITCH_CP, key, value term, outcomes,
    # next index, rest) for a searched switch.
    if resume is None:
        sigma, trace, trail, cps, steps = {}, [], [], None, 0
        goals = (code[1], None, None)
    else:
        sigma, trace, steps, goals, cps, mark, record = resume
        trail = _restore(record, mark)
    run = [trail, None, 0, None]  # its bindings are sealed when the run ends
    opened = []  # the checkpoints and records that read `trail`, by length

    try:
        while True:
            if goals is None:
                if steps_out is not None:
                    steps_out.append(steps)
                return True, sigma, trace
            node, frame, rest = goals
            steps += 1
            if steps > step_limit:
                what = "evaluation" if shuffle is None else "initial-sample search"
                raise StepLimitExceeded(f"{what} exceeded {step_limit} steps")
            kind = node[0]
            if kind == _CALL:
                entry = node[1]
                if entry is None:
                    key = node[2]
                    raise EvalError(f"unknown predicate {key[0]}/{key[1]}")
                cl, index = entry
                xs = []
                for mode, a in node[3]:
                    if mode == _ARG_SLOT:
                        x = frame[a]
                        if x is None:
                            x = frame[a] = Cell()
                        else:
                            while type(x) is Cell:
                                r = x.ref
                                if r is None:
                                    break
                                x = r
                        xs.append(x)
                    elif mode == _ARG_CONST:
                        xs.append(a)
                    else:
                        xs.append(_build_fill(a, frame))
                if index is not None:
                    x0 = xs[0]
                    if node[4] is not None:  # a constant call key
                        cl = index[node[4]].get(x0, index[1])
                    elif type(x0) is tuple and not index[2] and (
                        shuffle is None or id(x0) in ground_ids or id(x0) in goal_ids
                    ):
                        # No ground head key is compound, so only the generic
                        # clauses can match; a head that the full list adds
                        # fails to unify, so the derivation is the same.  The
                        # search shuffles the full list for a non-ground
                        # argument, so it takes this path only for a term it
                        # knows to be ground, and asks `_ground` otherwise.
                        cl = index[1]
                    else:
                        k1 = _ground(x0)
                        if k1 is not None:
                            tk = type(k1)
                            cl = index[0 if tk is str or tk is int else 3].get(k1, index[1])
                if shuffle is not None and len(cl) > 1:
                    cl = list(cl)
                    shuffle(cl)
                ci = 0
                tl = len(trail)
                am = len(atrail)
            elif kind == _MSW:
                skey = node[4]
                if skey is None:
                    if node[6] is None:
                        s = _ground(node[1], frame)
                    else:
                        s = list(node[1])
                        for k, j in node[6]:
                            x = frame[j]
                            while type(x) is Cell:
                                x = x.ref
                            s[k] = _ground(x) if type(x) is tuple else x
                        s = None if None in s else tuple(s)
                    if s is None:
                        raise EvalError("msw switch name is not ground")
                    inst = _ground(node[2], frame)
                    if inst is None:
                        raise EvalError("msw instance is not ground")
                    skey = (s, inst)
                else:
                    s = node[1]
                    inst = node[2]
                v = sigma.get(skey)
                if v is None and shuffle is not None:
                    # Branch over the outcomes: push them and fail into the
                    # choicepoint.
                    info = switch_info(s)
                    outs = [o for o, p in zip(info.outcomes, info.probs) if p > 0.0]
                    if len(outs) > 1:
                        shuffle(outs)
                    vt = node[3] if frame is None else _build_fill(node[3], frame)
                    cps = ((_SWITCH_CP, skey, vt, outs, 0, rest, len(trail), len(atrail)), cps)
                    cl = ()
                    ci = 0
                else:
                    if v is None:
                        if checkpoints is not None:
                            ck = [goals, cps, len(trail), len(trace), run]
                            checkpoints.append(ck)
                            opened.append(ck)
                        v = assignment.get(skey)
                        if v is None:
                            v = picker(skey)
                        sigma[skey] = v
                        if steps_out is not None:
                            steps_out.append(steps)
                    trace.append((s, inst, v))
                    vt = node[3]
                    vmode = node[5]
                    if vmode == _ARG_CONST:
                        if v == vt and type(v) is type(vt):
                            goals = rest
                            continue
                    elif vmode == _ARG_SLOT:
                        x = frame[vt.i]
                        if x is None:
                            x = frame[vt.i] = Cell()
                        while type(x) is Cell and x.ref is not None:
                            x = x.ref
                        if type(x) is Cell:
                            x.ref = v
                            trail.append(x)
                            x = v
                        if x is v or _unify(x, v, trail):
                            goals = rest
                            continue
                    elif _unify(vt if frame is None else _build_fill(vt, frame), v, trail):
                        goals = rest
                        continue
                    cl = ()
                    ci = 0
            elif kind == _CONJ:
                goals = (node[1], frame, (node[2], frame, rest))
                continue
            elif kind == _DISJ:
                first, second = node[1], node[2]
                if shuffle is not None:
                    order = [first, second]
                    shuffle(order)
                    first, second = order
                cps = ((None, (second, frame, rest), len(trail), len(atrail)), cps)
                goals = (first, frame, rest)
                continue
            elif kind == _TRUE:
                goals = rest
                continue
            elif kind == _VAR:
                # A goal held in a variable: select the term it is bound to, in
                # the same resolution step.
                g = node[1]
                if type(g) is Slot:
                    g = frame[g.i]
                g = _deref(g)
                if g is None or type(g) is Cell:
                    raise EvalError("unbound goal")
                goals = (_compile_goal(g, entries), None, rest)
                steps -= 1
                continue
            else:
                raise EvalError(f"invalid goal: {node[1]!r}")

            # Try the clauses cl[ci:] against the call arguments xs; when they run
            # out, resume the most recent choicepoint.
            while True:
                n = len(cl)
                while ci < n:
                    ops, nvars, body, pad = cl[ci]
                    ci += 1
                    if pad is not None:
                        frame = xs + pad
                    else:
                        frame = [None] * nvars if nvars else None
                        ok = True
                        for k, op, t in ops:
                            x = xs[k]
                            while type(x) is Cell and x.ref is not None:
                                x = x.ref
                            if op == _H_FIRST:
                                frame[t] = x
                                continue
                            if op >= _H_ATOM:
                                if type(x) is Cell:
                                    # a ground argument cannot hold the cell
                                    x.ref = t
                                    trail.append(x)
                                    continue
                                if op == _H_ATOM:
                                    if x == t and type(x) is type(t):
                                        continue
                                elif _unify(t, x, trail):
                                    continue
                            elif op == _H_NEXT:
                                if _unify(x, frame[t], trail):
                                    continue
                            elif _match(t, x, frame, trail, op == _H_FRESH):
                                continue
                            ok = False
                            break
                        if not ok:
                            _undo(trail, tl)
                            continue
                    if ci < n:
                        cps = ((cl, ci, xs, rest, tl, am), cps)
                    goals = rest
                    for b in body:
                        goals = (b, frame, goals)
                    break
                else:
                    if cps is None:
                        if steps_out is not None:
                            steps_out.append(steps)
                        return False, sigma, trace
                    cp, cps = cps
                    tl = cp[-2]
                    if opened and opened[-1][2] > tl:
                        _detach(opened, trail, tl, run)
                    _undo(trail, tl)
                    am = cp[-1]
                    while len(atrail) > am:
                        del sigma[atrail.pop()]
                    head = cp[0]
                    if head is None:
                        goals = cp[1]
                        break
                    if head is not _SWITCH_CP:
                        cl, ci, xs, rest, tl, am = cp
                        continue
                    _, skey, vt, outs, oi, rest, tl, am = cp
                    n = len(outs)
                    while oi < n:
                        v = outs[oi]
                        oi += 1
                        if _unify(vt, v, trail):
                            break
                        _undo(trail, tl)
                    else:
                        cl = ()
                        ci = 0
                        continue
                    if oi < n:
                        cps = ((_SWITCH_CP, skey, vt, outs, oi, rest, tl, am), cps)
                    sigma[skey] = v
                    atrail.append(skey)
                    goals = rest
                    break
                break
    finally:
        if checkpoints is not None:
            run[0] = trail[:opened[-1][2]] if opened else []
            run[1] = [c.ref for c in run[0]]
            for c in trail:
                c.ref = None


# ---------------------------------------------------------------------------
# Evaluation tries
# ---------------------------------------------------------------------------
#
# For a fixed goal, a `sample_eval` run is a function of the values its
# switch instances take at their first consults.  Each goal's runs so far are
# kept in a trie: an internal node is a list [key, steps, children,
# checkpoint...] naming the switch instance consulted first at that point and
# the step count there, with children keyed by the value consulted; a leaf is
# a tuple (success, trace as indices into the path of consulted keys, final
# step count).
#
# Checkpoints (Schulte's recomputation from a copy, Schulte 1999).  At each
# first consult `run_first` records the engine state there: the goal list
# (persistent (node, frame, rest) triples), the choicepoints (a persistent
# linked stack), the trail length, the trace length and the run's trail
# record; the node the consult creates keeps it, flattened into node[3:8]
# (node[3] is None for a node without one).  A miss walks its path again and
# resumes from the deepest checkpoint on it: the path gives the sigma and
# step counts of the consults before it, and any leaf below it the trace
# there, as every run through a node has the same trace up to it.  What makes
# a checkpoint sound:
#
# - Every binding is trailed, and cells are bound only while a run is live:
#   each run that records or resumes checkpoints unbinds every cell it bound
#   when it returns and when it raises.
# - A frame entry that is filled after the frame was made holds a fresh cell
#   (see "Compiled goals"), so an entry that was None at the checkpoint and
#   now holds an unbound cell reads the same.
# - A restore binds the checkpoint's trail prefix to its recorded values.
#
# So checkpoints stay cheap: a run's trail and its bindings are one record,
# shared by all its checkpoints and sealed when the run ends (trimmed to its
# last checkpoint).  Backtracking below a checkpoint's trail length first
# gives it a record of just the bindings it undoes, based on the run's own
# record (`_detach`); `_restore` reads a record back.

# A program's tries are cleared before an insertion once they hold this many
# nodes in all.  Their checkpoints count against it too: a checkpoint counts
# one node and the trail record it keeps one per 8 bindings, and once they
# count more than a third of it, the oldest runs' checkpoints are dropped.
MEMO_NODE_CAP = 20_000


class _Memo:
    """A program's tries by goal, each as (the goal object it was built for,
    its root), their node count, and the count and the nodes of each run's
    checkpoints, oldest first.  An equal goal of another object, such as 1.0
    for 1, reads the trie only if it prints the same."""

    __slots__ = ("tries", "nodes", "held", "runs")

    def __init__(self):
        self.tries = {}
        self.nodes = 0
        self.held = 0
        self.runs = deque()


def _insert(memo, goal, root, ok, sigma, trace, steps_out, checkpoints):
    """Add the path of one finished run to the goal's trie, at `root`."""
    pos = {}
    owner = top = {None: root}  # the dict that holds `node`, under the key `last`
    last = None
    node = root
    held = []  # the new nodes that keep a checkpoint
    records = {}  # and the trail records those keep
    for j, (key, v) in enumerate(sigma.items()):
        pos[key] = j
        if node is None:
            ck = checkpoints[j]
            node = owner[last] = [key, steps_out[j], {}, *(ck or (None,))]
            memo.nodes += 1
            if ck is not None:
                held.append(node)
                record = ck[4]
                while record is not None and id(record) not in records:
                    records[id(record)] = len(record[0])
                    record = record[3]
        owner = node[2]
        last = v
        node = owner.get(v)
    owner[last] = (ok, tuple([pos[(t[0], t[1])] for t in trace]), steps_out[-1])
    memo.nodes += 1
    memo.tries[goal] = (goal, top[None])
    if held:
        count = len(held) + sum(records.values()) // 8
        memo.runs.append((count, held))
        memo.held += count
        while memo.held > MEMO_NODE_CAP // 3:
            count, held = memo.runs.popleft()
            for node in held:
                node[3:] = (None,)
            memo.held -= count


def sample_outcome(outcomes, probs, rng):
    """One categorical draw using a single rng.random() and a CDF walk."""
    r = rng.random()
    acc = 0.0
    for k in range(len(outcomes) - 1):
        acc += probs[k]
        if r < acc:
            return outcomes[k]
    return outcomes[-1]


def _draw(prog, key, dist, rng):
    """A fresh switch instance's value, drawn as `sample_eval` documents."""
    if rng is None:
        raise EvalError(
            f"fresh switch instance {term_to_str(key[0])}/{term_to_str(key[1])}"
            " encountered but no rng was provided"
        )
    info = prog.switch_info(key[0])
    probs = info.probs if dist is None else dist(key[0], key[1], info)
    return sample_outcome(info.outcomes, probs, rng)


def _evaluation_over(step_limit):
    return StepLimitExceeded(f"evaluation exceeded {step_limit} steps")


def sample_eval(
    prog: Program,
    goal,
    assignment,
    dist=None,
    rng=None,
    step_limit=DEFAULT_STEP_LIMIT,
) -> EvalResult:
    """Evaluate a ground goal against an assignment, sampling fresh switches.

    `dist` is an optional distribution source `(s, i, info) -> probs` (for
    adapted proposals); the declared distribution is used when it is None.
    With `rng=None` a fresh switch instance raises EvalError, which makes the
    call a deterministic replay against the given assignment.

    The goal's trie is walked first: each node's key takes its value from
    `assignment`, else is drawn, in the order and with the draws `run_first`
    would make, and the step limit is checked where `run_first` would raise.
    A path the trie does not hold yet resumes `run_first` from the deepest
    checkpoint on it, on `assignment` merged with the values drawn so far,
    and is then added; a run that raises is not.
    """
    memo = prog._engine_memo
    if memo is None:
        memo = prog._engine_memo = _Memo()
    node = memo.tries.get(goal)
    if node is not None:
        node = node[1] if node[0] is goal or repr(node[0]) == repr(goal) else None
    root = node
    if node is None and not is_ground(goal):
        raise EvalError(f"goal must be ground: {term_to_str(goal)}")

    sigma = {}
    items = []
    get = assignment.get
    while type(node) is list:
        key = node[0]
        v = get(key)
        if v is None:
            if node[1] > step_limit:
                raise _evaluation_over(step_limit)
            v = _draw(prog, key, dist, rng)
        sigma[key] = v
        items.append((key[0], key[1], v))
        node = node[2].get(v)
    if node is not None:
        if node[2] > step_limit:
            raise _evaluation_over(step_limit)
        return EvalResult(node[0], sigma, [items[k] for k in node[1]])

    steps_out = []
    checkpoints = []
    resume = None
    if sigma:
        merged = dict(assignment)
        merged.update(sigma)
        assignment = merged
        # Walk the path again, to resume from its deepest checkpoint.
        node, path = root, []
        for v in sigma.values():
            path.append(node)
            node = node[2].get(v)
        while path and path[-1][3] is None:
            path.pop()
        if path:
            node = leaf = path.pop()
            while type(leaf) is list:  # its trace starts as every run's here
                leaf = next(iter(leaf[2].values()))
            steps_out = [n[1] for n in path]
            checkpoints = [None] * len(path)
            resume = (
                {n[0]: sigma[n[0]] for n in path}, [items[k] for k in leaf[1][:node[6]]],
                node[1] - 1, node[3], node[4], node[5], node[7],
            )
    ok, sigma, trace = run_first(
        prog, goal, assignment, lambda key: _draw(prog, key, dist, rng),
        step_limit, steps_out=steps_out, checkpoints=checkpoints, resume=resume,
    )
    if memo.nodes >= MEMO_NODE_CAP:
        memo = prog._engine_memo = _Memo()
        root = None
    _insert(memo, goal, root, ok, sigma, trace, steps_out, checkpoints)
    return EvalResult(ok, sigma, trace)


# ---------------------------------------------------------------------------
# Randomized backtracking search for an evidence-consistent assignment
# ---------------------------------------------------------------------------


def initial_sample(prog: Program, evidence, rng, step_limit=DEFAULT_STEP_LIMIT):
    """Find one derivation of `evidence` with shuffled clause/outcome order and
    return the switch bindings it used.  Raises UnsatisfiableEvidence when the
    search exhausts every branch."""
    if not is_ground(evidence):
        raise EvalError(f"evidence must be ground: {term_to_str(evidence)}")
    ok, sigma, _trace = run_first(prog, evidence, {}, None, step_limit, shuffle=rng.shuffle)
    if not ok:
        raise UnsatisfiableEvidence(
            f"evidence {term_to_str(evidence)} has no derivation in any world"
        )
    return sigma
