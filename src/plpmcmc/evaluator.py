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
clause variable is a `Slot`, an index into the clause's frame; one unifier,
`_unify`, serves both runtime terms and clause heads.  Clause selection uses
first-argument indexing: for a ground first argument only the clauses that
could match it are tried, in textual order.  Skipped clauses are exactly
those whose head unification would have failed, so derivation order is
unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

from .lang import Program, PlpError, Var, is_ground, term_to_str
from .worlds import sample_outcome

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


def _build_fill(t, frame):
    """Instantiate a clause template; slots not yet bound get fresh cells."""
    tt = type(t)
    if tt is Slot:
        v = frame[t.i]
        if v is None:
            v = frame[t.i] = Cell()
        return v
    if tt is not tuple:
        return t
    n = len(t)
    if n == 2:
        return (t[0], _build_fill(t[1], frame))
    if n == 3:
        return (t[0], _build_fill(t[1], frame), _build_fill(t[2], frame))
    return (t[0],) + tuple(_build_fill(a, frame) for a in t[1:])


def _ground(t, frame=None):
    """The ground term `t` denotes, its clause variables read through `frame`,
    or None when a variable in it is unbound.  `t` itself is returned when
    nothing in it needs rewriting."""
    tt = type(t)
    if tt is Slot:
        t = frame[t.i]
        tt = type(t)
    while tt is Cell:
        t = t.ref
        tt = type(t)
    if tt is not tuple:
        return t
    args = [t[0]]
    same = True
    for a in t[1:]:
        ta = type(a)
        if ta is tuple or ta is Slot or ta is Cell:
            g = _ground(a, frame)
            if g is None:
                return None
            if g is not a:
                same = False
            a = g
        args.append(a)
    return t if same else tuple(args)


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
# (`xs`), and every candidate clause head is unified against them; a head of
# distinct variables, the common case, is matched by copying `xs` into the new
# frame.  Any other head binds each variable argument to its `xs` entry and
# unifies each compound argument with its entry by `_unify`, taking the
# argument as it is when fixed (no clause variable in it) and as `_build_fill`
# instantiates it otherwise.  A frame entry that is first filled after the
# frame was made always holds a fresh cell, so a frame revisited after
# backtracking still reads as the clause's variables did at that point.  Only
# two places need a ground term, and both get it from `_ground`: the switch
# key of an msw node whose switch or instance holds variables, and a call's
# first argument looked up in its predicate's index.

_CALL, _MSW, _CONJ, _DISJ, _TRUE, _VAR, _INVALID = range(7)
_TRUE_NODE = (_TRUE,)

# How a call node reads one argument: a term without clause variables or
# cells, a clause variable (its frame index), or a term to instantiate.
_ARG_CONST, _ARG_SLOT, _ARG_BUILD = range(3)


def _fixed(t):
    """True when `t` holds neither clause variables nor engine cells."""
    stack = [t]
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is tuple:
            stack.extend(t[1:])
        elif tt is Slot or tt is Cell:
            return False
    return True


def _compile_goal(t, entries):
    """Goal node for a body-goal template or a runtime goal term."""
    tt = type(t)
    if tt is Slot or tt is Cell:
        return (_VAR, t)
    if tt is str:
        if t == "true":
            return _TRUE_NODE
        return (_CALL, entries.get((t, 0)), (t, 0), ())
    if tt is not tuple:
        return (_INVALID, t)
    f = t[0]
    n = len(t) - 1
    if f == "msw" and n == 3:
        s, i, v = t[1], t[2], t[3]
        skey = (s, i) if _fixed(s) and _fixed(i) else None
        vatom = type(v) is not tuple and _fixed(v)
        return (_MSW, s, i, v, skey, vatom)
    if f == ",":
        return (_CONJ, _compile_goal(t[1], entries), _compile_goal(t[2], entries))
    if f == ";":
        return (_DISJ, _compile_goal(t[1], entries), _compile_goal(t[2], entries))
    aspec = []
    for a in t[1:]:
        if type(a) is Slot:
            aspec.append((_ARG_SLOT, a.i))
        elif _fixed(a):
            aspec.append((_ARG_CONST, a))
        else:
            aspec.append((_ARG_BUILD, a))
    return (_CALL, entries.get((f, n)), (f, n), tuple(aspec))


def _compile_clause(c, entries):
    """(head args, fixed flags, variable count, reversed body nodes, padding).

    The clause's variables become Slots numbered in order of first
    occurrence, head first.  The padding is set only for heads whose
    arguments are distinct variables: those are numbered 0..arity-1 in order,
    so the frame is the call's arguments followed by the padding."""
    slots = {}

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
            elif type(t) is list:
                k = len(out) - len(t[0]) + 1
                out[k:] = [(t[0][0], *out[k:])]
            else:
                out.append(t)
        return out[0]

    head = template(c.head)
    hargs = head[1:] if type(head) is tuple else ()
    body = [template(b) for b in c.body]
    nvars = len(slots)
    flat = all(type(a) is Slot and a.i == k for k, a in enumerate(hargs))
    pad = [None] * (nvars - len(hargs)) if flat else None
    body = tuple(_compile_goal(b, entries) for b in reversed(body))
    return (hargs, tuple(_fixed(a) for a in hargs), nvars, body, pad)


def _compiled(prog: Program):
    """Per-predicate [clauses, first-arg index] entries, cached on the program
    until `Program.add_clause` clears them.

    Call nodes hold their predicate's entry (None for an unknown predicate).
    The index maps each ground first argument appearing in some clause head to
    the clauses able to match it -- exact matches merged with clauses whose
    first head argument is non-ground, in textual order -- plus a generic
    fallback for arguments matching no ground head.  Predicates with no ground
    first argument anywhere get no index (lookups would be pure overhead).
    """
    entries = prog._engine_code
    if entries is None:
        entries = {key: [(), None] for key in prog.clauses}
        for key, clauses in prog.clauses.items():
            code = tuple(_compile_clause(c, entries) for c in clauses)
            index = None
            if key[1] > 0 and len(code) > 1:
                keyed = [(cc, cc[0][0] if cc[1][0] else None) for cc in code]
                ground_keys = {k for _, k in keyed if k is not None}
                if ground_keys:
                    generic = tuple(cc for cc, k in keyed if k is None)
                    index = (
                        {
                            gk: tuple(cc for cc, k in keyed if k is None or k == gk)
                            for gk in ground_keys
                        },
                        generic,
                    )
            entries[key][:] = (code, index)
        prog._engine_code = entries
    return entries


# ---------------------------------------------------------------------------
# The resolution loop
# ---------------------------------------------------------------------------

# First element of a choicepoint over a searched switch's outcomes.
_SWITCH_CP = "msw"


def run_first(prog: Program, goal, assignment, picker,
              step_limit=DEFAULT_STEP_LIMIT, shuffle=None):
    """Evaluate `goal` depth-first, left to right, to its first derivation; the
    raw engine behind both entry points.

    Without `shuffle`, a switch instance takes its value from the output
    assignment, else from the input `assignment`, else from `picker(key)`, and
    keeps it for the rest of the call, backtracking included; every consult is
    traced.  With `shuffle` (an rng's shuffle method) the loop searches
    instead: alternative clauses, disjunction branches and a fresh switch's
    positive-probability outcomes are tried in shuffled order, and switch
    bindings are undone on backtracking.  Returns (success, assignment, trace).
    """
    entries = _compiled(prog)
    switch_info = prog.switch_info
    sigma = {}
    trace = []
    trail = []
    atrail = []  # switch keys the search bound, in binding order
    # Choicepoints end with the trail and atrail marks to undo to, and begin
    # with (clauses, next index, call args, rest) for a call, (None, goals)
    # for the other branch of a disjunction, or (_SWITCH_CP, key, value term,
    # outcomes, next index, rest) for a searched switch.
    cps = []
    goals = (_compile_goal(goal, entries), None, None)
    steps = 0

    while True:
        if goals is None:
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
                k1 = _ground(xs[0])
                if k1 is not None:
                    cl = index[0].get(k1, index[1])
            if shuffle is not None and len(cl) > 1:
                cl = list(cl)
                shuffle(cl)
            ci = 0
            tl = len(trail)
            am = len(atrail)
        elif kind == _MSW:
            skey = node[4]
            if skey is None:
                s = _ground(node[1], frame)
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
                cps.append((_SWITCH_CP, skey, vt, outs, 0, rest, len(trail), len(atrail)))
                cl = ()
                ci = 0
            else:
                if v is None:
                    v = assignment.get(skey)
                    if v is None:
                        v = picker(skey)
                    sigma[skey] = v
                trace.append((s, inst, v))
                vt = node[3]
                if node[5]:
                    if v == vt and type(v) is type(vt):
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
            cps.append((None, (second, frame, rest), len(trail), len(atrail)))
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
                hargs, fixed, nvars, body, pad = cl[ci]
                ci += 1
                if pad is not None:
                    frame = xs + pad
                else:
                    frame = [None] * nvars if nvars else None
                    ok = True
                    for k in range(len(hargs)):
                        x = xs[k]
                        while type(x) is Cell and x.ref is not None:
                            x = x.ref
                        t = hargs[k]
                        tt = type(t)
                        if tt is Slot:
                            v = frame[t.i]
                            if v is None:
                                frame[t.i] = x
                                continue
                            if _unify(x, v, trail):
                                continue
                        elif tt is tuple:
                            if _unify(t if fixed[k] else _build_fill(t, frame), x, trail):
                                continue
                        elif type(x) is Cell:
                            x.ref = t
                            trail.append(x)
                            continue
                        elif x == t and type(x) is type(t):
                            continue
                        ok = False
                        break
                    if not ok:
                        _undo(trail, tl)
                        continue
                if ci < n:
                    cps.append((cl, ci, xs, rest, tl, am))
                goals = rest
                for b in body:
                    goals = (b, frame, goals)
                break
            else:
                if not cps:
                    return False, sigma, trace
                cp = cps.pop()
                _undo(trail, cp[-2])
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
                    cps.append((_SWITCH_CP, skey, vt, outs, oi, rest, tl, am))
                sigma[skey] = v
                atrail.append(skey)
                goals = rest
                break
            break


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
    """
    if not is_ground(goal):
        raise EvalError(f"goal must be ground: {term_to_str(goal)}")
    switch_info = prog.switch_info

    if rng is None:

        def picker(key):
            raise EvalError(
                f"fresh switch instance {term_to_str(key[0])}/{term_to_str(key[1])}"
                " encountered but no rng was provided"
            )

    else:

        def picker(key):
            info = switch_info(key[0])
            probs = info.probs if dist is None else dist(key[0], key[1], info)
            return sample_outcome(info.outcomes, probs, rng)

    ok, sigma, trace = run_first(prog, goal, assignment, picker, step_limit)
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
