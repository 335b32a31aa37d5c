"""Terms, parser and program representation for the mini probabilistic-logic
language.

The concrete syntax is a small Prolog subset:

    poss_edge(a,b).                       % fact
    edge(X,Y) :- poss_edge(X,Y), msw(r(X,Y),t).
    values(r(_,_), [t,f]).                % switch outcome declaration
    :- set_sw(r(a,b), [0.9,0.1]).         % switch distribution

Terms are represented with plain Python values:

    atom      -> str            ('a', 'reach')
    integer   -> int
    variable  -> Var instance   (identity-based equality)
    compound  -> tuple          ('reach', 'a', 'e'), functor first, arity >= 1

Ground terms are therefore hashable and can be used directly as dict keys,
which the rest of the system relies on.  Floats are allowed only inside
set_sw probability lists; everywhere else they are a syntax error.

`msw(S,V)` is sugar for `msw(S,0,V)`: the instance argument defaults to 0
when a switch is only used once.

A clause body is a comma-separated list of goals, and each goal is a call to
a program predicate, `msw/2` or `msw/3`, `true`, or a parenthesised group of
goals joined by `,` and `;`.  There is no `=`, no comparison and no
arithmetic: the tokenizer has no token for them.
"""

from __future__ import annotations

import itertools
import re


class PlpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PlpError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class ProgramError(PlpError):
    """Semantic problem with a program: bad distribution, unknown switch, ..."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_var_ids = itertools.count()


class Var:
    """A logic variable.  Equality and hashing are by identity."""

    __slots__ = ("name",)

    def __init__(self, name=None):
        self.name = name if name is not None else f"_G{next(_var_ids)}"

    def __repr__(self):
        return self.name


NIL = "[]"


def is_ground(t) -> bool:
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is tuple:
            stack.extend(t[1:])
        elif isinstance(t, Var):
            return False
    return True


def term_to_str(t) -> str:
    """Render a term in the concrete syntax (lists are printed as [a,b|T])."""
    if isinstance(t, Var):
        return t.name
    if type(t) is tuple:
        if t[0] == "." and len(t) == 3:
            items = []
            cur = t
            while type(cur) is tuple and len(cur) == 3 and cur[0] == ".":
                items.append(term_to_str(cur[1]))
                cur = cur[2]
            if cur == NIL:
                return "[" + ",".join(items) + "]"
            return "[" + ",".join(items) + "|" + term_to_str(cur) + "]"
        args = ",".join(term_to_str(a) for a in t[1:])
        return f"{t[0]}({args})"
    return str(t)


def term_to_list(t):
    """Convert a cons-list term back to a Python list; None if not a proper list."""
    items = []
    while type(t) is tuple and len(t) == 3 and t[0] == ".":
        items.append(t[1])
        t = t[2]
    if t != NIL:
        return None
    return items


# ---------------------------------------------------------------------------
# Substitution-based unification, used by the oracle's world prover to match
# clause heads and msw outcomes (the language has no `=` goal) and by
# `Program.outcomes_for` to match `values` patterns against a ground switch
# (unifying with a ground term is a one-way match).  The sampling evaluator
# has its own destructive machinery.
# ---------------------------------------------------------------------------


def walk(t, theta):
    while isinstance(t, Var):
        bound = theta.get(t)
        if bound is None:
            return t
        t = bound
    return t


def resolve(t, theta):
    """Fully apply a substitution to a term."""
    t = walk(t, theta)
    if type(t) is tuple:
        return (t[0],) + tuple(resolve(a, theta) for a in t[1:])
    return t


def occurs(v, t, theta) -> bool:
    stack = [t]
    while stack:
        t = walk(stack.pop(), theta)
        if t is v:
            return True
        if type(t) is tuple:
            stack.extend(t[1:])
    return False


def unify(t1, t2, theta):
    """Most general unifier extending substitution `theta`, or None.

    The input dict is never mutated; on success a new dict is returned.
    The occurs-check is performed.
    """
    stack = [(t1, t2)]
    out = theta
    copied = False
    while stack:
        a, b = stack.pop()
        a = walk(a, out)
        b = walk(b, out)
        if a is b:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            if not isinstance(a, Var):
                a, b = b, a
            if occurs(a, b, out):
                return None
            if not copied:
                out = dict(out)
                copied = True
            out[a] = b
            continue
        if type(a) is tuple:
            if type(b) is not tuple or len(a) != len(b) or a[0] != b[0]:
                return None
            stack.extend(zip(a[1:], b[1:]))
            continue
        if type(a) is type(b) and a == b:
            continue
        return None
    return out


# ---------------------------------------------------------------------------
# Clauses and programs
# ---------------------------------------------------------------------------


class Clause:
    """One program clause: the parsed head and body terms, with Var objects.
    The evaluator compiles clauses into its own templates; the world prover
    reads these terms directly."""

    __slots__ = ("head", "body")

    def __init__(self, head, body):
        self.head = head
        self.body = tuple(body)

    def __repr__(self):
        if not self.body:
            return term_to_str(self.head) + "."
        return (
            term_to_str(self.head)
            + " :- "
            + ", ".join(term_to_str(b) for b in self.body)
            + "."
        )


def functor_arity(t):
    if type(t) is tuple:
        return (t[0], len(t) - 1)
    if isinstance(t, str):
        return (t, 0)
    raise ProgramError(f"not a callable term: {t!r}")


class SwitchInfo:
    """Resolved outcome list and distribution for one ground switch."""

    __slots__ = ("outcomes", "probs", "index")

    def __init__(self, outcomes, probs):
        self.outcomes = tuple(outcomes)
        self.probs = tuple(probs)
        self.index = {v: k for k, v in enumerate(self.outcomes)}


class Program:
    """A parsed program: clauses indexed by functor/arity, switch declarations
    and switch distributions."""

    def __init__(self):
        # (functor, arity) -> [Clause]
        self.clauses = {}
        # [(pattern term, outcomes tuple)]
        self.values_decls = []
        # ground switch term -> probability tuple
        self.dists = {}
        self._switch_cache = {}
        # the evaluator's compiled clause tables and its per-goal evaluation
        # tries, and the world prover's clause table, built on first use
        self._engine_code = None
        self._engine_memo = None
        self._world_code = None

    def add_clause(self, clause):
        key = functor_arity(clause.head)
        self.clauses.setdefault(key, []).append(clause)
        self._engine_code = None
        self._engine_memo = None
        self._world_code = None

    def outcomes_for(self, s):
        """Outcome list for a ground switch from its values declaration."""
        hits = [outs for pat, outs in self.values_decls if unify(pat, s, {}) is not None]
        if not hits:
            raise ProgramError(f"no values declaration matches switch {term_to_str(s)}")
        if len(hits) > 1:
            raise ProgramError(
                f"overlapping values declarations match switch {term_to_str(s)}"
            )
        return hits[0]

    def switch_info(self, s) -> SwitchInfo:
        info = self._switch_cache.get(s)
        if info is None:
            probs = self.dists.get(s)
            if probs is None:
                # distinguish "never declared" from "declared but no set_sw"
                self.outcomes_for(s)
                raise ProgramError(f"switch {term_to_str(s)} has no set_sw distribution")
            info = SwitchInfo(self.outcomes_for(s), probs)
            self._switch_cache[s] = info
        return info

    def __repr__(self):
        n = sum(len(v) for v in self.clauses.values())
        return f"<Program {n} clauses, {len(self.values_decls)} values, {len(self.dists)} switches>"


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|%[^\n]*)
    | (?P<neck>:-)
    | (?P<num>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
    | (?P<atom>[a-z][A-Za-z0-9_]*)
    | (?P<var>[A-Z_][A-Za-z0-9_]*)
    | (?P<punct>[()\[\],|;.])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class _Parser:
    """Recursive descent over the (kind, value, offset) tokens of one
    `finditer` pass; an offset becomes a line and column only in an error."""

    def __init__(self, text):
        self.text = text
        self.toks = [(m.lastgroup, m.group(), m.start())
                     for m in _TOKEN_RE.finditer(text) if m.lastgroup != "ws"]
        for kind, val, off in self.toks:
            if kind == "bad":
                raise self.error(f"unexpected character {val!r}", off)
        self.toks.append(("eof", "", -1))
        self.i = 0

    def error(self, message, off):
        """A ParseError at text offset `off`; end of input (-1) is at (-1, -1)."""
        if off < 0:
            return ParseError(message, -1, -1)
        nl = self.text.rfind("\n", 0, off)
        return ParseError(message, self.text.count("\n", 0, off) + 1, off - nl)

    def peek(self):
        return self.toks[self.i][1]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        _, val, off = self.next()
        if val != value:
            raise self.error(f"expected {value!r}, found {val or 'end of input'!r}", off)

    # -- terms ------------------------------------------------------------

    def parse_term(self, varmap, allow_float=False):
        kind, val, off = self.next()
        if kind == "num":
            if "." in val or "e" in val or "E" in val:
                if not allow_float:
                    raise self.error(
                        "float literals are only allowed in set_sw probability lists", off
                    )
                return float(val)
            return int(val)
        if kind == "var":
            if val == "_":
                return Var("_")
            v = varmap.get(val)
            if v is None:
                v = Var(val)
                varmap[val] = v
            return v
        if kind == "atom":
            if self.peek() == "(":
                # arguments are read here, not by parse_terms, so that a
                # compound costs one frame per nesting level
                self.i += 1
                args = [self.parse_term(varmap, allow_float)]
                while self.peek() == ",":
                    self.i += 1
                    args.append(self.parse_term(varmap, allow_float))
                self.expect(")")
                return (val, *args)
            return val
        if val == "[":
            if self.peek() == "]":
                self.i += 1
                return NIL
            items = self.parse_terms(varmap, allow_float)
            out = NIL
            if self.peek() == "|":
                self.i += 1
                out = self.parse_term(varmap, allow_float)
            self.expect("]")
            for x in reversed(items):
                out = (".", x, out)
            return out
        if val == "(":
            inner = self.parse_group(varmap, allow_float)
            self.expect(")")
            return inner
        raise self.error(f"unexpected token {val or 'end of input'!r}", off)

    def parse_terms(self, varmap, allow_float=False):
        """A comma-separated run of terms: list items, a conjunction or a body."""
        terms = [self.parse_term(varmap, allow_float)]
        while self.peek() == ",":
            self.i += 1
            terms.append(self.parse_term(varmap, allow_float))
        return terms

    def parse_group(self, varmap, allow_float):
        """A parenthesized goal group: conjunction, optionally `;` disjunction."""
        goals = self.parse_terms(varmap, allow_float)
        left = goals.pop()
        while goals:
            left = (",", goals.pop(), left)
        if self.peek() == ";":
            self.i += 1
            right = self.parse_group(varmap, allow_float)
            return (";", left, right)
        return left

    # -- top level --------------------------------------------------------

    def parse_items(self):
        """Yield ('clause', head, body, offset) | ('directive', term, offset)."""
        while self.toks[self.i][0] != "eof":
            _, val, off = self.toks[self.i]
            varmap = {}
            if val == ":-":
                self.i += 1
                term = self.parse_term(varmap, allow_float=True)
                self.expect(".")
                yield ("directive", term, off)
                continue
            head = self.parse_term(varmap)
            _, nval, noff = self.next()
            if nval == ".":
                yield ("clause", head, [], off)
            elif nval == ":-":
                body = self.parse_terms(varmap)
                self.expect(".")
                yield ("clause", head, body, off)
            else:
                raise self.error(
                    f"expected '.' or ':-' after clause head, found {nval or 'end of input'!r}",
                    noff,
                )


_RESERVED_HEADS = {"msw", "true", ",", ";"}


def _normalize_msw(t):
    """Rewrite msw/2 goals to msw/3 with instance 0, recursively through
    control constructs."""
    if type(t) is tuple:
        if t[0] == "msw":
            if len(t) == 3:  # msw(S, V)
                return ("msw", _normalize_msw(t[1]), 0, _normalize_msw(t[2]))
            if len(t) == 4:
                return t
            raise ProgramError(f"msw takes 2 or 3 arguments, got {len(t) - 1}")
        if t[0] in (",", ";") and len(t) == 3:
            return (t[0], _normalize_msw(t[1]), _normalize_msw(t[2]))
    return t


def parse_program(text: str) -> Program:
    """Parse program text into a Program.  Deterministic; raises ParseError on
    syntax problems and ProgramError on bad declarations."""
    prog = Program()
    seen_set_sw = set()
    parser = _Parser(text)
    for item in parser.parse_items():
        if item[0] == "directive":
            _, term, off = item
            if type(term) is tuple and term[0] == "set_sw" and len(term) == 3:
                s, problist = term[1], term[2]
                if not is_ground(s):
                    raise ProgramError(f"set_sw switch must be ground: {term_to_str(s)}")
                probs = term_to_list(problist)
                if probs is None:
                    raise parser.error("set_sw expects a probability list", off)
                try:
                    probs = [float(p) for p in probs]
                except (TypeError, ValueError):
                    raise parser.error("set_sw probabilities must be numbers", off)
                if s in seen_set_sw:
                    raise ProgramError(f"duplicate set_sw for {term_to_str(s)}")
                seen_set_sw.add(s)
                # validated against values declarations once the file is read,
                # so declaration order does not matter
                prog.dists[s] = tuple(probs)
                continue
            raise parser.error("unsupported directive (only set_sw is recognized)", off)

        _, head, body, off = item
        if type(head) is tuple and head[0] == "values" and len(head) == 3:
            if body:
                raise parser.error("values declaration cannot have a body", off)
            pattern, outlist = head[1], head[2]
            outs = term_to_list(outlist)
            if outs is None:
                raise parser.error("values expects an outcome list", off)
            for o in outs:
                if not is_ground(o):
                    raise ProgramError(f"values outcomes must be ground: {term_to_str(head)}")
            if len(set(outs)) != len(outs):
                raise ProgramError(f"duplicate outcomes in {term_to_str(head)}")
            prog.values_decls.append((pattern, tuple(outs)))
            continue

        name = functor_arity(head)[0] if type(head) in (tuple, str) else None
        if name == "set_sw":
            raise parser.error("set_sw must be written as a directive:  :- set_sw(...)", off)
        if name in _RESERVED_HEADS:
            raise ProgramError(f"cannot define clauses for builtin {name!r}")
        prog.add_clause(Clause(head, [_normalize_msw(b) for b in body]))

    _validate_distributions(prog)
    return prog


def _validate_distributions(prog):
    for s, probs in prog.dists.items():
        outs = prog.switch_info(s).outcomes  # raises if missing or overlapping
        if len(probs) != len(outs):
            raise ProgramError(
                f"set_sw({term_to_str(s)}): {len(probs)} probabilities for "
                f"{len(outs)} declared outcomes"
            )
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ProgramError(f"set_sw({term_to_str(s)}): probabilities must be in [0,1]")
        total = sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ProgramError(
                f"set_sw({term_to_str(s)}): probabilities sum to {total!r}, expected 1"
            )


def parse_goal(text: str):
    """Parse a single goal term, e.g. from a command-line `--query` string."""
    p = _Parser(text)
    term = p.parse_group({}, allow_float=False)
    if p.peek() == ".":
        p.i += 1
    kind, val, off = p.next()
    if kind != "eof":
        raise p.error(f"trailing input after goal: {val!r}", off)
    return _normalize_msw(term)
