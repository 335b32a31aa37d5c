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
"""

from __future__ import annotations

import itertools
import operator
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
    if type(t) is tuple:
        return all(is_ground(a) for a in t[1:])
    return not isinstance(t, Var)


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
# Substitution-based unification, used by the oracle's world prover and by
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

    __slots__ = ("outcomes", "probs", "index", "prob_of")

    def __init__(self, outcomes, probs):
        self.outcomes = tuple(outcomes)
        self.probs = tuple(probs)
        self.index = {v: k for k, v in enumerate(self.outcomes)}
        self.prob_of = dict(zip(self.outcomes, self.probs))


class Program:
    """A parsed program: clauses indexed by functor/arity, switch declarations
    and switch distributions."""

    def __init__(self, clauses=None, values_decls=None, dists=None):
        # (functor, arity) -> [Clause]
        self.clauses = clauses if clauses is not None else {}
        # [(pattern term, outcomes tuple)]
        self.values_decls = values_decls if values_decls is not None else []
        # ground switch term -> probability tuple
        self.dists = dists if dists is not None else {}
        self._switch_cache = {}
        # the evaluator's compiled clause tables, built on first use
        self._engine_code = None

    def add_clause(self, clause):
        key = functor_arity(clause.head)
        self.clauses.setdefault(key, []).append(clause)
        self._engine_code = None

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

    def __eq__(self, other):
        if not isinstance(other, Program):
            return NotImplemented
        return program_to_str(self) == program_to_str(other)

    def __repr__(self):
        n = sum(len(v) for v in self.clauses.values())
        return f"<Program {n} clauses, {len(self.values_decls)} values, {len(self.dists)} switches>"


def program_to_str(prog: Program) -> str:
    lines = []
    for pat, outs in prog.values_decls:
        lines.append(f"values({term_to_str(pat)}, [{','.join(term_to_str(o) for o in outs)}]).")
    for s, probs in prog.dists.items():
        lines.append(f":- set_sw({term_to_str(s)}, [{','.join(repr(p) for p in probs)}]).")
    for clauses in prog.clauses.values():
        for c in clauses:
            lines.append(repr(c))
    return "\n".join(lines) + "\n"


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
    """,
    re.VERBOSE,
)


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.toks = []  # (kind, value, line, col)
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            kind = m.lastgroup
            val = m.group()
            if kind != "ws":
                self.toks.append((kind, val, line, col))
            nl = val.count("\n")
            if nl:
                line += nl
                col = len(val) - val.rfind("\n")
            else:
                col += len(val)
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.toks):
            return self.toks[self.i]
        return ("eof", "", -1, -1)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, value):
        kind, val, line, col = self.next()
        if val != value or kind == "eof":
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", line, col)


class _Parser:
    def __init__(self, text):
        self.toks = _Tokens(text)

    # -- terms ------------------------------------------------------------

    def parse_term(self, varmap, allow_float=False):
        kind, val, line, col = self.toks.next()
        if kind == "num":
            if "." in val or "e" in val or "E" in val:
                if not allow_float:
                    raise ParseError(
                        "float literals are only allowed in set_sw probability lists",
                        line,
                        col,
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
            if self.toks.peek()[1] == "(":
                self.toks.next()
                args = [self.parse_term(varmap, allow_float)]
                while self.toks.peek()[1] == ",":
                    self.toks.next()
                    args.append(self.parse_term(varmap, allow_float))
                self.toks.expect(")")
                return (val, *args)
            return val
        if val == "[":
            return self.parse_list(varmap, allow_float)
        if val == "(":
            inner = self.parse_group(varmap, allow_float)
            self.toks.expect(")")
            return inner
        raise ParseError(f"unexpected token {val or 'end of input'!r}", line, col)

    def parse_list(self, varmap, allow_float):
        if self.toks.peek()[1] == "]":
            self.toks.next()
            return NIL
        items = [self.parse_term(varmap, allow_float)]
        while self.toks.peek()[1] == ",":
            self.toks.next()
            items.append(self.parse_term(varmap, allow_float))
        tail = NIL
        if self.toks.peek()[1] == "|":
            self.toks.next()
            tail = self.parse_term(varmap, allow_float)
        self.toks.expect("]")
        out = tail
        for x in reversed(items):
            out = (".", x, out)
        return out

    def parse_group(self, varmap, allow_float):
        """A parenthesized goal group: conjunction, optionally `;` disjunction."""
        left = self.parse_conj_term(varmap, allow_float)
        if self.toks.peek()[1] == ";":
            self.toks.next()
            right = self.parse_group(varmap, allow_float)
            return (";", left, right)
        return left

    def parse_conj_term(self, varmap, allow_float):
        first = self.parse_term(varmap, allow_float)
        if self.toks.peek()[1] == ",":
            self.toks.next()
            rest = self.parse_conj_term(varmap, allow_float)
            return (",", first, rest)
        return first

    def parse_body(self, varmap):
        goals = [self.parse_term(varmap)]
        while self.toks.peek()[1] == ",":
            self.toks.next()
            goals.append(self.parse_term(varmap))
        return goals

    # -- top level --------------------------------------------------------

    def parse_items(self):
        """Yield ('clause', head, body) | ('directive', term) items."""
        while self.toks.peek()[0] != "eof":
            kind, val, line, col = self.toks.peek()
            if val == ":-":
                self.toks.next()
                varmap = {}
                term = self.parse_term(varmap, allow_float=True)
                self.toks.expect(".")
                yield ("directive", term, line, col)
                continue
            varmap = {}
            head = self.parse_term(varmap)
            nkind, nval, nline, ncol = self.toks.next()
            if nval == ".":
                yield ("clause", head, [], line, col)
            elif nval == ":-":
                body = self.parse_body(varmap)
                self.toks.expect(".")
                yield ("clause", head, body, line, col)
            else:
                raise ParseError(
                    f"expected '.' or ':-' after clause head, found {nval or 'end of input'!r}",
                    nline,
                    ncol,
                )



# The integer comparison builtins, read by both resolution engines (the
# sampling evaluator and the oracle's world prover).
_COMPARISON_OPS = {
    "<": operator.lt,
    "=<": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_RESERVED_HEADS = {"msw", "true", "=", ",", ";"} | _COMPARISON_OPS.keys()


def _check_no_float(t, line, col, where):
    if type(t) is float:
        raise ParseError(f"float literal not allowed in {where}", line, col)
    if type(t) is tuple:
        for a in t[1:]:
            _check_no_float(a, line, col, where)


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
    for item in _Parser(text).parse_items():
        if item[0] == "directive":
            _, term, line, col = item
            if type(term) is tuple and term[0] == "set_sw" and len(term) == 3:
                s, problist = term[1], term[2]
                if not is_ground(s):
                    raise ProgramError(f"set_sw switch must be ground: {term_to_str(s)}")
                probs = term_to_list(problist)
                if probs is None:
                    raise ParseError("set_sw expects a probability list", line, col)
                try:
                    probs = [float(p) for p in probs]
                except (TypeError, ValueError):
                    raise ParseError("set_sw probabilities must be numbers", line, col)
                if s in seen_set_sw:
                    raise ProgramError(f"duplicate set_sw for {term_to_str(s)}")
                seen_set_sw.add(s)
                # validated against values declarations once the file is read,
                # so declaration order does not matter
                prog.dists[s] = tuple(probs)
                continue
            raise ParseError("unsupported directive (only set_sw is recognized)", line, col)

        _, head, body, line, col = item
        if type(head) is tuple and head[0] == "values" and len(head) == 3:
            if body:
                raise ParseError("values declaration cannot have a body", line, col)
            pattern, outlist = head[1], head[2]
            outs = term_to_list(outlist)
            if outs is None:
                raise ParseError("values expects an outcome list", line, col)
            for o in outs:
                if not is_ground(o):
                    raise ProgramError(f"values outcomes must be ground: {term_to_str(head)}")
                _check_no_float(o, line, col, "values outcomes")
            if len(set(outs)) != len(outs):
                raise ProgramError(f"duplicate outcomes in {term_to_str(head)}")
            prog.values_decls.append((pattern, tuple(outs)))
            continue

        name = functor_arity(head)[0] if type(head) in (tuple, str) else None
        if name == "set_sw":
            raise ParseError("set_sw must be written as a directive:  :- set_sw(...)", line, col)
        if name in _RESERVED_HEADS:
            raise ProgramError(f"cannot define clauses for builtin {name!r}")
        _check_no_float(head, line, col, "clause heads")
        for b in body:
            _check_no_float(b, line, col, "clause bodies")
        prog.add_clause(Clause(head, [_normalize_msw(b) for b in body]))

    _validate_distributions(prog)
    return prog


def _validate_distributions(prog):
    for s, probs in prog.dists.items():
        outs = prog.outcomes_for(s)  # raises if missing or overlapping
        if len(probs) != len(outs):
            raise ProgramError(
                f"set_sw({term_to_str(s)}): {len(probs)} probabilities for "
                f"{len(outs)} declared outcomes"
            )
        if any(p < 0.0 or p > 1.0 for p in probs):
            raise ProgramError(f"set_sw({term_to_str(s)}): probabilities must be in [0,1]")
        total = sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ProgramError(
                f"set_sw({term_to_str(s)}): probabilities sum to {total!r}, expected 1"
            )


def parse_goal(text: str):
    """Parse a single goal term, e.g. from a command-line `--query` string."""
    p = _Parser(text)
    varmap = {}
    term = p.parse_group(varmap, allow_float=False)
    if p.toks.peek()[1] == ".":
        p.toks.next()
    nkind, nval, line, col = p.toks.next()
    if nkind != "eof":
        raise ParseError(f"trailing input after goal: {nval!r}", line, col)
    return _normalize_msw(term)
