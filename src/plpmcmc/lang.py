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

A text is tokenized by one `findall` pass into token strings.  A ParseError
names a line and column, found only then by scanning the text again; at the
end of input they are just past the last character.
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


def _functor_key(t):
    """(functor, arity) of a compound; an atomic term is its own key."""
    return (t[0], len(t)) if type(t) is tuple else t


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
        # values_decls by the key of their pattern; variable patterns under Var
        self._values = None
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
        """Outcome list for a ground switch from its values declaration.  Only
        the patterns with the switch's functor and arity, and the variable
        patterns, are candidates; they are indexed at the first call, once the
        parser has filled `values_decls`.  A candidate is unified with the
        switch unless it is a variable or its arguments are distinct variables,
        when it matches every switch of its key and is kept as None."""
        index = self._values
        if index is None:
            index = self._values = {}
            for pat, outs in self.values_decls:
                args = pat[1:] if type(pat) is tuple else (pat,)
                free = all(isinstance(a, Var) for a in args) and len(set(args)) == len(args)
                key = Var if isinstance(pat, Var) else _functor_key(pat)
                index.setdefault(key, []).append((None if free else pat, outs))
        cands = index.get(_functor_key(s), []) + index.get(Var, [])
        hits = [outs for pat, outs in cands if pat is None or unify(pat, s, {}) is not None]
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

# `findall`'s own search passes over whitespace.  A `%` comment matches as a
# token, dropped when the text has one, and a character that starts no token
# matches outside the group and reads as "".
_TOKEN_RE = re.compile(
    r"([()\[\],|;.]|[A-Za-z_][A-Za-z0-9_]*|:-|-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|%.*)|[^\s%]"
)


class _Parser:
    """Recursive descent over the token strings of one `findall` pass, with
    "" appended for the end of input (a bad character, also "", is refused
    first).  A token's kind is read off the string: an atom or a variable by
    its first character, a number by its last.  Its line and column are found
    only for an error, by scanning the text again."""

    def __init__(self, text):
        self.text = text
        toks = _TOKEN_RE.findall(text)
        if "%" in text:
            toks = [t for t in toks if t[:1] != "%"]
        self.toks = toks
        toks.append("")
        k = toks.index("")
        if k < len(toks) - 1:
            raise self.error(f"unexpected character {text[self.offset(k)]!r}", k)

    def offset(self, k):
        """The text offset of token k; the end of input is at len(text)."""
        text = self.text
        starts = [m.start() for m in _TOKEN_RE.finditer(text) if text[m.start()] != "%"]
        return starts[k] if k < len(starts) else len(text)

    def error(self, message, k):
        """A ParseError at token k; the end of input is just past the last
        character.  A CRLF, a bare CR and an LF each end one line."""
        head = self.text[:self.offset(k)].replace("\r\n", "\n").replace("\r", "\n")
        return ParseError(message, head.count("\n") + 1, len(head) - head.rfind("\n"))

    # -- terms ------------------------------------------------------------

    def read(self, i, varmap, floats, out, many=True):
        """Read the terms of a comma-separated run from token i into `out`
        (only one unless `many`) and return the index after them.  A
        compound's or a list's items are read by a nested call, so nesting
        costs one frame per level."""
        toks = self.toks
        while True:
            t = toks[i]
            i += 1
            if "a" <= t < "{":
                if toks[i] == "(":
                    args = [t]
                    i = self.close(self.read(i + 1, varmap, floats, args), ")")
                    t = tuple(args)
                out.append(t)
            elif "A" <= t < "[" or "_" <= t < "`":
                v = Var("_") if t == "_" else varmap.get(t)
                if v is None:
                    v = varmap[t] = Var(t)
                out.append(v)
            elif t == "[":
                items, tail = [], [NIL]
                if toks[i] == "]":
                    i += 1
                else:
                    i = self.read(i, varmap, floats, items)
                    if toks[i] == "|":
                        tail = []
                        i = self.read(i + 1, varmap, floats, tail, False)
                    i = self.close(i, "]")
                tail = tail[0]
                for x in reversed(items):
                    tail = (".", x, tail)
                out.append(tail)
            elif t[-1:].isdigit():
                if "." not in t and "e" not in t and "E" not in t:
                    out.append(int(t))
                elif floats:
                    out.append(float(t))
                else:
                    raise self.error(
                        "float literals are only allowed in set_sw probability lists", i - 1
                    )
            elif t == "(":
                inner, i = self.group(i, varmap, floats)
                i = self.close(i, ")")
                out.append(inner)
            else:
                raise self.error(f"unexpected token {t or 'end of input'!r}", i - 1)
            if not many or toks[i] != ",":
                return i
            i += 1

    def close(self, i, value):
        """The index after token i, which must be `value`."""
        if self.toks[i] != value:
            found = self.toks[i] or "end of input"
            raise self.error(f"expected {value!r}, found {found!r}", i)
        return i + 1

    def group(self, i, varmap, floats):
        """A parenthesized goal group: conjunction, optionally `;` disjunction;
        returns the goal and the index after it."""
        goals = []
        i = self.read(i, varmap, floats, goals)
        left = goals.pop()
        while goals:
            left = (",", goals.pop(), left)
        if self.toks[i] == ";":
            right, i = self.group(i + 1, varmap, floats)
            return (";", left, right), i
        return left, i

    # -- top level --------------------------------------------------------

    def parse_items(self):
        """Yield (directive, head, body, k) per item, k its first token; a
        directive's term is its head."""
        toks = self.toks
        i = 0
        while toks[i]:
            k = i
            directive = toks[i] == ":-"
            varmap, head, body = {}, [], []
            i = self.read(i + directive, varmap, directive, head, False)
            if not directive and toks[i] == ":-":
                i = self.read(i + 1, varmap, False, body)
            elif not directive and toks[i] != ".":
                found = toks[i] or "end of input"
                raise self.error(f"expected '.' or ':-' after clause head, found {found!r}", i)
            i = self.close(i, ".")
            yield directive, head[0], body, k


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
    parser = _Parser(text)
    for directive, head, body, k in parser.parse_items():
        if directive:
            if type(head) is tuple and head[0] == "set_sw" and len(head) == 3:
                s, problist = head[1], head[2]
                if not is_ground(s):
                    raise ProgramError(f"set_sw switch must be ground: {term_to_str(s)}")
                probs = term_to_list(problist)
                if probs is None:
                    raise parser.error("set_sw expects a probability list", k)
                try:
                    probs = tuple(map(float, probs))
                except (TypeError, ValueError):
                    raise parser.error("set_sw probabilities must be numbers", k)
                if s in prog.dists:
                    raise ProgramError(f"duplicate set_sw for {term_to_str(s)}")
                # validated against values declarations once the file is read,
                # so declaration order does not matter
                prog.dists[s] = probs
                continue
            raise parser.error("unsupported directive (only set_sw is recognized)", k)

        if type(head) is tuple and head[0] == "values" and len(head) == 3:
            if body:
                raise parser.error("values declaration cannot have a body", k)
            pattern, outlist = head[1], head[2]
            outs = term_to_list(outlist)
            if outs is None:
                raise parser.error("values expects an outcome list", k)
            for o in outs:
                if not is_ground(o):
                    raise ProgramError(f"values outcomes must be ground: {term_to_str(head)}")
            if len(set(outs)) != len(outs):
                raise ProgramError(f"duplicate outcomes in {term_to_str(head)}")
            prog.values_decls.append((pattern, tuple(outs)))
            continue

        name = functor_arity(head)[0] if type(head) in (tuple, str) else None
        if name == "set_sw":
            raise parser.error("set_sw must be written as a directive:  :- set_sw(...)", k)
        if name in _RESERVED_HEADS:
            raise ProgramError(f"cannot define clauses for builtin {name!r}")
        prog.add_clause(Clause(head, map(_normalize_msw, body)))

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
    term, i = p.group(0, {}, False)
    if p.toks[i] == ".":
        i += 1
    if p.toks[i]:
        raise p.error(f"trailing input after goal: {p.toks[i]!r}", i)
    return _normalize_msw(term)
