"""Parser, term representation and program declarations."""

import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import HEAD_SHAPES_TEXT, MSW_VALUE_TEXT, program_to_str
from plpmcmc.bench import gen_bn, small_benchmarks
from plpmcmc.evaluator import _compile_clause
from plpmcmc.lang import (
    Clause,
    _Parser,
    ParseError,
    PlpError,
    ProgramError,
    Var,
    is_ground,
    parse_goal,
    parse_program,
    term_to_list,
    term_to_str,
    unify,
)

COIN = """
values(coin, [heads, tails]).
:- set_sw(coin, [0.4, 0.6]).

win :- msw(coin, heads).
"""


def test_parse_minimal_program():
    prog = parse_program(COIN)
    assert ("win", 0) in prog.clauses
    assert prog.dists["coin"] == (0.4, 0.6)
    info = prog.switch_info("coin")
    assert info.outcomes == ("heads", "tails")
    assert info.probs == (0.4, 0.6)


def test_terms_are_plain_python_values():
    g = parse_goal("reach(a, e)")
    assert g == ("reach", "a", "e")
    assert parse_goal("foo") == "foo"
    assert parse_goal("p(3)") == ("p", 3)
    assert is_ground(g)


def test_variables_have_identity_equality():
    prog = parse_program("p(X, X, Y).")
    (clause,) = prog.clauses[("p", 3)]
    _, x1, x2, y = clause.head
    assert isinstance(x1, Var) and x1 is x2
    assert y is not x1
    # distinct clauses never share Var objects even with equal names
    prog2 = parse_program("p(X). q(X).")
    (p,) = prog2.clauses[("p", 1)]
    (q,) = prog2.clauses[("q", 1)]
    assert p.head[1] is not q.head[1]


def test_msw_two_argument_sugar_gets_instance_zero():
    prog = parse_program(COIN)
    (clause,) = prog.clauses[("win", 0)]
    assert clause.body == (("msw", "coin", 0, "heads"),)
    # explicit instances are preserved
    prog3 = parse_program(
        "values(c, [h,t]). :- set_sw(c, [0.5,0.5]). two :- msw(c, 0, h), msw(c, 1, h)."
    )
    (c3,) = prog3.clauses[("two", 0)]
    assert c3.body == (("msw", "c", 0, "h"), ("msw", "c", 1, "h"))
    assert parse_goal("msw(c, h)") == ("msw", "c", 0, "h")


def test_set_sw_must_be_a_directive():
    # float-free argument list so the float restriction does not fire first
    with pytest.raises(ParseError, match="directive"):
        parse_program("values(c,[h,t]). set_sw(c, [1, 0]).")
    # with floats present the float restriction reports the earlier error
    with pytest.raises(ParseError, match="float literals"):
        parse_program("values(c,[h,t]). set_sw(c, [0.5,0.5]).")


def test_duplicate_set_sw_rejected():
    with pytest.raises(ProgramError, match="duplicate set_sw"):
        parse_program(
            "values(c,[h,t]). :- set_sw(c,[0.5,0.5]). :- set_sw(c,[0.2,0.8])."
        )


def test_set_sw_without_values_declaration_rejected():
    with pytest.raises(ProgramError, match="no values declaration"):
        parse_program(":- set_sw(c, [0.5, 0.5]).")


def test_distribution_validation():
    with pytest.raises(ProgramError, match="2 probabilities for 3"):
        parse_program("values(d,[a,b,c]). :- set_sw(d,[0.5,0.5]).")
    with pytest.raises(ProgramError, match="sum to"):
        parse_program("values(c,[h,t]). :- set_sw(c,[0.5,0.6]).")
    with pytest.raises(ProgramError, match=r"in \[0,1\]"):
        parse_program("values(c,[h,t]). :- set_sw(c,[1.5,-0.5]).")


def test_nan_probabilities_are_refused():
    # every comparison with NaN is false, so only a check that p lies in [0,1] refuses it
    with pytest.raises(ProgramError, match=r"in \[0,1\]"):
        parse_program("values(c,[h,t]). :- set_sw(c,[nan,nan]).")


def test_float_literals_only_in_set_sw_lists():
    with pytest.raises(ParseError, match="float"):
        parse_program("p(0.5).")
    with pytest.raises(ParseError, match="float"):
        parse_program("p :- q(1.5).")
    with pytest.raises(ParseError, match="float"):
        parse_program("values(c, [a, 0.5]).")
    with pytest.raises(ParseError, match="float"):
        parse_program("p(f(g(0.5))).")
    # integers are fine anywhere
    prog = parse_program("p(2) :- q(3).")
    assert ("p", 1) in prog.clauses


def test_values_outcomes_must_be_ground_and_distinct():
    with pytest.raises(ProgramError, match="ground"):
        parse_program("values(c, [X, t]).")
    with pytest.raises(ProgramError, match="duplicate outcomes"):
        parse_program("values(c, [t, t]).")


def test_values_pattern_matching():
    prog = parse_program("values(r(_, _), [t, f]). :- set_sw(r(a,b), [0.9, 0.1]).")
    assert prog.switch_info(("r", "a", "b")).outcomes == ("t", "f")
    with pytest.raises(ProgramError, match="no values declaration"):
        prog.outcomes_for(("q", "a"))


def test_overlapping_values_declarations_rejected_on_use():
    prog = parse_program(
        "values(r(_,_), [t,f]). values(r(a,_), [x,y]). :- set_sw(r(b,c), [1.0, 0.0])."
    )
    with pytest.raises(ProgramError, match="overlapping"):
        prog.outcomes_for(("r", "a", "b"))


def test_disjunction_requires_parentheses():
    prog = parse_program("p :- (q ; r). q.")
    (clause,) = prog.clauses[("p", 0)]
    assert clause.body == ((";", "q", "r"),)
    with pytest.raises(ParseError):
        parse_program("p :- q ; r.")


def test_reserved_heads_cannot_be_redefined():
    for head in ("msw(a,b)", "true", "msw(a,b) :- x"):
        with pytest.raises(ProgramError, match="builtin"):
            parse_program(f"{head}.")


def test_comments_and_whitespace():
    prog = parse_program("% leading comment\np. % trailing\n\n  q :- p.\n")
    assert ("p", 0) in prog.clauses and ("q", 0) in prog.clauses


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as ei:
        parse_program("p :- q\nr.")
    assert ei.value.line == 2
    # an LF, a CRLF and a bare CR each end one line
    for text in ("p.\nq :- @.", "p.\r\nq :- @.", "p.\rq :- @."):
        with pytest.raises(ParseError) as ei:
            parse_program(text)
        assert (ei.value.line, ei.value.col) == (2, 6), repr(text)


def test_numbers_are_ascii_digits_only():
    # identifiers are ASCII, and so are numbers: an Arabic-Indic three is a
    # character that starts no token, not the integer 3
    with pytest.raises(ParseError, match="unexpected character") as ei:
        parse_goal("p(\u0663)")
    assert str(ei.value) == "unexpected character '\u0663' (line 1, column 3)"
    assert parse_goal("p(3)") == ("p", 3)


def test_parse_goal_conjunction_and_trailing_dot():
    g = parse_goal("p(a), q(b).")
    assert g == (",", ("p", "a"), ("q", "b"))
    with pytest.raises(ParseError, match="trailing"):
        parse_goal("p. q.")


def test_lists_round_trip():
    t = parse_goal("[a,b,c]")
    assert term_to_list(t) == ["a", "b", "c"]
    assert term_to_str(t) == "[a,b,c]"
    assert term_to_list("not_a_list") is None
    # improper list tail rendering
    v = Var("T")
    assert term_to_str((".", "a", v)) == "[a|T]"


def test_long_list_fact_loads():
    items = ",".join(f"a{k}" for k in range(5000))
    prog = parse_program(f"data([{items}]).")
    (clause,) = prog.clauses[("data", 1)]
    assert len(term_to_list(clause.head[1])) == 5000
    assert is_ground(clause.head)


def test_deep_compound_loads():
    # the parser spends one frame per nesting level of a compound, so 800
    # levels load under the default recursion limit; two would stop at 496
    term = "a"
    for _ in range(800):
        term = f"s({term})"
    (clause,) = parse_program(f"data({term}).").clauses[("data", 1)]
    assert is_ground(clause.head)


def test_term_to_str_round_trips_through_parse_goal():
    for text in ("reach(a,d)", "f(g(h(x)),y)", "p(1,q(2))", "atom"):
        assert term_to_str(parse_goal(text)) == text


def test_program_round_trips_through_pretty_printer():
    from plpmcmc.bench import fig1

    prog = parse_program(fig1().text)
    again = parse_program(program_to_str(prog))
    assert program_to_str(again) == program_to_str(prog)
    assert program_to_str(parse_program(program_to_str(again))) == program_to_str(again)


def test_unify_basics():
    x, y = Var("X"), Var("Y")
    theta = unify(("f", x, "b"), ("f", "a", y), {})
    assert theta[x] == "a" and theta[y] == "b"
    assert unify(("f", "a"), ("f", "b"), {}) is None
    assert unify(("f", "a"), ("g", "a"), {}) is None
    # occurs check
    assert unify(x, ("f", x), {}) is None
    # input substitution is never mutated
    base = {}
    unify(x, "a", base)
    assert base == {}


def test_unify_distinguishes_int_and_atom():
    # '0' the atom can never leak into arithmetic and vice versa
    assert unify(0, "0", {}) is None
    assert unify(0, 0, {}) == {}


def test_match_pattern_repeated_variables():
    # a repeated variable in a values pattern matches only equal subterms
    prog = parse_program("values(r(X, X), [t, f]). values(r(a, b), [u, v]).")
    assert prog.outcomes_for(("r", "a", "a")) == ("t", "f")
    assert prog.outcomes_for(("r", "a", "b")) == ("u", "v")
    with pytest.raises(ProgramError, match="no values declaration"):
        prog.outcomes_for(("r", "b", "a"))


def test_clause_compilation_slots():
    prog = parse_program("p(X, Y) :- q(X), r(Y, X).")
    (c,) = prog.clauses[("p", 2)]
    assert repr(c) == "p(X,Y) :- q(X), r(Y,X)."
    # the evaluator numbers clause variables in order of first occurrence
    (ops, nvars, _body, pad), key, _ = _compile_clause(c, {}, set())
    assert nvars == 2 and [op[2] for op in ops] == [0, 1] and pad == [] and key is None


@st.composite
def ground_terms(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["a", "b", "c", 0, 1, 7]))
    functor = draw(st.sampled_from(["f", "g"]))
    n = draw(st.integers(1, 3))
    return (functor,) + tuple(draw(ground_terms(depth=depth - 1)) for _ in range(n))


@given(ground_terms())
def test_ground_term_rendering_parses_back(t):
    # integers print as themselves; atoms/compounds in concrete syntax
    assert parse_goal(term_to_str(t)) == t


@given(ground_terms(), ground_terms())
def test_unify_ground_terms_is_equality(a, b):
    theta = unify(a, b, {})
    assert (theta == {}) == (a == b)
    assert (theta is None) == (a != b)


def test_clause_requires_callable_head():
    with pytest.raises(ProgramError, match="callable"):
        parse_program("3.")
    assert Clause("p", []).head == "p"


# -- the front end, pinned ---------------------------------------------------
#
# Digests are the first 16 hex digits of a sha256 over a repr, as the engine
# and chain pins are.  The parse pin predates the tokenizer's one-pass forms
# (a `finditer` pass, then a `findall` pass of token strings that locates an
# error by scanning the text again).  The error pin last moved when a bare
# CR began to end a line, as a CRLF and an LF do.  Any change to a parse
# result, an error message or an error position changes them.


def _digest(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def test_parse_results_are_pinned():
    cases = small_benchmarks() + [gen_bn(4, 4, 3, seed=s) for s in (0, 1, 2, 4)]
    out = [
        (program_to_str(parse_program(c.text)), parse_goal(c.query_text),
         parse_goal(c.evidence_text))
        for c in cases
    ]
    out += [program_to_str(parse_program(t)) for t in (HEAD_SHAPES_TEXT, MSW_VALUE_TEXT)]
    assert _digest(out) == "63249f2c5ed875c1"


# (reader, text): every `raise` of the tokenizer, the parser, `parse_program`,
# `_normalize_msw` and `_validate_distributions`, placed on the first line,
# after blank lines, after a `%` comment, after `\r\n`, after a tab, after a
# bare `\r` and at end of input.
PROGRAM_ERRORS = [
    # the tokenizer
    "p :- q & r.",
    "\n\n  p(a) = b.",
    "% comment\np :- q, !.",
    "p.\r\nq :- @.",
    "p.\n\tq(a, $).",
    "p.\rq(é).",
    "p.\n#",
    "p(-).",
    # expected token
    "p(a, b.",
    "\n\np(f(a)",
    "% c\np([a, b).",
    "p.\r\n\tq([a|b, c]).",
    "p :- q(a)",
    ":- set_sw(c, [0.5, 0.5])\n",
    "p :- (q, r.",
    "p :- q % no newline",
    # float literals outside set_sw lists
    "p(0.5).",
    "\n\np :- q(1e3).",
    "% c\nvalues(c, [a, 2.5]).",
    "p.\r\n\tp(f(g(-0.5))).",
    # unexpected token
    "p :- .",
    ")",
    "\n\n  p :- q, , r.",
    "% c\np([a|]).",
    "p.\r\nq :- (",
    "p :- % c\n",
    # clause head not followed by '.' or ':-'
    "p q.",
    "\n\np(a)",
    "% c\np(a) r.",
    "p.\r\n\tq ; r.",
    # set_sw directives
    ":- set_sw(c(X), [0.5, 0.5]).",
    "\n\n:- set_sw(c, 1).",
    "% c\n:- set_sw(c, [0.5|T]).",
    "values(c, [a, b]).\r\n\t:- set_sw(c, [a, b]).",
    "values(c, [a, b]).\n:- set_sw(c, [f(a), 1]).",
    "values(c, [a, b]).\n:- set_sw(c, [0.5, 0.5]).\n:- set_sw(c, [0.2, 0.8]).",
    ":- foo.",
    "\n\n:- set_sw(c).",
    "p.\r\n\t:- q, r.",
    "p.\r:- foo.",
    # values declarations
    "values(c, [a]) :- p.",
    "\n\nvalues(c, a).",
    "% c\nvalues(c, [a|b]).",
    "values(c, [X, t]).",
    "p.\r\n\tvalues(c, [t, t]).",
    # clause heads
    "set_sw(c, [1, 0]).",
    "\n\n\tset_sw(c, [1, 0]) :- p.",
    "msw(a, b).",
    "% c\ntrue :- p.",
    "(a, b).",
    "p.\r\n(a ; b) :- c.",
    "3.",
    "\n\n\tX :- p.",
    # msw arity
    "p :- msw(a).",
    "% c\np :- q, msw(a, b, c, d).",
    "p :- (q ; msw(a)).",
    # distributions
    ":- set_sw(c, [0.5, 0.5]).",
    "values(r(_), [a, b]).\nvalues(r(a), [a, b]).\n:- set_sw(r(a), [0.5, 0.5]).",
    "values(d, [a, b, c]).\r\n:- set_sw(d, [0.5, 0.5]).",
    "values(c, [h, t]).\n\t:- set_sw(c, [1.5, -0.5]).",
    "values(c, [h, t]).\n% c\n:- set_sw(c, [0.5, 0.6]).",
]
GOAL_ERRORS = [
    "",
    "p q",
    "\n\np. q.",
    "% c\np(a), q ; r)",
    "p(a,\r\n\tb",
    "[a, b",
    "p(0.5)",
    "\tmsw(a)",
    "p & q",
]


def _error(reader, text):
    with pytest.raises(PlpError) as ei:
        reader(text)
    e = ei.value
    return (type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "col", None))


def test_parse_errors_are_pinned():
    out = [_error(parse_program, t) for t in PROGRAM_ERRORS]
    out += [_error(parse_goal, t) for t in GOAL_ERRORS]
    assert _digest(out) == "5415ffdb25e2bfff"


@pytest.mark.parametrize("reader, text, line, col", [
    (parse_program, "values(c,[h,t]).\np(a, b", 2, 7),
    (parse_program, "p :- q\n", 2, 1),
    (parse_program, "p :- q % no newline", 1, 20),
    (parse_goal, "", 1, 1),
    (parse_goal, "p(a,\r\n\tb", 2, 3),
    (parse_goal, "p(a,\r\tb", 2, 3),
])
def test_end_of_input_is_just_past_the_last_character(reader, text, line, col):
    with pytest.raises(ParseError, match="end of input") as ei:
        reader(text)
    assert (ei.value.line, ei.value.col) == (line, col)
    assert str(ei.value).endswith(f"(line {line}, column {col})")


# -- the tokenizer against the one it replaced -------------------------------
#
# The tokenizer before it became one `findall` pass of token strings: one
# named group per token kind, read with `finditer`, from whose match offsets a
# bad character's line and column were computed at once (here with a bare CR
# ending a line, as the parser now counts it).
_REFERENCE_TOKEN_RE = re.compile(
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


def _reference_tokens(text):
    """The reference's token strings, or its error as (message, line, column)."""
    toks = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            head = text[:m.start()].replace("\r\n", "\n").replace("\r", "\n")
            line, col = head.count("\n") + 1, len(head) - head.rfind("\n")
            return f"unexpected character {m.group()!r} (line {line}, column {col})", line, col
        if m.lastgroup != "ws":
            toks.append(m.group())
    return toks


def _tokens(text):
    try:
        return _Parser(text).toks[:-1]
    except ParseError as e:
        return str(e), e.line, e.col


LEXEMES = st.sampled_from([
    "p", "reach", "X", "Foo_1", "_", "_x", "abc3", "-1", "2.5e3", "0.5", "7", "1.", "1e",
    "2e+", "-", ":", ":-", "(", ")", "[", "]", ",", "|", ";", ".", " ", "\t", "\n", "\r",
    "\r\n", "% c & \u00e9 $\n", "% no newline \u00e9", "\u00e9", "&", "%",
])


@settings(max_examples=500, deadline=None)
@given(st.lists(LEXEMES, max_size=30).map("".join))
def test_tokenizer_matches_the_finditer_reference(text):
    assert _tokens(text) == _reference_tokens(text)


# -- values lookup against a scan of every pattern ---------------------------


def _scan_outcomes(prog, s):
    """`Program.outcomes_for` as it was: unify every values pattern."""
    hits = [outs for pat, outs in prog.values_decls if unify(pat, s, {}) is not None]
    if not hits:
        raise ProgramError(f"no values declaration matches switch {term_to_str(s)}")
    if len(hits) > 1:
        raise ProgramError(f"overlapping values declarations match switch {term_to_str(s)}")
    return hits[0]


def _outcome(lookup, s):
    try:
        return lookup(s)
    except ProgramError as e:
        return str(e)


def _compounds(functors, args):
    return st.tuples(st.sampled_from(functors), st.lists(args, min_size=1, max_size=3)).map(
        lambda fa: f"{fa[0]}({','.join(fa[1])})"
    )


# atoms, an integer, variables, and compounds of arity 1-3 whose arguments
# may repeat a variable (`f(X,X)`) or nest a compound
PATTERN_ARGS = st.sampled_from(["a", "b", "1", "_", "X", "Y", "g(X)", "g(a)"])
PATTERNS = st.one_of(st.sampled_from(["a", "b", "3", "X", "_"]),
                     _compounds(["f", "g"], PATTERN_ARGS))
SWITCHES = st.one_of(st.sampled_from(["a", "b", "c", "3", "4"]),
                     _compounds(["f", "g", "h"], st.sampled_from(["a", "b", "1", "g(a)", "g(b)"])))


@settings(max_examples=300, deadline=None)
@given(st.lists(PATTERNS, max_size=6), st.lists(SWITCHES, min_size=1, max_size=8))
def test_outcomes_for_matches_a_scan_of_every_pattern(patterns, switches):
    prog = parse_program("".join(f"values({p}, [o{k}]).\n" for k, p in enumerate(patterns)))
    for s in map(parse_goal, switches):
        assert _outcome(prog.outcomes_for, s) == _outcome(lambda s: _scan_outcomes(prog, s), s)
