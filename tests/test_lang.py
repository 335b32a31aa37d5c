"""Parser, term representation and program declarations."""

import pytest
from hypothesis import given, strategies as st

from plpmcmc.evaluator import _compile_clause
from plpmcmc.lang import (
    Clause,
    ParseError,
    ProgramError,
    Var,
    is_ground,
    parse_goal,
    parse_program,
    program_to_str,
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


def test_term_to_str_round_trips_through_parse_goal():
    for text in ("reach(a,d)", "f(g(h(x)),y)", "p(1,q(2))", "atom"):
        assert term_to_str(parse_goal(text)) == text


def test_program_round_trips_through_pretty_printer():
    from plpmcmc.bench import fig1

    prog = parse_program(fig1().text)
    again = parse_program(program_to_str(prog))
    assert again == prog
    assert parse_program(program_to_str(again)) == again


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
    hargs, _fixed, nvars, _body, pad = _compile_clause(c, {})
    assert nvars == 2 and [a.i for a in hargs] == [0, 1] and pad == []


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
