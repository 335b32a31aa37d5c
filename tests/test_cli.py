"""Command-line interface: exit codes, output formats, file artifacts."""

import argparse
import random
import re

import pytest

from plpmcmc.adapt import independent_sampler
from plpmcmc.bench import gen_bn, gen_grammar
from plpmcmc.cli import CSV_HEADER, _build_parser, main
from plpmcmc.evaluator import initial_sample
from plpmcmc.lang import parse_program, term_to_str
from plpmcmc.mcmc import ChainConfig, MultiSwitch, run_chain
from plpmcmc.oracle import exact_conditional

PROG_TEXT = """\
values(x, [t, f]).
values(y, [t, f]).
values(z, [t, f]).
:- set_sw(x, [0.3, 0.7]).
:- set_sw(y, [0.6, 0.4]).
:- set_sw(z, [0.5, 0.5]).
e :- msw(x, t), msw(y, t).
q :- msw(y, t), msw(z, t).
"""

CHAIN_LINE = re.compile(
    r"chain 0: estimate=([01]\.\d{6}) accepted=\d+/\d+ "
    r"evidence_rejections=\d+ rejection_rate=\d\.\d{4} elapsed_s=\d+\.\d{3}"
)


@pytest.fixture()
def prog_path(tmp_path):
    p = tmp_path / "prog.plp"
    p.write_text(PROG_TEXT, encoding="utf-8")
    return str(p)


def run_cli(argv):
    return main(argv)


# -- run -------------------------------------------------------------------


def test_run_basic(prog_path, capsys):
    code = run_cli([
        "run", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--samples", "500", "--seed", "3",
    ])
    out, err = capsys.readouterr()
    assert code == 0
    m = CHAIN_LINE.search(out)
    assert m, out
    # the printed estimate is the library's estimate for the same settings
    expected = run_chain(
        parse_program(PROG_TEXT), "q", "e",
        ChainConfig(steps=500, seed=3, strategy=MultiSwitch(0.5)),
    ).estimate
    assert abs(float(m.group(1)) - expected) <= 5e-7
    assert "# program: " in err
    assert "# mode: mcmc" in err
    assert "# resample: multi" in err
    assert "pooled:" not in out


@pytest.mark.parametrize("adapt", ["off", "on"])
@pytest.mark.parametrize("case", [gen_grammar(4, 2), gen_grammar(8, 3)], ids=lambda c: c.name)
def test_default_run_moves_between_grammar_worlds(case, adapt, tmp_path, capsys):
    # a single-switch chain cannot leave the world it starts in on these
    # programs; the default multi-switch chain lands near the exact answer
    path = tmp_path / f"{case.name}.plp"
    path.write_text(case.text, encoding="utf-8")
    truth = exact_conditional(case.program, case.query, case.evidence).p_conditional
    for seed in range(3):
        code = run_cli([
            "run", "--program", str(path), "--query", case.query_text,
            "--evidence", case.evidence_text, "--samples", "5000",
            "--seed", str(seed), "--adapt", adapt,
        ])
        out, _err = capsys.readouterr()
        assert code == 0
        estimate = float(CHAIN_LINE.search(out).group(1))
        assert abs(estimate - truth) <= 0.1, (seed, estimate, truth)


def test_run_multi_resample_manifest(prog_path, capsys):
    code = run_cli([
        "run", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--samples", "200", "--resample", "multi", "--multi-prob", "0.4",
    ])
    out, err = capsys.readouterr()
    assert code == 0
    assert "# multi_prob: 0.4" in err


def test_run_csv(prog_path, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = run_cli([
        "run", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--samples", "40", "--burnin", "10", "--csv", str(csv_path),
    ])
    capsys.readouterr()
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 50  # burn-in iterations are logged too
    first = lines[1].split(",")
    assert first[0] == "1"
    assert 0.0 <= float(first[1]) <= 1.0
    assert first[2] in ("0", "1") and first[3] in ("0", "1")
    last = lines[-1].split(",")
    assert last[0] == "50"


def test_run_multiple_chains_with_csv(prog_path, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = run_cli([
        "run", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--samples", "30", "--chains", "2", "--csv", str(csv_path),
    ])
    out, _err = capsys.readouterr()
    assert code == 0
    assert "chain 0: estimate=" in out
    assert "chain 1: estimate=" in out
    assert re.search(r"pooled: estimate=[01]\.\d{6} chains=2 spread=\d\.\d{6}", out)
    merged = csv_path.read_text(encoding="utf-8").splitlines()
    assert merged[0] == CSV_HEADER
    assert len(merged) == 1 + 60
    for k in (0, 1):
        part = (tmp_path / f"rows.chain{k}.csv").read_text(encoding="utf-8").splitlines()
        assert part[0] == CSV_HEADER
        assert len(part) == 1 + 30
    # concatenation preserves chain order
    assert merged[1:31] == (tmp_path / "rows.chain0.csv").read_text(
        encoding="utf-8"
    ).splitlines()[1:]
    assert merged[31:] == (tmp_path / "rows.chain1.csv").read_text(
        encoding="utf-8"
    ).splitlines()[1:]


def test_run_markovian(prog_path, capsys):
    code = run_cli([
        "run", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--samples", "2000", "--markovian", "on", "--seed", "1",
    ])
    out, err = capsys.readouterr()
    assert code == 0
    m = re.search(
        r"chain 0: estimate=([01]\.\d{6}) evidence_ok=(\d+)/2000 "
        r"joint_ok=\d+ monotonicity_violations=(\d+)",
        out,
    )
    assert m, out
    assert abs(float(m.group(1)) - 0.5) <= 0.05
    assert m.group(3) == "0"
    assert "# mode: independent" in err
    # the independent sampler always adapts
    assert "# adapt: on" in err


def test_run_usage_errors(prog_path, capsys):
    cases = [
        ["run", "--program", prog_path, "--query", "q", "--samples", "0"],
        ["run", "--program", prog_path, "--query", "q", "--samples", "10",
         "--burnin", "-1"],
        ["run", "--program", prog_path, "--query", "q", "--samples", "10",
         "--chains", "0"],
        ["run", "--program", prog_path, "--query", "q", "--samples", "10",
         "--multi-prob", "0"],
        ["run", "--program", prog_path, "--query", "q", "--samples", "10",
         "--markovian", "on", "--resample", "single"],
        ["run", "--program", prog_path, "--query", "q", "--samples", "10",
         "--markovian", "on", "--csv", "x.csv"],
        ["run", "--program", prog_path, "--query", "q", "--samples", "10",
         "--markovian", "on", "--burnin", "4"],
        ["run", "--program", prog_path, "--query", "q", "--samples", "10",
         "--step-limit", "0"],
        ["run", "--program", prog_path, "--query", "q", "--samples", "10",
         "--step-limit", "-5"],
    ]
    for argv in cases:
        assert run_cli(argv) == 2, argv
        _out, err = capsys.readouterr()
        assert err.strip().splitlines()[-1].startswith("error: "), argv


def test_run_parse_error_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.plp"
    bad.write_text("values(x, [t, f]", encoding="utf-8")  # unterminated
    code = run_cli([
        "run", "--program", str(bad), "--query", "q", "--samples", "10",
    ])
    _out, err = capsys.readouterr()
    assert code == 3
    assert "cannot parse" in err


@pytest.mark.parametrize("probs", ["0.5,1.5", "nan,nan"])
def test_exact_refuses_a_probability_outside_the_unit_interval(probs, tmp_path, capsys):
    bad = tmp_path / "bad.plp"
    bad.write_text(f"values(c,[h,t]).\n:- set_sw(c,[{probs}]).\nq :- msw(c,h).\n",
                   encoding="utf-8")
    code = run_cli(["exact", "--program", str(bad), "--query", "q"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: cannot parse {bad}: set_sw(c): probabilities must be in [0,1]"


def test_run_bad_goal_is_exit_3(prog_path, capsys):
    code = run_cli([
        "run", "--program", prog_path, "--query", "q q", "--samples", "10",
    ])
    _out, err = capsys.readouterr()
    assert code == 3


def test_run_missing_file_is_exit_4(tmp_path, capsys):
    code = run_cli([
        "run", "--program", str(tmp_path / "nope.plp"), "--query", "q",
        "--samples", "10",
    ])
    _out, err = capsys.readouterr()
    assert code == 4
    assert "cannot read" in err


def test_run_runtime_error_is_exit_4(prog_path, capsys):
    # well-formed goal over an undefined predicate fails at evaluation time
    code = run_cli([
        "run", "--program", prog_path, "--query", "nosuch", "--samples", "10",
        "--evidence", "e",
    ])
    _out, err = capsys.readouterr()
    assert code == 4
    assert "error: " in err


INPUTS = {
    "--program": (None, None, True),
    "--query": (None, None, True),
    "--evidence": ("true", None, False),
}
SAMPLER = {
    "--samples": (None, None, True),
    "--seed": (0, None, False),
    "--markovian": ("off", ["on", "off"], False),
    "--step-limit": (10**6, None, False),
}
# (default, choices, required) of every option of every subcommand
OPTIONS = {
    "run": {
        **INPUTS, **SAMPLER,
        "--burnin": (0, None, False),
        "--resample": (None, ["single", "multi"], False),
        "--multi-prob": (0.5, None, False),
        "--adapt": ("off", ["on", "off"], False),
        "--chains": (1, None, False),
        "--csv": (None, None, False),
    },
    "exact": {
        **INPUTS,
        "--method": ("tree", ["tree", "worlds"], False),
        "--csv": (None, None, False),
    },
    "genbench": {
        "--family": (None, ["fig1", "reach", "bn", "hamming", "grammar", "chain"], True),
        "--out": (None, None, True),
        "--seed": (0, None, False),
        "--rows": (2, None, False),
        "--cols": (2, None, False),
        "--evidence-count": (2, None, False),
        "--data-bits": (4, None, False),
        "--observe": (3, None, False),
        "--length": (8, None, False),
        "--level": (2, None, False),
        "--vertices": (6, None, False),
        "--extra-edges": (3, None, False),
        "--prefix": (6, None, False),
    },
    "qdump": {**INPUTS, **SAMPLER, "--out": (None, None, False)},
}


def test_subcommand_options_are_pinned():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sub.choices.keys() == OPTIONS.keys()
    for name, parser in sub.choices.items():
        got = {
            a.option_strings[0]: (a.default, a.choices, a.required)
            for a in parser._actions if a.option_strings and a.dest != "help"
        }
        assert got == OPTIONS[name], name


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- exact -----------------------------------------------------------------


def parse_exact_output(out):
    vals = {}
    for line in out.strip().splitlines():
        k, v = line.split(": ")
        vals[k] = float(v) if k != "leaf_count" else int(v)
    return vals


def _exact_text(capsys, *args):
    """`exact`'s stdout lines, by name, as printed."""
    assert run_cli(["exact", *args]) == 0
    return dict(line.split(": ") for line in capsys.readouterr()[0].strip().splitlines())


def test_exact_methods_agree(prog_path, tmp_path, capsys):
    assert run_cli([
        "exact", "--program", prog_path, "--query", "q", "--evidence", "e",
    ]) == 0
    tree = parse_exact_output(capsys.readouterr()[0])
    assert run_cli([
        "exact", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--method", "worlds",
    ]) == 0
    worlds = parse_exact_output(capsys.readouterr()[0])
    assert tree["p_evidence"] == pytest.approx(0.18, abs=1e-12)
    assert tree["p_conditional"] == pytest.approx(0.5, abs=1e-12)
    for k in ("p_query", "p_evidence", "p_joint", "p_conditional"):
        assert tree[k] == pytest.approx(worlds[k], abs=1e-12)

    # p_query is the marginal, bit for bit: the p_joint of evidence `true`,
    # on stdout and in the CSV
    csv_path = tmp_path / "exact.csv"
    for method in ("tree", "worlds"):
        inputs = ["--program", prog_path, "--query", "q", "--method", method]
        marginal = _exact_text(capsys, *inputs, "--evidence", "true")
        assert marginal["p_query"] == marginal["p_joint"]
        out = _exact_text(capsys, *inputs, "--evidence", "e", "--csv", str(csv_path))
        assert out["p_query"] == marginal["p_joint"], method
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p_query,p_evidence,p_joint,p_conditional,leaf_count"
        row = lines[1].split(",")
        assert row[0] == marginal["p_joint"], method
        assert float(row[1]) == pytest.approx(0.18, abs=1e-12)


DEEP_HEAD = "values(x, [t, f]).\n:- set_sw(x, [0.5, 0.5]).\n"


def _list_fact_program(n):
    items = ",".join(f"a{k}" for k in range(n))
    return DEEP_HEAD + f"data([{items}]).\nq :- msw(x, t), data(L).\n"


def _write(tmp_path, text):
    p = tmp_path / "deep.plp"
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.mark.parametrize(
    ("method", "size"),
    [("tree", 400), ("tree", 800), ("tree", 2000), ("worlds", 400), ("worlds", 800),
     ("worlds", 2000)],
)
def test_exact_long_list_fact(method, size, tmp_path, capsys):
    path = _write(tmp_path, _list_fact_program(size))
    assert run_cli(["exact", "--program", path, "--query", "q", "--method", method]) == 0
    assert parse_exact_output(capsys.readouterr()[0])["p_conditional"] == 0.5


def test_long_list_query(tmp_path, capsys):
    path = _write(tmp_path, DEEP_HEAD + "q(_) :- msw(x, t).\n")
    query = "q([" + ",".join(f"a{k}" for k in range(600)) + "])"
    assert run_cli(["exact", "--program", path, "--query", query, "--method", "tree"]) == 0
    assert parse_exact_output(capsys.readouterr()[0])["p_conditional"] == 0.5
    assert run_cli(["run", "--program", path, "--query", query, "--samples", "200"]) == 0
    assert 0.0 < float(CHAIN_LINE.search(capsys.readouterr()[0]).group(1)) < 1.0


def test_chain_runs_on_long_list_fact():
    for size in (800, 2000):
        prog = parse_program(_list_fact_program(size))
        result = run_chain(prog, "q", "true", ChainConfig(steps=200, seed=0))
        assert 0.0 < result.estimate < 1.0


def test_search_walks_a_long_list(tmp_path, capsys):
    # the search looks up each len/2 call's list argument in the index
    items = ",".join(f"a{k}" for k in range(2000))
    text = DEEP_HEAD + (
        "values(y, [t, f]).\n:- set_sw(y, [0.5, 0.5]).\n"
        f"data([{items}]).\nlen([], z).\nlen([_|T], s(N)) :- len(T, N).\n"
        "q :- msw(x, t), data(L), len(L, N).\nr :- msw(y, t).\n"
    )
    assert initial_sample(parse_program(text), "q", random.Random(0)) == {("x", 0): "t"}
    path = _write(tmp_path, text)
    assert run_cli(["run", "--program", path, "--query", "r", "--evidence", "q",
                    "--samples", "50"]) == 0
    assert 0.0 <= float(CHAIN_LINE.search(capsys.readouterr()[0]).group(1)) <= 1.0


def _open_list_fact_program(n):
    items = ",".join(f"a{k}" for k in range(n))
    return DEEP_HEAD + f"data([{items}|_]).\nq :- msw(x, t), data(L).\n"


@pytest.mark.parametrize("size", [1000, 5000])
def test_exact_open_tailed_list_fact_under_worlds(size, tmp_path, capsys):
    # the world prover renames a clause term with variables on an explicit
    # stack, so an open-tailed list of any length answers
    path = _write(tmp_path, _open_list_fact_program(size))
    assert run_cli(["exact", "--program", path, "--query", "q", "--method", "worlds"]) == 0
    assert parse_exact_output(capsys.readouterr()[0])["p_conditional"] == 0.5


@pytest.mark.parametrize("size", [1000, 5000])
def test_open_tailed_list_fact_under_tree_and_chains(size, tmp_path, capsys):
    # the evaluator builds a clause term with variables on an explicit stack,
    # so the tree route and chains answer on an open-tailed list of any length
    text = _open_list_fact_program(size)
    path = _write(tmp_path, text)
    assert run_cli(["exact", "--program", path, "--query", "q", "--method", "tree"]) == 0
    assert parse_exact_output(capsys.readouterr()[0])["p_conditional"] == 0.5
    result = run_chain(parse_program(text), "q", "true", ChainConfig(steps=200, seed=0))
    assert 0.0 < result.estimate < 1.0


def test_too_deep_compound_is_one_error_line(tmp_path, capsys):
    # The parser reads a compound term recursively, so a term nested 5000
    # deep overflows Python's stack.
    term = "a"
    for _ in range(5000):
        term = f"f({term})"
    path = _write(tmp_path, DEEP_HEAD + f"data({term}).\nq :- msw(x, t), data(L).\n")
    code = run_cli(["exact", "--program", path, "--query", "q", "--method", "tree"])
    out, err = capsys.readouterr()
    assert code in (3, 4)
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("method", ["tree", "worlds"])
def test_deep_derivation(method, tmp_path, capsys):
    rules = "".join(f"d{k} :- d{k + 1}.\n" for k in range(1200))
    path = _write(tmp_path, DEEP_HEAD + "q :- msw(x, t), d0.\n" + rules + "d1200.\n")
    assert run_cli(["exact", "--program", path, "--query", "q", "--method", method]) == 0
    assert parse_exact_output(capsys.readouterr()[0])["p_conditional"] == 0.5


def test_looping_program_hits_the_world_step_budget(tmp_path, capsys):
    path = _write(tmp_path, DEEP_HEAD + "loop :- loop.\nq :- msw(x, t), loop.\n")
    code = run_cli(["exact", "--program", path, "--query", "q", "--method", "worlds"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "step budget" in err


@pytest.mark.parametrize("method", ["tree", "worlds"])
def test_exact_refuses_a_goal_that_is_not_ground(method, tmp_path, capsys):
    base = tmp_path / "fig1"
    assert run_cli(["genbench", "--family", "fig1", "--out", str(base)]) == 0
    capsys.readouterr()
    code = run_cli(["exact", "--program", f"{base}.plp", "--query", "reach(a,X)",
                    "--evidence", "reach(a,e)", "--method", method])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == "error: goal must be ground: reach(a,X)\n"


# -- genbench --------------------------------------------------------------


@pytest.mark.parametrize(
    "family,extra",
    [
        ("fig1", []),
        ("reach", ["--vertices", "5", "--extra-edges", "2"]),
        ("bn", ["--rows", "2", "--cols", "2", "--evidence-count", "1"]),
        ("hamming", ["--data-bits", "3", "--observe", "2"]),
        ("grammar", ["--length", "6", "--level", "2"]),
        ("chain", ["--length", "8", "--prefix", "5"]),
    ],
)
def test_genbench_families(family, extra, tmp_path, capsys):
    base = tmp_path / family
    code = run_cli(
        ["genbench", "--family", family, "--out", str(base), "--seed", "2"] + extra
    )
    out, _err = capsys.readouterr()
    assert code == 0
    assert f"wrote {base}.plp" in out
    prog = parse_program((tmp_path / f"{family}.plp").read_text(encoding="utf-8"))
    assert prog.dists
    manifest = (tmp_path / f"{family}.manifest").read_text(encoding="utf-8")
    assert "name: " in manifest and "query: " in manifest


def test_exact_worlds_answers_a_generated_grid(tmp_path, capsys):
    # 25 switches, 2^25 complete worlds
    base = tmp_path / "bn"
    assert run_cli([
        "genbench", "--family", "bn", "--out", str(base), "--seed", "0",
        "--rows", "3", "--cols", "3", "--evidence-count", "2",
    ]) == 0
    capsys.readouterr()
    manifest = dict(line.split(": ", 1) for line in
                    (tmp_path / "bn.manifest").read_text(encoding="utf-8").splitlines())
    assert run_cli([
        "exact", "--program", f"{base}.plp", "--query", manifest["query"],
        "--evidence", manifest["evidence"], "--method", "worlds",
    ]) == 0
    worlds = parse_exact_output(capsys.readouterr()[0])
    case = gen_bn(3, 3, 2, 0)
    tree = exact_conditional(case.program, case.query, case.evidence)
    for k in ("p_evidence", "p_joint", "p_conditional"):
        assert worlds[k] == pytest.approx(getattr(tree, k), abs=1e-12)
    p_query = exact_conditional(case.program, case.query, "true").p_joint
    assert worlds["p_query"] == pytest.approx(p_query, abs=1e-12)
    assert worlds["leaf_count"] == tree.leaf_count == 164


def test_genbench_bad_params_exit_2(tmp_path, capsys):
    code = run_cli([
        "genbench", "--family", "chain", "--out", str(tmp_path / "x"),
        "--length", "1", "--prefix", "1",
    ])
    _out, err = capsys.readouterr()
    assert code == 2
    assert "bad chain parameters" in err


# -- qdump -----------------------------------------------------------------


def test_qdump_matches_library_run(prog_path, capsys):
    code = run_cli([
        "qdump", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--samples", "300", "--seed", "5",
    ])
    out, _err = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "switch,instance,outcome,q,count,total"
    res = run_chain(
        parse_program(PROG_TEXT), "q", "e",
        ChainConfig(steps=300, seed=5, strategy=MultiSwitch(0.5), adaptive=True),
    )
    expected = {
        (s, i, v): (q, c, t) for (s, i, v), q, c, t in res.qstore.items()
    }
    assert len(lines) - 1 == len(expected)
    for line in lines[1:]:
        s, i, v, q, c, t = line.split(",")
        key = (s, int(i), v)
        assert key in expected
        eq, ec, et = expected[key]
        assert float(q) == eq
        assert int(c) == ec
        assert float(t) == et


def test_qdump_markovian_to_file(prog_path, tmp_path, capsys):
    out_path = tmp_path / "q.csv"
    code = run_cli([
        "qdump", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--samples", "200", "--markovian", "on", "--out", str(out_path),
    ])
    out, _err = capsys.readouterr()
    assert code == 0
    assert f"wrote {out_path}" in out
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "switch,instance,outcome,q,count,total"
    assert len(lines) > 1
    # the rows are the independent sampler's Q-store, as the library gives it
    store = independent_sampler(parse_program(PROG_TEXT), "q", "e", 200).qstore
    assert lines[1:] == [
        f"{term_to_str(s)},{term_to_str(i)},{term_to_str(v)},{q!r},{c},{t!r}"
        for (s, i, v), q, c, t in store.items()
    ]


def test_qdump_fixed_settings_are_not_options(prog_path):
    # qdump runs `run`'s sampler with burn-in, chains, strategy and adaptation fixed
    with pytest.raises(SystemExit) as exc:
        main(["qdump", "--program", prog_path, "--query", "q", "--samples", "10",
              "--burnin", "1"])
    assert exc.value.code == 2


def test_qdump_usage_error(prog_path, capsys):
    assert run_cli([
        "qdump", "--program", prog_path, "--query", "q", "--samples", "0",
    ]) == 2
    capsys.readouterr()
    assert run_cli([
        "qdump", "--program", prog_path, "--query", "q", "--samples", "10",
        "--step-limit", "0",
    ]) == 2
    _out, err = capsys.readouterr()
    assert err.strip().splitlines()[-1] == "error: --step-limit must be positive"
