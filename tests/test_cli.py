"""Command-line interface: exit codes, output formats, file artifacts."""

import re

import pytest

from plpmcmc.cli import CSV_HEADER, main
from plpmcmc.lang import parse_program
from plpmcmc.mcmc import ChainConfig, run_chain

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
        parse_program(PROG_TEXT), "q", "e", ChainConfig(steps=500, seed=3)
    ).estimate
    assert abs(float(m.group(1)) - expected) <= 5e-7
    assert "# program: " in err
    assert "# mode: mcmc" in err
    assert "# resample: single" in err
    assert "pooled:" not in out


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

    csv_path = tmp_path / "exact.csv"
    assert run_cli([
        "exact", "--program", prog_path, "--query", "q", "--evidence", "e",
        "--csv", str(csv_path),
    ]) == 0
    capsys.readouterr()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p_query,p_evidence,p_joint,p_conditional,leaf_count"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(0.18, abs=1e-12)


DEEP_HEAD = "values(x, [t, f]).\n:- set_sw(x, [0.5, 0.5]).\n"


def _list_fact_program(n):
    items = ",".join(f"a{k}" for k in range(n))
    return DEEP_HEAD + f"data([{items}]).\nq :- msw(x, t), data(L).\n"


def _write(tmp_path, text):
    p = tmp_path / "deep.plp"
    p.write_text(text, encoding="utf-8")
    return str(p)


# The world route still recurses once per list element (oracle._rename).
@pytest.mark.parametrize(
    ("method", "size"),
    [("tree", 400), ("tree", 800), ("tree", 2000), ("worlds", 400), ("worlds", 800)],
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


def test_too_deep_list_fact_is_one_error_line(tmp_path, capsys):
    path = _write(tmp_path, _list_fact_program(1000))
    code = run_cli(["exact", "--program", path, "--query", "q", "--method", "worlds"])
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
        ChainConfig(steps=300, seed=5, adaptive=True),
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
