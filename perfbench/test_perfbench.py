"""Tests of the benchmark's own parts: ESS, references, replay and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from plpmcmc import bench, evaluator, lang, mcmc, oracle  # noqa: E402

import ess  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# -- ESS ------------------------------------------------------------------


def test_ess_of_iid_series_is_about_n():
    rng = random.Random(1)
    n = 4000
    assert ess.ess([rng.random() for _ in range(n)]) == pytest.approx(n, rel=0.15)


def test_ess_of_constant_series_is_zero():
    assert ess.ess([1] * 500) == 0.0
    assert ess.ess([0.3] * 2) == 0.0


def test_ess_of_ar1_series_matches_theory():
    rng = random.Random(2)
    rho, n = 0.6, 20000
    x, xs = 0.0, []
    for _ in range(n):
        x = rho * x + rng.gauss(0.0, 1.0)
        xs.append(x)
    assert ess.ess(xs) == pytest.approx(n * (1 - rho) / (1 + rho), rel=0.2)


def test_indicator_recovered_from_running_estimate():
    rng = random.Random(3)
    burn_in = 7
    bits = [rng.random() < 0.4 for _ in range(300)]
    running, hits = [], 0
    for _ in range(burn_in):
        running.append(0.0)
    for t, b in enumerate(bits, start=1):
        hits += b
        running.append(hits / t)
    assert ess.indicator_from_running_estimate(running, burn_in) == [int(b) for b in bits]


# -- references -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_bn_enumerator_equals_world_oracle(seed):
    case = bench.gen_bn(2, 2, 2, seed=seed)
    prog = case.program
    got = reference.bn_conditional(prog, case.query, case.evidence)
    want = oracle.exact_conditional_worlds(prog, case.query, case.evidence).p_conditional
    assert got == pytest.approx(want, abs=1e-12)


def test_bn_enumerator_rejects_other_programs():
    with pytest.raises(reference.ReferenceError):
        reference.grid_network(lang.parse_program(
            "values(s, [t,f]).\n:- set_sw(s, [0.5,0.5]).\nval(a, V) :- msw(s, V), true.\n"
        ))


def test_fig1_world_oracle_gives_the_pinned_value():
    case = bench.fig1()
    got = oracle.exact_conditional_worlds(case.program, case.query, case.evidence)
    assert got.p_conditional == pytest.approx(reference.FIG1_CONDITIONAL, abs=1e-12)


# -- resolution-step replay -----------------------------------------------


@pytest.mark.parametrize("make", [bench.fig1, lambda: bench.gen_bn(3, 3, 2, seed=4)])
def test_replay_reproduces_success_and_trace(make):
    case = make()
    prog = case.program
    rng = random.Random(5)
    for goal in (case.evidence, case.query) * 5:
        res = evaluator.sample_eval(prog, goal, {}, rng=rng)
        steps, again = tracing.replay_steps(
            evaluator.sample_eval, evaluator.StepLimitExceeded, prog, goal, {},
            res.assignment,
        )
        assert again.success == res.success
        assert again.trace == res.trace
        with pytest.raises(evaluator.StepLimitExceeded):
            evaluator.sample_eval(prog, goal, res.assignment, rng=None, step_limit=steps - 1)


# -- tracing --------------------------------------------------------------


def _traced_fig1_chain(adaptive):
    case = bench.fig1()
    tr = tracing.Tracer()
    tr.install(tracing.TARGETS + (("plpmcmc.mcmc", "no_such_function", "x", None),))
    try:
        with tr.op(1):
            prog = lang.parse_program(case.text)
            cfg = mcmc.ChainConfig(steps=200, adaptive=adaptive, seed=3)
            mcmc.run_chain(prog, case.query, case.evidence, cfg)
    finally:
        tr.uninstall()
    return tr


def test_tracer_restores_attributes_and_reports_absent_targets():
    original = mcmc.sample_eval
    tr = _traced_fig1_chain(adaptive=False)
    assert mcmc.sample_eval is original
    assert tr.absent == ["plpmcmc.mcmc.no_such_function"]


def test_self_times_and_overhead_account_for_the_operation():
    tr = _traced_fig1_chain(adaptive=True)
    spans = tr.by_name()
    op_ns = spans["op"][1]
    assert sum(rec[2] for rec in spans.values()) + tr.overhead_ns == op_ns
    assert spans["evaluator.sample_eval"][0] >= 200
    assert spans["adapt.source"][0] > 0
    metrics, checks, shares = tracing.layer_metrics(tr, 1.0, 1.0, 0.0, evaluator)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(checks.values())
    assert metrics["evaluator.res_steps_per_eval"] > 0
    assert set(metrics) == {name for name, _unit, _better in tracing.PER_LAYER}


def test_run_first_spans_sit_inside_the_tree_route():
    case = bench.small_benchmarks()[2]
    tr = tracing.Tracer()
    tr.install()
    try:
        with tr.op(1):
            oracle.exact_conditional(case.program, case.query, case.evidence)
            oracle.exact_conditional_worlds(case.program, case.query, case.evidence)
    finally:
        tr.uninstall()
    ancestors = tr.ancestors_named("evaluator.run_first")
    assert ancestors and all("oracle.tree" in a for a in ancestors)
    assert not any("oracle.worlds" in a for a in ancestors)


# -- harness --------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([3, 1, 2])[0] == 1


class _Stub:
    """Operations are (name, answer); answers above 1 are wrong."""

    def wrong(self, op, outcome):
        return outcome.answer > 1

    def describe(self, op):
        return op[0]

    def group(self, op):
        return op[0]


def test_summary_times_every_operation():
    import workloads

    ok = workloads.Outcome(0.5, steps=10, ess=2.0)
    records = [
        run.Record(("a", 0), 1.0, 0.1, ok, None),
        run.Record(("a", 0), 3.0, 0.3, ok, None),
        run.Record(("a", 0), 2.0, 0.2, ok, None),
        run.Record(("b", 0), 5.0, 0.5, workloads.Outcome(7.0, steps=10), None),
        run.Record(("c", 0), 0.5, 0.4, None, "raised ValueError: x"),
    ]
    s = run.summarize(_Stub(), records)
    assert s["wall_s"] == 11.5
    assert s["op_seconds"] == [1.0, 3.0, 2.0, 5.0, 0.5]
    assert s["setup_s"] == 0.3
    assert s["steps"] == 40 and s["ess"] == 6.0
    assert s["raised"] == 1
    assert [w.split(":")[0] for w in s["wrong"]] == ["b", "c"]


def test_fig1_ess_comes_from_every_chain_row(tmp_path):
    import workloads

    class ShortFig1(workloads.Fig1):
        STEPS = 60
        BURN_IN = 6

    wl = ShortFig1(1, 0.1, tmp_path)
    wl.prepare()
    wl.ops = wl.ops[:4]
    records = run.run_ops(wl)
    assert all(r.error is None for r in records)
    assert all(r.outcome.steps == 66 for r in records)
    assert any(r.outcome.ess > 0 for r in records)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert {w["name"] for w in spec["workloads"]} == {"fig1", "bn-cli", "oracle"}


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
