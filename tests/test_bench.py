"""Benchmark program generators: structure, determinism, satisfiability."""

import random

import pytest

from helpers import FAMILIES, program_to_str
from plpmcmc.bench import (
    fig1,
    gen_bn,
    gen_chain,
    gen_grammar,
    gen_hamming,
    gen_reach,
    hamming_layout,
    random_reach,
    small_benchmarks,
)
from plpmcmc.evaluator import sample_eval
from plpmcmc.lang import parse_program
from plpmcmc.oracle import exact_conditional, exact_conditional_worlds


@pytest.fixture(scope="module")
def catalogue():
    return small_benchmarks()


def test_catalogue_shape(catalogue):
    assert len(catalogue) == 24
    names = [c.name for c in catalogue]
    assert len(set(names)) == len(names)
    families = {c.family for c in catalogue}
    assert families == {"reach", "bn", "hamming", "grammar", "chain"}


def test_catalogue_parses_within_switch_budget(catalogue):
    for case in catalogue:
        prog = case.program
        assert 1 <= case.n_switches <= 12, case.name
        assert prog.clauses, case.name
        # query and evidence parse to ground terms usable as goals
        case.query
        case.evidence


def test_catalogue_round_trips_through_rendering(catalogue):
    for case in catalogue:
        text = program_to_str(case.program)
        assert program_to_str(parse_program(text)) == text, case.name


def test_catalogue_evidence_satisfiable(catalogue):
    for case in catalogue:
        res = exact_conditional(case.program, case.query, case.evidence)
        assert res.p_evidence > 0.0, case.name
        assert 0.0 <= res.p_conditional <= 1.0, case.name


def test_fig1_structure():
    case = fig1()
    assert case.name == "fig1"
    assert case.family == "reach"
    assert case.n_switches == 6
    assert case.query == ("reach", "a", "d")
    assert case.evidence == ("reach", "a", "e")
    probs = {s: case.program.dists[s] for s in case.program.dists}
    assert probs[("r", "a", "b")] == pytest.approx((0.9, 0.1), abs=1e-12)
    assert probs[("r", "b", "e")] == pytest.approx((0.01, 0.99), abs=1e-12)


def test_program_property_caches():
    case = fig1()
    assert case.program is case.program


def test_goal_properties_parse_once():
    case = fig1()
    assert case.query is case.query and case.evidence is case.evidence
    assert case.query == ("reach", "a", "d")


def test_generators_are_deterministic_per_seed():
    for family, make in FAMILIES.items():
        a, b = make(3), make(3)
        assert a.text == b.text, family
        assert a.query_text == b.query_text
        assert a.evidence_text == b.evidence_text
    # seeded families actually vary with the seed; the hamming program is
    # structurally fixed and only its sampled evidence depends on the seed
    for family in ("reach", "bn", "chain"):
        texts = {FAMILIES[family](seed).text for seed in range(4)}
        assert len(texts) > 1, family
    evidences = {FAMILIES["hamming"](seed).evidence_text for seed in range(6)}
    assert len(evidences) > 1


def test_family_constructors_tag_their_family():
    for family, make in FAMILIES.items():
        assert make(0).family == family


def test_hamming_layout():
    total, data_pos, covered = hamming_layout(4)
    assert total == 7
    assert data_pos == [3, 5, 6, 7]
    assert covered == {1: [3, 5, 7], 2: [3, 6, 7], 4: [5, 6, 7]}
    assert hamming_layout(1)[0] == 3


def test_generator_validation():
    with pytest.raises(ValueError):
        random_reach(1, seed=0)
    with pytest.raises(ValueError):
        random_reach(27, seed=0)
    with pytest.raises(ValueError):
        gen_bn(0, 1, 0)
    with pytest.raises(ValueError):
        gen_bn(1, 1, 1)  # evidence would cover every node
    with pytest.raises(ValueError):
        gen_hamming(0)
    with pytest.raises(ValueError):
        gen_hamming(4, observe_count=7)
    with pytest.raises(ValueError):
        gen_grammar(3, 1)
    with pytest.raises(ValueError):
        gen_grammar(2, -1)
    with pytest.raises(ValueError):
        gen_chain(1, 1)
    with pytest.raises(ValueError):
        gen_chain(8, 9)


def test_manifest_text():
    case = fig1()
    manifest = case.manifest_text()
    assert "name: fig1\n" in manifest
    assert "family: reach\n" in manifest
    assert "seed: -\n" in manifest
    assert "query: reach(a,d)\n" in manifest
    assert "evidence: reach(a,e)\n" in manifest
    assert manifest.endswith("switches: 6\n")
    seeded = gen_bn(2, 2, 1, seed=8).manifest_text()
    assert "seed: 8\n" in seeded


def test_chain_programs_never_reconsult_a_switch():
    # each step switch guards its continuation, so one evaluation consults
    # any switch instance at most once; re-consults would poison the
    # last-reward monotonicity diagnostic with frozen-pick duplicates
    for seed in (0, 16, 17):
        case = gen_chain(10, 6, seed=seed)
        prog = case.program
        for goal in (case.evidence, case.query):
            rng = random.Random(1234)
            for _ in range(200):
                res = sample_eval(prog, goal, {}, rng=rng)
                keys = [(s, i) for s, i, _v in res.trace]
                assert len(keys) == len(set(keys))


def test_dual_oracles_agree_on_catalogue_samples():
    for case in (
        fig1(),
        gen_bn(2, 2, 1, seed=8),
        gen_hamming(4, observe_count=3, seed=13),
        gen_grammar(6, 2),
        gen_chain(8, 5, seed=17),
    ):
        tree = exact_conditional(case.program, case.query, case.evidence)
        worlds = exact_conditional_worlds(case.program, case.query, case.evidence)
        assert tree.p_evidence == pytest.approx(worlds.p_evidence, abs=1e-12)
        assert tree.p_joint == pytest.approx(worlds.p_joint, abs=1e-12)
        assert tree.p_conditional == pytest.approx(worlds.p_conditional, abs=1e-12)
