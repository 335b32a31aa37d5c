"""Benchmark program generators: grid BNs, Hamming codes, parenthesis
grammars, probabilistic-graph reachability, and a chain program with prefix
evidence.  All emit plain program text so every case round-trips through the
parser; desk-scale instances (<= 12 switch instances) are exactly checkable
by both oracles.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from .lang import Program, parse_goal, parse_program


@dataclass
class BenchCase:
    """A generated program plus the query/evidence pair that goes with it."""

    name: str
    family: str
    text: str
    query_text: str
    evidence_text: str
    seed: int | None = None
    _program: Program | None = field(default=None, repr=False, compare=False)

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = parse_program(self.text)
        return self._program

    @property
    def query(self):
        return parse_goal(self.query_text)

    @property
    def evidence(self):
        return parse_goal(self.evidence_text)

    @property
    def n_switches(self) -> int:
        """Size of the declared switch-instance universe (one instance each)."""
        return len(self.program.dists)

    def manifest_text(self) -> str:
        lines = [
            f"name: {self.name}",
            f"family: {self.family}",
            f"seed: {'-' if self.seed is None else self.seed}",
            f"query: {self.query_text}",
            f"evidence: {self.evidence_text}",
            f"switches: {self.n_switches}",
        ]
        return "\n".join(lines) + "\n"


def _fmt(p: float) -> str:
    return repr(float(p))


# ---------------------------------------------------------------------------
# Reachability over probabilistic graphs
# ---------------------------------------------------------------------------

FIG1_EDGES = (
    ("a", "b", 0.9),
    ("a", "c", 0.2),
    ("b", "d", 0.8),
    ("b", "e", 0.01),
    ("c", "d", 0.7),
    ("c", "e", 0.1),
)


def reach_text(edges) -> str:
    """Program text for reachability over a probabilistic edge list."""
    lines = [f"poss_edge({u},{v})." for u, v, _p in edges]
    lines.append("")
    lines.append("values(r(_,_), [t,f]).")
    for u, v, p in edges:
        lines.append(f":- set_sw(r({u},{v}), [{_fmt(p)},{_fmt(1.0 - p)}]).")
    lines.append("")
    lines.append("edge(X,Y) :- poss_edge(X,Y), msw(r(X,Y),t).")
    lines.append("reach(X,Y) :- edge(X,Y).")
    lines.append("reach(X,Y) :- edge(X,Z), reach(Z,Y).")
    return "\n".join(lines) + "\n"


def gen_reach(edges, query_text, evidence_text="true", name="reach", seed=None) -> BenchCase:
    """Reachability case for an explicit DAG edge/probability list."""
    return BenchCase(
        name=name,
        family="reach",
        text=reach_text(edges),
        query_text=query_text,
        evidence_text=evidence_text,
        seed=seed,
    )


def fig1() -> BenchCase:
    """The six-edge example graph with query reach(a,d), evidence reach(a,e)."""
    return gen_reach(FIG1_EDGES, "reach(a,d)", "reach(a,e)", name="fig1")


def random_reach(n_vertices: int, seed: int, extra_edges: int = 3) -> BenchCase:
    """Random DAG on `n_vertices` named vertices; every vertex is reachable
    from the first one by construction, so the evidence goal is satisfiable."""
    if not 2 <= n_vertices <= 26:
        raise ValueError("vertex count must be between 2 and 26")
    rng = random.Random(f"{seed}/reach")
    names = string.ascii_lowercase[:n_vertices]
    edges = {}
    for j in range(1, n_vertices):
        i = rng.randrange(j)
        edges[(names[i], names[j])] = round(rng.uniform(0.05, 0.95), 2)
    budget = extra_edges
    attempts = 0
    while budget > 0 and attempts < 50 * extra_edges:
        attempts += 1
        i, j = sorted(rng.sample(range(n_vertices), 2))
        key = (names[i], names[j])
        if key not in edges:
            edges[key] = round(rng.uniform(0.05, 0.95), 2)
            budget -= 1
    edge_list = sorted((u, v, p) for (u, v), p in edges.items())
    targets = rng.sample(names[1:], 2)
    return gen_reach(
        edge_list,
        f"reach({names[0]},{targets[0]})",
        f"reach({names[0]},{targets[1]})",
        name=f"reach{n_vertices}s{seed}",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Grid Bayesian networks
# ---------------------------------------------------------------------------


def gen_bn(rows: int, cols: int, evidence_count: int, seed: int = 0) -> BenchCase:
    """Boolean-valued BN on a rows x cols grid; each node's parents are its
    left and top neighbours.  One switch per (node, parent valuation), CPTs
    randomized from the bench seed.  Evidence fixes `evidence_count` node
    values drawn from a forward sample; the query is a remaining node."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    if not 0 <= evidence_count < len(nodes):
        raise ValueError("evidence count must leave at least one query node")
    rng = random.Random(f"{seed}/bn")

    def parents(r, c):
        ps = []
        if c > 0:
            ps.append((r, c - 1))
        if r > 0:
            ps.append((r - 1, c))
        return ps

    def node(r, c):
        return f"n({r},{c})"

    vals = ("t", "f")
    arities = sorted({len(parents(r, c)) for r, c in nodes})
    lines = [f"values(cpt{k}({','.join('_' * (k + 1))}), [t,f])." for k in arities]
    lines.append("")
    cpt = {}  # (node, parent-values tuple) -> P(t)
    for r, c in nodes:
        ps = parents(r, c)
        for combo in _valuations(len(ps), vals):
            pt = round(rng.uniform(0.05, 0.95), 2)
            cpt[((r, c), combo)] = pt
            args = ",".join((node(r, c),) + combo)
            lines.append(f":- set_sw(cpt{len(ps)}({args}), [{_fmt(pt)},{_fmt(1.0 - pt)}]).")
    lines.append("")
    for r, c in nodes:
        ps = parents(r, c)
        if not ps:
            lines.append(f"val({node(r, c)}, V) :- msw(cpt0({node(r, c)}), V).")
        else:
            parts = []
            pvars = []
            for k, (pr, pc) in enumerate(ps):
                pv = f"P{k}"
                pvars.append(pv)
                parts.append(f"val({node(pr, pc)}, {pv})")
            args = ",".join([node(r, c)] + pvars)
            parts.append(f"msw(cpt{len(ps)}({args}), V)")
            lines.append(f"val({node(r, c)}, V) :- {', '.join(parts)}.")
    text = "\n".join(lines) + "\n"

    # forward-sample one world to get satisfiable, realistic evidence values
    sampled = {}
    for r, c in nodes:
        combo = tuple(sampled[p] for p in parents(r, c))
        pt = cpt[((r, c), combo)]
        sampled[(r, c)] = "t" if rng.random() < pt else "f"
    chosen = rng.sample(nodes, evidence_count) if evidence_count else []
    remaining = [nd for nd in nodes if nd not in chosen]
    q_node = remaining[-1]
    query_text = f"val({node(*q_node)}, t)"
    if chosen:
        evidence_text = ", ".join(
            f"val({node(r, c)}, {sampled[(r, c)]})" for r, c in chosen
        )
    else:
        evidence_text = "true"
    return BenchCase(
        name=f"bn{rows}x{cols}e{evidence_count}s{seed}",
        family="bn",
        text=text,
        query_text=query_text,
        evidence_text=evidence_text,
        seed=seed,
    )


def _valuations(n, vals):
    if n == 0:
        return [()]
    rest = _valuations(n - 1, vals)
    return [(v,) + tail for v in vals for tail in rest]


# ---------------------------------------------------------------------------
# Hamming codes
# ---------------------------------------------------------------------------


def hamming_layout(data_bits: int):
    """Standard single-error-correcting layout: parity bits at power-of-two
    positions, each covering the positions whose index has that bit set.
    Returns (total_bits, data positions in order, {parity position: covered
    data positions})."""
    if data_bits < 1:
        raise ValueError("need at least one data bit")
    p = 0
    while (1 << p) < data_bits + p + 1:
        p += 1
    total = data_bits + p
    parity_pos = {1 << j for j in range(p)}
    data_pos = [i for i in range(1, total + 1) if i not in parity_pos]
    covered = {
        1 << j: [i for i in data_pos if i & (1 << j)]
        for j in range(p)
    }
    return total, data_pos, covered


def gen_hamming(data_bits: int, observe_count: int = 3, seed: int = 0) -> BenchCase:
    """Hamming-code program: independent fair data-bit switches, parity bits
    as XOR clauses.  Evidence fixes `observe_count` positions of an actually
    sampled codeword (parity is deterministic, so arbitrary observations could
    be contradictory); the query is one non-evidence position."""
    total, data_pos, covered = hamming_layout(data_bits)
    if not 0 <= observe_count < total:
        raise ValueError("must leave at least one unobserved position")
    rng = random.Random(f"{seed}/hamming")
    dname = {pos: f"d{k + 1}" for k, pos in enumerate(data_pos)}

    lines = ["values(bit(_), [0, 1])."]
    for pos in data_pos:
        lines.append(f":- set_sw(bit({dname[pos]}), [0.5, 0.5]).")
    lines.append("")
    lines.append("xor(0, 0, 0).")
    lines.append("xor(0, 1, 1).")
    lines.append("xor(1, 0, 1).")
    lines.append("xor(1, 1, 0).")
    lines.append("")
    lines.append("databit(K, V) :- msw(bit(K), V).")
    for pos in range(1, total + 1):
        if pos in dname:
            lines.append(f"code({pos}, V) :- databit({dname[pos]}, V).")
        else:
            cov = covered[pos]
            if len(cov) == 1:
                parts = [f"databit({dname[cov[0]]}, V)"]
            else:
                parts = [f"databit({dname[cov[0]]}, X1)"]
                acc = "X1"
                for k, dp in enumerate(cov[1:], start=2):
                    out = "V" if k == len(cov) else f"X{k}"
                    parts.append(f"databit({dname[dp]}, Y{k})")
                    parts.append(f"xor({acc}, Y{k}, {out})")
                    acc = out
            lines.append(f"code({pos}, V) :- {', '.join(parts)}.")
    text = "\n".join(lines) + "\n"

    data_vals = {pos: rng.randrange(2) for pos in data_pos}
    word = {}
    for pos in range(1, total + 1):
        if pos in dname:
            word[pos] = data_vals[pos]
        else:
            bit = 0
            for dp in covered[pos]:
                bit ^= data_vals[dp]
            word[pos] = bit
    observed = sorted(rng.sample(range(1, total + 1), observe_count))
    q_pos = rng.choice([i for i in range(1, total + 1) if i not in observed])
    query_text = f"code({q_pos}, 1)"
    if observed:
        evidence_text = ", ".join(f"code({i}, {word[i]})" for i in observed)
    else:
        evidence_text = "true"
    return BenchCase(
        name=f"hamming{data_bits}o{observe_count}s{seed}",
        family="hamming",
        text=text,
        query_text=query_text,
        evidence_text=evidence_text,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Parenthesis grammar
# ---------------------------------------------------------------------------


def _peano(n: int) -> str:
    return "s(" * n + "z" + ")" * n


def gen_grammar(length: int, level: int) -> BenchCase:
    """Random parenthesis strings: each character an independent fair switch
    over {open, close}.  Evidence: the string is balanced.  Query: the maximum
    nesting level (unmatched opens in a left-to-right scan) reaches `level`.
    Evidence and query share the character switches."""
    if length < 2 or length % 2:
        raise ValueError("length must be even and at least 2 for a balanced string")
    if level < 0:
        raise ValueError("level must be nonnegative")
    lines = ["values(ch(_), [open, close])."]
    for k in range(1, length + 1):
        lines.append(f":- set_sw(ch(p{k}), [0.5, 0.5]).")
    lines.append("")
    for k in range(1, length):
        lines.append(f"nextp(p{k}, p{k + 1}).")
    lines.append(f"nextp(p{length}, end).")
    lines.append("")
    lines.append("step(open, N, s(N)).")
    lines.append("step(close, s(N), N).")
    lines.append("")
    lines.append("balanced :- scan(p1, z).")
    lines.append("scan(end, z).")
    lines.append("scan(P, N) :- nextp(P, P2), msw(ch(P), C), step(C, N, N2), scan(P2, N2).")
    lines.append("")
    lines.append("nest_ge(L) :- climb(p1, z, L).")
    lines.append("climb(_, L, L).")
    lines.append("climb(P, N, L) :- nextp(P, P2), msw(ch(P), C), step(C, N, N2), climb(P2, N2, L).")
    text = "\n".join(lines) + "\n"
    return BenchCase(
        name=f"grammar{length}l{level}",
        family="grammar",
        text=text,
        query_text=f"nest_ge({_peano(level)})",
        evidence_text="balanced",
    )


# ---------------------------------------------------------------------------
# Chain program with prefix evidence
# ---------------------------------------------------------------------------


def gen_chain(length: int = 10, prefix_len: int = 6, seed: int = 0) -> BenchCase:
    """Chain of independent up/down switches.  Evidence: the first
    `prefix_len` steps all come up `up` (evaluation stops at the first
    `down`, so evidence consistency after any step depends only on the later
    steps — a Markovian evaluation structure).  Each switch is consulted at
    most once per evaluation: the pick guards the continuation, so a `down`
    fails the whole derivation without any clause re-consulting the frozen
    outcome.  The query is an `up`-run overlapping the evidence prefix and
    extending past it."""
    if length < 2:
        raise ValueError("chain length must be at least 2")
    if not 1 <= prefix_len <= length:
        raise ValueError("prefix length must be within the chain")
    rng = random.Random(f"{seed}/chain")
    lines = ["values(step(_), [up, down])."]
    for k in range(1, length + 1):
        p_up = round(rng.uniform(0.55, 0.85), 2)
        lines.append(f":- set_sw(step(k{k}), [{_fmt(p_up)},{_fmt(1.0 - p_up)}]).")
    lines.append("")
    for k in range(1, length):
        lines.append(f"nextk(k{k}, k{k + 1}).")
    lines.append("")
    lines.append("chainup(K, E) :- msw(step(K), up), chaincont(K, E).")
    lines.append("chaincont(K, K).")
    lines.append("chaincont(K, E) :- nextk(K, K2), chainup(K2, E).")
    lines.append("prefix_up(K) :- chainup(k1, K).")
    text = "\n".join(lines) + "\n"
    q_start = max(1, prefix_len - 2)
    q_end = min(length, prefix_len + 2)
    return BenchCase(
        name=f"chain{length}p{prefix_len}s{seed}",
        family="chain",
        text=text,
        query_text=f"chainup(k{q_start}, k{q_end})",
        evidence_text=f"prefix_up(k{prefix_len})",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------


def small_benchmarks() -> list[BenchCase]:
    """Desk-scale catalogue (every case <= 12 switch instances) spanning all
    families; used for oracle cross-validation and evaluator property tests."""
    cases = [
        fig1(),
        gen_reach(FIG1_EDGES, "reach(a,e)", "reach(a,d)", name="fig1rev"),
        random_reach(4, seed=1, extra_edges=2),
        random_reach(5, seed=2, extra_edges=3),
        random_reach(6, seed=3, extra_edges=3),
        random_reach(10, seed=4, extra_edges=3),
        gen_bn(1, 1, 0, seed=5),
        gen_bn(2, 1, 1, seed=6),
        gen_bn(1, 3, 1, seed=7),
        gen_bn(2, 2, 1, seed=8),
        gen_bn(2, 2, 2, seed=9),
        gen_bn(2, 2, 2, seed=10),
        gen_hamming(2, observe_count=1, seed=11),
        gen_hamming(3, observe_count=2, seed=12),
        gen_hamming(4, observe_count=3, seed=13),
        gen_hamming(4, observe_count=2, seed=14),
        gen_hamming(3, observe_count=1, seed=15),
        gen_grammar(4, 1),
        gen_grammar(4, 2),
        gen_grammar(6, 2),
        gen_grammar(8, 2),
        gen_grammar(8, 3),
        gen_chain(10, 6, seed=16),
        gen_chain(8, 5, seed=17),
    ]
    for case in cases:
        if case.n_switches > 12:
            raise AssertionError(f"{case.name} exceeds the 12-switch budget")
    return cases


FAMILIES = {
    "reach": lambda seed: random_reach(6, seed=seed, extra_edges=3),
    "bn": lambda seed: gen_bn(2, 2, 2, seed=seed),
    "hamming": lambda seed: gen_hamming(4, observe_count=3, seed=seed),
    "grammar": lambda seed: gen_grammar(8, 2),
    "chain": lambda seed: gen_chain(10, 6, seed=seed),
}
