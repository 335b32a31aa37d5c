"""Helpers that only the tests use: exclusivity of partial assignments, the
benchmark generator families by seed, a Q-store record read through
`QStore.items()`, a reference Q-store of plain dicts, a program printer for
round-trip tests and the programs that the engine, oracle and parser tests
share.  The file name keeps pytest from collecting it; test modules import
it as a helper."""

from plpmcmc.adapt import AVERAGING
from plpmcmc.bench import gen_bn, gen_chain, gen_grammar, gen_hamming, random_reach
from plpmcmc.lang import Program, term_to_str

# An msw whose value is a compound matched against a pattern that binds a
# variable: P(q | e) = 0.3 / 0.8 = 0.375.
MSW_VALUE_TEXT = """
values(s, [f(a), f(b), g(a)]).
:- set_sw(s, [0.5, 0.3, 0.2]).
q :- msw(s, f(X)), r(X).
r(b).
e :- msw(s, f(_)).
"""

# Clause heads of every shape the engine's head matcher compiles (repeated
# variables, nested and fixed arguments, list cells, occurs-check cases),
# with goals r1..r20 that reach them.
HEAD_SHAPES_TEXT = """
values(c(_), [t, f]).
values(k, [a, b]).
:- set_sw(c(a), [0.5, 0.5]).
:- set_sw(c(b), [0.4, 0.6]).
:- set_sw(c(g(a)), [0.3, 0.7]).
:- set_sw(c(g(b)), [0.6, 0.4]).
:- set_sw(c(1), [0.2, 0.8]).
:- set_sw(c([a, b]), [0.7, 0.3]).
:- set_sw(k, [0.5, 0.5]).
p(f(X, X)) :- msw(c(X), t).
p(f(b, Y)) :- msw(c(Y), f).
p(f(g(a), a)).
occ(X, f(X)).
q(a, 1).
q(X, 2) :- msw(c(X), t).
q(b, 3).
q(g(a), 4) :- msw(c(g(a)), f).
q(g(X), 5) :- msw(c(X), f).
q(1, 6).
q([a|T], 7) :- msw(c(a), t), len(T, _).
q([], 8).
sel(a, c(a)).
sel(b, k).
len([], z).
len([_|T], s(N)) :- len(T, N).
mem(X, [X|_]).
mem(X, [_|T]) :- mem(X, T).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
r1 :- p(f(Y, a)).
r2 :- p(f(g(Z), Z)).
r3 :- msw(k, V), p(f(V, W)), msw(c(W), t).
r4 :- occ(Y, Y).
r5 :- occ(A, f(A)), msw(c(a), t).
r6 :- occ(Y, f(g(Y))).
r7 :- occ(g(Y), f(Y)).
r8 :- msw(k, S), msw(c(S), V), occ(V, W), q(S, N), msw(c(b), N, V).
r9 :- msw(k, I), msw(c(a), I, V), msw(c(b), I, V).
r10 :- msw(k, S), sel(S, W), msw(W, V), msw(c(b), V, t).
r11 :- msw(c(U), t).
r12 :- msw(k, K), q(K, N), msw(c(a), N, t).
r13 :- q(g(a), N), msw(c(b), N, t).
r14 :- msw(k, K), q(g(K), N), msw(c(K), N, f).
r15 :- q([a, b], N), msw(c(1), N, t).
r16 :- len([a, b, c], N), msw(k, V), mem(V, [b, V, a]), msw(c(V), N, t).
r17 :- msw(k, V), mem(V, [a, b]), mem(g(V), [g(b), g(a)]), msw(c(g(V)), t).
r18 :- app(X, Y, [a, b]), msw(k, V), len(X, s(N)), msw(c(V), N, t).
r19 :- (msw(c(a), t) ; msw(c(b), t)), p(f(A, b)), msw(c(A), f).
r20 :- msw(k, X), q(X, 2), q(X, N), msw(c(b), N, f).
"""

_MISSING = object()


def mutually_exclusive(a, b) -> bool:
    """True iff the two assignments disagree on some shared switch instance
    (their world sets are then disjoint)."""
    if len(b) < len(a):
        a, b = b, a
    for key, v in a.items():
        w = b.get(key, _MISSING)
        if w is not _MISSING and w != v:
            return True
    return False


FAMILIES = {
    "reach": lambda seed: random_reach(6, seed=seed, extra_edges=3),
    "bn": lambda seed: gen_bn(2, 2, 2, seed=seed),
    "hamming": lambda seed: gen_hamming(4, observe_count=3, seed=seed),
    "grammar": lambda seed: gen_grammar(8, 2),
    "chain": lambda seed: gen_chain(10, 6, seed=seed),
}


def record(store, key):
    """(Q, count, total) of `key` in a Q-store, read through `items()`;
    (1.0, 0, 0.0) for a key never updated."""
    for k, q, count, total in store.items():
        if k == key:
            return q, count, total
    return 1.0, 0, 0.0


class DictStore:
    """A Q-store kept as three dicts, with the reward propagation and adapted
    vectors written against them: the reference the record-per-key store
    must match bit for bit.  `updates` logs every update as (key, count
    before, Q before, Q after), and `increases` counts the LastReward
    updates that raised an updated key's Q by more than 1e-9."""

    def __init__(self, mode=AVERAGING):
        self.mode = mode
        self.q, self.total, self.count = {}, {}, {}
        self.updates = []
        self.increases = 0

    def update(self, key, reward):
        q_before, c_before = self.q.get(key, 1.0), self.count.get(key, 0)
        if self.mode != AVERAGING and c_before and reward > q_before + 1e-9:
            self.increases += 1
        self.total[key] = self.total.get(key, 0.0) + reward
        self.count[key] = c_before + 1
        self.q[key] = self.total[key] / self.count[key] if self.mode == AVERAGING else reward
        self.updates.append((key, c_before, q_before, self.q[key]))

    def adapt(self, trace, reward, prog):
        r = reward
        for s, i, v in reversed(trace):
            self.update((s, i, v), r)
            info = prog.switch_info(s)
            acc = 0.0
            for k in range(len(info.outcomes)):
                acc += info.probs[k] * self.q.get((s, i, info.outcomes[k]), 1.0)
            r = acc

    def probs(self, s, i, info, floor):
        qs = [max(self.q.get((s, i, v), 1.0), floor) for v in info.outcomes]
        if all(q == qs[0] for q in qs):
            return info.probs
        weights = [info.probs[k] * qs[k] for k in range(len(qs))]
        total = sum(weights)
        return tuple(w / total for w in weights)

    def rows(self):
        """(key, Q, count, total) rows in first-update order, as
        `QStore.items()` reads them."""
        return [(k, self.q[k], self.count[k], self.total[k]) for k in self.q]


def program_to_str(prog: Program) -> str:
    """The program as source text, for parse-print round-trip tests."""
    lines = []
    for pat, outs in prog.values_decls:
        lines.append(f"values({term_to_str(pat)}, [{','.join(term_to_str(o) for o in outs)}]).")
    for s, probs in prog.dists.items():
        lines.append(f":- set_sw({term_to_str(s)}, [{','.join(repr(p) for p in probs)}]).")
    for clauses in prog.clauses.values():
        for c in clauses:
            lines.append(repr(c))
    return "\n".join(lines) + "\n"
