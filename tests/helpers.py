"""Helpers that only the tests use: exclusivity of partial assignments, the
benchmark generator families by seed, a Q-store record read through
`QStore.items()`, a Q-store that never learns, a program printer for
round-trip tests and a program shared by the engine and oracle tests.  The
file name keeps pytest from collecting it; test modules import it as a
helper."""

from plpmcmc.adapt import QStore
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


class FrozenStore(QStore):
    """A Q-store that never learns: all Q-values stay at their initial 1."""

    __slots__ = ()

    def update(self, key, reward):
        pass


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
