"""Assignments: partial maps from switch instances to outcomes.

An assignment is a plain dict `{(switch, instance): outcome}` whose keys and
values are ground terms.  It stands for the set of possible worlds that agree
with it, and is the state of the MCMC chain.  Insertion order is preserved by
Python dicts, which keeps runs bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from .lang import Program, ProgramError, term_to_str


def sample_outcome(outcomes, probs, rng):
    """One categorical draw using a single rng.random() and a CDF walk."""
    r = rng.random()
    acc = 0.0
    for k in range(len(outcomes) - 1):
        acc += probs[k]
        if r < acc:
            return outcomes[k]
    return outcomes[-1]


def prob(assignment, prog: Program) -> float:
    """Product of the original outcome probabilities of all entries.

    The empty assignment has probability 1.
    """
    p = 1.0
    for (s, _i), v in assignment.items():
        info = prog.switch_info(s)
        k = info.index.get(v)
        if k is None:
            raise ProgramError(
                f"outcome {term_to_str(v)} is not declared for switch {term_to_str(s)}"
            )
        p *= info.probs[k]
    return p
