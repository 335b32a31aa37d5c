"""Effective sample size by Geyer's initial monotone sequence estimator.

Geyer (1992), "Practical Markov chain Monte Carlo", Statistical Science 7(4).
The autocovariances of the series are summed in adjacent pairs
Gamma_m = gamma_2m + gamma_2m+1; the sum stops at the first pair that is not
positive, and each pair is capped by the one before it, which makes the
sequence monotone.  Then tau = -1 + 2 * sum(Gamma_m) / gamma_0 and
ESS = n / tau.  A constant series carries no information about its mean's
variance and gets ESS 0.
"""

from __future__ import annotations


def ess(series) -> float:
    """Effective sample size of one chain's scalar series."""
    x = [float(v) for v in series]
    n = len(x)
    if n < 2:
        return 0.0
    mean = sum(x) / n
    d = [v - mean for v in x]
    gamma0 = sum(v * v for v in d) / n
    if gamma0 <= 0.0:
        return 0.0

    def autocov(lag):
        return sum(d[t] * d[t + lag] for t in range(n - lag)) / n

    total = 0.0
    prev = float("inf")
    lag = 0
    while lag + 1 < n:
        g0 = gamma0 if lag == 0 else autocov(lag)
        pair = g0 + autocov(lag + 1)
        if pair <= 0.0:
            break
        pair = min(pair, prev)
        total += pair
        prev = pair
        lag += 2
    tau = -1.0 + 2.0 * total / gamma0
    return n / tau if tau > 0.0 else float(n)


def indicator_from_running_estimate(estimates, burn_in=0):
    """Recover the per-iteration 0/1 query indicator from running estimates.

    `estimates[t]` is the running estimate after iteration t+1, as written in
    the `estimate` column of `plpmcmc run --csv` rows: 0.0 during burn-in, and
    afterwards (number of successes so far) / (iterations counted so far).
    """
    out = []
    prev = 0
    for it, est in enumerate(estimates, start=1):
        counted = it - burn_in
        if counted <= 0:
            continue
        hits = round(est * counted)
        out.append(hits - prev)
        prev = hits
    return out
