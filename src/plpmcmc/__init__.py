"""plpmcmc: MCMC-based conditional inference for PRISM-style probabilistic
logic programs, with Q-value proposal adaptation and exact brute-force oracles.
"""
