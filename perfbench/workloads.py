"""The three benchmark workloads.

Each workload turns the run seed into a fixed list of operations and
computes the reference answers without the sampling engine.  The runner then
executes the operations one at a time (a closed loop with one client, no
threads).  The amount of work depends only on the seed and on `--seconds`,
never on measured speed, so two commits run exactly the same operations.

fig1     one `run_chain` on the paper's Fig. 1 program from program text,
         cycling through {single, multi(0.5)} switch forgetting crossed with
         adaptation {off, on}, with chain seeds from the run seed.
bn-cli   one in-process `plpmcmc run --chains 2` command on one of four 4x4
         grid Bayesian networks with 3 evidence nodes, written by
         `plpmcmc genbench`; the operations cycle through the networks and
         `--resample single` / `multi`, with chain seeds from the run seed.
oracle   both exact routes (`exact_conditional`, `exact_conditional_worlds`)
         on one program of `small_benchmarks()`; the catalogue runs several
         times over, each pass in a seed-shuffled order.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import shutil
from pathlib import Path
from typing import NamedTuple

from plpmcmc import bench, cli, evaluator, lang, mcmc, oracle

import ess
import reference

# Chain tolerance: the acceptance suite allows +-0.02 at 10^5 chain steps;
# the benchmark scales that by the central limit rate to its own run length.
SUITE_TOL = 0.02
SUITE_STEPS = 100_000
# Two exact routes must agree to this, the rule test_02 uses.
ORACLE_TOL = 1e-12

def chain_tolerance(counted_steps):
    return SUITE_TOL * math.sqrt(SUITE_STEPS / counted_steps)


class Outcome(NamedTuple):
    """What one operation produced: its answer, chain steps and summed ESS."""

    answer: object
    steps: int = 0
    ess: float = 0.0


def _parse(text, query_text, evidence_text):
    return lang.parse_program(text), lang.parse_goal(query_text), lang.parse_goal(evidence_text)


def _ess_of_running_estimates(columns, burn_in):
    return sum(
        ess.ess(ess.indicator_from_running_estimate(col, burn_in)) for col in columns
    )


def _run_cli(argv):
    """`plpmcmc <argv>` in-process; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"plpmcmc {argv[0]} exited with code {rc}")
    return out.getvalue()


class Workload:
    """Base class.  `prepare` fills `ops`; the other methods take one op."""

    name = ""
    has_chains = True

    def __init__(self, seed, seconds, workdir: Path):
        self.seconds = seconds
        self.workdir = workdir
        self.rng = random.Random(f"{seed}/{self.name}")
        self.ops = []
        self.checks = {}

    def prepare(self):
        raise NotImplementedError

    def setup(self, op):
        """Program text to the first chain step: parse, goals, witness."""
        raise NotImplementedError

    def run(self, op):
        """The timed operation; returns its raw result."""
        raise NotImplementedError

    def collect(self, op, raw) -> Outcome:
        """Read a finished operation's raw result (untimed)."""
        raise NotImplementedError

    def wrong(self, op, outcome) -> bool:
        raise NotImplementedError

    def describe(self, op) -> str:
        """Unique name of the operation; repeated operations share it."""
        raise NotImplementedError

    def group(self, op) -> str:
        """Configuration label, for the per-configuration lines."""
        raise NotImplementedError


class Fig1(Workload):
    name = "fig1"
    STEPS = 1000
    BURN_IN = 100
    # About 0.22 s per chain on a 2-vCPU x86-64 VM with Python 3.11.
    OPS_PER_SECOND = 4.6
    CONFIGS = (
        ("single", mcmc.SingleSwitch(), False),
        ("single", mcmc.SingleSwitch(), True),
        ("multi", mcmc.MultiSwitch(0.5), False),
        ("multi", mcmc.MultiSwitch(0.5), True),
    )

    def prepare(self):
        case = bench.fig1()
        self.texts = (case.text, case.query_text, case.evidence_text)
        self.exact = oracle.exact_conditional_worlds(*_parse(*self.texts)).p_conditional
        self.checks["fig1 reference is the pinned P(q|e)"] = (
            abs(self.exact - reference.FIG1_CONDITIONAL) <= ORACLE_TOL
        )
        self.tol = chain_tolerance(self.STEPS)
        k = len(self.CONFIGS)
        n = k * max(3, round(self.seconds * self.OPS_PER_SECOND / k))
        self.ops = [(self.CONFIGS[i % k], self.rng.randrange(2**31)) for i in range(n)]

    def setup(self, op):
        _config, chain_seed = op
        prog, _q, e = _parse(*self.texts)
        evaluator.initial_sample(prog, e, random.Random(f"{chain_seed}/init"))

    def run(self, op):
        (_label, strategy, adaptive), chain_seed = op
        prog, q, e = _parse(*self.texts)
        # The rows cost two clock reads and a tuple per step, under 1% of a
        # step; replaying each chain untimed for them would double the run.
        # Without the flag the operation raises and counts as failed.
        cfg = mcmc.ChainConfig(
            steps=self.STEPS, burn_in=self.BURN_IN, strategy=strategy,
            adaptive=adaptive, seed=chain_seed, collect_rows=True,
        )
        return mcmc.run_chain(prog, q, e, cfg)

    def collect(self, op, res):
        """The chain's rows are the ones `plpmcmc run --csv` writes; their
        running estimates give the per-iteration query indicator."""
        if len(res.rows) != res.steps + res.burn_in:
            raise RuntimeError(f"{len(res.rows)} rows for {res.steps + res.burn_in} steps")
        return Outcome(
            res.estimate, res.steps + res.burn_in,
            _ess_of_running_estimates([[row[1] for row in res.rows]], res.burn_in),
        )

    def wrong(self, op, outcome):
        return abs(outcome.answer - self.exact) > self.tol

    def describe(self, op):
        return f"{self.group(op)} seed={op[1]}"

    def group(self, op):
        (label, _strategy, adaptive), _seed = op
        return f"{label}/adapt-{'on' if adaptive else 'off'}"


class BnCli(Workload):
    name = "bn-cli"
    # The networks are fixed and the run seed draws the chain seeds: the cost
    # of one command varies up to 8x between generator seeds, so networks
    # drawn per run would make the run-to-run spread exceed any usable bound.
    # Seed 3 is left out because its evidence holds the corner node n(3,3):
    # there the witness search takes 14 to 520 ms depending on the chain
    # seed, which alone moves wall_s by about 6% from run to run.
    NETWORK_SEEDS = (0, 1, 2, 4)
    ROWS = COLS = 4
    EVIDENCE = 3
    CHAINS = 2
    SAMPLES = 150
    BURN_IN = 15
    # About 0.38 s per command on a 2-vCPU x86-64 VM with Python 3.11.
    OPS_PER_SECOND = 2.6

    def prepare(self):
        progdir = self.workdir / "bn-cli"
        shutil.rmtree(progdir, ignore_errors=True)
        progdir.mkdir(parents=True)
        self.tol = chain_tolerance(self.CHAINS * self.SAMPLES)
        networks = [self._network(progdir, s) for s in self.NETWORK_SEEDS]
        cycle = [(net, mode) for net in networks for mode in ("single", "multi")]
        n = len(cycle) * max(2, round(self.seconds * self.OPS_PER_SECOND / len(cycle)))
        for i in range(n):
            net, mode = cycle[i % len(cycle)]
            self.ops.append(dict(
                net, resample=mode, seed=self.rng.randrange(2**31),
                csv=str(progdir / f"rows{i}.csv"),
            ))

    def _network(self, progdir, grid_seed):
        """Write one network with `plpmcmc genbench` and compute its answer."""
        base = progdir / f"grid{grid_seed}"
        _run_cli([
            "genbench", "--family", "bn", "--rows", str(self.ROWS),
            "--cols", str(self.COLS), "--evidence-count", str(self.EVIDENCE),
            "--seed", str(grid_seed), "--out", str(base),
        ])
        manifest = dict(
            line.split(": ", 1)
            for line in base.with_suffix(".manifest").read_text().splitlines()
        )
        plp = base.with_suffix(".plp")
        texts = (plp.read_text(), manifest["query"], manifest["evidence"])
        return {
            "grid_seed": grid_seed,
            "plp": str(plp),
            "texts": texts,
            "exact": reference.bn_conditional(*_parse(*texts)),
        }

    def setup(self, op):
        prog, _q, e = _parse(*op["texts"])
        evaluator.initial_sample(prog, e, random.Random(f"{op['seed']}/init"))

    def run(self, op):
        _text, query, evidence = op["texts"]
        return _run_cli([
            "run", "--program", op["plp"], "--query", query,
            "--evidence", evidence, "--samples", str(self.SAMPLES),
            "--burnin", str(self.BURN_IN), "--resample", op["resample"],
            "--chains", str(self.CHAINS), "--seed", str(op["seed"]),
            "--csv", op["csv"],
        ])

    def collect(self, op, stdout):
        m = re.search(r"^pooled: estimate=(\S+)", stdout, re.M)
        if m is None:
            raise RuntimeError("no pooled estimate in the run output")
        stem = op["csv"][: -len(".csv")]
        columns = []
        for k in range(self.CHAINS):
            lines = Path(f"{stem}.chain{k}.csv").read_text().splitlines()[1:]
            columns.append([float(line.split(",")[1]) for line in lines])
        return Outcome(
            float(m.group(1)), self.CHAINS * (self.SAMPLES + self.BURN_IN),
            _ess_of_running_estimates(columns, self.BURN_IN),
        )

    def wrong(self, op, outcome):
        return abs(outcome.answer - op["exact"]) > self.tol

    def describe(self, op):
        return f"{self.group(op)} --seed {op['seed']}"

    def group(self, op):
        return f"gen_bn(4,4,3,{op['grid_seed']})/{op['resample']}"


class Oracle(Workload):
    name = "oracle"
    has_chains = False
    # One catalogue pass, both routes, on a 2-vCPU x86-64 VM with Python 3.11.
    PASS_SECONDS = 5.0

    def prepare(self):
        cases = bench.small_benchmarks()
        passes = max(1, round(self.seconds / self.PASS_SECONDS))
        for _ in range(passes):
            order = list(cases)
            self.rng.shuffle(order)
            self.ops.extend(order)

    def setup(self, case):
        _parse(case.text, case.query_text, case.evidence_text)

    def run(self, case):
        prog, q, e = _parse(case.text, case.query_text, case.evidence_text)
        return (oracle.exact_conditional(prog, q, e),
                oracle.exact_conditional_worlds(prog, q, e))

    def collect(self, case, routes):
        return Outcome(routes)

    def wrong(self, case, outcome):
        tree, worlds = outcome.answer
        return any(
            abs(getattr(tree, f) - getattr(worlds, f)) > ORACLE_TOL
            for f in ("p_evidence", "p_joint", "p_conditional")
        )

    def describe(self, case):
        return case.name

    def group(self, case):
        return case.name


WORKLOADS = {w.name: w for w in (Fig1, BnCli, Oracle)}

