"""Command-line front end.

Subcommands:
    run       MCMC (or, with --markovian on, adaptive independent) sampling
    exact     brute-force exact inference
    genbench  write a generated benchmark program plus its manifest
    qdump     run `run`'s sampler with fixed settings (its default multi-switch
              resampling, adaptation on, one chain, no burn-in) and dump the
              learned Q-table as CSV

Exit codes: 0 ok, 2 usage, 3 parse error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from .lang import ParseError, PlpError, ProgramError, parse_goal, parse_program, term_to_str
from .evaluator import DEFAULT_STEP_LIMIT
from .mcmc import ChainConfig, MultiSwitch, SingleSwitch, run_chain
from .adapt import independent_sampler
from .oracle import exact_conditional, exact_conditional_worlds
from . import bench

CSV_HEADER = "iter,estimate,accepted,evidence_ok,cum_evidence_rejections,elapsed_us"


class _Fail(Exception):
    """Internal: carry an exit code and one-line diagnostic to main()."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _on(value: str) -> bool:
    return value == "on"


def _parse_goal_arg(text: str, what: str):
    try:
        return parse_goal(text)
    except (ParseError, RecursionError) as e:
        raise _Fail(3, f"cannot parse {what}: {e}")


def _inputs(args):
    """The program, query and evidence that `run`, `exact` and `qdump` read."""
    try:
        with open(args.program, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _Fail(4, f"cannot read program file: {e}")
    try:
        prog = parse_program(text)
    except (ParseError, ProgramError, RecursionError) as e:
        raise _Fail(3, f"cannot parse {args.program}: {e}")
    return (prog, _parse_goal_arg(args.query, "query"),
            _parse_goal_arg(args.evidence, "evidence"))


def _build_parser() -> argparse.ArgumentParser:
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--program", required=True)
    inputs.add_argument("--query", required=True)
    inputs.add_argument("--evidence", default="true")
    sampler = argparse.ArgumentParser(add_help=False)
    sampler.add_argument("--samples", type=int, required=True)
    sampler.add_argument("--seed", type=int, default=0)
    sampler.add_argument("--markovian", choices=["on", "off"], default="off")
    sampler.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT)

    ap = argparse.ArgumentParser(prog="plpmcmc")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[inputs, sampler],
                         help="sample a conditional query")
    run.add_argument("--burnin", type=int, default=0)
    run.add_argument("--resample", choices=["single", "multi"], default=None)
    run.add_argument("--multi-prob", type=float, default=0.5)
    run.add_argument("--adapt", choices=["on", "off"], default="off")
    run.add_argument("--chains", type=int, default=1)
    run.add_argument("--csv", default=None)
    run.set_defaults(func=_cmd_run)

    exact = sub.add_parser("exact", parents=[inputs],
                           help="exact conditional by enumeration")
    exact.add_argument("--method", choices=["tree", "worlds"], default="tree")
    exact.add_argument("--csv", default=None)
    exact.set_defaults(func=_cmd_exact)

    gen = sub.add_parser("genbench", help="generate a benchmark program")
    gen.add_argument("--family", required=True,
                     choices=["fig1", "reach", "bn", "hamming", "grammar", "chain"])
    gen.add_argument("--out", required=True, help="output basename (.plp/.manifest)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rows", type=int, default=2)
    gen.add_argument("--cols", type=int, default=2)
    gen.add_argument("--evidence-count", type=int, default=2)
    gen.add_argument("--data-bits", type=int, default=4)
    gen.add_argument("--observe", type=int, default=3)
    gen.add_argument("--length", type=int, default=8)
    gen.add_argument("--level", type=int, default=2)
    gen.add_argument("--vertices", type=int, default=6)
    gen.add_argument("--extra-edges", type=int, default=3)
    gen.add_argument("--prefix", type=int, default=6)
    gen.set_defaults(func=_cmd_genbench)

    qd = sub.add_parser("qdump", parents=[inputs, sampler],
                        help="dump learned Q-values as CSV")
    qd.add_argument("--out", default=None, help="CSV path (default: stdout)")
    # `run`'s settings, fixed: one adaptive chain with `run`'s default
    # resampling (multi-switch, p = 0.5), no burn-in, no rows
    qd.set_defaults(func=_cmd_qdump, burnin=0, resample=None, multi_prob=0.5,
                    adapt="on", chains=1, csv=None)

    return ap


# ---------------------------------------------------------------------------
# run and qdump
# ---------------------------------------------------------------------------


def _check(args):
    """The usage checks of `run` and `qdump`, in the order they report."""
    if args.samples <= 0:
        raise _Fail(2, "--samples must be positive")
    if args.burnin < 0:
        raise _Fail(2, "--burnin cannot be negative")
    if args.chains <= 0:
        raise _Fail(2, "--chains must be positive")
    if args.step_limit <= 0:
        raise _Fail(2, "--step-limit must be positive")
    if _on(args.markovian) and args.resample is not None:
        raise _Fail(2, "--markovian on draws independent samples; --resample does not apply")
    if _on(args.markovian) and args.csv is not None:
        raise _Fail(2, "--csv is not available with --markovian on")
    if _on(args.markovian) and args.burnin:
        raise _Fail(2, "--markovian on uses every sample; --burnin does not apply")
    if not (0.0 < args.multi_prob <= 1.0):
        raise _Fail(2, "--multi-prob must be in (0, 1]")


def _chains(args, prog, query, evidence):
    """Yield the result of each of `args.chains` chains, seeded `args.seed + k`:
    an `IndependentResult` with --markovian on, else a `ChainResult`."""
    strategy = SingleSwitch() if args.resample == "single" else MultiSwitch(args.multi_prob)
    for k in range(args.chains):
        if _on(args.markovian):
            yield independent_sampler(prog, query, evidence, args.samples,
                                      seed=args.seed + k, step_limit=args.step_limit)
        else:
            yield run_chain(prog, query, evidence, ChainConfig(
                steps=args.samples,
                burn_in=args.burnin,
                strategy=strategy,
                adaptive=_on(args.adapt),
                seed=args.seed + k,
                step_limit=args.step_limit,
                collect_rows=args.csv is not None,
            ))


def _echo_manifest(pairs):
    for k, v in pairs:
        print(f"# {k}: {v}", file=sys.stderr)


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for it, est, acc, e_ok, cum_rej, us in rows:
            fh.write(f"{it},{est!r},{int(acc)},{int(e_ok)},{cum_rej},{us}\n")


def _chain_csv_path(base: str, k: int) -> str:
    if "." in base.rsplit("/", 1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}.chain{k}.{ext}"
    return f"{base}.chain{k}"


def _cmd_run(args) -> int:
    _check(args)
    prog, query, evidence = _inputs(args)
    markovian = _on(args.markovian)
    resample = "-" if markovian else args.resample or "multi"
    _echo_manifest([
        ("program", args.program),
        ("query", args.query),
        ("evidence", args.evidence),
        ("mode", "independent" if markovian else "mcmc"),
        ("resample", resample),
        ("multi_prob", args.multi_prob if resample == "multi" else "-"),
        # the independent sampler always adapts
        ("adapt", "on" if markovian else args.adapt),
        ("samples", args.samples),
        ("burnin", args.burnin),
        ("seed", args.seed),
        ("chains", args.chains),
        ("step_limit", args.step_limit),
    ])
    estimates = []
    chain_rows = []
    for k, res in enumerate(_chains(args, prog, query, evidence)):
        estimates.append(res.estimate)
        if markovian:
            print(
                f"chain {k}: estimate={res.estimate:.6f} "
                f"evidence_ok={res.evidence_successes}/{res.samples} "
                f"joint_ok={res.joint_successes} "
                f"monotonicity_violations={res.monotonicity_violations}"
            )
            continue
        chain_rows.append(res.rows)
        total = res.burn_in + res.steps
        print(
            f"chain {k}: estimate={res.estimate:.6f} "
            f"accepted={res.accepted}/{total} "
            f"evidence_rejections={res.evidence_rejections} "
            f"rejection_rate={res.evidence_rejections / total:.4f} "
            f"elapsed_s={res.elapsed_s:.3f}"
        )
    if args.csv is not None:
        if args.chains > 1:
            # deterministic merge: per-chain files, then chain-order concatenation
            for k, rows in enumerate(chain_rows):
                _write_csv(_chain_csv_path(args.csv, k), rows)
        _write_csv(args.csv, [row for rows in chain_rows for row in rows])
    if len(estimates) > 1:
        pooled = statistics.fmean(estimates)
        spread = statistics.pstdev(estimates)
        print(f"pooled: estimate={pooled:.6f} chains={len(estimates)} spread={spread:.6f}")
    return 0


def _cmd_qdump(args) -> int:
    _check(args)
    store = next(_chains(args, *_inputs(args))).qstore
    lines = ["switch,instance,outcome,q,count,total"]
    for (s, i, v), q, c, t in store.items():
        lines.append(f"{term_to_str(s)},{term_to_str(i)},{term_to_str(v)},{q!r},{c},{t!r}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _cmd_exact(args) -> int:
    prog, query, evidence = _inputs(args)
    fn = exact_conditional if args.method == "tree" else exact_conditional_worlds
    res = fn(prog, query, evidence)
    p_query = (res if evidence == "true" else fn(prog, query, "true")).p_joint
    print(f"p_query: {p_query!r}")
    print(f"p_evidence: {res.p_evidence!r}")
    print(f"p_joint: {res.p_joint!r}")
    print(f"p_conditional: {res.p_conditional!r}")
    print(f"leaf_count: {res.leaf_count}")
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("p_query,p_evidence,p_joint,p_conditional,leaf_count\n")
            fh.write(
                f"{p_query!r},{res.p_evidence!r},{res.p_joint!r},"
                f"{res.p_conditional!r},{res.leaf_count}\n"
            )
    return 0


# ---------------------------------------------------------------------------
# genbench
# ---------------------------------------------------------------------------


def _make_case(args):
    fam = args.family
    try:
        if fam == "fig1":
            return bench.fig1()
        if fam == "reach":
            return bench.random_reach(args.vertices, seed=args.seed,
                                      extra_edges=args.extra_edges)
        if fam == "bn":
            return bench.gen_bn(args.rows, args.cols, args.evidence_count,
                                seed=args.seed)
        if fam == "hamming":
            return bench.gen_hamming(args.data_bits, observe_count=args.observe,
                                     seed=args.seed)
        if fam == "grammar":
            return bench.gen_grammar(args.length, args.level)
        return bench.gen_chain(args.length, args.prefix, seed=args.seed)
    except ValueError as e:
        raise _Fail(2, f"bad {fam} parameters: {e}")


def _cmd_genbench(args) -> int:
    case = _make_case(args)
    prog_path = args.out + ".plp"
    man_path = args.out + ".manifest"
    with open(prog_path, "w", encoding="utf-8") as fh:
        fh.write(case.text)
    with open(man_path, "w", encoding="utf-8") as fh:
        fh.write(case.manifest_text())
    print(f"wrote {prog_path}")
    print(f"wrote {man_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Fail as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (PlpError, OSError, RecursionError) as e:
        # a RecursionError is a term nested deeper than the parser can read
        # or than Python can hash or compare as a tuple; the engines' own
        # term walkers do not recurse
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
