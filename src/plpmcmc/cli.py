"""Command-line front end.

Subcommands:
    run       MCMC (or, with --markovian on, adaptive independent) sampling
    exact     brute-force exact inference
    genbench  write a generated benchmark program plus its manifest
    qdump     run an adaptive sampler and dump the learned Q-table as CSV

Exit codes: 0 ok, 2 usage, 3 parse error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from .lang import ParseError, PlpError, ProgramError, parse_goal, parse_program, term_to_str
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


def _load_program(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _Fail(4, f"cannot read program file: {e}")
    try:
        return parse_program(text)
    except (ParseError, ProgramError, RecursionError) as e:
        raise _Fail(3, f"cannot parse {path}: {e}")


def _parse_goal_arg(text: str, what: str):
    try:
        return parse_goal(text)
    except (ParseError, RecursionError) as e:
        raise _Fail(3, f"cannot parse {what}: {e}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plpmcmc")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sample a conditional query")
    run.add_argument("--program", required=True)
    run.add_argument("--query", required=True)
    run.add_argument("--evidence", default="true")
    run.add_argument("--samples", type=int, required=True)
    run.add_argument("--burnin", type=int, default=0)
    run.add_argument("--resample", choices=["single", "multi"], default=None)
    run.add_argument("--multi-prob", type=float, default=0.5)
    run.add_argument("--adapt", choices=["on", "off"], default="off")
    run.add_argument("--markovian", choices=["on", "off"], default="off")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--chains", type=int, default=1)
    run.add_argument("--csv", default=None)
    run.add_argument("--step-limit", type=int, default=None)
    run.set_defaults(func=_cmd_run)

    exact = sub.add_parser("exact", help="exact conditional by enumeration")
    exact.add_argument("--program", required=True)
    exact.add_argument("--query", required=True)
    exact.add_argument("--evidence", default="true")
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

    qd = sub.add_parser("qdump", help="dump learned Q-values as CSV")
    qd.add_argument("--program", required=True)
    qd.add_argument("--query", required=True)
    qd.add_argument("--evidence", default="true")
    qd.add_argument("--samples", type=int, required=True)
    qd.add_argument("--seed", type=int, default=0)
    qd.add_argument("--markovian", choices=["on", "off"], default="off")
    qd.add_argument("--step-limit", type=int, default=None)
    qd.add_argument("--out", default=None, help="CSV path (default: stdout)")
    qd.set_defaults(func=_cmd_qdump)

    return ap


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _echo_manifest(pairs):
    for k, v in pairs:
        print(f"# {k}: {v}", file=sys.stderr)


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for it, est, acc, e_ok, cum_rej, us in rows:
            fh.write(f"{it},{est!r},{int(acc)},{int(e_ok)},{cum_rej},{us}\n")


def _print_pooled(estimates):
    """The `pooled:` summary line of a multi-chain run."""
    if len(estimates) > 1:
        pooled = statistics.fmean(estimates)
        spread = statistics.pstdev(estimates)
        print(f"pooled: estimate={pooled:.6f} chains={len(estimates)} spread={spread:.6f}")


def _chain_csv_path(base: str, k: int) -> str:
    if "." in base.rsplit("/", 1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}.chain{k}.{ext}"
    return f"{base}.chain{k}"


def _cmd_run(args) -> int:
    if args.samples <= 0:
        raise _Fail(2, "--samples must be positive")
    if args.burnin < 0:
        raise _Fail(2, "--burnin cannot be negative")
    if args.chains <= 0:
        raise _Fail(2, "--chains must be positive")
    markovian = _on(args.markovian)
    if markovian and args.resample is not None:
        raise _Fail(2, "--markovian on draws independent samples; --resample does not apply")
    if markovian and args.csv is not None:
        raise _Fail(2, "--csv is not available with --markovian on")
    resample = args.resample or "single"
    if not (0.0 < args.multi_prob <= 1.0):
        raise _Fail(2, "--multi-prob must be in (0, 1]")

    prog = _load_program(args.program)
    query = _parse_goal_arg(args.query, "query")
    evidence = _parse_goal_arg(args.evidence, "evidence")
    step_limit = args.step_limit
    _echo_manifest([
        ("program", args.program),
        ("query", args.query),
        ("evidence", args.evidence),
        ("mode", "independent" if markovian else "mcmc"),
        ("resample", "-" if markovian else resample),
        ("multi_prob", args.multi_prob if resample == "multi" else "-"),
        # the independent sampler always adapts
        ("adapt", "on" if markovian else args.adapt),
        ("samples", args.samples),
        ("burnin", args.burnin),
        ("seed", args.seed),
        ("chains", args.chains),
        ("step_limit", step_limit if step_limit is not None else "default"),
    ])

    if markovian:
        return _run_independent(args, prog, query, evidence)
    return _run_mcmc(args, prog, query, evidence, resample)


def _run_mcmc(args, prog, query, evidence, resample) -> int:
    strategy = MultiSwitch(args.multi_prob) if resample == "multi" else SingleSwitch()
    estimates = []
    chain_rows = []
    for k in range(args.chains):
        kwargs = dict(
            steps=args.samples,
            burn_in=args.burnin,
            strategy=strategy,
            adaptive=_on(args.adapt),
            seed=args.seed + k,
            collect_rows=args.csv is not None,
        )
        if args.step_limit is not None:
            kwargs["step_limit"] = args.step_limit
        result = run_chain(prog, query, evidence, ChainConfig(**kwargs))
        estimates.append(result.estimate)
        chain_rows.append(result.rows)
        total = result.burn_in + result.steps
        rej = result.evidence_rejections / total
        print(
            f"chain {k}: estimate={result.estimate:.6f} "
            f"accepted={result.accepted}/{total} "
            f"evidence_rejections={result.evidence_rejections} "
            f"rejection_rate={rej:.4f} elapsed_s={result.elapsed_s:.3f}"
        )
    if args.csv is not None:
        if args.chains > 1:
            # deterministic merge: per-chain files, then chain-order concatenation
            for k, rows in enumerate(chain_rows):
                _write_csv(_chain_csv_path(args.csv, k), rows)
        _write_csv(args.csv, [row for rows in chain_rows for row in rows])
    _print_pooled(estimates)
    return 0


def _run_independent(args, prog, query, evidence) -> int:
    estimates = []
    for k in range(args.chains):
        kwargs = {}
        if args.step_limit is not None:
            kwargs["step_limit"] = args.step_limit
        res = independent_sampler(
            prog, query, evidence, args.samples, seed=args.seed + k, **kwargs
        )
        estimates.append(res.estimate)
        print(
            f"chain {k}: estimate={res.estimate:.6f} "
            f"evidence_ok={res.evidence_successes}/{res.samples} "
            f"joint_ok={res.joint_successes} "
            f"monotonicity_violations={len(res.monotonicity_violations)}"
        )
        if res.monotonicity_violations:
            print(
                f"chain {k}: note: per-key rewards were not monotone "
                f"({len(res.monotonicity_violations)} increases); the program/query "
                "pair is likely not Markovian",
                file=sys.stderr,
            )
    _print_pooled(estimates)
    return 0


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _cmd_exact(args) -> int:
    prog = _load_program(args.program)
    query = _parse_goal_arg(args.query, "query")
    evidence = _parse_goal_arg(args.evidence, "evidence")
    fn = exact_conditional if args.method == "tree" else exact_conditional_worlds
    res = fn(prog, query, evidence)
    print(f"p_query: {res.p_query!r}")
    print(f"p_evidence: {res.p_evidence!r}")
    print(f"p_joint: {res.p_joint!r}")
    print(f"p_conditional: {res.p_conditional!r}")
    print(f"leaf_count: {res.leaf_count}")
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("p_query,p_evidence,p_joint,p_conditional,leaf_count\n")
            fh.write(
                f"{res.p_query!r},{res.p_evidence!r},{res.p_joint!r},"
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


# ---------------------------------------------------------------------------
# qdump
# ---------------------------------------------------------------------------


def _cmd_qdump(args) -> int:
    if args.samples <= 0:
        raise _Fail(2, "--samples must be positive")
    prog = _load_program(args.program)
    query = _parse_goal_arg(args.query, "query")
    evidence = _parse_goal_arg(args.evidence, "evidence")
    kwargs = {}
    if args.step_limit is not None:
        kwargs["step_limit"] = args.step_limit
    if _on(args.markovian):
        store = independent_sampler(
            prog, query, evidence, args.samples, seed=args.seed, **kwargs
        ).qstore
    else:
        cfg = ChainConfig(steps=args.samples, adaptive=True, seed=args.seed, **kwargs)
        store = run_chain(prog, query, evidence, cfg).qstore
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Fail as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (PlpError, OSError, RecursionError) as e:
        # a RecursionError is input nested deeper than the parser or the
        # world prover can follow
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
