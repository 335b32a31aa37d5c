"""plpmcmc benchmark: chain throughput, ESS/s and exact-oracle time.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the program is imported from `src/`.  Each
workload is planned and its reference answers computed in this process, then
its operations run in a child process of their own, so that `peak_rss_mb`
is that child's peak alone.  With `--trace 0` nothing is wrapped and the
end-to-end metrics are reported.  With `--trace 1` half as many operations
run twice, plainly and then traced, and the per-layer metrics come from the
traced pass; the spans are written to
`perfbench/out/spans-<workload>-s<seed>.csv.gz`.

Human-readable lines come first on standard output; the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  An
operation counts as failed when it raises or when its answer lies outside
the tolerance of the independent reference (the `wrong_share`).  `correct`
is false when an operation raised or a check that must hold exactly did not:
the two exact routes disagree, the fig1 reference moved, the step replay did
not reproduce a call, or `run_first` ran outside the tree route.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# A workload's child process is stopped after this long.
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "answer_s_p50": "s",
    "answer_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Record(NamedTuple):
    op: object
    seconds: float
    setup_seconds: float
    outcome: object  # workloads.Outcome, or None when the operation failed
    error: str | None


def tail(values):
    """(value, percentile, count beyond): the highest percentile of `values`
    that has at least 10 values beyond it, or the smallest value when there
    are 10 or fewer."""
    xs = sorted(values)
    n = len(xs)
    k = max(0, n - 11)
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def peak_rss_mb():
    """Peak resident memory of this process, or of its largest finished
    child process if that is larger."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def run_ops(workload, tracer=None):
    """Closed loop over the workload's operations, one at a time.

    Without a tracer, each operation's setup is timed on its own just before
    the operation, so that setup samples spread over the whole run like the
    operations do.  The operation is timed alone; reading its result comes
    after.
    """
    records = []
    perf = time.perf_counter
    for i, op in enumerate(workload.ops, start=1):
        error = outcome = None
        setup_seconds = 0.0
        if tracer is None:
            t0 = perf()
            try:
                workload.setup(op)
            except Exception:  # the operation repeats these steps and fails
                pass
            setup_seconds = perf() - t0
        t0 = perf()
        try:
            if tracer is None:
                raw = workload.run(op)
            else:
                with tracer.op(i):
                    raw = workload.run(op)
        except Exception as e:  # counted as a failed operation
            error = f"raised {type(e).__name__}: {e}"
        seconds = perf() - t0
        if error is None:
            try:
                outcome = workload.collect(op, raw)
            except Exception as e:  # counted as a failed operation
                error = f"unreadable result: {e}"
        records.append(Record(op, seconds, setup_seconds, outcome, error))
    return records


def summarize(workload, records):
    """Totals, failures and per-operation times of one pass."""
    wrong = []
    for r in records:
        if r.error is not None:
            wrong.append(f"{workload.describe(r.op)}: {r.error}")
        elif workload.wrong(r.op, r.outcome):
            answer = r.outcome.answer
            shown = f"{answer:.6f}" if isinstance(answer, float) else "routes disagree"
            wrong.append(f"{workload.describe(r.op)}: answer {shown}")
    done = [r for r in records if r.outcome is not None]
    by_group = {}
    for r in done:
        per = r.seconds / r.outcome.steps * 1e6 if r.outcome.steps else r.seconds
        by_group.setdefault(workload.group(r.op), []).append(per)
    return {
        "wall_s": sum(r.seconds for r in records),
        "op_seconds": [r.seconds for r in records],
        "setup_s": statistics.median(r.setup_seconds for r in records),
        "steps": sum(r.outcome.steps for r in done),
        "ess": sum(r.outcome.ess for r in done),
        "wrong": wrong,
        "raised": sum(r.error is not None for r in records),
        "groups": {g: statistics.median(v) for g, v in sorted(by_group.items())},
    }


def measure(wl, seed, trace):
    """Run one prepared workload; returns a report dict (see `report_lines`)."""
    plain = summarize(wl, run_ops(wl))
    peak = peak_rss_mb()
    report = {"workload": wl.name, "seed": seed, "operations": len(wl.ops)}
    if not trace:
        final = plain
        tail_s, tail_pct, beyond = tail(final["op_seconds"])
        wall = final["wall_s"]
        report["metrics"] = {
            "wall_s": wall,
            "answer_s_p50": statistics.median(final["op_seconds"]),
            "answer_s_tail": tail_s,
            "setup_s": final["setup_s"],
            "peak_rss_mb": peak,
        }
        report["units"] = dict(END_TO_END_UNITS)
        report["tail"] = {"percentile": tail_pct, "beyond": beyond}
        report["extra"] = {"wrong_share": [len(final["wrong"]) / len(wl.ops), "fraction"]}
        if wl.has_chains:
            report["extra"]["steps_per_s"] = [final["steps"] / wall, "steps/s"]
            report["extra"]["ess_per_s"] = [final["ess"] / wall, "1/s"]
        report["groups"] = final["groups"]
        report["group_unit"] = "us/step" if wl.has_chains else "s"
        report["checks"] = dict(wl.checks)
    else:
        import tracing
        from plpmcmc import evaluator

        tr = tracing.Tracer()
        tr.install()
        try:
            final = summarize(wl, run_ops(wl, tr))
        finally:
            tr.uninstall()
        plain_wall = plain["wall_s"]
        metrics, checks, shares = tracing.layer_metrics(
            tr, final["wall_s"], plain_wall, final["ess"], evaluator
        )
        report["checks"] = {**wl.checks, **checks}
        report["metrics"] = metrics
        report["units"] = {n: unit for n, unit, _better in tracing.PER_LAYER}
        report["absent"] = tr.absent
        report["shares"] = shares
        spans_path = OUT / f"spans-{wl.name}-s{seed}.csv.gz"
        tr.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["plain_wall_s"] = plain_wall
        report["traced_wall_s"] = final["wall_s"]
    report["wrong"] = final["wrong"]
    report["result"] = {
        "correct": final["raised"] == 0 and all(report["checks"].values()),
        "attempted": len(wl.ops),
        "failed": len(final["wrong"]),
        "metrics": {
            k: {"value": v, "unit": report["units"][k]}
            for k, v in report["metrics"].items()
        },
    }
    return report


def measure_in_child(name, seed, seconds, trace):
    """Plan the workload and compute its references here, then run its
    operations in a child process; returns the child's report."""
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, seconds / 2 if trace else seconds, OUT)
    wl.prepare()
    job = OUT / f"job-{name}-s{seed}-t{trace}.pickle"
    job.write_bytes(pickle.dumps((wl, seed, trace)))
    report = job.with_suffix(".json")
    report.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(job)],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the {name} worker exited with code {proc.returncode}")
    return json.loads(report.read_text())


def worker(job):
    """Child process: run the pickled workload and write its report."""
    wl, seed, trace = pickle.loads(Path(job).read_bytes())
    rep = measure(wl, seed, trace)
    Path(job).with_suffix(".json").write_text(json.dumps(rep))
    return 0


def report_lines(rep):
    name = rep["workload"]
    lines = []
    if "tail" in rep:
        lines.append(
            f"# {name}: {rep['operations']} operations; answer_s_tail is"
            f" p{rep['tail']['percentile']:.1f} with {rep['tail']['beyond']}"
            f" operations beyond it"
        )
        for group, value in rep["groups"].items():
            lines.append(f"# median {rep['group_unit']}: {group} {value:.4g}")
    else:
        lines.append(
            f"# {name}: {rep['operations']} operations, plain {rep['plain_wall_s']:.3f} s,"
            f" traced {rep['traced_wall_s']:.3f} s; spans in {rep['spans']}"
        )
        if rep["absent"]:
            lines.append(f"# absent layers (reported as 0): {', '.join(rep['absent'])}")
        for layer, share in rep["shares"].items():
            lines.append(f"# share of traced operation time: {layer} {share:.4f}")
    lines += [f"# wrong: {w}" for w in rep["wrong"]]
    lines += [f"# check {'ok' if ok else 'FAILED'}: {c}" for c, ok in rep["checks"].items()]
    for key, value in rep["metrics"].items():
        lines.append(f"metric {name} {key} {value!r} {rep['units'][key]}")
    for key, (value, unit) in rep.get("extra", {}).items():
        lines.append(f"metric {name} {key} {value!r} {unit}")
    return lines


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", "fig1", "bn-cli", "oracle"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", default=None,
                    help="also write the full reports, as JSON, to this file")
    ap.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "plpmcmc" / "__init__.py").is_file():
        print(f"error: no plpmcmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    if args.worker is not None:
        return worker(args.worker)

    names = ["fig1", "bn-cli", "oracle"] if args.workload == "all" else [args.workload]
    m = machine()
    print(f"# machine: nproc={m['nproc']} python={m['python']} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace}")
    results = {}
    reports = []
    for name in names:
        rep = measure_in_child(name, args.seed, args.seconds, args.trace)
        print("\n".join(report_lines(rep)), flush=True)
        results[name] = rep["result"]
        reports.append(rep)
    if args.report is not None:
        Path(args.report).write_text(json.dumps(reports, indent=1) + "\n")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    if not all(math.isfinite(v["value"]) for v in final["metrics"].values()):
        print("error: a metric is not a finite number", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
