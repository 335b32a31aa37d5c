"""Measure every workload on ten seeds and record the result.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Each (workload, seed) runs `run.py --trace 0` in its own process, as the
benchmark is meant to be run, for the `run_seconds` and workloads that
BENCHMARK.json names; the first seed also gets a `--trace 1` run.  The record
holds, per workload, every metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, next to the bound
from BENCHMARK.json), the operations that were wrong on each seed, the
per-configuration times and the traced per-layer split.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    report = HERE / "out" / f"report-{workload}-s{seed}-t{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--report", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    print(proc.stdout.splitlines()[-1], file=sys.stderr, flush=True)
    return json.loads(report.read_text())[0]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sys.path.insert(0, str(HERE))
    import run as bench_run

    record = {"machine": bench_run.machine(), "seeds": list(SEEDS),
              "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        reports = [run(workload, s, seconds, 0) for s in SEEDS]
        traced = run(workload, SEEDS[0], seconds, 1)
        metrics = {}
        for key, unit in reports[0]["units"].items():
            metrics[key] = dict(spread([r["metrics"][key] for r in reports]),
                                unit=unit, bound=bounds[key])
        for key, (_v, unit) in reports[0]["extra"].items():
            metrics[key] = dict(spread([r["extra"][key][0] for r in reports]), unit=unit)
        groups = {
            g: statistics.median(r["groups"][g] for r in reports)
            for g in reports[0]["groups"]
        }
        record["workloads"][workload] = {
            "operations": reports[0]["operations"],
            "answer_s_tail_percentile": reports[0]["tail"]["percentile"],
            "end_to_end": metrics,
            f"median_{reports[0]['group_unit'].replace('/', '_per_')}": groups,
            "wrong_by_seed": {str(r["seed"]): r["wrong"] for r in reports if r["wrong"]},
            "checks_failed": sorted(
                {c for r in reports for c, ok in r["checks"].items() if not ok}
            ),
            "traced": {
                "seed": traced["seed"],
                "operations": traced["operations"],
                "per_layer": traced["metrics"],
                "shares_of_traced_time": traced["shares"],
                "absent": traced["absent"],
                "checks": traced["checks"],
            },
        }
        for key, m in metrics.items():
            if "bound" in m:
                print(f"{workload} {key}: median {m['median']:.6g} spread {m['spread']:.4f}"
                      f" (bound {m['bound']})", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
