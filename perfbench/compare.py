#!/usr/bin/env python3
"""Compares two sets of saved benchmark outputs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of runs of perfbench/run.py, one
file per run (any name). Runs are grouped by workload and trace mode. The
comparison is refused (exit 2) when the two sides were measured on
different machines or builds, or report different statistics: their stamps
must agree on nproc, CPU model, compiler, build type, chase thread count and
tail_pct (the percentile job_tail_ms reports). Seeds and source revisions may
differ; they are listed. For every metric the report gives each side's
median and quartiles, the change of the medians, and the verdict against
the metric's bound in BENCHMARK.json (end-to-end metrics only; per-layer
metrics have no bound).
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENVIRONMENT = ("nproc", "cpu_model", "compiler", "build_type", "chase_threads",
               "tail_pct")


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().split("\n")
        stamp = next((json.loads(l[len("stamp: "):]) for l in lines
                      if l.startswith("stamp: ")), None)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if stamp is None or result is None:
            print("skipping %s: no stamp or result" % name, file=sys.stderr)
            continue
        runs.setdefault((stamp["workload"], stamp["trace"]), []).append(
            (stamp, result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])

    refused = False
    for key in sorted(set(base) & set(new)):
        envs = {tuple(s.get(k) for k in ENVIRONMENT)
                for s, _ in base[key] + new[key]}
        if len(envs) > 1:
            print("refused: %s trace=%d stamps differ: %s"
                  % (key[0], key[1], sorted(envs)))
            refused = True
    if refused:
        return 2

    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print("\n%s trace=%d: base %d runs %s, new %d runs %s" % (
            workload, trace, len(base[key]),
            sorted({s.get("git_sha", "?")[:10] for s, _ in base[key]}),
            len(new[key]),
            sorted({s.get("git_sha", "?")[:10] for s, _ in new[key]})))
        failed = [r for side in (base, new) for _, r in side[key]
                  if not r.get("correct")]
        if failed:
            print("  %d runs failed their correctness gates" % len(failed))
        names = sorted(set().union(*(r["metrics"] for _, r in base[key])))
        for name in names:
            b = [r["metrics"][name]["value"] for _, r in base[key]
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for _, r in new[key]
                 if name in r["metrics"]]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            verdict = ""
            m = spec.get(name, {})
            if "bound" in m:
                worse = -change if m["better"] == "higher" else change
                spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
                if worse > m["bound"]:
                    verdict = "WORSE beyond bound %.2f" % m["bound"]
                elif spread > m["bound"]:
                    verdict = "unresolved (base spread %.2f)" % spread
                else:
                    verdict = "within bound %.2f" % m["bound"]
            print("  %-26s base %12.5g [%10.5g, %10.5g]  new %12.5g "
                  "[%10.5g, %10.5g]  %+7.1f%%  %s" % (
                      name, bq[1], bq[0], bq[2], nq[1], nq[0], nq[2],
                      100 * change, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
