#!/usr/bin/env python3
"""Summarise and compare perfbench result sets.

Each run of perfbench/run.py leaves a result file, with the host
fingerprint, in .bench_build/results/. Copy a directory of them aside per
commit, then:

    python3 perfbench/compare.py --spread DIR
        per workload and end-to-end metric: median, quartiles, and the
        quartile spread as a share of the median, next to the metric's bound
    python3 perfbench/compare.py BASE_DIR NEW_DIR
        per workload and metric: both medians, the change, and a verdict
        against the bound in BENCHMARK.json

Incorrect runs (correct false, or failed > 0) are left out of every median
and listed, and make either mode exit 1. Result sets whose host
fingerprints differ (CPU model, core count, compiler,
build type, observability build/env, AVX2 dispatch) are refused, exit 2:
numbers from different hosts or builds are not comparable.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    """Untraced results, and the number of incorrect runs (correct false or
    failed > 0). Runs marked invalid (open-loop sender fell behind) are left
    out and counted; incorrect runs are left out too, and any of them fails
    the spread or comparison."""
    runs, invalid, incorrect = [], 0, 0
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") != 0:
            continue
        if not record["correct"] or record["failed"] > 0:
            incorrect += 1
            print("%s: INCORRECT run %s seed %d: %d of %d failed" % (
                directory, record["workload"], record["seed"],
                record["failed"], record["attempted"]))
        elif record.get("valid", True):
            runs.append(record)
        else:
            invalid += 1
    if invalid:
        print("%s: left out %d invalid run(s)" % (directory, invalid))
    if not runs:
        sys.exit("no valid untraced result files in " + directory)
    return runs, incorrect


def bounds():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def check_fingerprints(*sets):
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for s in sets for r in s}
    if len(prints) > 1:
        print("refusing to compare: host fingerprints differ:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        sys.exit(2)


def by_workload(runs):
    grouped = {}
    for r in runs:
        grouped.setdefault(r["workload"], []).append(r)
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(directory):
    runs, incorrect = load(directory)
    check_fingerprints(runs)
    limits = bounds()
    worst = 0.0
    for workload, rs in sorted(by_workload(runs).items()):
        print("%s: %d runs" % (workload, len(rs)))
        for name, limit in limits.items():
            values = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("inf")
            flag = "ok" if share <= limit["bound"] / 3 else (
                "within bound" if share <= limit["bound"] else "TOO WIDE")
            worst = max(worst, share / limit["bound"])
            print("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.3f"
                  "  bound %.2f  %s" % (name, med, q1, q3, share, limit["bound"], flag))
    return 0 if worst <= 1.0 and not incorrect else 1


def compare(base_dir, new_dir):
    (base, base_incorrect), (new, new_incorrect) = load(base_dir), load(new_dir)
    check_fingerprints(base, new)
    limits = bounds()
    base_w, new_w = by_workload(base), by_workload(new)
    # A faster result with wrong answers is no result.
    status = 1 if base_incorrect or new_incorrect else 0
    print("incorrect runs: base %d, new %d%s" % (
        base_incorrect, new_incorrect, "  REFUSED" if status else ""))
    for workload in sorted(set(base_w) & set(new_w)):
        print(workload)
        for name, limit in limits.items():
            b = [r["metrics"][name]["value"] for r in base_w[workload]]
            n = [r["metrics"][name]["value"] for r in new_w[workload]]
            bq1, bmed, bq3 = quartiles(b)
            nmed = statistics.median(n)
            sign = 1.0 if limit["better"] == "lower" else -1.0
            worse = sign * (nmed - bmed) / bmed
            base_spread = (bq3 - bq1) / bmed
            if worse > limit["bound"]:
                verdict = "WORSE than bound"
                status = 1
            elif base_spread > limit["bound"]:
                verdict = "unresolved (base spread %.3f > bound)" % base_spread
            else:
                verdict = "within bound"
            print("  %-16s base %12.6g  new %12.6g  worse by %+.3f  %s" % (
                name, bmed, nmed, worse, verdict))
    return status


def main(argv):
    if len(argv) == 3 and argv[1] == "--spread":
        return spread(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
