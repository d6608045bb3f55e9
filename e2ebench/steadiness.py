#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 e2ebench/steadiness.py --workloads fault_storm --seeds 1-5
    python3 e2ebench/steadiness.py --seeds 1-10 --against 1001-1010 \
        --append e2ebench/baseline.json --label "what was measured"

For every workload x metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.

With --against it runs a second set of seeds interleaved with the first,
one run of each set after the other and the order swapped every pair, so
both sets meet the same host conditions. It then prints how far the second
set's median lies from the first's, as a share of the first: two sets of the
same code should agree within each metric's bound.

With --append it adds the same figures, plus every raw value, as one
labelled entry to a JSON list, so the file keeps the trajectory across
changes. Seeds may repeat ("1009,1009,1009") to measure one seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit("%s seed %d failed (exit %d)" % (workload, seed,
                                                  proc.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values}


def print_set(title, rows, bounds):
    print(title)
    for name, row in rows.items():
        bound = bounds[name]
        spread = float("nan") if row["spread"] is None else row["spread"]
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else (
                "WITHIN BOUND" if spread <= bound else "TOO WIDE")
        print("  %-28s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.3f "
              "bound %-5s %s" % (name, row["median"], row["q1"], row["q3"],
                                 spread, bound, flag))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against",
                        help="second set of seeds, run interleaved")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--append", help="JSON list file to add the entry to")
    parser.add_argument("--label", default="",
                        help="what this entry measured (with --append)")
    args = parser.parse_args()

    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    sets = [parse_seeds(args.seeds)]
    if args.against:
        sets.append(parse_seeds(args.against))
        if len(sets[0]) != len(sets[1]):
            parser.error("--seeds and --against need as many seeds")
    entry = {"label": args.label, "seconds": args.seconds,
             "trace": int(args.trace), "sets": []}
    results = {w: [[] for _ in sets] for w in args.workloads.split(",")}
    for workload, per_set in results.items():
        for i in range(len(sets[0])):
            order = range(len(sets)) if i % 2 == 0 else reversed(
                range(len(sets)))
            for k in order:
                per_set[k].append(run_once(workload, sets[k][i], args.seconds,
                                           args.trace))
    for k, seeds in enumerate(sets):
        summary = {"seeds": seeds, "workloads": {}}
        for workload, per_set in results.items():
            rows = {name: summarize([r["metrics"][name]["value"]
                                     for r in per_set[k]])
                    for name in bounds}
            summary["workloads"][workload] = rows
            print_set("%s, seeds %s (%d runs)" % (workload, seeds,
                                                  len(per_set[k])),
                      rows, bounds)
        entry["sets"].append(summary)
    if len(sets) == 2:
        entry["gap"] = {}
        print("second set's median against the first's")
        for workload in results:
            a = entry["sets"][0]["workloads"][workload]
            b = entry["sets"][1]["workloads"][workload]
            gaps = {}
            print(workload)
            for name, bound in bounds.items():
                ma, mb = a[name]["median"], b[name]["median"]
                gap = (mb - ma) / ma if ma else None
                gaps[name] = gap
                flag = ""
                if gap is not None and bound is not None:
                    flag = "ok" if abs(gap) <= bound else "OUTSIDE BOUND"
                print("  %-28s %-14.6g %-14.6g gap %+7.3f bound %-5s %s" % (
                    name, ma, mb, float("nan") if gap is None else gap,
                    bound, flag))
            entry["gap"][workload] = gaps
    if args.append:
        entries = []
        if os.path.exists(args.append):
            with open(args.append) as f:
                entries = json.load(f)
        entries.append(entry)
        with open(args.append, "w") as f:
            json.dump(entries, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
