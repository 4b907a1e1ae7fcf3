#!/usr/bin/env python3
"""Compares two sets of benchmark results, one row per (workload, metric).

Each result file is the saved standard output of one
`benchmark/run.sh --workload W --seed N ...` run. Runs of the two sets
are paired by (workload, seed); run the pairs alternately (base first,
then change first, ...) with the same --seconds on both sides.

  benchmark/compare.py --base base_results/ --change change_results/

Besides the metrics in BENCHMARK.json it compares the printed figures in
PRINTED, which have no bound: the open-loop latencies, whose run-to-run
spread on a shared host is too wide for one (README.md), and the per-phase
training rates. Pairing runs of the two commits by seed, run alternately,
cancels the slow drift of the host that bounds on medians cannot.

Verdicts, per the choosing-metrics rules:
  better      the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              base's interquartile range
  worse       the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json (metrics without a
              bound: the mirror image of `better`)
  unresolved  neither, and the base's own spread (IQR / median) is wider
              than the bound, unless every change run beats every base
              run
  unchanged   otherwise
Exits 1 when any bounded metric is worse or any run failed a check.
"""
import argparse
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Printed figures compared without a bound, and which direction is better.
PRINTED = {
    "open_latency_p50_ms": "lower",
    "open_latency_p90_ms": "lower",
    "swap_visible_ms": "lower",
    "negsamp_triples_per_s": "higher",
    "eval_triples_per_s": "higher",
    "kvsall_triples_per_s": "higher",
}


def load_runs(paths):
    """{(workload, seed, trace): result} from result files or directories.

    Each result's "metrics" maps a name to its value, and holds the
    printed figures in PRINTED next to the result object's own."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += [os.path.join(path, f) for f in sorted(os.listdir(path))]
        else:
            files.append(path)
    runs = {}
    for name in files:
        with open(name) as f:
            lines = f.read().strip().splitlines()
        header = next((l for l in lines if l.startswith("workload ")), "")
        m = re.match(r"workload (\S+) seed (\d+) seconds \S+ trace (\d)", header)
        if m is None or not lines[-1].startswith("{"):
            sys.exit(f"{name}: not a benchmark result")
        result = json.loads(lines[-1])
        result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
        for line in lines:
            fields = line.split()
            if len(fields) == 5 and fields[0] == "metric" and fields[1] in PRINTED:
                result["metrics"][fields[1]] = float(fields[3])
        runs[(m.group(1), int(m.group(2)), m.group(3) == "1")] = result
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, q3


def verdict(base, change, better, bound):
    """base and change are equal-length lists paired by seed."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = spread(base)
    iqr = q3 - q1
    pairs = len(base)
    if wins >= 0.9 * pairs and sign * (mc - mb) > iqr:
        return "better", wins
    if bound is None:
        if losses >= 0.9 * pairs and sign * (mb - mc) > iqr:
            return "worse", wins
        return "unchanged", wins
    if sign * (mb - mc) > bound * abs(mb):
        return "worse", wins
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if mb != 0 and iqr / abs(mb) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: dict(m, bound=None) for m in spec["per_layer"]})
    metrics.update({name: {"better": better, "bound": None} for name, better in PRINTED.items()})

    base, change = load_runs(args.base), load_runs(args.change)
    failed = [k for k, r in {**base, **change}.items() if not r["correct"] or r["failed"]]
    for k in failed:
        print(f"run {k[0]} seed {k[1]} failed a check or an operation", file=sys.stderr)
    keys = sorted(set(base) & set(change))
    if not keys:
        sys.exit("no (workload, seed) appears in both sets")

    print(f"{'workload':<14} {'metric':<28} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>6}  verdict")
    worse = False
    groups = sorted({(w, t) for w, _, t in keys})
    for workload, trace in groups:
        seeds = [s for w, s, t in keys if w == workload and t == trace]
        for name in base[(workload, seeds[0], trace)]["metrics"]:
            m = metrics.get(name)
            if m is None:
                continue
            if any(name not in runs[(workload, s, trace)]["metrics"]
                   for runs in (base, change) for s in seeds):
                continue
            b = [base[(workload, s, trace)]["metrics"][name] for s in seeds]
            c = [change[(workload, s, trace)]["metrics"][name] for s in seeds]
            result, wins = verdict(b, c, m["better"], m["bound"])
            worse |= result == "worse" and m["bound"] is not None
            mb, mc = statistics.median(b), statistics.median(c)
            (bq1, bq3), (cq1, cq3) = spread(b), spread(c)
            delta = (mc - mb) / mb if mb else float("nan")
            print(f"{workload:<14} {name:<28} "
                  f"{f'{mb:.4g} [{bq1:.4g}, {bq3:.4g}]':>34} "
                  f"{f'{mc:.4g} [{cq1:.4g}, {cq3:.4g}]':>34} "
                  f"{delta:>+8.1%} {f'{wins}/{len(seeds)}':>6}  {result}")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
