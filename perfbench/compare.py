#!/usr/bin/env python3
"""Compare two sets of perfbench runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds one file per run named <workload>-<seed>.json (or
.log) whose last line starting with '{' is the benchmark's result line.
Runs of the same workload and seed in both directories form a pair. For
every end-to-end metric of BENCHMARK.json and every workload it prints
each side's median and quartiles, the paired wins of NEW (ties count for
neither) and a verdict:

  improved    NEW wins at least 9 in 10 decided pairs and the medians
              differ by more than BASE's own spread (its quartile
              distance);
  unresolved  the run-to-run spread is wider than the metric's bound,
              unless every NEW run reads better than every BASE run;
  no worse    NEW's median is worse than BASE's by at most the bound;
  worse       otherwise, or NEW failed more operations than BASE.

Standard library only.
"""
import argparse
import json
import os
import re
import statistics
import sys
from collections import defaultdict


def load(directory):
    """Return {workload: {seed: result}} for the runs in directory."""
    runs = defaultdict(dict)
    for name in sorted(os.listdir(directory)):
        m = re.fullmatch(r"(.+)-(-?\d+)\.(json|log)", name)
        if not m:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        if lines:
            runs[m.group(1)][int(m.group(2))] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, better, bound, failed_base, failed_new):
    """Apply the pairing rule to {seed: value} dicts of one metric."""
    sign = 1 if better == "higher" else -1
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    losses = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    bv, nv = list(base.values()), list(new.values())
    bmed, nmed = statistics.median(bv), statistics.median(nv)
    bq1, bq3 = quartiles(bv)
    nq1, nq3 = quartiles(nv)
    gain = sign * (nmed - bmed)  # positive: NEW is better
    spread = max(bq3 - bq1, nq3 - nq1) / abs(bmed) if bmed else float("inf")
    if failed_new > failed_base:
        v = "worse"
    elif seeds and wins >= 0.9 * (wins + losses) and wins > 0 and gain > bq3 - bq1:
        v = "improved"
    elif spread > bound and not all(sign * (n - b) > 0 for n in nv for b in bv):
        v = "unresolved"
    elif -gain <= bound * abs(bmed):
        v = "no worse"
    else:
        v = "worse"
    return dict(base=(bq1, bmed, bq3), new=(nq1, nmed, nq3), wins=wins, losses=losses,
                pairs=len(seeds), spread=spread, verdict=v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base, new = load(args.base), load(args.new)
    worst = 0
    for w in [w["name"] for w in bench["workloads"]]:
        if w not in base or w not in new:
            print(f"{w}: no runs on {'both sides' if w not in base and w not in new else 'one side'}")
            continue
        fb = sum(r["failed"] for r in base[w].values())
        fn = sum(r["failed"] for r in new[w].values())
        print(f"{w}: {len(base[w])} base runs ({fb} failed ops), {len(new[w])} new runs ({fn} failed ops)")
        for m in bench["end_to_end"]:
            name = m["name"]
            bvals = {s: r["metrics"][name]["value"] for s, r in base[w].items() if name in r["metrics"]}
            nvals = {s: r["metrics"][name]["value"] for s, r in new[w].items() if name in r["metrics"]}
            if not bvals or not nvals:
                continue
            r = verdict(bvals, nvals, m["better"], m["bound"], fb, fn)
            worst = max(worst, ["improved", "no worse", "unresolved", "worse"].index(r["verdict"]))
            print(f"  {name:12s} base {r['base'][1]:.5g} [{r['base'][0]:.5g}, {r['base'][2]:.5g}]"
                  f"  new {r['new'][1]:.5g} [{r['new'][0]:.5g}, {r['new'][2]:.5g}] {m['unit']}"
                  f"  wins {r['wins']}/{r['wins'] + r['losses']} of {r['pairs']} pairs"
                  f"  spread {r['spread']:.3f} (bound {m['bound']})  {r['verdict']}")
    sys.exit(1 if worst == 3 else 0)


if __name__ == "__main__":
    main()
