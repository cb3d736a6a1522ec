#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or record one set as the baseline.

    python3 benchsuite/compare.py A.jsonl B.jsonl
    python3 benchsuite/compare.py --record A.jsonl

Each file holds one JSON object per line: the last line of
`run.py --all` (its "workloads" map), or a single-workload result with a
"workload" key added. A is the parent, B the change; each needs at least 5
runs of every workload compared.

For every (metric, workload) pair the verdict follows the bounds in
BENCHMARK.json, on medians and quartiles:
  better      every run of B beats every run of A, or B wins at least 9 in
              10 of all (A, B) run pairs and the medians differ by more than
              A's interquartile distance;
  unresolved  A's or B's spread (interquartile distance over median) is wider
              than the bound, and B does not beat A in every run;
  worse       B's median is worse than A's by more than the bound;
  same        otherwise.
failed_frac (failed over attempted) may not grow at all. Metrics without a
bound (the per-layer table of traced runs) are listed as info. Exits 1 when
any pair is worse.

--record writes A's medians and quartiles into benchsuite/baseline.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
MIN_RUNS = 5


def load(path):
    """{workload: [result, ...]} from a JSON Lines file."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        results = obj["workloads"] if "workloads" in obj else {obj["workload"]: obj}
        for name, res in results.items():
            runs.setdefault(name, []).append(res)
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r.get("metrics", {})]


def quartiles(v):
    q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a, b, bound, lower_is_better):
    sign = 1 if lower_is_better else -1  # sign * (x - y) > 0: x is worse than y
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    q1a, ma, q3a = quartiles(a)
    mb = statistics.median(b)
    if sign * (mb - ma) > bound * abs(ma):
        return "worse"
    wins = sum(sign * (y - x) < 0 for x in a for y in b)
    if wins >= 0.9 * len(a) * len(b) and abs(mb - ma) > q3a - q1a:
        return "better"
    return "same"


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def compare(path_a, path_b):
    bench = json.loads((SUITE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs_a, runs_b = load(path_a), load(path_b)
    worse = False
    print(f"{'workload':14s} {'metric':34s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'A spread':>8s}  verdict")
    for name in sorted(set(runs_a) & set(runs_b)):
        ra, rb = runs_a[name], runs_b[name]
        if min(len(ra), len(rb)) < MIN_RUNS:
            print(f"{name}: {len(ra)} and {len(rb)} runs; need {MIN_RUNS} of each", file=sys.stderr)
            return 2
        fa, fb = failed_frac(ra), failed_frac(rb)
        v = "worse" if fb > fa else "same"
        worse |= v == "worse"
        print(f"{name:14s} {'failed_frac':34s} {fa:12.6g} {fb:12.6g} {'':>8s} {'':>8s}  {v}")
        for metric in sorted(set().union(*(r["metrics"] for r in ra + rb))):
            a, b = values(ra, metric), values(rb, metric)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = f"{(mb - ma) / abs(ma):+8.1%}" if ma else ""
            if metric in bounds:
                m = bounds[metric]
                v = verdict(a, b, m["bound"], m["better"] == "lower")
            else:
                v = "info"
            worse |= v == "worse"
            print(f"{name:14s} {metric:34s} {ma:12.6g} {mb:12.6g} {change:>8s} "
                  f"{spread(a):8.3f}  {v}")
    return 1 if worse else 0


def record(path):
    runs = load(path)
    short = [n for n, r in runs.items() if len(r) < MIN_RUNS]
    if short:
        print(f"need {MIN_RUNS} runs of every workload; short: {short}", file=sys.stderr)
        return 2
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SUITE, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    lines = [json.loads(l) for l in Path(path).read_text().splitlines() if l.strip()]
    threads = {l.get("hardware_threads") for l in lines} - {None}
    baseline = {}
    for name, results in sorted(runs.items()):
        baseline[name] = {"runs": len(results), "failed_frac": failed_frac(results)}
        for metric in results[0]["metrics"]:
            q1, med, q3 = quartiles(values(results, metric))
            baseline[name][metric] = {"median": med, "q1": q1, "q3": q3}
    bench = json.loads((SUITE.parent / "BENCHMARK.json").read_text())
    target = SUITE / "baseline.json"
    doc = json.loads(target.read_text()) if target.exists() else {}
    doc["baseline"] = {"commit": commit,
                       "hardware_threads": threads.pop() if len(threads) == 1 else sorted(threads),
                       "seeds": [l.get("seed") for l in lines],
                       "why": {w["name"]: w["why"] for w in bench["workloads"]},
                       "workloads": baseline}
    target.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"recorded {len(lines)} runs of {len(baseline)} workloads into {target}")
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--record":
        return record(argv[1])
    if len(argv) == 2:
        return compare(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
