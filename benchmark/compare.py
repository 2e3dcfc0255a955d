#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

    python3 benchmark/compare.py A/ B/           # A: parent, B: change
    python3 benchmark/compare.py --record A/ B/ [T/]

A run directory holds the stdout of single-workload runs, one file per
run (benchmark/run.sh --out DIR writes them as <workload>-seed<n>.json,
traced runs as <workload>-seed<n>-traced.json). Runs of A and B are
paired by workload and seed.

For every end-to-end metric of BENCHMARK.json the report gives each
side's median and quartiles, how many pairs B wins, and a verdict:

  improved    B wins at least 9/10 of the pairs and the medians differ by
              more than the distance between A's quartiles;
  worse       B's median is worse than A's by more than the metric's bound;
  unchanged   neither;
  unresolved  either side's spread (quartile distance over median) is
              wider than the bound, unless every B run beats every A run.

Per-layer metrics have no bound; they get medians and quartiles only.

--record prints one JSON document with every run of A, B and the traced
set T, the comparison of A with B, and the machine it ran on; that is
the format of benchmark/results/.
"""
import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(directory):
    """{workload: {seed: result}} for the runs in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = f.read().splitlines()
        if not lines:
            continue
        try:
            res = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"compare: skipping {name}: no result line", file=sys.stderr)
            continue
        detail = next((json.loads(l[len("# detail "):]) for l in lines
                       if l.startswith("# detail ")), {})
        res["detail"] = detail
        workload = detail.get("workload", name.split("-seed")[0])
        runs.setdefault(workload, {})[detail.get("seed", name)] = res
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when b reads better than a."""
    return b > a if direction == "higher" else b < a


def compare_metric(a_vals, b_vals, pairs, direction, bound):
    a1, am, a3 = quartiles(a_vals)
    b1, bm, b3 = quartiles(b_vals)
    wins = sum(1 for a, b in pairs if better(a, b, direction))
    out = {
        "a": {"median": am, "q1": a1, "q3": a3, "n": len(a_vals)},
        "b": {"median": bm, "q1": b1, "q3": b3, "n": len(b_vals)},
        "pairs": len(pairs),
        "b_wins": wins,
    }
    if bound is None:
        return out
    spread = max(abs(a3 - a1) / abs(am) if am else float("inf"),
                 abs(b3 - b1) / abs(bm) if bm else float("inf"))
    worse_by = (bm - am) / abs(am) if am else 0.0
    if direction == "higher":
        worse_by = -worse_by
    all_better = all(better(a, b, direction) for a in a_vals for b in b_vals)
    if spread > bound:
        verdict = "improved" if all_better else "unresolved"
    elif (pairs and wins >= 0.9 * len(pairs) and better(am, bm, direction)
          and abs(bm - am) > abs(a3 - a1)):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "unchanged"
    out.update(spread=spread, bound=bound, worse_by=worse_by, verdict=verdict)
    return out


def compare(spec, a_runs, b_runs):
    """{workload: {"runs": totals, "metrics": {metric: comparison}}} over
    the workloads both sides ran."""
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]
    result = {}
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        rows = {}
        for m, bound in metrics:
            name = m["name"]
            a_vals = [r["metrics"][name]["value"] for r in a.values()
                      if name in r["metrics"]]
            b_vals = [r["metrics"][name]["value"] for r in b.values()
                      if name in r["metrics"]]
            if not a_vals or not b_vals:
                continue
            pairs = [(a[s]["metrics"][name]["value"], b[s]["metrics"][name]["value"])
                     for s in sorted(set(a) & set(b), key=str)
                     if name in a[s]["metrics"] and name in b[s]["metrics"]]
            rows[name] = compare_metric(a_vals, b_vals, pairs, m["better"], bound)
        runs = [r for side in (a, b) for r in side.values()]
        result[workload] = {
            "runs": {"attempted": sum(r["attempted"] for r in runs),
                     "failed": sum(r["failed"] for r in runs),
                     "all_correct": all(r["correct"] for r in runs)},
            "metrics": rows,
        }
    return result


def print_table(result):
    for workload, res in result.items():
        runs = res["runs"]
        print(f"\n== {workload}  (attempted {runs['attempted']}, "
              f"failed {runs['failed']}, all correct: {runs['all_correct']})")
        print(f"{'metric':40s} {'A median [q1, q3]':>30s} "
              f"{'B median [q1, q3]':>30s} {'B wins':>7s} {'spread':>7s} "
              f"{'bound':>6s}  verdict")
        for name, c in res["metrics"].items():
            def side(s):
                return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

            wins = f"{c['b_wins']}/{c['pairs']}"
            if "verdict" in c:
                tail = (f"{c['spread']:7.1%} {c['bound']:6.0%}  {c['verdict']}"
                        f" ({c['worse_by']:+.1%} worse)")
            else:
                tail = f"{'':7s} {'':6s}  (per layer, no bound)"
            print(f"{name:40s} {side(c['a']):>30s} {side(c['b']):>30s} "
                  f"{wins:>7s} {tail}")


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "kernel": platform.release(),
            "machine": platform.machine(), "cpu": cpu}


def flat(runs):
    return {w: [{"seed": s, "correct": r["correct"], "attempted": r["attempted"],
                 "failed": r["failed"],
                 "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                for s, r in sorted(by_seed.items(), key=lambda kv: str(kv[0]).zfill(20))]
            for w, by_seed in sorted(runs.items())}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("traced", nargs="?")
    ap.add_argument("--record", action="store_true",
                    help="print every run plus the comparison (results/ format)")
    args = ap.parse_args()
    spec = load_spec()
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    result = compare(spec, a_runs, b_runs)
    if args.record:
        doc = {"environment": environment(), "run_seconds": spec["run_seconds"],
               "set_a": flat(a_runs), "set_b": flat(b_runs),
               "comparison": result}
        if args.traced:
            doc["traced"] = flat(load_runs(args.traced))
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print_table(result)


if __name__ == "__main__":
    main()
