#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them (see README.md).

    python3 perfbench/compare.py collect DIR [--workloads a,b] [--seeds 1-10] [--trace 0|1]
        Runs perfbench/run.py once per workload and seed, and saves each
        run's standard output as DIR/<workload>/seed<n>[.trace].txt and its
        standard error (build and Spark logs) beside it as .err.

    python3 perfbench/compare.py show DIR
        Per workload and metric: median, quartiles, and the quartile spread
        as a share of the median, next to the metric's bound.

    python3 perfbench/compare.py diff A B
        Per workload and end-to-end metric: each side's median and quartiles,
        and whether the two medians agree within the metric's bound. Also
        compares the share of failed sessions, which must be equal.

Run from the repository root; bounds and the run length come from
BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    b = benchmark()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in b["workloads"]]
    for name in names:
        os.makedirs(os.path.join(args.dir, name), exist_ok=True)
        for seed in args.seeds:
            suffix = ".trace" if args.trace else ""
            path = os.path.join(args.dir, name, f"seed{seed}{suffix}.txt")
            cmd = b["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(b["run_seconds"]), "--trace", str(args.trace)]
            with open(path[:-len(".txt")] + ".err", "w") as err:
                r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
            with open(path, "w") as fh:
                fh.write(r.stdout)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            print(f"{name} seed {seed}: exit {r.returncode} {last[:160]}", flush=True)


def load(d, trace=False):
    """{workload: [result, ...]} from the last line of each saved run."""
    runs = {}
    for name in sorted(os.listdir(d)):
        sub = os.path.join(d, name)
        if not os.path.isdir(sub):
            continue
        for f in sorted(os.listdir(sub)):
            if f.endswith(".trace.txt") != trace or not f.endswith(".txt"):
                continue
            with open(os.path.join(sub, f)) as fh:
                lines = fh.read().strip().splitlines()
            if lines:
                runs.setdefault(name, []).append(json.loads(lines[-1]))
    return runs


def summary(values):
    """Median, first and third quartile (as statistics.quantiles gives them)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def failed_share(results):
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def show(args):
    b = benchmark()
    bounds = {m["name"]: m.get("bound") for m in b["end_to_end"]}
    for trace in (False, True):
        for name, results in load(args.dir, trace).items():
            failed, attempted = failed_share(results)
            ok = all(r["correct"] for r in results)
            print(f"{name}{' (traced)' if trace else ''}: {len(results)} runs, "
                  f"correct={ok}, failed {failed}/{attempted}")
            for metric in results[0]["metrics"]:
                vals = [r["metrics"][metric]["value"] for r in results]
                unit = results[0]["metrics"][metric]["unit"]
                med, q1, q3 = summary(vals)
                spread = (q3 - q1) / med if med else float("nan")
                bound = bounds.get(metric)
                flag = "" if bound is None else (
                    f"  bound {bound:.2f} {'ok' if spread <= bound / 3 else 'WIDE' if spread > bound else 'over 1/3'}")
                print(f"  {metric:26s} {med:12.4f} {unit:6s} q1 {q1:12.4f} q3 {q3:12.4f} "
                      f"spread {spread:7.3f}{flag}")


def diff(args):
    b = benchmark()
    metrics = {m["name"]: m for m in b["end_to_end"]}
    a_runs, b_runs = load(args.a), load(args.b)
    agree = True
    for name in sorted(set(a_runs) | set(b_runs)):
        ra, rb = a_runs.get(name, []), b_runs.get(name, [])
        if not ra or not rb:
            print(f"{name}: missing on one side")
            agree = False
            continue
        fa, fb = failed_share(ra), failed_share(rb)
        same_failed = fa[0] * fb[1] == fb[0] * fa[1]
        agree &= same_failed
        print(f"{name}: failed {fa[0]}/{fa[1]} vs {fb[0]}/{fb[1]} "
              f"({'same share' if same_failed else 'DIFFERENT share'})")
        for metric, m in metrics.items():
            va = [r["metrics"][metric]["value"] for r in ra]
            vb = [r["metrics"][metric]["value"] for r in rb]
            (ma, a1, a3), (mb, b1, b3) = summary(va), summary(vb)
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            ok = abs(change) <= m["bound"]
            agree &= ok
            print(f"  {metric:16s} A {ma:11.4f} [{a1:11.4f}, {a3:11.4f}]  "
                  f"B {mb:11.4f} [{b1:11.4f}, {b3:11.4f}]  change {change:+7.3f} "
                  f"({'worse' if worse > 0 else 'better'}), bound {m['bound']:.2f}: "
                  f"{'agree' if ok else 'DIFFER'}")
    print("all agree within bounds" if agree else "some metrics differ beyond their bounds")
    return 0 if agree else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("show")
    s.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
    elif args.cmd == "show":
        show(args)
    else:
        sys.exit(diff(args))


if __name__ == "__main__":
    main()
