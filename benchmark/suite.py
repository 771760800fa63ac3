#!/usr/bin/env python3
"""Runs every benchmark workload and reports, records or compares the results.

run.sh calls this when no --workload is given. Each (seed, workload) pair is
one invocation of the benchmark binary; the workloads are interleaved within
each seed so slow drift of a shared machine spreads over all of them.

  --seed=N / --seeds=A,B,..   one run per workload per seed (default: 7)
  --seconds=S                 measured seconds per run (default: run_seconds
                              from BENCHMARK.json)
  --trace                     also run each workload traced once (first seed)
                              and report the per-layer metrics
  --smoke                     inputs at a tenth, one round, correctness only
  --out=FILE                  write the set as JSON (default build-bench/set.json)
  --append-set=FILE           append the set to FILE's "sets" list
  --compare=FILE              compare with the last set in FILE: old, new,
                              delta, bound and a verdict per (workload, metric)
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["pr-blaze", "pr-lru", "kmeans-blaze", "serve-mix"]
# Sets taken on different machines or builds are not comparable.
FINGERPRINT_KEYS = ("nproc", "compiler", "build_type")


def load_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(args, workload, seed, trace):
    cmd = [args.bin, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--out", args.out_dir, "--git-sha", args.git_sha]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"{workload} seed {seed}: benchmark exited with {proc.returncode}")
    name = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(args.out_dir, "results", name)) as f:
        result = json.load(f)
    print(f"{workload:13s} seed {seed:<5d} {'traced ' if trace else ''}"
          f"{result['attempted']} checked, {result['failed']} wrong, "
          f"{time.monotonic() - started:.1f} s", flush=True)
    return result


def summarize(runs, name):
    """Median and quartiles of one metric over runs (over rounds within the
    run when there is only one)."""
    values = [r["metrics"][name]["value"] for r in runs]
    if len(values) == 1:
        m = runs[0]["metrics"][name]
        return {"median": m["value"], "q1": m["q1"], "q3": m["q3"], "n": m["n"],
                "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def spread(stats):
    """Run-to-run spread, (q3 - q1) / median; None for a single run, whose
    quartiles describe its samples instead."""
    if len(stats["values"]) < 2 or not stats["median"]:
        return None
    return (stats["q3"] - stats["q1"]) / stats["median"]


def print_table(result, bench):
    print(f"\n{'workload':13s} {'metric':34s} {'median':>14s} {'unit':6s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>6s} {'spread':>7s} {'bound':>6s}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, metrics in result["end_to_end"].items():
        for name, s in metrics.items():
            noise = "-" if spread(s) is None else f"{spread(s):.3f}"
            print(f"{workload:13s} {name:34s} {s['median']:14.6g} {s['unit']:6s} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:6d} "
                  f"{noise:>7s} {bounds.get(name, 0):6.2f}")
    for workload, metrics in result.get("per_layer", {}).items():
        for name, m in metrics.items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            note = f"  ({m['note']})" if "note" in m else ""
            print(f"{workload:13s} {name:34s} {value:>14s} {m['unit']:6s}{note}")


def compare(old_path, new, bench):
    with open(old_path) as f:
        old = json.load(f)
    if "sets" in old:
        old = old["sets"][-1]
    mismatched = [k for k in FINGERPRINT_KEYS
                  if old["fingerprint"].get(k) != new["fingerprint"].get(k)]
    if mismatched:
        for k in mismatched:
            print(f"fingerprint differs on {k}: {old['fingerprint'].get(k)!r} (old) vs "
                  f"{new['fingerprint'].get(k)!r} (new)")
        print("refusing to compare sets from different machines or builds")
        return 2
    print(f"\ncompare with {old_path} (old {old['fingerprint'].get('git_sha')}, "
          f"new {new['fingerprint'].get('git_sha')})")
    print(f"{'workload':13s} {'metric':18s} {'old':>12s} {'new':>12s} {'delta':>8s} "
          f"{'bound':>6s}  verdict")
    regressed = False
    for spec in bench["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        for workload in WORKLOADS:
            o = old["end_to_end"].get(workload, {}).get(name)
            n = new["end_to_end"].get(workload, {}).get(name)
            if o is None or n is None:
                continue
            delta = (n["median"] - o["median"]) / o["median"]
            worse = delta if spec["better"] == "lower" else -delta
            # A spread wider than the bound cannot resolve a change of that size.
            spreads = [x for x in (spread(o), spread(n)) if x is not None]
            if not spreads or max(spreads) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            print(f"{workload:13s} {name:18s} {o['median']:12.6g} {n['median']:12.6g} "
                  f"{delta:+8.1%} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


def main():
    bench = load_benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bin", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--git-sha", default="unknown")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seeds")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--append-set")
    parser.add_argument("--compare")
    args = parser.parse_args()
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = [args.seed if args.seed is not None else 7]

    started = time.monotonic()
    runs = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            runs[workload].append(run_one(args, workload, seed, trace=False))
    first = runs[WORKLOADS[0]][0]["fingerprint"]
    result = {
        "fingerprint": {k: first[k] for k in FINGERPRINT_KEYS + ("git_sha",)},
        "taken": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seconds": args.seconds,
        "seeds": seeds,
        "correct": all(r["correct"] for rs in runs.values() for r in rs),
        "end_to_end": {},
    }
    for workload, rs in runs.items():
        result["end_to_end"][workload] = {
            name: dict(summarize(rs, name), unit=rs[0]["metrics"][name]["unit"])
            for name in rs[0]["metrics"]}
    if args.trace:
        result["per_layer"] = {}
        for workload in WORKLOADS:
            traced = run_one(args, workload, seeds[0], trace=True)
            result["correct"] = result["correct"] and traced["correct"]
            result["per_layer"][workload] = traced["metrics"]
    print(f"all runs: {time.monotonic() - started:.1f} s")

    print_table(result, bench)
    out = args.out or os.path.join(args.out_dir, "set.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"\nset written to {out}")
    if args.append_set:
        sets = {"sets": []}
        if os.path.exists(args.append_set):
            with open(args.append_set) as f:
                sets = json.load(f)
        sets["sets"].append(result)
        with open(args.append_set, "w") as f:
            json.dump(sets, f, indent=1)
            f.write("\n")
        print(f"set appended to {args.append_set} ({len(sets['sets'])} sets)")
    status = 0 if result["correct"] else 1
    if args.compare:
        status = max(status, compare(args.compare, result, bench))
    return status


if __name__ == "__main__":
    sys.exit(main())
