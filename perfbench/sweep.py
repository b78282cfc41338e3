"""Repeat run.py over seeds and report each metric's median and spread.

usage (from the root of a checkout):
  python3 perfbench/sweep.py --workloads sweep-proj,certify --seeds 1-10 \
      [--seconds N] [--trace 0] [--out perfbench/results/NAME.json]

For every workload and end-to-end metric it prints the median, the
quartiles from statistics.quantiles(values, n=4) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  Runs go one at a time, in the order
given.  --seconds defaults to run_seconds in BENCHMARK.json; --out writes
every run's result and record line plus the summary.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), None)
    return json.loads(lines[-1]), record


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    doc = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, record = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "result": result, "record": record})
            print("%s seed %d correct=%s attempted=%d failed=%d"
                  % (workload, seed, result["correct"], result["attempted"], result["failed"]),
                  flush=True)
        names = list(runs[0]["result"]["metrics"])
        summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in names}
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        for name in names:
            s, bound = summary[name], bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print("  %-38s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %s%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], bound, flag), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
