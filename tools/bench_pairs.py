"""Alternate benchmark runs of two checkouts and write both sets of runs.

usage:
  python3 tools/bench_pairs.py --base PARENT_DIR --head CHANGE_DIR \
      --workloads reduce-d64,sweep-proj,certify --seeds 1-10 --out BENCH_N.json

For every workload and seed it runs `perfbench/run.py` of the base and the
head checkout back to back, one at a time, so both see the same slow and
quiet spells of the host; which side goes first alternates from seed to
seed.  Each side is stored in the `perfbench/sweep.py --out` format
(seconds, trace, seeds, and per workload a summary of every end-to-end
metric plus each run's result and record line); `pairs` gives, per workload
and metric, `won`, the count of seeds on which head beat base (ties count
for neither), and `median_change`, head's median over base's median minus 1
(negative when head's median is lower), so a claim reads straight off it,
next to the metric's `bound` from BENCHMARK.json and `within_bound`, whether
head's median is no worse than base's by more than that share of it (the
rule a change that claims no gain is held to), `base_iqr`, the distance
between the quartiles of base's runs, and `gain_shown`, whether head won at
least 9 in 10 of the pairs and its median beats base's by more than
`base_iqr` (the rule a claimed gain is held to), and per workload
`failed_ops`, each side's failed ops over its attempted ops summed over the
seeds ("base 0 of 412, head 0 of 790"), since a change whose share of failed
ops grows is no gain whatever its speed;
`digest_mismatch` lists, per workload, the seeds whose base and head output
digests (`output_sha256`) differ.  After each pair it prints one progress
line with the base and head value of every end-to-end metric, with
"DIGEST MISMATCH" when the digests differ, and ending in "FAILED OPS" when
either side failed an op or read `correct: false`, so a claim, its bytes
and its failures can be watched while the pairs run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from sweep import parse_seeds, summarize  # noqa: E402


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: %s seed %d exited %d" % (root, workload, seed, proc.returncode))
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), None)
    return {"seed": seed, "result": json.loads(lines[-1]), "record": record}


def side(runs, seconds, seeds):
    doc = {"seconds": seconds, "trace": 0, "seeds": seeds, "workloads": {}}
    for workload, rs in runs.items():
        names = list(rs[0]["result"]["metrics"])
        summary = {n: summarize([r["result"]["metrics"][n]["value"] for r in rs]) for n in names}
        doc["workloads"][workload] = {"summary": summary, "runs": rs}
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        # the summary's quartiles need two runs a side; fail before any run
        parser.error("--seeds names %d seed(s), the summary needs at least 2" % len(seeds))

    with open(os.path.join(args.head, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    runs = {"base": {}, "head": {}}
    pairs = {}
    mismatch = {}
    for workload in args.workloads.split(","):
        wins = {}
        mismatch[workload] = []
        for i, seed in enumerate(seeds):
            pair = {}
            order = (("base", args.base), ("head", args.head))
            for name, root in order[::-1] if i % 2 else order:
                pair[name] = run_once(os.path.abspath(root), workload, seed, args.seconds)
                runs[name].setdefault(workload, []).append(pair[name])
            values = {k: {m: v["value"] for m, v in r["result"]["metrics"].items()}
                      for k, r in pair.items()}
            for metric, b in values["base"].items():
                h = values["head"][metric]
                won = h > b if metrics[metric]["better"] == "higher" else h < b
                wins[metric] = wins.get(metric, 0) + int(won)
            same = len({r["record"]["output_sha256"] for r in pair.values()}) == 1
            if not same:
                mismatch[workload].append(seed)
            failing = any(r["result"]["failed"] or not r["result"]["correct"]
                          for r in pair.values())
            print("%s seed %d %s%s%s" % (workload, seed, "  ".join(
                "%s base %.4g head %.4g" % (m, b, values["head"][m])
                for m, b in values["base"].items()), "" if same else "  DIGEST MISMATCH",
                "  FAILED OPS" if failing else ""), flush=True)
        pairs[workload] = {"failed_ops": ", ".join(
            "%s %d of %d" % (name, sum(r["result"]["failed"] for r in runs[name][workload]),
                             sum(r["result"]["attempted"] for r in runs[name][workload]))
            for name in ("base", "head"))}
        for metric, w in wins.items():
            base_values = [r["result"]["metrics"][metric]["value"] for r in runs["base"][workload]]
            b = statistics.median(base_values)
            h = statistics.median(r["result"]["metrics"][metric]["value"]
                                  for r in runs["head"][workload])
            q1, _, q3 = statistics.quantiles(base_values, n=4)
            base_iqr = q3 - q1
            bound = metrics[metric]["bound"]
            higher = metrics[metric]["better"] == "higher"
            pairs[workload][metric] = {
                "won": "%d of %d" % (w, len(seeds)),
                "median_change": h / b - 1 if b else None,
                "bound": bound,
                "within_bound": h >= b * (1 - bound) if higher else h <= b * (1 + bound),
                "base_iqr": base_iqr,
                "gain_shown": 10 * w >= 9 * len(seeds) and (h - b if higher else b - h) > base_iqr,
            }
    doc = {"order": "per seed, base then head on even seed indices, head then base on odd",
           "pairs": pairs,
           "digest_mismatch": mismatch,
           "base": side(runs["base"], args.seconds, seeds),
           "head": side(runs["head"], args.seconds, seeds)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
