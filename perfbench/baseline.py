"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads study,fit-large-n]
        [--traced-seed 1] [--out perfbench/baseline.json]

For every workload it runs ``perfbench/run.py`` once per seed (``--trace 0``)
and reports, per end-to-end metric, the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. With ``--traced-seed`` it
also makes one ``--trace 1`` run per workload. ``--out`` stores everything,
every run's result line included, as JSON; later changes compare against it.
The p90 latency, which run.py prints but does not put in the result line, is
summarised the same way from the printed lines.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

P90_LINE = re.compile(r"^(\w+_p90_ms) = ([0-9.]+) ms")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in doc["seeds"]:
            line, text = run_once(workload, seed, args.seconds, 0)
            p90 = [float(m[2]) for m in map(P90_LINE.match, text) if m]
            runs.append({"seed": seed, **line, "printed_p90_ms": p90[0] if p90 else None})
            print(f"{workload} seed={seed} correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
        metrics = {}
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds[name]
            metrics[name] = stats
            print(f"  {workload} {name}: median={stats['median']:.5g} q1={stats['q1']:.5g} "
                  f"q3={stats['q3']:.5g} spread={stats['spread']:.4f} "
                  f"(bound {bounds[name]}, spread/bound {stats['spread'] / bounds[name]:.2f})",
                  flush=True)
        p90 = [r["printed_p90_ms"] for r in runs if r["printed_p90_ms"] is not None]
        if len(p90) >= 2:
            metrics["printed_p90_ms"] = summarise(p90)
            print(f"  {workload} printed p90_ms: median={metrics['printed_p90_ms']['median']:.5g} "
                  f"spread={metrics['printed_p90_ms']['spread']:.4f} (no bound)", flush=True)
        entry = {"runs": runs, "metrics": metrics,
                 "all_correct": all(r["correct"] for r in runs)}
        if args.traced_seed is not None:
            line, text = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.traced_seed, **line, "report": text}
            print("\n".join(text), flush=True)
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
