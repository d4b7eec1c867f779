"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 --workloads sweep forward \
        [--trace 0] [--out perfbench/baseline.json]

Runs run.py once per (workload, seed), one at a time, from the root of the
checkout, for BENCHMARK.json's run_seconds.  For each metric it prints the
median, the first and third quartile (``statistics.quantiles(values, n=4)``)
and the spread, which is the distance between the quartiles as a share of
the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            out[name] = {"values": values}
            continue
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {}
    for workload in args.workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]))
            env = next(ln for ln in lines if ln.startswith("# environment: "))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"attempted={results[-1]['attempted']} "
                  f"failed={results[-1]['failed']}", flush=True)
        summary = summarise(results)
        report[workload] = {
            "seeds": parse_seeds(args.seeds),
            "correct": [r["correct"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": summary,
        }
        for name, s in summary.items():
            if "median" in s:
                print(f"  {name:<52} median {s['median']:<12.6g} "
                      f"spread {s['spread']:.4f}  {s['unit']}")
        print(flush=True)

    if args.out:
        env = json.loads(env[len("# environment: "):])
        args.out.write_text(json.dumps(
            {"seconds": seconds, "trace": args.trace,
             "environment": env, "workloads": report},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
