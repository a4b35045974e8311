"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 0-9 [--workload NAME ...] [--trace 0|1]
                               [--out FILE]

For each workload and metric prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  With --out, writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict = {}
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": record["correct"], "failed": record["failed"]})
            for name, m in record["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={record['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}[{v['unit']}]" for k, v in record["metrics"].items()
                             if not k.startswith("suite_s.")), flush=True)
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            share = (q3 - q1) / med if med else 0.0
            stats[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share,
                           "bound": bounds.get(name), "values": vals}
            if bounds.get(name) is not None:
                print(f"  {name:<16} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"iqr/median {share:.4f}  bound {bounds[name]}", flush=True)
        summary[workload] = {"runs": runs, "metrics": stats}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
