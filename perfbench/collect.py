"""Runs the untraced benchmark over several seeds and summarises each metric
by its median, quartiles and spread (interquartile range over median), the
figures used to compare two commits.

Run from the root of a seget checkout:

    python3 perfbench/collect.py --workload predict-512 --seeds 1-10 --seconds 30 \\
        --out .perfbench/predict.json

Runs are sequential; each is a fresh `perfbench/run.py` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_one(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = Path(".perfbench/out") / f"{workload}-seed{seed}-trace0" / "result.json"
    result["record"] = json.loads(record.read_text())
    result["wall_s"] = wall_s
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", help="write the summary as JSON")
    args = ap.parse_args()

    summary = {}
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_one(workload, seed, args.seconds)
            runs.append(r)
            print(f"{workload} seed={seed} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
        names = runs[0]["metrics"]
        summary[workload] = {
            "seeds": parse_seeds(args.seeds), "seconds": args.seconds,
            "env": runs[0]["record"]["env"],
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {n: {"unit": names[n]["unit"],
                            **summarize([r["metrics"][n]["value"] for r in runs])}
                        for n in names},
            "diagnostics": [r["record"]["diagnostics"] for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
        }
        for n, m in summary[workload]["metrics"].items():
            print(f"  {n:<14} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
