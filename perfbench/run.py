"""seget benchmark: one workload per run, measured in this process.

Run from the root of a source checkout (it imports seget from ./src):

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones, and also writes the spans and the
per-unit layer table under .perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is first imported (here or in children)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import seget

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "seget": seget.__version__,
        "seed": seed,
    }


def dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def spans_json(spans) -> list:
    return [[s.name, s.start, s.end, s.parent, s.info] for s in spans]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="train-small | train-paper | predict-512")
    ap.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src" / "seget"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no seget sources at {src}; run from the root of a "
              "seget checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.parent))
    import layers
    import workloads

    if Path(workloads.cli.__file__).resolve().parent != src.resolve():
        print(f"perfbench: imported seget from {workloads.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    base = root / ".perfbench"
    work = base / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = base / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, unit, _ in layers.metric_names()}
    else:
        units = {name: unit for name, (unit, _) in workloads.END_TO_END.items()}
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    error_rate = result["failed"] / result["attempted"]
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": environment(args.seed), "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "error_rate": error_rate, "ops": result["ops"],
        "op_px_per_s": result["op_px_per_s"], "metrics": metrics,
        "diagnostics": result["diagnostics"], "problems": result["problems"],
    }
    if args.trace:
        record["untraced_px_per_s"] = result["untraced_px_per_s"]
        dump(out / "trace.json", {k: spans_json(v) for k, v in result["spans"].items()})
        dump(out / "layers.json", result["table"])
        (out / "layers.txt").write_text(layers.format_table(result["table"]))
        print(layers.format_table(result["table"]), end="")
    dump(out / "result.json", record)

    print("env " + json.dumps(record["env"], sort_keys=True))
    print("diagnostics " + json.dumps(record["diagnostics"], sort_keys=True))
    print(f"{args.workload} seed={args.seed} ops={result['ops']} "
          f"error_rate={error_rate:g} ({result['failed']}/{result['attempted']}) "
          + " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items()
                     if not args.trace))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
