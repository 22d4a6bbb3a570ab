#!/usr/bin/env python3
"""How robust acceptance criterion 8 is to rounding-level input noise.

Runs criterion 8's protocol (tests/criterion8.py, the one the acceptance
test runs) once on the unperturbed volume and once per seed with the
normalized volume multiplied by 1 + 1e-7 * N(0, 1). A run that passes
only for some of these perturbations hinges on float rounding, not on
learning. Prints one line per run and the pass rate, and exits 1 if any
run fails. Each line also gives the time to accuracy: the first epoch
whose val mIOU reaches 0.85 and the summed epoch wall time up to and
including it. It moves with numerics and with the host, so it is
reported, not gated on.

Fix the BLAS thread count for a reproducible run, e.g.:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/criterion8_study.py --seeds 8
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from criterion8 import VAL_MIOU, run_criterion_8  # noqa: E402

NOISE = 1e-7


def run(work: Path, seed: int | None) -> str:
    """One criterion-8 run; seed None is the unperturbed volume."""
    def perturb(images: np.ndarray) -> np.ndarray:
        return images * (1.0 + NOISE * np.random.default_rng(seed).standard_normal(images.shape))

    t0 = time.monotonic()
    result = run_criterion_8(work, None if seed is None else perturb)
    report = result.report
    reached = next((r.epoch for r in report.records if r.val_miou >= VAL_MIOU), None)
    to_accuracy = (f"val_{VAL_MIOU}_epoch=none" if reached is None else
                   f"val_{VAL_MIOU}_epoch={reached} val_{VAL_MIOU}_s="
                   f"{sum(r.wall_time_s for r in report.records[:reached]):.1f}")
    return (f"{'pass' if result.learned else 'FAIL'} seed={'none' if seed is None else seed} "
            f"epochs={len(report.records)} best_epoch={report.best_epoch} "
            f"train_miou={result.train_miou:.4f} val_miou={result.val_miou:.4f} "
            f"stop={report.stop_reason} wall_s={time.monotonic() - t0:.0f} {to_accuracy}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=8, help="perturbation seeds 1..SEEDS")
    args = ap.parse_args()
    lines = []
    for seed in [None, *range(1, args.seeds + 1)]:
        with tempfile.TemporaryDirectory() as tmp:
            lines.append(run(Path(tmp), seed))
        print(lines[-1], flush=True)
    passed = sum(line.startswith("pass") for line in lines)
    print(f"passed {passed}/{len(lines)}")
    sys.exit(0 if passed == len(lines) else 1)


if __name__ == "__main__":
    main()
