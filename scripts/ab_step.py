#!/usr/bin/env python3
"""A/B timing of two seget source trees in one process, with a bit-equality
check of their results.

Both trees are imported side by side under distinct package names (the
package uses relative imports only), each builds the same depth-4 network
from the same seed, and both run the same inputs. After --warmup untimed
operations, --pairs pairs of operations run, alternating which tree goes
first, so host drift and order effects fall on both sides alike. An
operation is one training step (forward, combined loss, backward, Adam
step, as in seget.train.fit) or, with --mode infer, one SegETNetwork.infer
batch. One BLAS thread, as the benchmark runs. A tree with a worker pool
(seget/pool.py) runs its operations inside one pool scope, as fit does,
so its large convs split their blocks over the workers; the worker count
of each tree is printed.

Prints each side's min and median ms, the pairs that B won, the median of
the per-pair ratio B/A, and whether the two trees gave the same bits: the
loss of every step, every parameter after the last step, and the infer
logits of the batch. Exits 1 if any of them differ.

    python scripts/ab_step.py /path/to/parent/src src --base 4 --size 64
    python scripts/ab_step.py src src --base 2 --size 16 --batch 2 --pairs 2
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

DEPTH = 4


def load_tree(src: Path, name: str) -> dict:
    """Imports src/seget as the package `name`; returns its submodules."""
    init = src / "seget" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no seget package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    subs = ["losses", "model", "tensor", "train"]
    if (init.parent / "pool.py").is_file():  # trees from before the worker pool have none
        subs.append("pool")
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in subs}


class Side:
    """One tree's network, optimizer and step functions on shared inputs."""

    def __init__(self, mods: dict, args, images, masks, weights):
        self.mods = mods
        cfg = mods["model"].NetworkConfig(base_filters=args.base, depth=DEPTH, dtype=args.dtype)
        self.net = mods["model"].build(cfg, seed=args.seed)
        self.opt = mods["train"].Adam(self.net.parameters)
        self.loss_cfg = mods["losses"].LossConfig()
        tensor = mods["tensor"].Tensor
        self.batch, self.masks, self.weights = tensor(images), tensor(masks), tensor(weights)
        self.losses: list[float] = []

    def train_step(self) -> None:
        tensor = self.mods["tensor"].Tensor
        self.net.zero_grads()
        logits = self.net.forward(self.batch)
        loss, grad = self.mods["losses"].combined_loss(
            logits, self.masks, self.net.parameters, self.loss_cfg, self.weights)
        self.net.backward(tensor(grad.data.astype(self.net.config.np_dtype)))
        self.opt.step()
        self.losses.append(loss)

    def infer(self) -> None:
        self.logits = self.net.infer(self.batch)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="source directory of tree A (holding seget/)")
    ap.add_argument("b", type=Path, help="source directory of tree B")
    ap.add_argument("--mode", choices=("train", "infer"), default="train")
    ap.add_argument("--base", type=int, default=4, help="base filters of the network")
    ap.add_argument("--size", type=int, default=64, help="patch extent, a multiple of 16")
    ap.add_argument("--batch", type=int, default=12)
    ap.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    ap.add_argument("--warmup", type=int, default=3, help="untimed operations per side")
    ap.add_argument("--pairs", type=int, default=30, help="timed operation pairs")
    ap.add_argument("--seed", type=int, default=0, help="network and input seed")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    shape = (args.batch, 1, args.size, args.size)
    images = rng.standard_normal(shape).astype(args.dtype)
    masks = (rng.random(shape) < 0.2).astype(args.dtype)
    weights = np.where(masks == 1, 4.0, 1.0).astype(args.dtype)
    sides = [Side(load_tree(src.resolve(), f"seget_{tag}"), args, images, masks, weights)
             for tag, src in (("a", args.a), ("b", args.b))]
    op = "train_step" if args.mode == "train" else "infer"
    if args.mode == "infer":
        for side in sides:  # BN running statistics from one training batch
            side.net.forward(side.batch)

    with contextlib.ExitStack() as scopes:
        for side in sides:
            if "pool" in side.mods:
                scopes.enter_context(side.mods["pool"].scope())
        for _ in range(args.warmup):
            for side in sides:
                getattr(side, op)()
        times = [[], []]
        for p in range(args.pairs):
            for k in ((0, 1) if p % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                getattr(sides[k], op)()
                times[k].append((time.perf_counter() - t0) * 1e3)
        for side in sides:
            side.infer()

    print(f"a: {args.a}  b: {args.b}")
    print("workers: " + ", ".join(
        f"{tag} {side.mods['pool'].worker_count() if 'pool' in side.mods else '1 (no pool)'}"
        for tag, side in zip("ab", sides)))
    print(f"{args.mode}, base {args.base}, {args.size}^2, batch {args.batch}, {args.dtype}, "
          f"{args.warmup} warm-up, {args.pairs} pairs")
    if args.pairs:
        for tag, ts in zip("ab", times):
            print(f"{tag}  min {min(ts):9.2f} ms  median {statistics.median(ts):9.2f} ms")
        wins = sum(tb < ta for ta, tb in zip(*times))
        ratio = statistics.median(tb / ta for ta, tb in zip(*times))
        print(f"b faster in {wins}/{args.pairs} pairs; median b/a {ratio:.4f}")

    a, b = sides
    checks = {}
    if args.mode == "train":
        checks["loss"] = a.losses == b.losses
        checks["parameters"] = all(same_bits(p.value, b.net.parameters[name].value)
                                   for name, p in a.net.parameters.items())
    checks["logits"] = same_bits(a.logits, b.logits)
    print("bit-equal: " + ", ".join(f"{k} {'yes' if v else 'NO'}" for k, v in checks.items()))
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
