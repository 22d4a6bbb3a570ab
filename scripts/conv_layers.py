#!/usr/bin/env python3
"""Per-layer timings of the training ops: forward and backward ms and
GFLOP/s of every conv of the depth-4 network, the forward and backward
ms of each conv + BN unit's BN+ReLU pair and of each upsample node, in
process, at batch 12, float32, one BLAS thread.

The layers and their input shapes come from
build(NetworkConfig(base, depth=4)).describe((size, size)). Each conv
runs the training forward (conv2d_forward, bias-free, as in the
network's conv + BN units) and its backward (conv2d_backward) on random
channel-major inputs, as the units pass them; a unit's BN+ReLU pair
(batchnorm_relu_forward/backward) runs on that conv's output, and an
upsample node (bilinear_upsample_2x_forward/backward) on a random
channel-major input. Each time printed is the best of --repeat calls,
inside one pool scope when the tree has a worker pool (seget/pool.py),
as in fit, so that the large ops split over the workers; the worker
count is printed. FLOPs count the dense conv as perfbench does:
2·N·OC·OH·OW·C·k² for the forward and twice that for the backward. The
last lines give the totals per op kind.

Compare two trees by running the same script against each source:
    PYTHONPATH=src python scripts/conv_layers.py --base 16 --size 128
    PYTHONPATH=/path/to/other/src python scripts/conv_layers.py --base 16 --size 128
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from seget import ops  # noqa: E402

try:
    from seget import pool  # noqa: E402
except ImportError:  # a tree from before the worker pool
    pool = None
from seget.model import NetworkConfig, build  # noqa: E402
from seget.tensor import ConvSpec, Parameter, Tensor  # noqa: E402

BATCH = 12


def best_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def channel_major(rng: np.random.Generator, n: int, c: int, h: int, w: int) -> Tensor:
    """A random (N, C, H, W) Tensor whose memory is (C, N, H, W)."""
    return Tensor(rng.standard_normal((c, n, h, w), dtype=np.float32).transpose(1, 0, 2, 3))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=int, default=16, help="base filters of the network")
    ap.add_argument("--size", type=int, default=128, help="input patch extent")
    ap.add_argument("--repeat", type=int, default=5, help="calls per timing (best is kept)")
    args = ap.parse_args()

    print(f"workers: {pool.worker_count() if pool else '1 (no pool)'}")
    with pool.scope() if pool else contextlib.nullcontext():
        time_convs(args.base, args.size, args.repeat)


def time_convs(base: int, size: int, repeat: int) -> None:
    net = build(NetworkConfig(base_filters=base, depth=4))
    params = net.parameters
    rng = np.random.default_rng(0)
    print(f"{'layer':<14}{'in (C,H,W)':<16}{'OC':>5}{'k':>3}{'s':>3}{'d':>3}"
          f"{'fwd ms':>10}{'GFLOP/s':>9}{'bwd ms':>10}{'GFLOP/s':>9}"
          f"{'bn fwd ms':>11}{'bn bwd ms':>11}")
    # per op kind: forward ms, backward ms; and the convs' forward FLOPs
    totals = {kind: [0.0, 0.0] for kind in ("conv", "bn+relu", "upsample")}
    flops_total = 0
    for row in net.describe((size, size)).rows:
        _, c, h, w = row.in_shape
        _, oc, oh, ow = row.out_shape
        x = channel_major(rng, BATCH, c, h, w)
        g = channel_major(rng, BATCH, oc, oh, ow)
        if row.kind == "upsample":
            _, up_cache = ops.bilinear_upsample_2x_forward(x)
            fwd = best_ms(lambda: ops.bilinear_upsample_2x_forward(x), repeat)
            bwd = best_ms(lambda: ops.bilinear_upsample_2x_backward(g, up_cache), repeat)
            add(totals["upsample"], fwd, bwd)
            print(f"{row.name:<14}{str((c, h, w)):<16}{oc:>5}{'':>9}"
                  f"{fwd:>10.2f}{'':>9}{bwd:>10.2f}")
            continue
        if row.kind != "conv":
            continue
        kernel = Parameter(params[f"{row.name}.kernel"].value.copy(), "conv-kernel",
                           regularized=True)
        k = kernel.value.shape[2]
        spec = ConvSpec(c, oc, kernel=k, stride=row.stride, dilation=row.dilation)
        y, cache = ops.conv2d_forward(x, spec, kernel, None)
        fwd = best_ms(lambda: ops.conv2d_forward(x, spec, kernel, None), repeat)
        bwd = best_ms(lambda: ops.conv2d_backward(g, cache, spec, kernel, None), repeat)
        flops = 2 * BATCH * oc * oh * ow * c * k * k
        add(totals["conv"], fwd, bwd)
        flops_total += flops
        line = (f"{row.name:<14}{str((c, h, w)):<16}{oc:>5}{k:>3}{row.stride:>3}{row.dilation:>3}"
                f"{fwd:>10.2f}{flops / fwd / 1e6:>9.1f}{bwd:>10.2f}{2 * flops / bwd / 1e6:>9.1f}")
        if f"{row.name}.gamma" in params:  # a conv + BN unit
            gamma = Parameter(np.ones(oc, dtype=np.float32), "bn-gamma")
            beta = Parameter(np.zeros(oc, dtype=np.float32), "bn-beta")
            state = ops.BatchNormState.create(oc)
            _, bn_cache = ops.batchnorm_relu_forward(y, gamma, beta, state)
            bn_fwd = best_ms(lambda: ops.batchnorm_relu_forward(y, gamma, beta, state), repeat)
            bn_bwd = best_ms(lambda: ops.batchnorm_relu_backward(g, bn_cache, gamma, beta),
                             repeat)
            add(totals["bn+relu"], bn_fwd, bn_bwd)
            line += f"{bn_fwd:>11.2f}{bn_bwd:>11.2f}"
        print(line)
    for kind, (fwd, bwd) in totals.items():
        if kind == "conv":
            print(f"{'total conv':<44}{fwd:>10.2f}{flops_total / fwd / 1e6:>9.1f}"
                  f"{bwd:>10.2f}{2 * flops_total / bwd / 1e6:>9.1f}")
        else:
            print(f"{'total ' + kind:<44}{fwd:>10.2f}{'':>9}{bwd:>10.2f}")


def add(total: list[float], fwd: float, bwd: float) -> None:
    total[0] += fwd
    total[1] += bwd


if __name__ == "__main__":
    main()
