#!/usr/bin/env python3
"""Per-layer conv timings: forward and backward ms and GFLOP/s of every
conv of the depth-4 network, in process, at batch 12, float32, one BLAS
thread.

The convs and their input shapes come from
build(NetworkConfig(base, depth=4)).describe((size, size)). Each conv
runs the training forward (conv2d_forward, bias-free, as in the
network's conv + BN units) and its backward (conv2d_backward) on random
channel-major inputs, as the units pass them; each time printed is the
best of --repeat calls. FLOPs count the dense conv as perfbench does:
2·N·OC·OH·OW·C·k² for the forward and twice that for the backward.

Compare two trees by running the same script against each source:
    PYTHONPATH=src python scripts/conv_layers.py --base 16 --size 128
    PYTHONPATH=/path/to/other/src python scripts/conv_layers.py --base 16 --size 128
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from seget import ops  # noqa: E402
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

    net = build(NetworkConfig(base_filters=args.base, depth=4))
    kernels = net.parameters
    rng = np.random.default_rng(0)
    print(f"{'layer':<14}{'in (C,H,W)':<16}{'OC':>5}{'k':>3}{'s':>3}{'d':>3}"
          f"{'fwd ms':>10}{'GFLOP/s':>9}{'bwd ms':>10}{'GFLOP/s':>9}")
    totals = [0.0, 0.0, 0.0]  # forward ms, backward ms, forward FLOPs
    for row in net.describe((args.size, args.size)).rows:
        if row.kind != "conv":
            continue
        _, c, h, w = row.in_shape
        _, oc, oh, ow = row.out_shape
        kernel = Parameter(kernels[f"{row.name}.kernel"].value.copy(), "conv-kernel",
                           regularized=True)
        k = kernel.value.shape[2]
        spec = ConvSpec(c, oc, kernel=k, stride=row.stride, dilation=row.dilation)
        x = channel_major(rng, BATCH, c, h, w)
        g = channel_major(rng, BATCH, oc, oh, ow)
        _, cache = ops.conv2d_forward(x, spec, kernel, None)
        fwd = best_ms(lambda: ops.conv2d_forward(x, spec, kernel, None), args.repeat)
        bwd = best_ms(lambda: ops.conv2d_backward(g, cache, spec, kernel, None), args.repeat)
        flops = 2 * BATCH * oc * oh * ow * c * k * k
        totals[0] += fwd
        totals[1] += bwd
        totals[2] += flops
        print(f"{row.name:<14}{str((c, h, w)):<16}{oc:>5}{k:>3}{row.stride:>3}{row.dilation:>3}"
              f"{fwd:>10.2f}{flops / fwd / 1e6:>9.1f}{bwd:>10.2f}{2 * flops / bwd / 1e6:>9.1f}")
    fwd, bwd, flops = totals
    print(f"{'total':<14}{'':<16}{'':>14}"
          f"{fwd:>10.2f}{flops / fwd / 1e6:>9.1f}{bwd:>10.2f}{2 * flops / bwd / 1e6:>9.1f}")


if __name__ == "__main__":
    main()
