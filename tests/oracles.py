"""Independent oracles the tests check the package against.

These deliberately share no code with the implementation: the conv
oracle is plain nested loops, the IoU oracle counts pixels per class
with integer arithmetic, and the bilinear oracle evaluates the
half-pixel formula pointwise. The inference BN oracle is pointwise
NumPy arithmetic, and the inference walk oracle builds on it, reusing
only the conv and upsample ops that the oracles above check. The
normalize oracle is the min/max formula as plain out-of-place arithmetic.
"""

import numpy as np

from seget import ops
from seget.model import _ConvBnRelu
from seget.tensor import Tensor


def naive_conv2d(x, kernel, bias, stride=1, dilation=1):
    """Nested-loop dilated cross-correlation with "same" zero padding."""
    n, cin, h, w = x.shape
    oc, _, k, _ = kernel.shape
    keff = k + (k - 1) * (dilation - 1)
    oh = -(-h // stride)
    ow = -(-w // stride)
    pt = max((oh - 1) * stride + keff - h, 0) // 2
    pl = max((ow - 1) * stride + keff - w, 0) // 2
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = bias[o]
                    for c in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                yy = i * stride - pt + ki * dilation
                                xx = j * stride - pl + kj * dilation
                                if 0 <= yy < h and 0 <= xx < w:
                                    acc += x[b, c, yy, xx] * kernel[o, c, ki, kj]
                    out[b, o, i, j] = acc
    return out


def weight_matrix_reference(mask, cap):
    """Per-pixel B/F loss weights of one binary patch: 1.0 on background;
    on foreground, the background/foreground pixel ratio clipped to
    [1, cap], or 1.0 when the patch has no foreground."""
    fg = sum(int(v == 1) for v in np.ravel(mask))
    weight = max(min((np.size(mask) - fg) / fg, cap), 1.0) if fg else 1.0
    return np.array([[weight if v == 1 else 1.0 for v in row] for row in mask])


def normalize_reference(data, per_slice):
    """The min/max map onto [0, 1] as out-of-place arithmetic on a float64
    copy, (a - lo) / (hi - lo), of the whole volume or of each slice
    stacked; a constant part maps to 0.5."""
    def minmax(a):
        lo, hi = float(a.min()), float(a.max())
        if hi == lo:
            return np.full_like(a, 0.5)
        return (a - lo) / (hi - lo)

    a = np.asarray(data, dtype=np.float64)
    return np.stack([minmax(s) for s in a]) if per_slice else minmax(a)


def brute_force_iou_stats(pred, gt, num_classes):
    """Per-class (intersection, union) as exact integers, by pixel loops."""
    inter = [0] * num_classes
    union_pred = [0] * num_classes
    union_gt = [0] * num_classes
    for p, g in zip(pred.ravel().tolist(), gt.ravel().tolist()):
        union_pred[p] += 1
        union_gt[g] += 1
        if p == g:
            inter[p] += 1
    return [(inter[c], union_pred[c] + union_gt[c] - inter[c]) for c in range(num_classes)]


def brute_force_miou(pred, gt, num_classes):
    """Mean IoU over classes with nonzero union, via brute_force_iou_stats."""
    per_class = [
        i / u for i, u in brute_force_iou_stats(pred, gt, num_classes) if u > 0
    ]
    return sum(per_class) / len(per_class)


def bilinear_half_pixel_point(src, r, c):
    """Evaluate half-pixel bilinear interpolation of a 2-D array at one
    (row, col) output coordinate of the 2x-upsampled grid."""
    h, w = src.shape
    sy = min(max((r + 0.5) / 2.0 - 0.5, 0.0), h - 1)
    sx = min(max((c + 0.5) / 2.0 - 0.5, 0.0), w - 1)
    y0, x0 = int(np.floor(sy)), int(np.floor(sx))
    fy, fx = sy - y0, sx - x0
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    return (
        src[y0, x0] * (1 - fy) * (1 - fx)
        + src[y1, x0] * fy * (1 - fx)
        + src[y0, x1] * (1 - fy) * fx
        + src[y1, x1] * fy * fx
    )


def bn_relu_infer_reference(x, gamma, beta, mean, invstd):
    """Inference BN then ReLU of an (N, C, H, W) array with per-channel
    statistics: (x - mean) * invstd, then * gamma + beta, then max(., 0),
    each step rounded to x's dtype."""
    dt = x.dtype

    def per_channel(v):
        return np.asarray(v, dtype=dt).reshape(1, -1, 1, 1)

    h = (x - per_channel(mean)) * per_channel(invstd)
    return np.maximum(h * per_channel(gamma) + per_channel(beta), 0)


def epilogue_grid(blocks):
    """The output grid that the blocks conv2d_forward hands its epilogue
    are column slices of, and each block's (first, last + 1) grid
    columns, in the order the epilogue saw them."""
    grid = blocks[0].base
    assert all(b.base is grid for b in blocks)
    origin = grid.__array_interface__["data"][0]
    starts = [(b.__array_interface__["data"][0] - origin) // grid.itemsize for b in blocks]
    return grid, [(a, a + b.shape[1]) for a, b in zip(starts, blocks)]


def infer_reference(net, x):
    """The logits of net's inference walk, by its node list: each conv is
    ops.conv2d_forward with no epilogue, followed in a BN unit by
    bn_relu_infer_reference on the unit's ops.running_statistics; each
    upsample is ops.bilinear_upsample_2x_forward; a concat's value is the
    list of its inputs, which the conv reading it takes as its sources."""
    slots = {0: x}
    for nd in net._nodes:
        xs = [slots[s] for s in nd.inputs]
        if nd.kind == "concat":
            slots[nd.output] = xs
        elif nd.kind == "upsample":
            slots[nd.output] = ops.bilinear_upsample_2x_forward(xs[0])[0]
        elif isinstance(nd.unit, _ConvBnRelu):
            u = nd.unit
            y = ops.conv2d_forward(xs[0], u.spec, u.kernel, None)[0]
            mean, invstd = ops.running_statistics(u.state)
            slots[nd.output] = Tensor(bn_relu_infer_reference(
                y.data, u.gamma.value, u.beta.value, mean, invstd))
        else:
            u = nd.unit
            slots[nd.output] = ops.conv2d_forward(xs[0], u.spec, u.kernel, u.bias)[0]
    return np.ascontiguousarray(slots[net._nodes[-1].output].data)
