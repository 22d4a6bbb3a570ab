"""Command-line entry points binding the pipeline together.

Subcommands: synth (deterministic dataset generation), train, predict,
evaluate, fuse (multi-class integration of per-class probability
stacks), gradcheck (operator and whole-network gradient suites).

Exit codes: 0 success, 1 configuration, 2 data/format, 3 runtime or
numeric, 4 I/O.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as dp
from . import pool
from .checkpoint import load_checkpoint
from .config import (
    RunConfig,
    dump_config,
    load_preset,
    parse_config,
    set_value,
)
from .errors import ConfigError, DataFormatError, NumericError
from .gradcheck import run_network_suite, run_operator_suite
from .losses import ConfusionCounts, accumulate_confusion, bf_ratio, miou, pixel_accuracy
from .model import NetworkConfig, build
from .ops import sigmoid
from .synth import SynthConfig, write_dataset
from .tensor import Tensor
from .train import evaluate, fit

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

PREDICT_BATCH = 8   # windows in flight per step of predict, over all its threads


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "preset", None):
        cfg = load_preset(args.preset)
    if getattr(args, "config", None):
        cfg = parse_config(Path(args.config).read_text(), base=cfg)
    for override in getattr(args, "set", None) or []:
        key, _, value = override.partition("=")
        if not _:
            raise ConfigError(f"--set expects section.key=value, got {override!r}")
        cfg = set_value(cfg, key.strip(), value.strip())
    if getattr(args, "seed", None) is not None:
        cfg = set_value(cfg, "train.seed", str(args.seed))
    if getattr(args, "threshold", None) is not None:
        cfg = set_value(cfg, "train.threshold", str(args.threshold))
    for key in ("volume", "mask", "out_dir"):
        if getattr(args, key, None):
            cfg = set_value(cfg, f"paths.{key}", getattr(args, key))
    return cfg


def _load_binary_mask_stack(path: Path) -> np.ndarray:
    """Masks arrive either as an MRC volume or a directory of P5 images."""
    if path.is_dir():
        files = sorted(path.glob("*.pgm"))
        if not files:
            raise DataFormatError(f"{path}: no .pgm files found")
        slices = [(dp.read_pgm(f.read_bytes()) > 0).astype(np.int64) for f in files]
        for f, s in zip(files, slices):
            if s.shape != slices[0].shape:
                raise DataFormatError(
                    f"{f}: shape {s.shape}, but {files[0].name} has {slices[0].shape}")
        return np.stack(slices)
    return (dp.read_mrc(path).data != 0).astype(np.int64)


def _slice_names(stem: str, n: int, suffix: str) -> list[str]:
    """File names of n slices in slice order: the index is padded to the
    width of the largest one, at least 3 digits, so that the names also
    sort in slice order (as evaluate reads a directory of masks)."""
    width = max(3, len(str(n - 1)))
    return [f"{stem}{s:0{width}d}{suffix}" for s in range(n)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    try:
        cfg = SynthConfig(
            seed=args.seed if args.seed is not None else 0,
            size=args.size,
            n_slices=args.slices,
            classes=tuple(args.classes.split(",")),
        )
    except ValueError as exc:
        raise ConfigError(f"synth: {exc}") from exc
    paths = write_dataset(cfg, args.out_dir)
    for name, p in paths.items():
        print(f"{name}: {p}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.dump_config:
        print(dump_config(cfg), end="")
        return EXIT_OK
    if not cfg.paths.volume or not cfg.paths.mask:
        raise ConfigError("train requires --volume and --mask (or paths in the config)")
    _require_window_fits(cfg.data.window, cfg.network)

    # the MRC files' bytes are dropped as soon as each array is made
    images = dp.normalize(dp.read_mrc(cfg.paths.volume),
                          per_slice=cfg.data.normalize_per_slice)
    masks = (dp.read_mrc(cfg.paths.mask).data != 0).astype(np.int8)
    split = dp.split_train_val(
        images,
        masks,
        window=cfg.data.window,
        stride=cfg.data.stride,
        period=cfg.data.holdout_period,
        phase=cfg.data.holdout_phase,
        weight_cap=cfg.train.weight_cap,
    )
    if not split.train or not split.val:
        empty = "train" if not split.train else "validation"
        raise DataFormatError(
            f"{images.shape[0]} slices with holdout period {cfg.data.holdout_period} "
            f"and phase {cfg.data.holdout_phase} leave the {empty} split empty"
        )
    train_patches = dp.oversample_positive(split.train, cfg.train.oversample_copies)
    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.txt").write_text(dp.manifest_lines(train_patches))
    (out_dir / "resolved_config.txt").write_text(dump_config(cfg))
    positives = [p for p in train_patches if p.positive]
    if positives:
        avg_bf = float(np.mean([bf_ratio(p.mask, cfg.train.weight_cap) for p in positives]))
        print(f"training patches: {len(train_patches)} ({len(positives)} positive, "
              f"average B/F ratio {avg_bf:.1f})")

    ckpt = cfg.paths.checkpoint or str(out_dir / "best.ckpt")
    train_cfg = replace(cfg.train, checkpoint_path=ckpt)
    net = build(cfg.network, seed=cfg.train.seed)
    report = fit(net, train_patches, split.val, train_cfg, cfg.loss, log=print)
    (out_dir / "train_log.txt").write_text(report.log_lines())
    print(
        f"done: best_epoch={report.best_epoch} "
        f"best_val_miou={report.best_val_miou:.6f} checkpoint={ckpt}"
    )
    return EXIT_OK


def _require_window_fits(window: int, config: NetworkConfig) -> None:
    """A window the network cannot take is refused before any work."""
    factor = config.downsample_factor
    if window % factor:
        raise DataFormatError(
            f"window {window} is not divisible by the network downsample factor {factor}"
        )


def _predict_volume(net, images: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Per-slice patch inference with mean-overlap stitching; edge-aligned
    last windows cover the strips a stride that does not divide
    extent - window would leave out. Every slice has the same extents, so
    the window grid is laid once, before any inference: a window larger
    than the slices is a DataFormatError naming their extents.

    Runs in a pool scope (seget.pool): each batch of PREDICT_BATCH windows
    is split into one contiguous part per worker, the calling thread runs
    the first and the pool the rest, and the parts' probabilities, joined
    in part order, are stitched in window order. A part never sees the
    pool, so its convs run on its own thread; a batch of one window is not
    split, so its large convs split their blocks instead. infer keeps no
    cache, touches no state and computes each window on its own, so the
    bytes do not depend on the worker count.
    """
    nz, h, w = images.shape
    origins = dp.window_origins(h, w, window, stride, edge_aligned=True)
    probs = np.zeros((nz, h, w), dtype=np.float64)
    dt = net.config.np_dtype

    def infer_part(s: int, part: list[tuple[int, int]]) -> np.ndarray:
        batch = np.stack([images[s, y : y + window, x : x + window] for y, x in part])
        return sigmoid(net.infer(Tensor(batch[:, None].astype(dt))))[:, 0]

    with pool.scope():
        for s in range(nz):
            entries = []
            for start in range(0, len(origins), PREDICT_BATCH):
                chunk = origins[start : start + PREDICT_BATCH]
                p = np.concatenate(pool.run_parts(chunk, lambda part: infer_part(s, part)))
                entries.extend((p_i, y, x) for p_i, (y, x) in zip(p, chunk))
            probs[s] = dp.stitch_probabilities(entries, (h, w))
    return probs


def _require_threshold(threshold: float) -> None:
    """A threshold outside (0, 1), or NaN, would write all-background or
    all-foreground masks; it is refused before any file is read."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"--threshold must lie in (0, 1), got {threshold}")


def cmd_predict(args: argparse.Namespace) -> int:
    _require_threshold(args.threshold)
    window, stride = args.window, args.stride
    if window < 1:
        raise ConfigError(f"predict --window must be at least 1, got {window}")
    if not 1 <= stride <= window:  # a stride beyond the window leaves gaps between windows
        raise ConfigError(f"predict --stride must lie in [1, --window={window}], got {stride}")
    net, meta = load_checkpoint(args.checkpoint)
    _require_window_fits(window, net.config)
    images = dp.normalize(dp.read_mrc(args.volume), per_slice=args.normalize_per_slice)
    probs = _predict_volume(net, images, window, stride)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    threshold = args.threshold
    for s, name in enumerate(_slice_names("slice_", probs.shape[0], ".pgm")):
        mask = (probs[s] > threshold).astype(np.uint8)
        (out_dir / name).write_bytes(dp.write_mask_pgm(mask))
    if args.save_probs:
        np.save(out_dir / "probs.npy", probs.astype(np.float32))
    print(f"wrote {probs.shape[0]} masks to {out_dir} "
          f"(checkpoint epoch {meta['epoch']}, val mIOU {meta['val_miou']:.4f})")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    pred = _load_binary_mask_stack(Path(args.pred))
    gt = _load_binary_mask_stack(Path(args.gt))
    if pred.shape != gt.shape:
        raise DataFormatError(f"pred stack {pred.shape} and gt stack {gt.shape} differ")
    counts = ConfusionCounts.zeros(2)
    for s in range(pred.shape[0]):
        accumulate_confusion(pred[s], gt[s], counts)
    m = miou(counts)
    acc = pixel_accuracy(counts)
    print(f"miou={m:.6f} pixel_accuracy={acc:.6f}")
    if args.json:
        Path(args.json).write_text(
            '{"miou": %.10f, "pixel_accuracy": %.10f}\n' % (m, acc)
        )
    return EXIT_OK


def _load_prob_stack(path: str) -> np.ndarray:
    """One per-class probability stack: a 3-D floating array in a .npy file,
    no axis of length 0, every value in [0, 1]. A file that cannot be
    opened is an I/O error; anything else that goes wrong is a format
    error naming the file."""
    with open(path, "rb") as fh:
        # on malformed bytes np.load raises ValueError, EOFError, SyntaxError,
        # zipfile.BadZipFile, RuntimeError and more
        try:
            stack = np.load(fh, allow_pickle=False)
        except Exception as exc:
            raise DataFormatError(
                f"{path}: not a .npy array ({type(exc).__name__}: {exc})"
            ) from exc
    if not isinstance(stack, np.ndarray) or stack.ndim != 3 or stack.dtype.kind != "f":
        got = (f"{stack.ndim}-D {stack.dtype}" if isinstance(stack, np.ndarray)
               else type(stack).__name__)
        raise DataFormatError(f"{path}: expected a 3-D floating probability stack, got {got}")
    if 0 in stack.shape:
        raise DataFormatError(f"{path}: probability stack of shape {stack.shape} is empty")
    bad = ~((stack >= 0) & (stack <= 1))  # NaN compares False
    if bad.any():
        s, y, x = np.unravel_index(np.argmax(bad), stack.shape)  # first True
        raise DataFormatError(
            f"{path}: holds {np.count_nonzero(bad)} values that are not probabilities "
            f"(NaN, infinite or outside [0, 1]), the first at (slice {s}, y {y}, x {x})"
        )
    return stack


def cmd_fuse(args: argparse.Namespace) -> int:
    _require_threshold(args.threshold)
    if len(args.probs) > len(dp.CLASS_ORDER):  # refused before any file is read
        raise ConfigError(f"--probs takes one stack per class ({' '.join(dp.CLASS_ORDER)}), "
                          f"got {len(args.probs)}")
    stacks = [_load_prob_stack(p) for p in args.probs]
    fused = dp.fuse_probabilities(stacks, threshold=args.threshold)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for s, name in enumerate(_slice_names("fused_", fused.shape[0], ".ppm")):
        (out_dir / name).write_bytes(dp.write_fused_ppm(fused[s]))
    np.save(out_dir / "fused.npy", fused)
    print(f"wrote {fused.shape[0]} fused masks to {out_dir}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    reports = run_operator_suite(seeds=range(args.seeds))
    net_reports = run_network_suite()
    failed = [r for r in reports + net_reports if not r.passed]
    if args.verbose:
        for r in reports + net_reports:
            print(r.line())
    else:
        # one line per op: max relative error over all seeds
        by_op: dict[str, float] = {}
        for r in reports:
            op = r.name.split("[")[0]
            by_op[op] = max(by_op.get(op, 0.0), r.max_rel_err)
        for op, err in by_op.items():
            print(f"{op}: max_rel_err={err:.3e} over {args.seeds} seeds")
        net_worst = max(net_reports, key=lambda r: r.max_rel_err)
        print(f"network({len(net_reports)} params): "
              f"max_rel_err={net_worst.max_rel_err:.3e} ({net_worst.name})")
        for r in failed:
            print(r.line())
    total = len(reports) + len(net_reports)
    print(f"{total - len(failed)}/{total} checks passed")
    if failed:
        raise NumericError(f"{len(failed)} gradient checks failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seget", description="electron-tomography segmentation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=128, help="slice extent, divisible by 16")
    p.add_argument("--slices", type=int, default=8)
    p.add_argument("--classes", default="blob,tube,ring")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train one per-structure model")
    p.add_argument("--config", help="config file (key = value with [sections])")
    p.add_argument("--preset", help="structure preset: synapse|mts|centriole|granules|golgi")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--volume", help="input MRC volume")
    p.add_argument("--mask", help="binary mask MRC volume")
    p.add_argument("--out-dir")
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved config and exit")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="run inference and write PGM masks")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--stride", type=int, default=256)
    p.add_argument("--save-probs", action="store_true",
                   help="also write the stitched probability stack (probs.npy)")
    p.add_argument("--normalize-per-slice", action="store_true")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="mIOU / pixel accuracy of predicted masks")
    p.add_argument("--pred", required=True, help="PGM directory or mask MRC")
    p.add_argument("--gt", required=True, help="PGM directory or mask MRC")
    p.add_argument("--json", help="also write metrics as JSON")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("fuse", help="fuse per-class probability stacks into color masks")
    p.add_argument("--probs", nargs="+", required=True,
                   help="prob stacks (.npy) in class order: synapse mts centriole granules golgi")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--seeds", type=int, default=10, help="seeds per operator check")
    p.add_argument("--verbose", action="store_true", help="print every check line")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())
