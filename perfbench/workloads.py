"""The benchmark's workloads: inputs made from a seed, set-up, the timed
operation, and the checks on its outputs.

train-*      an operation is one seget.train.fit call on a freshly built
             network; attempted/failed count optimizer steps.
predict-512  an operation is one whole `seget predict` command
             (seget.cli.main); attempted/failed count slices.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seget import cli
from seget import data as dp
from seget import train as train_mod
from seget.checkpoint import save_checkpoint
from seget.losses import LossConfig, combined_loss
from seget.model import NetworkConfig, build
from seget.synth import SynthConfig, generate, mrc_bytes
from seget.tensor import Tensor
from seget.train import TrainConfig

import layers
from setups import WEIGHT_CAP, setup_train
from tracing import Patcher, Tracer

# end-to-end metric -> (unit, better)
END_TO_END = {"px_per_s": ("px/s", "higher"), "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}
SETUP_REPEATS = 9          # fresh-interpreter set-ups per run; setup_s is their median
# float32 vs float64 on the same weights: max |logit difference| relative to
# the largest float64 logit, and relative loss difference
LOGIT_RTOL = 1e-3
LOSS_RTOL = 1e-4
PROBE = Path(__file__).with_name("probe.py")


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    size: int            # slice extent of the synthetic volume
    slices: int
    window: int
    stride: int
    base_filters: int
    epochs: int          # epochs per timed fit call
    batch_size: int = 12
    check_batch: int = 2  # patches in the float32/float64 comparison batch


@dataclass(frozen=True)
class PredictWorkload:
    name: str
    size: int = 512
    slices: int = 1
    window: int = 128
    stride: int = 64
    base_filters: int = 16
    threshold: float = 0.5
    fixture_forwards: int = 3    # train-mode forwards that populate BN running stats
    fixture_patch: int = 64
    fixture_batch: int = 4


WORKLOADS = {
    "train-small": TrainWorkload("train-small", size=128, slices=8, window=64, stride=32,
                                 base_filters=4, epochs=2),
    "train-paper": TrainWorkload("train-paper", size=256, slices=5, window=128, stride=64,
                                 base_filters=16, epochs=1),
    "predict-512": PredictWorkload("predict-512"),
}


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int = 0, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


@dataclass
class Phase:
    """What a traced run records: spans and the instance-level patches of
    the operation in progress."""
    tracer: Tracer = field(default_factory=Tracer)
    net_patches: Patcher = field(default_factory=Patcher)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_ops(budget_s: float, op) -> list:
    """Closed loop: run op() until the next one would end past the budget
    (at least once). Returns each op's result."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(op())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > budget_s:
            return results


def median_setup_s(args: list[str], root: Path) -> float:
    """Median set-up time over fresh interpreters running probe.py."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(PROBE), str(root / "src"), *args],
                              cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _train_op(w: TrainWorkload, split, seed: int, ckpt: Path, tally: Tally,
              phase: Phase | None):
    """One fit call on a fresh network. Returns (training px/s or None, net, report)."""
    net = build(NetworkConfig(base_filters=w.base_filters, depth=4), seed=seed)
    if phase is not None:
        layers.instrument_net(phase.net_patches, phase.tracer, net)
    cfg = TrainConfig(epochs=w.epochs, batch_size=w.batch_size, learning_rate=2e-3,
                      lr_decay=1e-6, early_stop_patience=30, reduce_patience=10,
                      seed=seed, checkpoint_path=str(ckpt), weight_cap=WEIGHT_CAP)
    per_epoch = math.ceil(len(split.train) / w.batch_size)
    epochs_logged: list[str] = []
    try:
        t0 = time.perf_counter()
        report = train_mod.fit(net, split.train, split.val, cfg,
                               LossConfig(weight_cap=WEIGHT_CAP), log=epochs_logged.append)
        seconds = time.perf_counter() - t0
    except Exception as exc:  # every failure of the program counts against error_rate
        done = len(epochs_logged) * per_epoch
        tally.count(w.epochs * per_epoch, w.epochs * per_epoch - done,
                    f"fit raised {type(exc).__name__}: {exc}")
        return None, net, None
    finally:
        if phase is not None:
            phase.net_patches.restore()
    bad = [r.epoch for r in report.records if not math.isfinite(r.train_loss)]
    tally.count(len(report.records) * per_epoch, len(bad) * per_epoch,
                f"non-finite loss in epochs {bad}" if bad else "")
    patches = len(split.train) * len(report.records)
    return patches * w.window ** 2 / seconds, net, report


def check_precision(net, patches: list) -> tuple[str, dict]:
    """Compare the float32 network with a float64 twin holding the same
    weights and BN state on one batch; returns (problem or '', errors)."""
    batch, masks, weights = (np.stack([getattr(p, key) for p in patches])[:, None]
                             for key in ("image", "mask", "weights"))
    twin = build(NetworkConfig(**{**net.config.to_dict(), "dtype": "float64"}))
    for name, p in twin.parameters.items():
        p.value[...] = net.parameters[name].value
    for name, st in twin.bn_states.items():
        src = net.bn_states[name]
        st.running_mean[...] = src.running_mean
        st.running_var[...] = src.running_var
        st.num_updates = src.num_updates
    out = {}
    for key, model in (("f32", net), ("f64", twin)):
        dt = model.config.np_dtype
        logits = model.forward(Tensor(batch.astype(dt)), mode="train")
        loss, _ = combined_loss(logits, Tensor(masks.astype(dt)), model.parameters,
                                LossConfig(weight_cap=WEIGHT_CAP), Tensor(weights.astype(dt)))
        out[key] = (logits.data.astype(np.float64), float(loss))
    (l32, loss32), (l64, loss64) = out["f32"], out["f64"]
    if not (np.all(np.isfinite(l32)) and math.isfinite(loss32)):
        return "non-finite float32 logits or loss on the check batch", {}
    errors = {"logit_rel_err": float(np.max(np.abs(l32 - l64)) / max(np.max(np.abs(l64)), 1e-12)),
              "loss_rel_err": abs(loss32 - loss64) / max(abs(loss64), 1e-12)}
    if errors["logit_rel_err"] > LOGIT_RTOL or errors["loss_rel_err"] > LOSS_RTOL:
        return f"float32/float64 disagree beyond ({LOGIT_RTOL:g}, {LOSS_RTOL:g}): {errors}", errors
    return "", errors


def run_train(w: TrainWorkload, seed: int, seconds: float, trace: bool,
              work: Path, root: Path) -> dict:
    volume, masks = generate(SynthConfig(seed=seed, size=w.size, n_slices=w.slices,
                                         classes=("blob",)))
    vol_path, mask_path = work / "volume.mrc", work / "mask.mrc"
    vol_path.write_bytes(mrc_bytes(volume))
    mask_path.write_bytes(mrc_bytes(masks["blob"]))
    setup_args = [str(vol_path), str(mask_path), str(w.window), str(w.stride),
                  str(w.base_filters), str(seed)]
    setup_s = median_setup_s(["train", *setup_args], root)

    setup_tracer = Tracer()
    with Patcher() as patcher:
        if trace:
            layers.instrument_modules(patcher, setup_tracer)
        split, _ = setup_train(str(vol_path), str(mask_path), w.window, w.stride,
                               w.base_filters, seed)
    tally = Tally()
    last: dict = {}

    def op(phase: Phase | None = None):
        last.clear()  # only one network alive while fit runs
        rate, net, report = _train_op(w, split, seed, work / "best.ckpt", tally, phase)
        last.update(net=net, report=report)
        return rate

    result = {"diagnostics": {"train_patches": len(split.train), "val_patches": len(split.val),
                              "epochs_per_op": w.epochs}}
    net_config = NetworkConfig(base_filters=w.base_filters, depth=4)
    result.update(_measure(op, seconds, trace, setup_s, setup_tracer.spans, net_config,
                           w.window))
    result["diagnostics"]["train_patches_per_s"] = result["px_per_s"] / w.window ** 2

    report = last.get("report")
    if report is not None and report.records:
        result["diagnostics"]["val_miou"] = report.records[-1].val_miou
    problem, errors = check_precision(last["net"], split.val[: w.check_batch])
    result["diagnostics"].update(errors)
    return _finish(result, tally, problem)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def make_fixture_checkpoint(w: PredictWorkload, images: np.ndarray, seed: int,
                            path: Path) -> None:
    """A base-16 network whose BN running stats were populated by a few
    train-mode forwards on patches of the input volume."""
    net = build(NetworkConfig(base_filters=w.base_filters, depth=4), seed=seed)
    rng = np.random.default_rng(seed)
    nz, h, wd = images.shape
    p = w.fixture_patch
    for _ in range(w.fixture_forwards):
        crops = [images[rng.integers(nz), y : y + p, x : x + p]
                 for y, x in rng.integers(0, [h - p + 1, wd - p + 1], size=(w.fixture_batch, 2))]
        net.forward(Tensor(np.stack(crops)[:, None].astype(np.float32)), mode="train")
    save_checkpoint(path, net, epoch=1, val_miou=0.0)


def _read_pgm(raw: bytes, h: int, w: int) -> np.ndarray | None:
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    if not raw.startswith(header) or len(raw) != len(header) + h * w:
        return None
    return np.frombuffer(raw, dtype=np.uint8, offset=len(header)).reshape(h, w)


def check_prediction(w: PredictWorkload, out: Path, shape: tuple[int, int, int],
                     tally: Tally) -> int:
    """Per-slice checks of one predict command's outputs; returns the
    number of uncovered pixels."""
    nz, h, wd = shape
    probs_path = out / "probs.npy"
    if not probs_path.is_file():
        tally.count(nz, nz, "probs.npy was not written")
        return 0
    probs = np.load(probs_path)
    cover = np.zeros((h, wd), dtype=bool)
    for y, x in dp.window_origins(h, wd, w.window, w.stride):
        cover[y : y + w.window, x : x + w.window] = True
    uncovered = int((~cover).sum())
    if probs.shape != shape:
        tally.count(nz, nz, f"probs.npy has shape {probs.shape}, expected {shape}")
        return uncovered * nz
    for s in range(nz):
        p = probs[s]
        problems = []
        if not np.all(np.isfinite(p)):
            problems.append("non-finite probability")
        elif p.min() < 0.0 or p.max() > 1.0:
            problems.append(f"probability outside [0, 1]: {p.min()}..{p.max()}")
        if uncovered:
            problems.append(f"{uncovered} pixels not covered by any window")
        path = out / f"slice_{s:03d}.pgm"
        mask = _read_pgm(path.read_bytes(), h, wd) if path.is_file() else None
        if mask is None:
            problems.append(f"{path.name} missing or not a {wd}x{h} P5 image")
        else:
            expected = p > w.threshold
            # probs.npy holds float32 copies; ignore pixels within rounding of the threshold
            disagree = ((mask == 255) != expected) & (np.abs(p - w.threshold) > 1e-6)
            if np.any((mask != 0) & (mask != 255)) or np.any(disagree):
                problems.append(f"{path.name} disagrees with probs > {w.threshold}")
        tally.count(1, int(bool(problems)), f"slice {s}: " + "; ".join(problems) if problems else "")
    return uncovered * nz


def run_predict(w: PredictWorkload, seed: int, seconds: float, trace: bool,
                work: Path, root: Path) -> dict:
    volume, _ = generate(SynthConfig(seed=seed, size=w.size, n_slices=w.slices))
    vol_path, ckpt = work / "volume.mrc", work / "fixture.ckpt"
    vol_path.write_bytes(mrc_bytes(volume))
    lo, hi = float(volume.min()), float(volume.max())
    make_fixture_checkpoint(w, (volume - lo) / (hi - lo), seed, ckpt)
    setup_s = median_setup_s(["predict", str(ckpt), str(vol_path)], root)

    out = work / "pred"
    argv = ["predict", "--checkpoint", str(ckpt), "--volume", str(vol_path),
            "--out-dir", str(out), "--window", str(w.window), "--stride", str(w.stride),
            "--threshold", str(w.threshold), "--save-probs"]
    tally = Tally()
    uncovered = []

    def op(phase: Phase | None = None):
        for f in (out.glob("*") if out.is_dir() else ()):
            f.unlink()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # every failure of the program counts against error_rate
            tally.count(w.slices, w.slices, f"predict raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if phase is not None:
                phase.net_patches.restore()
        if rc != 0:
            tally.count(w.slices, w.slices, f"seget predict exited {rc}")
            return None
        uncovered.append(check_prediction(w, out, volume.shape, tally))
        return volume.size / elapsed

    net_config = NetworkConfig(base_filters=w.base_filters, depth=4)
    result = _measure(op, seconds, trace, setup_s, [], net_config, w.window)
    result["diagnostics"] = {"predict_px_per_s": result["px_per_s"],
                             "uncovered_px": sum(uncovered)}
    return _finish(result, tally, "")


# ---------------------------------------------------------------------------
# shared measurement and result assembly
# ---------------------------------------------------------------------------

def _measure(op, seconds: float, trace: bool, setup_s: float, setup_spans: list,
             net_config: NetworkConfig, window: int) -> dict:
    """Untraced: op() for the whole budget, giving the end-to-end metrics.
    Traced: pairs of one untraced and one traced op() for the budget,
    giving the per-layer metrics and the tracing overhead."""
    if not trace:
        rates = [r for r in timed_ops(seconds, op) if r is not None]
        metrics = {"px_per_s": _median(rates), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
        return {"px_per_s": metrics["px_per_s"], "ops": len(rates), "op_px_per_s": rates,
                "metrics": metrics}

    phase = Phase()
    plain: list = []
    traced: list = []

    def pair() -> None:
        plain.append(op())
        with Patcher() as patcher:
            layers.instrument_modules(
                patcher, phase.tracer,
                lambda net: layers.instrument_net(phase.net_patches, phase.tracer, net))
            traced.append(op(phase))

    timed_ops(seconds, pair)
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    untraced_rate, traced_rate = _median(plain), _median(traced)
    overhead = 1.0 - traced_rate / untraced_rate if untraced_rate and traced_rate else 0.0
    n_ops = max(len(traced), 1)
    rows = build(net_config).describe(ref_hw=(window, window)).rows
    table = layers.unit_table(phase.tracer.spans, rows, n_ops)
    return {
        "px_per_s": traced_rate,
        "ops": len(traced),
        "metrics": layers.layer_metrics(setup_spans, phase.tracer.spans, n_ops, table, overhead),
        "table": table,
        "spans": {"setup": setup_spans, "ops": phase.tracer.spans},
        "untraced_px_per_s": untraced_rate,
        "op_px_per_s": plain + traced,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _finish(result: dict, tally: Tally, check_problem: str) -> dict:
    if check_problem:
        tally.problems.append(check_problem)
    if not tally.attempted:
        tally.count(1, 1, "no operation completed")
    result["attempted"], result["failed"] = tally.attempted, tally.failed
    result["correct"] = tally.failed == 0 and not check_problem
    result["problems"] = tally.problems
    return result


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, root: Path) -> dict:
    w = WORKLOADS[name]
    fn = run_predict if isinstance(w, PredictWorkload) else run_train
    return fn(w, seed, seconds, trace, work, root)
