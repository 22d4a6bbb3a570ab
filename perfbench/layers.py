"""Binds the tracer to seget's layers and turns the spans of a traced run
into per-layer metrics and a per-unit table.

Spans are recorded from the benchmark's side only: module attributes
(seget.ops, and names imported into seget.train, seget.cli, seget.losses
and seget.data) and the forward/backward methods of one network instance
and its units are swapped for tracing wrappers, and restored afterwards.
A target the code no longer has raises LookupError before anything is
wrapped, and a hook that cannot read its call raises too, so a traced run
never reports zeros for a layer it failed to see.
"""

from __future__ import annotations

import importlib
import os
from collections import deque
from typing import Any, Callable

import numpy as np

from tracing import Patcher, Span, Tracer, children, conv_flops, self_times

OPS = (
    "conv2d_forward", "conv2d_backward",
    "batchnorm_forward", "batchnorm_backward",
    "relu_forward", "relu_backward",
    "bilinear_upsample_2x_forward", "bilinear_upsample_2x_backward",
    "concat_channels_forward", "concat_channels_backward",
    "sigmoid",
)

# (module, attribute path in it, span name)
TARGETS = (
    *(("seget.ops", fn, f"ops.{fn}") for fn in OPS),
    ("seget.losses", "sigmoid", "ops.sigmoid"),
    ("seget.train", "sigmoid", "ops.sigmoid"),
    ("seget.cli", "sigmoid", "ops.sigmoid"),
    ("seget.train", "combined_loss", "losses.combined_loss"),
    ("seget.train", "accumulate_confusion", "losses.accumulate_confusion"),
    ("seget.train", "Adam.step", "train.adam_step"),
    ("seget.train", "evaluate", "train.evaluate"),
    ("seget.train", "fit", "train.fit"),
    ("seget.train", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("seget.cli", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("seget.cli", "cmd_predict", "cli.predict"),
    ("seget.data", "read_mrc", "data.read_mrc"),
    ("seget.data", "normalize", "data.normalize"),
    ("seget.data", "split_train_val", "data.split_train_val"),
    ("seget.data", "stitch_probabilities", "data.stitch_probabilities"),
    ("seget.data", "write_mask_pgm", "data.write_mask_pgm"),
)

STAGES = ("enc0", "enc1", "enc2", "enc3", "center",
          "dec0", "dec1", "dec2", "dec3", "fuse", "head")

_LOOSE_OPS = {  # ops the network calls outside any unit, by describe() row kind
    "upsample": ("ops.bilinear_upsample_2x_forward", "ops.bilinear_upsample_2x_backward"),
    "concat": ("ops.concat_channels_forward", "ops.concat_channels_backward"),
}


def _conv_forward_info(args, kwargs, result):
    spec = args[1]
    out, cache = result
    n, _, oh, ow = out.shape
    return {
        "flops": conv_flops(n, spec.out_channels, oh, ow, spec.in_channels, spec.kernel),
        "cache_bytes": cache.padded.nbytes,
    }


def _conv_backward_info(args, kwargs, result):
    grad_out, spec = args[0], args[2]
    n, _, oh, ow = grad_out.shape
    return {"flops": 2 * conv_flops(n, spec.out_channels, oh, ow,
                                    spec.in_channels, spec.kernel)}


def _file_size_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _coverage_info(args, kwargs, result):
    entries, (h, w) = args[0], args[1]
    cover = np.zeros((h, w), dtype=bool)
    for prob, y, x in entries:
        cover[y : y + prob.shape[0], x : x + prob.shape[1]] = True
    return {"px": h * w, "uncovered": int((~cover).sum())}


def _batch_px_info(args, kwargs, result):
    n, _, h, w = args[0].shape
    return {"px": n * h * w}


_HOOKS = {
    "ops.conv2d_forward": _conv_forward_info,
    "ops.conv2d_backward": _conv_backward_info,
    "checkpoint.save_checkpoint": _file_size_info,
    "data.stitch_probabilities": _coverage_info,
}


def instrument_modules(patcher: Patcher, tracer: Tracer,
                       on_loaded_net: Callable[[Any], None] | None = None) -> None:
    """Wrap every module-level target; raises LookupError, wrapping
    nothing, if any target is gone.

    on_loaded_net receives each network that the CLI's load_checkpoint
    returns, so that predict's network can be instrumented as well."""
    found, missing = [], []
    for module_name, path, span_name in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{module_name}.{path}")
        else:
            found.append((owner, attr, fn, span_name))
    if missing:
        raise LookupError(f"traced targets not found: {', '.join(missing)}")
    for owner, attr, fn, span_name in found:
        hook = _HOOKS.get(span_name)
        if span_name == "checkpoint.load_checkpoint" and on_loaded_net is not None:
            hook = lambda args, kwargs, result: on_loaded_net(result[0])  # noqa: E731
        patcher.patch(owner, attr, tracer.wrap(fn, span_name, hook))


def find_units(net: Any) -> list[Any]:
    """The outermost named objects with forward and backward methods
    reachable from the network: its conv(-BN-ReLU) units."""
    units = []
    seen = {id(net)}
    queue: deque = deque(vars(net).values())
    while queue:
        obj = queue.popleft()
        if isinstance(obj, (list, tuple)):
            queue.extend(obj)
            continue
        if isinstance(obj, dict):
            queue.extend(obj.values())
            continue
        if id(obj) in seen or not type(obj).__module__.startswith("seget."):
            continue
        seen.add(id(obj))
        if (isinstance(getattr(obj, "name", None), str)
                and callable(getattr(obj, "forward", None))
                and callable(getattr(obj, "backward", None))):
            units.append(obj)
        elif hasattr(obj, "__dict__"):
            queue.extend(vars(obj).values())
    return units


def instrument_net(patcher: Patcher, tracer: Tracer, net: Any) -> None:
    """Wrap one network's forward/backward and each unit's, per instance;
    raises LookupError if the network has no units to wrap."""
    units = find_units(net)
    if not units:
        raise LookupError(f"no units with forward/backward found in {type(net).__name__}")
    patcher.patch(net, "forward", tracer.wrap(net.forward, "model.forward", _batch_px_info))
    patcher.patch(net, "backward", tracer.wrap(net.backward, "model.backward"))
    for unit in units:
        patcher.patch(unit, "forward", tracer.wrap(unit.forward, f"unit.{unit.name}.fwd"))
        patcher.patch(unit, "backward", tracer.wrap(unit.backward, f"unit.{unit.name}.bwd"))


# ---------------------------------------------------------------------------
# per-unit table
# ---------------------------------------------------------------------------

def _stage(layer: str) -> str:
    head = layer.split(".")[0]
    return head if head in STAGES else head.rstrip("0123456789")


def unit_table(spans: list[Span], rows: list, n_ops: int) -> list[dict]:
    """Join describe() rows with measured time per operation.

    Conv rows match unit spans by name; upsample and concat rows match, in
    order, the op spans the network calls outside any unit (reversed in
    backward). conv_* columns are the time inside the conv op itself."""
    table = {r.name: {"name": r.name, "kind": r.kind, "in": list(r.in_shape),
                      "out": list(r.out_shape), "params": r.params,
                      "stride": r.stride, "dilation": r.dilation,
                      "calls": 0, "fwd_s": 0.0, "bwd_s": 0.0,
                      "conv_fwd_s": 0.0, "conv_bwd_s": 0.0,
                      "fwd_flops": 0, "bwd_flops": 0} for r in rows}
    loose_rows = {kind: [r.name for r in rows if r.kind == kind] for kind in _LOOSE_OPS}
    kids = children(spans)
    for i, s in enumerate(spans):
        if s.name not in ("model.forward", "model.backward"):
            continue
        fwd = s.name == "model.forward"
        side = "fwd" if fwd else "bwd"
        loose: dict[str, list[Span]] = {kind: [] for kind in _LOOSE_OPS}
        for k in kids[i]:
            c = spans[k]
            if c.name.startswith("unit."):
                entry = table.get(c.name[len("unit."):-len(".fwd")])
                if entry is None:
                    continue
                entry[f"{side}_s"] += c.end - c.start
                entry["calls"] += fwd
                for g in kids[k]:
                    op = spans[g]
                    if op.name in ("ops.conv2d_forward", "ops.conv2d_backward"):
                        entry[f"conv_{side}_s"] += op.end - op.start
                        entry[f"{side}_flops"] += (op.info or {}).get("flops", 0)
            else:
                for kind, names in _LOOSE_OPS.items():
                    if c.name == names[0 if fwd else 1]:
                        loose[kind].append(c)
        for kind, found in loose.items():
            names = loose_rows[kind] if fwd else loose_rows[kind][::-1]
            if len(found) != len(names):
                continue
            for name, c in zip(names, found):
                table[name][f"{side}_s"] += c.end - c.start
                table[name]["calls"] += fwd
    out = []
    for e in table.values():
        row = {k: v for k, v in e.items() if not k.endswith("_s") and not k.endswith("flops")}
        row["calls"] = e["calls"] / n_ops
        for side in ("fwd", "bwd"):
            row[f"{side}_ms"] = 1e3 * e[f"{side}_s"] / n_ops
            row[f"conv_{side}_ms"] = 1e3 * e[f"conv_{side}_s"] / n_ops
            t = e[f"conv_{side}_s"]
            row[f"{side}_gflop_per_s"] = e[f"{side}_flops"] / t / 1e9 if t > 0 else 0.0
        out.append(row)
    return out


def format_table(table: list[dict]) -> str:
    head = (f"{'name':<15}{'kind':<9}{'in':<20}{'out':<20}{'params':>8} s d"
            f"{'calls':>7}{'fwd_ms':>10}{'bwd_ms':>10}{'convf_ms':>10}{'convb_ms':>10}"
            f"{'fwd_GF/s':>9}{'bwd_GF/s':>9}")
    lines = [head]
    for r in table:
        lines.append(
            f"{r['name']:<15}{r['kind']:<9}{str(tuple(r['in'])):<20}{str(tuple(r['out'])):<20}"
            f"{r['params']:>8} {r['stride']} {r['dilation']}{r['calls']:>7.1f}"
            f"{r['fwd_ms']:>10.2f}{r['bwd_ms']:>10.2f}{r['conv_fwd_ms']:>10.2f}"
            f"{r['conv_bwd_ms']:>10.2f}{r['fwd_gflop_per_s']:>9.2f}{r['bwd_gflop_per_s']:>9.2f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    selfs = self_times(spans)
    tot: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        t = tot.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += s.end - s.start
        t["self_s"] += own
        t["calls"] += 1
        for key, value in (s.info or {}).items():
            t[key] = t.get(key, 0) + value
    return tot


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    m = []
    for fn in OPS:
        m += [(f"ops.{fn}.ms", "ms", "lower"), (f"ops.{fn}.calls", "count", "lower")]
    for fn in ("conv2d_forward", "conv2d_backward"):
        m += [(f"ops.{fn}.gflop", "GFLOP", "lower"),
              (f"ops.{fn}.gflop_per_s", "GFLOP/s", "higher")]
    m.append(("ops.conv2d_forward.cache_mb", "MB", "lower"))
    for fn in ("forward", "backward"):
        m += [(f"model.{fn}.ms", "ms", "lower"), (f"model.{fn}.self_ms", "ms", "lower")]
    for stage in STAGES:
        m += [(f"model.{stage}.fwd_ms", "ms", "lower"), (f"model.{stage}.bwd_ms", "ms", "lower")]
    m += [
        ("losses.combined_loss.ms", "ms", "lower"),
        ("losses.accumulate_confusion.ms", "ms", "lower"),
        ("train.adam_step.ms", "ms", "lower"),
        ("train.evaluate.ms", "ms", "lower"),
        ("train.fit.self_ms", "ms", "lower"),
        ("train.steps", "count", "higher"),
        ("checkpoint.save_checkpoint.ms", "ms", "lower"),
        ("checkpoint.save_checkpoint.calls", "count", "lower"),
        ("checkpoint.save_checkpoint.mb", "MB", "lower"),
        ("checkpoint.load_checkpoint.ms", "ms", "lower"),
        ("data.read_mrc.ms", "ms", "lower"),
        ("data.normalize.ms", "ms", "lower"),
        ("data.split_train_val.ms", "ms", "lower"),
        ("data.stitch_probabilities.ms", "ms", "lower"),
        ("data.write_mask_pgm.ms", "ms", "lower"),
        ("data.uncovered_px", "px", "lower"),
        ("cli.predict.self_ms", "ms", "lower"),
        ("cli.predict.useful_px_ratio", "ratio", "higher"),
        ("bench.trace_overhead_frac", "ratio", "lower"),
    ]
    return m


def layer_metrics(setup_spans: list[Span], op_spans: list[Span], n_ops: int,
                  table: list[dict], trace_overhead_frac: float) -> dict[str, float]:
    """Per-layer values: per timed operation for spans of the timed phase,
    plus, undivided, spans of the one in-process set-up."""
    ops = _totals(op_spans)
    setup = _totals(setup_spans)

    def per_op(name: str, key: str = "s", scale: float = 1e3) -> float:
        return scale * (ops.get(name, {}).get(key, 0) / n_ops + setup.get(name, {}).get(key, 0))

    v: dict[str, float] = {}
    for fn in OPS:
        v[f"ops.{fn}.ms"] = per_op(f"ops.{fn}")
        v[f"ops.{fn}.calls"] = per_op(f"ops.{fn}", "calls", 1.0)
    for fn in ("conv2d_forward", "conv2d_backward"):
        t = ops.get(f"ops.{fn}", {})
        v[f"ops.{fn}.gflop"] = per_op(f"ops.{fn}", "flops", 1e-9)
        v[f"ops.{fn}.gflop_per_s"] = t["flops"] / t["s"] / 1e9 if t.get("s") else 0.0
    v["ops.conv2d_forward.cache_mb"] = per_op("ops.conv2d_forward", "cache_bytes", 1e-6)
    for fn in ("forward", "backward"):
        v[f"model.{fn}.ms"] = per_op(f"model.{fn}")
        v[f"model.{fn}.self_ms"] = per_op(f"model.{fn}", "self_s")
    for stage in STAGES:
        rows = [r for r in table if _stage(r["name"]) == stage]
        v[f"model.{stage}.fwd_ms"] = sum(r["fwd_ms"] for r in rows)
        v[f"model.{stage}.bwd_ms"] = sum(r["bwd_ms"] for r in rows)
    v["losses.combined_loss.ms"] = per_op("losses.combined_loss")
    v["losses.accumulate_confusion.ms"] = per_op("losses.accumulate_confusion")
    v["train.adam_step.ms"] = per_op("train.adam_step")
    v["train.evaluate.ms"] = per_op("train.evaluate")
    v["train.fit.self_ms"] = per_op("train.fit", "self_s")
    v["train.steps"] = per_op("train.adam_step", "calls", 1.0)
    v["checkpoint.save_checkpoint.ms"] = per_op("checkpoint.save_checkpoint")
    v["checkpoint.save_checkpoint.calls"] = per_op("checkpoint.save_checkpoint", "calls", 1.0)
    v["checkpoint.save_checkpoint.mb"] = per_op("checkpoint.save_checkpoint", "bytes", 1e-6)
    v["checkpoint.load_checkpoint.ms"] = per_op("checkpoint.load_checkpoint")
    for fn in ("read_mrc", "normalize", "split_train_val", "stitch_probabilities",
               "write_mask_pgm"):
        v[f"data.{fn}.ms"] = per_op(f"data.{fn}")
    v["data.uncovered_px"] = per_op("data.stitch_probabilities", "uncovered", 1.0)
    v["cli.predict.self_ms"] = per_op("cli.predict", "self_s")
    slice_px = ops.get("data.stitch_probabilities", {}).get("px", 0)
    window_px = _px_under(op_spans, "cli.predict", "model.forward")
    v["cli.predict.useful_px_ratio"] = slice_px / window_px if window_px else 0.0
    v["bench.trace_overhead_frac"] = trace_overhead_frac
    return v


def _px_under(spans: list[Span], root: str, name: str) -> int:
    """Sum of info["px"] over `name` spans nested anywhere under a `root` span."""
    total = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != root:
            p = spans[p].parent
        if p >= 0:
            total += (s.info or {}).get("px", 0)
    return total
