"""Versioned binary checkpoint container.

Layout (all little-endian):

    bytes 0..3   magic b"SGET"
    bytes 4..7   format version, uint32 (currently 1)
    bytes 8..15  header length in bytes, uint64
    header       UTF-8 JSON: network config echo, save metadata
                 (epoch, monitored val mIOU), payload dtype code,
                 array manifest (name, shape), per-BN update counts
    payload      raw array blobs, concatenated in manifest order

Saving writes a sibling ``<name>.tmp`` and renames it over the target,
so an interrupted save never leaves a torn checkpoint. Loading reads the
file once, in order. It checks the header's value types and ranges and
that the payload can hold the network the config echo asks for, then
makes a bare SegETNetwork(config), which draws no weights, and reads
each stored array straight into that network's array. The config echo
owns the dtype: a header "dtype" other than its code is refused. It
rejects version mismatches, any difference between the file's array
name set and the network's registry, bytes after the last array, any
array holding a NaN or an infinite value, and any negative running
variance. It warns once per BN layer whose running statistics were never
updated, since inference then normalizes by their start values.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .model import NetworkConfig, SegETNetwork

logger = logging.getLogger(__name__)

MAGIC = b"SGET"
FORMAT_VERSION = 1

_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


def _counts(*values) -> bool:
    """All ints >= 0; JSON true/false load as bools, which are refused."""
    return all(type(v) is int and v >= 0 for v in values)


def _array_items(net: SegETNetwork) -> list[tuple[str, np.ndarray]]:
    items: list[tuple[str, np.ndarray]] = []
    for name, p in net.parameters.items():
        items.append((name, p.value))
    for name, state in net.bn_states.items():
        items.append((f"{name}.running_mean", state.running_mean))
        items.append((f"{name}.running_var", state.running_var))
    return items


def save_checkpoint(path: str | Path, net: SegETNetwork, epoch: int, val_miou: float) -> None:
    code = _DTYPE_CODES[net.config.dtype]
    items = _array_items(net)
    manifest = [{"name": n, "shape": list(a.shape)} for n, a in items]
    header = {
        "config": net.config.to_dict(),
        "epoch": int(epoch),
        "val_miou": float(val_miou),
        "dtype": code,
        "arrays": manifest,
        "bn_updates": {n: s.num_updates for n, s in net.bn_states.items()},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # write a sibling file and rename it over `path`, so a write that fails
    # partway leaves the previous checkpoint whole
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, a in items:
                fh.write(np.ascontiguousarray(a, dtype=code))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[SegETNetwork, dict]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(16)
        if len(preamble) < 16 or preamble[:4] != MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
        version, hlen = struct.unpack("<IQ", preamble[4:])
        if version != FORMAT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint version {version}, expected {FORMAT_VERSION}"
            )
        if 16 + hlen > size:
            raise DataFormatError(f"{path}: truncated header ({hlen} bytes declared)")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            echo = header["config"]
            config = NetworkConfig.from_dict(echo)
            manifest = [(m["name"], m["shape"]) for m in header["arrays"]]
            code = header["dtype"]
            bn_updates = dict(header["bn_updates"].items())
            meta = {"epoch": header["epoch"], "val_miou": header["val_miou"]}
            miou = meta["val_miou"]
            ok = {
                "config": _counts(echo["base_filters"], echo["depth"], *echo["dilation_rates"]),
                "arrays": all(isinstance(n, str) and isinstance(shape, list) and _counts(*shape)
                              for n, shape in manifest),
                "bn_updates": _counts(*bn_updates.values()),
                "epoch": _counts(meta["epoch"]),
                "val_miou": type(miou) in (int, float) and math.isfinite(miou),
                # the arrays are read into the config's dtype as they are stored
                "dtype": code == _DTYPE_CODES[config.dtype],
            }
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise DataFormatError(
                f"{path}: malformed checkpoint header ({type(exc).__name__}: {exc})"
            ) from exc
        bad = [key for key, passed in ok.items() if not passed]
        if bad:
            raise DataFormatError(f"{path}: malformed checkpoint header: bad {bad[0]!r} value")
        # refuse a network the payload cannot hold before it is allocated: the center
        # branches alone are len(rates) 3x3 ConvSpec(2f, f) kernels, f >= 2^(depth - 1)
        held = (size - 16 - hlen) // np.dtype(code).itemsize
        if config.depth > held.bit_length() or (
                len(config.dilation_rates) * 18 * config.filters(config.depth - 1) ** 2 > held):
            raise DataFormatError(f"{path}: config echo needs more parameters than {held} stored")
        net = SegETNetwork(config)

        arrays = dict(_array_items(net))
        declared = {n for n, _ in manifest}
        if set(arrays) != declared:
            missing = sorted(set(arrays) - declared)
            extra = sorted(declared - set(arrays))
            raise DataFormatError(
                f"{path}: checkpoint array names do not match the network registry "
                f"(missing {missing[:5]}, extra {extra[:5]})"
            )
        if set(bn_updates) != set(net.bn_states):
            raise DataFormatError(f"{path}: bn_updates names do not match the network registry")

        for name, shape in manifest:
            a = arrays[name]
            if tuple(shape) != a.shape:
                raise DataFormatError(
                    f"{path}: array {name} has shape {tuple(shape)}, expected {a.shape}"
                )
            offset = fh.tell()
            if fh.readinto(a) != a.nbytes:
                raise DataFormatError(
                    f"{path}: payload truncated at array {name} "
                    f"(need {a.nbytes} bytes at offset {offset})"
                )
            if sys.byteorder == "big":  # the payload is little-endian
                a.byteswap(inplace=True)
            if not np.isfinite(a).all():
                raise DataFormatError(f"{path}: array {name} holds a NaN or infinite value")
            if name.endswith(".running_var") and (a < 0).any():
                raise DataFormatError(f"{path}: array {name} holds a negative variance")
        if fh.tell() != size:
            raise DataFormatError(
                f"{path}: {size - fh.tell()} trailing bytes after the last array"
            )

    for name, state in net.bn_states.items():
        state.num_updates = bn_updates[name]
        if state.num_updates == 0:
            logger.warning("%s: batchnorm %s has default-initialized running stats "
                           "(mean 0 / var 1); inference behaves as near-identity", path, name)
    return net, meta
