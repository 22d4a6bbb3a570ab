"""Tomography data path: MRC reading and writing, normalization,
sliding-window patching, the 1-in-N slice holdout, positive-patch
oversampling, and mask image output (binary PGM / color PPM).

MRC layout (MRC2014 convention): 1024-byte little-endian header; 32-bit
words at offsets 0, 4, 8 are nx, ny, nz; offset 12 is the mode; the
32-bit word at offset 92 gives the extended-header length, and voxel
data starts at 1024 + that. Sample (slice s, row r, column c) lives at
index s*ny*nx + r*nx + c.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .losses import foreground_weight

logger = logging.getLogger(__name__)

HEADER_SIZE = 1024
_MODE_DTYPES = {0: np.dtype("<i1"), 1: np.dtype("<i2"), 2: np.dtype("<f4")}


@dataclass
class MrcVolume:
    nx: int
    ny: int
    nz: int
    mode: int
    data: np.ndarray          # (nz, ny, nx)
    header: bytes             # raw 1024-byte header, kept for provenance

    def __post_init__(self) -> None:
        if self.data.shape != (self.nz, self.ny, self.nx):
            raise ValueError(
                f"data shape {self.data.shape} does not match (nz,ny,nx)="
                f"{(self.nz, self.ny, self.nx)}"
            )


def parse_mrc(raw: bytes) -> MrcVolume:
    """Parse an MRC byte string; supports modes 0 (int8), 1 (int16), 2 (float32)."""
    if len(raw) < HEADER_SIZE:
        raise DataFormatError(
            f"MRC too short: {len(raw)} bytes, need at least {HEADER_SIZE} for the header"
        )
    nx, ny, nz = struct.unpack_from("<3i", raw, 0)
    (mode,) = struct.unpack_from("<i", raw, 12)
    (ext_len,) = struct.unpack_from("<i", raw, 92)
    if nx < 1 or ny < 1 or nz < 1:
        raise DataFormatError(
            f"MRC declares non-positive extents nx={nx} ny={ny} nz={nz} (offsets 0/4/8)"
        )
    if mode not in _MODE_DTYPES:
        raise DataFormatError(f"unsupported MRC mode {mode} at offset 12 (supported: 0, 1, 2)")
    if ext_len < 0:
        raise DataFormatError(f"negative extended-header length {ext_len} at offset 92")
    dtype = _MODE_DTYPES[mode]
    data_start = HEADER_SIZE + ext_len
    need = nx * ny * nz * dtype.itemsize
    available = len(raw) - data_start
    if available < need:
        raise DataFormatError(
            f"MRC payload short by {need - available} bytes: header declares "
            f"{nx}x{ny}x{nz} mode-{mode} voxels ({need} bytes) starting at offset "
            f"{data_start}, file holds {max(available, 0)}"
        )
    voxels = np.frombuffer(raw, dtype=dtype, count=nx * ny * nz, offset=data_start)
    return MrcVolume(nx, ny, nz, mode, voxels.reshape(nz, ny, nx), raw[:HEADER_SIZE])


def read_mrc(path: str | Path) -> MrcVolume:
    return parse_mrc(Path(path).read_bytes())


def mrc_bytes(volume: np.ndarray) -> bytes:
    """Minimal valid mode-0 MRC, parse_mrc's inverse: 1024-byte header, no extension."""
    v = np.asarray(volume, dtype=np.int8)
    if v.ndim != 3:
        raise ValueError("volume must be 3-D (nz, ny, nx)")
    nz, ny, nx = v.shape
    header = bytearray(HEADER_SIZE)
    # mode word at 12 stays 0 (int8); extended-header length at 92 stays 0
    struct.pack_into("<3i", header, 0, nx, ny, nz)
    struct.pack_into("<4s", header, 208, b"MAP ")            # conventional stamp
    struct.pack_into("<4B", header, 212, 0x44, 0x44, 0, 0)   # little-endian machine stamp
    return bytes(header) + v.tobytes()


def normalize(volume: MrcVolume, per_slice: bool = False) -> np.ndarray:
    """Linear map of sample values onto [0, 1], over the whole volume or
    over each slice; a constant volume or slice maps to 0.5.

    The one float64 copy of the volume is scaled in place, part by part,
    so the call holds no more than its output. A NaN or infinite voxel
    would turn the whole map into NaN; it shows in its part's min or max,
    and only then is the finite mask built, to refuse the volume with a
    DataFormatError naming the count and the first such voxel. The parts
    before it are finite, so the mask reads as it would on the raw volume.
    """
    data = volume.data.astype(np.float64)
    for part in data if per_slice else (data,):
        lo, hi = float(part.min()), float(part.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            finite = np.isfinite(data)
            s, y, x = np.unravel_index(np.argmin(finite), data.shape)  # first False
            raise DataFormatError(
                f"volume holds {int(finite.size - np.count_nonzero(finite))} non-finite "
                f"voxels, the first at (slice {s}, y {y}, x {x})"
            )
        if hi == lo:
            part[...] = 0.5
        else:
            part -= lo
            part /= hi - lo
    return data


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------

@dataclass
class Patch:
    """One window of a slice; extract_patches makes image and mask views."""
    image: np.ndarray      # (H, W), float in [0, 1]
    mask: np.ndarray       # (H, W), binary
    fg_weight: float       # loss weight of the foreground pixels (losses.foreground_weight)
    slice_index: int
    y: int
    x: int

    @property
    def positive(self) -> bool:
        return bool(np.any(self.mask))

    @property
    def weights(self) -> np.ndarray:
        """Per-pixel loss weights (H, W): fg_weight on foreground, 1.0 on background."""
        return np.where(self.mask == 1, self.fg_weight, 1.0)


def window_origins(h: int, w: int, window: int, stride: int,
                   edge_aligned: bool = False) -> list[tuple[int, int]]:
    """Origins of fully-contained windows: (i*stride, j*stride), giving
    floor((extent - window)/stride) + 1 placements per axis.

    With edge_aligned, an axis whose placements stop short of its far edge,
    (extent - window) % stride != 0, gets one more window ending at that
    edge, so that with stride <= window the windows cover every pixel (the
    overlap-tile strategy of U-Net, Ronneberger et al. 2015). Training
    keeps the plain grid."""
    if window > h or window > w:
        raise DataFormatError(f"window {window} exceeds slice extents {(h, w)}")
    if stride < 1:
        raise ValueError("stride must be >= 1")

    def starts(extent: int) -> list[int]:
        out = list(range(0, extent - window + 1, stride))
        if edge_aligned and out[-1] != extent - window:
            out.append(extent - window)
        return out

    return [(y, x) for y in starts(h) for x in starts(w)]


def extract_patches(
    image_slice: np.ndarray,
    mask_slice: np.ndarray,
    window: int,
    stride: int,
    slice_index: int = 0,
    weight_cap: float = 2000.0,
) -> list[Patch]:
    """Sliding-window patches, each with its foreground weight; their image
    and mask are read-only views of the slices, which stay writable. No
    edge padding is applied; partial windows are never emitted.
    """
    if image_slice.shape != mask_slice.shape:
        raise DataFormatError(
            f"image slice {image_slice.shape} and mask slice {mask_slice.shape} differ"
        )
    image_slice, mask_slice = image_slice.view(), mask_slice.view()
    image_slice.flags.writeable = mask_slice.flags.writeable = False
    patches = []
    for y, x in window_origins(*image_slice.shape, window, stride):
        mask = mask_slice[y : y + window, x : x + window]
        patches.append(Patch(image_slice[y : y + window, x : x + window], mask,
                             foreground_weight(mask, weight_cap), slice_index, y, x))
    return patches


def holdout_indices(n_slices: int, period: int = 5, phase: int | None = None) -> tuple[list[int], list[int]]:
    """(train, val) slice indices: index mod period == phase goes to validation."""
    if period < 2:
        raise ValueError("holdout period must be >= 2")
    if phase is None:
        phase = period - 1
    if not 0 <= phase < period:
        raise ValueError(f"phase must lie in [0, {period})")
    val = [i for i in range(n_slices) if i % period == phase]
    train = [i for i in range(n_slices) if i % period != phase]
    if not val:
        logger.warning("holdout produced an empty validation set (%d slices, period %d)",
                       n_slices, period)
    return train, val


@dataclass
class DatasetSplit:
    train: list[Patch]
    val: list[Patch]


def split_train_val(
    images: np.ndarray,
    masks: np.ndarray,
    *,
    window: int,
    stride: int,
    period: int = 5,
    phase: int | None = None,
    weight_cap: float = 2000.0,
) -> DatasetSplit:
    """Hold out every 1-in-`period` slice, then patch each split."""
    if images.shape != masks.shape:
        raise DataFormatError(f"image stack {images.shape} and mask stack {masks.shape} differ")
    train_idx, val_idx = holdout_indices(images.shape[0], period, phase)

    def _collect(indices: list[int]) -> list[Patch]:
        out: list[Patch] = []
        for s in indices:
            out.extend(extract_patches(images[s], masks[s], window, stride,
                                       slice_index=s, weight_cap=weight_cap))
        return out

    return DatasetSplit(_collect(train_idx), _collect(val_idx))


def oversample_positive(patches: list[Patch], copies: int) -> list[Patch]:
    """Each positive patch appears (1 + copies) times, negatives once.

    Order is originals followed by the copies; the training loop's
    per-epoch shuffle randomizes it.
    """
    if copies < 0:
        raise ValueError("copies must be >= 0")
    if copies == 0:
        return list(patches)
    extra = [p for p in patches if p.positive for _ in range(copies)]
    return list(patches) + extra


def manifest_lines(patches: list[Patch]) -> str:
    """Line-oriented patch index for reproducibility audits."""
    lines = ["# slice\ty\tx\tpositive\tfg_weight"]
    for p in patches:
        lines.append(f"{p.slice_index}\t{p.y}\t{p.x}\t{int(p.positive)}\t{p.fg_weight:.6g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------

def stitch_probabilities(
    entries: list[tuple[np.ndarray, int, int]], shape: tuple[int, int]
) -> np.ndarray:
    """Mean of overlapping patch probabilities; uncovered pixels are 0."""
    acc = np.zeros(shape, dtype=np.float64)
    cover = np.zeros(shape, dtype=np.int64)
    for prob, y, x in entries:
        h, w = prob.shape
        acc[y : y + h, x : x + w] += prob
        cover[y : y + h, x : x + w] += 1
    uncovered = cover == 0
    if np.any(uncovered):
        logger.warning("stitching left %d pixels uncovered; they default to 0",
                       int(uncovered.sum()))
        cover = np.where(uncovered, 1, cover)
    return acc / cover


def fuse_probabilities(stacks: list[np.ndarray], threshold: float = 0.5) -> np.ndarray:
    """Per-pixel multi-class fusion of per-class probability maps.

    Candidate classes are those with probability > threshold; if any,
    the argmax class wins, else background (0). Exact ties go to the
    earliest stack in the argument order.
    """
    if not stacks:
        raise ValueError("need at least one probability stack")
    shape = stacks[0].shape
    for i, s in enumerate(stacks[1:], start=2):
        if s.shape != shape:
            raise DataFormatError(
                f"probability stack {i} has shape {s.shape}, expected {shape}"
            )
    probs = np.stack(stacks)                      # (K, ...)
    candidates = probs > threshold
    masked = np.where(candidates, probs, -1.0)
    winner = masked.argmax(axis=0) + 1            # argmax picks the first maximum
    return np.where(candidates.any(axis=0), winner, 0).astype(np.int64)


# ---------------------------------------------------------------------------
# PGM / PPM output (binary variants, bit-exact headers)
# ---------------------------------------------------------------------------

# fixed class order and display palette for fused masks
CLASS_ORDER = ("synapse", "mts", "centriole", "granules", "golgi")
PALETTE = {
    0: (0, 0, 0),        # background: black
    1: (255, 255, 255),  # synapse: white
    2: (255, 0, 0),      # mts: red
    3: (255, 255, 0),    # centriole: yellow
    4: (0, 0, 255),      # granules: blue
    5: (0, 255, 0),      # golgi: green
}


def write_mask_pgm(mask: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255): foreground 255, background 0."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError("mask must be 2-D")
    if not np.all((m == 0) | (m == 1)):
        raise ValueError("mask must be binary")
    h, w = m.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + (m.astype(np.uint8) * 255).tobytes()


def write_fused_ppm(class_mask: np.ndarray, palette: dict[int, tuple[int, int, int]] = PALETTE) -> bytes:
    """Binary PPM (P6) with one palette color per class index."""
    m = np.asarray(class_mask)
    if m.ndim != 2:
        raise ValueError("class mask must be 2-D")
    classes = np.unique(m)
    unknown = [int(c) for c in classes if int(c) not in palette]
    if unknown:
        raise ValueError(f"class indices {unknown} missing from the palette")
    h, w = m.shape
    lut = np.zeros((max(palette) + 1, 3), dtype=np.uint8)
    for idx, rgb in palette.items():
        lut[idx] = rgb
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + lut[m.astype(np.int64)].tobytes()


def _read_netpbm(raw: bytes, magic: bytes, channels: int) -> np.ndarray:
    kind = magic.decode()
    if not raw.startswith(magic):
        raise DataFormatError(f"expected {kind} file")
    # header: magic, width, height, maxval, single whitespace, then raw samples
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        field = raw[start:pos]
        if not field:
            raise DataFormatError(f"truncated {kind} header: {len(fields)} of 3 fields")
        if not field.isdigit():
            raise DataFormatError(f"{kind} header field {field[:16]!r} is not a decimal integer")
        fields.append(field)
    pos += 1  # the single whitespace byte after maxval
    w, h, maxval = (int(f) for f in fields)
    if w == 0 or h == 0:
        raise DataFormatError(f"{kind} extents must be positive, got {w}x{h}")
    if maxval != 255:
        raise DataFormatError(f"only maxval 255 supported, got {maxval}")
    need = w * h * channels
    if len(raw) - pos < need:
        raise DataFormatError(f"netpbm payload short by {need - (len(raw) - pos)} bytes")
    a = np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos)
    return a.reshape((h, w) if channels == 1 else (h, w, channels))


def read_pgm(raw: bytes) -> np.ndarray:
    """Read a binary P5 image back as uint8 (H, W)."""
    return _read_netpbm(raw, b"P5", 1)


def read_ppm(raw: bytes) -> np.ndarray:
    """Read a binary P6 image back as uint8 (H, W, 3)."""
    return _read_netpbm(raw, b"P6", 3)
