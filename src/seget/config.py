"""Line-oriented run configuration: `key = value` pairs under
[section] headers, diff-friendly and byte-stable under a dump/parse
round trip. Unknown sections or keys are rejected.

Presets carry the per-structure hyperparameters (learning rate, decay,
patiences, oversampling, weight caps) used for the five cellular
structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .losses import LossConfig
from .model import NetworkConfig
from .train import TrainConfig


@dataclass
class DataConfig:
    window: int = 512
    stride: int = 256
    holdout_period: int = 5
    holdout_phase: int = 4
    normalize_per_slice: bool = False

    def __post_init__(self) -> None:
        if self.window < 1 or self.stride < 1:
            raise ValueError("window and stride must be >= 1")
        if self.holdout_period < 2:
            raise ValueError("holdout_period must be >= 2")
        if not 0 <= self.holdout_phase < self.holdout_period:
            raise ValueError("holdout_phase must lie in [0, holdout_period)")


@dataclass
class PathsConfig:
    volume: str = ""
    mask: str = ""
    out_dir: str = "runs/default"
    checkpoint: str = ""   # defaults to <out_dir>/best.ckpt when empty


@dataclass
class RunConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


_SECTIONS = ("network", "loss", "train", "data", "paths")

# keys whose underlying field is not a plain scalar
_TUPLE_KEYS = {("network", "dilation_rates")}
# fields that are not config keys: train writes its checkpoint to
# [paths] checkpoint, or <out_dir>/best.ckpt, and foreground weights are
# capped by [train] weight_cap alone
_NOT_KEYS = {("train", "checkpoint_path"), ("loss", "weight_cap")}


def _keys(section: str, sub) -> list[str]:
    """The config keys of one section, in field order."""
    return [f.name for f in fields(sub) if (section, f.name) not in _NOT_KEYS]


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(text: str, target_type: type, key: tuple[str, str]):
    text = text.strip()
    if key in _TUPLE_KEYS:
        try:
            return tuple(int(x) for x in text.split(","))
        except ValueError:
            raise ConfigError(f"{key[0]}.{key[1]}: expected comma-separated integers, got {text!r}")
    if target_type is bool:
        if text == "true":
            return True
        if text == "false":
            return False
        raise ConfigError(f"{key[0]}.{key[1]}: expected true/false, got {text!r}")
    if target_type is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key[0]}.{key[1]}: expected an integer, got {text!r}")
    if target_type is float:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key[0]}.{key[1]}: expected a number, got {text!r}")
    return text


def dump_config(cfg: RunConfig) -> str:
    """Canonical serialization: fixed section and key order."""
    lines = []
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        lines.append(f"[{section}]")
        for key in _keys(section, sub):
            lines.append(f"{key} = {_format_value(getattr(sub, key))}")
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse config text over a base (defaults when None). Unknown keys
    and sections are rejected; values are validated by each sub-config."""
    cfg = base or RunConfig()
    values: dict[str, dict[str, object]] = {s: {} for s in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        sub = getattr(cfg, section)
        if key not in _keys(section, sub):
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        target_type = type(getattr(sub, key))
        values[section][key] = _parse_value(value, target_type, (section, key))

    merged = {}
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        kwargs = {f.name: getattr(sub, f.name) for f in fields(sub)}
        kwargs.update(values[section])
        try:
            merged[section] = type(sub)(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"section [{section}]: {exc}") from exc
    return RunConfig(**merged)


# characters a `key = value` line cannot carry: "#" starts a comment and
# a line break starts a new line, so a value holding one would be cut off
# or would set further keys
_UNCARRIED = ("#", "\n", "\r")


def set_value(cfg: RunConfig, dotted: str, value: str) -> RunConfig:
    """Apply one `section.key=value` override (the --set flag)."""
    if "." not in dotted:
        raise ConfigError(f"--set expects section.key, got {dotted!r}")
    if any(ch in dotted + value for ch in _UNCARRIED):
        raise ConfigError(
            f"{dotted}={value!r}: a config value cannot contain '#', a newline "
            "or a carriage return"
        )
    section, _, key = dotted.partition(".")
    return parse_config(f"[{section}]\n{key} = {value}\n", base=cfg)


# ---------------------------------------------------------------------------
# per-structure presets
# ---------------------------------------------------------------------------

def _preset(lr: float, decay: float, epochs: int, es_patience: int,
            red_patience: int, oversample: int, cap: float, use_weights: bool) -> RunConfig:
    return RunConfig(
        train=TrainConfig(
            epochs=epochs,
            batch_size=12,
            learning_rate=lr,
            lr_decay=decay,
            early_stop_patience=es_patience,
            reduce_patience=red_patience,
            oversample_copies=oversample,
            weight_cap=cap,
            use_weights=use_weights,
        ),
    )


PRESETS: dict[str, RunConfig] = {
    "synapse": _preset(1e-4, 1e-6, 38, 8, 3, 0, 2000.0, False),
    "mts": _preset(1e-3, 1e-5, 300, 8, 3, 0, 2000.0, True),
    "centriole": _preset(2e-3, 1e-6, 300, 10, 3, 4, 2000.0, True),
    "granules": _preset(2e-3, 1e-5, 60, 5, 2, 0, 2000.0, False),
    "golgi": _preset(2e-3, 1e-5, 124, 5, 2, 2, 1000.0, True),
}


def load_preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
