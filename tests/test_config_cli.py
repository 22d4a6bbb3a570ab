"""Config round trips, preset contents, and the CLI commands wired
end-to-end on a tiny synthetic dataset."""

import io
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from seget import cli
from seget.checkpoint import load_checkpoint
from seget.config import PRESETS, RunConfig, dump_config, load_preset, parse_config, set_value
from seget.data import read_pgm, read_ppm, write_mask_pgm
from seget.errors import ConfigError
from seget.ops import sigmoid
from seget.tensor import Tensor
from seget.train import REDUCE_FACTOR


_DATA_AND_PATHS = (
    "[data]", "window = 512", "stride = 256", "holdout_period = 5", "holdout_phase = 4",
    "normalize_per_slice = false", "",
    "[paths]", "volume = ", "mask = ", "out_dir = runs/default", "checkpoint = ", "",
)
DEFAULT_DUMP = "\n".join((
    "[network]", "base_filters = 16", "depth = 4", "dilation_rates = 1,2,4,8",
    "dtype = float32", "",
    "[loss]", "l2_lambda = 0.0001", "weight_cap = 2000.0", "",
    "[train]", "epochs = 38", "batch_size = 12", "learning_rate = 0.0001",
    "lr_decay = 1e-06", "early_stop_patience = 8", "reduce_patience = 3",
    "oversample_copies = 0", "weight_cap = 2000.0", "use_weights = true",
    "threshold = 0.5", "seed = 0", "",
    *_DATA_AND_PATHS,
))
GOLGI_DUMP = "\n".join((
    "[network]", "base_filters = 16", "depth = 4", "dilation_rates = 1,2,4,8",
    "dtype = float32", "",
    "[loss]", "l2_lambda = 0.0001", "weight_cap = 1000.0", "",
    "[train]", "epochs = 124", "batch_size = 12", "learning_rate = 0.002",
    "lr_decay = 1e-05", "early_stop_patience = 5", "reduce_patience = 2",
    "oversample_copies = 2", "weight_cap = 1000.0", "use_weights = true",
    "threshold = 0.5", "seed = 0", "",
    *_DATA_AND_PATHS,
))

# keys of values that are now constants; an older config naming one is refused
REMOVED_KEYS = [
    ("train", "reduce_factor", "0.5"),
    ("train", "reduce_factor", "1.5"),
    ("train", "min_delta", "0.0"),
    ("loss", "jaccard_smooth", "1.0"),
    # train writes its checkpoint to [paths] checkpoint; this key was ignored
    ("train", "checkpoint_path", "elsewhere.ckpt"),
]

# values the `key = value` line format cannot carry: used to be cut off at
# "#" or to set further keys after a line break
UNCARRIED_SETTINGS = [
    ("paths.out_dir", "runs/#3"),
    ("paths.checkpoint", "a/b#c.ckpt"),
    ("paths.volume", "v.mrc\n[train]\nepochs = 1"),
    ("paths.volume", "v.mrc\repochs = 1"),
]

# malformed `seget synth` arguments: used to exit 3, or to crash in
# generate after making the output directory
BAD_SYNTH_ARGS = [
    ["--slices", "0"],
    ["--size", "20"],
    ["--size", "0"],
    ["--size", "-16"],
    ["--classes", "foo"],
]

# thresholds predict and fuse refuse, as train does
BAD_THRESHOLDS = ["1.5", "1", "0", "-0.1", "nan", "inf"]

# malformed values that used to train anyway, die mid-run, or run silently
# with a term switched off
MALFORMED_SETTINGS = [
    "train.lr_decay=-0.5",
    "train.learning_rate=nan",
    "train.learning_rate=-1",
    "train.learning_rate=inf",
    "train.weight_cap=0",
    "train.threshold=1.5",
    "train.threshold=0",
    "loss.l2_lambda=nan",
    "loss.weight_cap=nan",
]


class TestConfigFormat:
    def test_dump_parse_dump_is_byte_identical(self):
        cfg = RunConfig()
        text = dump_config(cfg)
        assert dump_config(parse_config(text)) == text

    def test_all_presets_round_trip(self):
        for name, preset in PRESETS.items():
            text = dump_config(preset)
            assert dump_config(parse_config(text)) == text, name

    def test_default_dump_is_pinned(self):
        """A dropped or renamed key changes these bytes; a round trip
        cannot see it."""
        assert dump_config(RunConfig()) == DEFAULT_DUMP

    def test_golgi_preset_dump_is_pinned(self):
        assert dump_config(load_preset("golgi")) == GOLGI_DUMP

    @pytest.mark.parametrize("section,key,value", REMOVED_KEYS)
    def test_removed_key_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[train]\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("epochs = 3\n")

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("[train]\nepochs = many\n")
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("[train]\nuse_weights = yes\n")

    @pytest.mark.parametrize("setting", MALFORMED_SETTINGS)
    def test_invalid_values_are_config_errors(self, setting):
        dotted, _, value = setting.partition("=")
        section, _, key = dotted.partition(".")
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# comment\n\n[train]\nepochs = 7  # trailing\n")
        assert cfg.train.epochs == 7

    def test_dilation_rates_parse_as_tuple(self):
        cfg = parse_config("[network]\ndilation_rates = 1,3,5\n")
        assert cfg.network.dilation_rates == (1, 3, 5)

    def test_set_value_override(self):
        cfg = set_value(RunConfig(), "train.seed", "42")
        assert cfg.train.seed == 42
        with pytest.raises(ConfigError):
            set_value(RunConfig(), "train", "42")

    @pytest.mark.parametrize("dotted,value", UNCARRIED_SETTINGS)
    def test_set_value_refuses_what_a_line_cannot_carry(self, dotted, value):
        """A "#" would cut the value off, a line break would set further keys."""
        with pytest.raises(ConfigError, match="cannot contain"):
            set_value(RunConfig(), dotted, value)


class TestPresets:
    def test_synapse_hyperparameters(self):
        t = load_preset("synapse").train
        assert t.learning_rate == 1e-4
        assert t.lr_decay == 1e-6
        assert t.batch_size == 12
        assert t.early_stop_patience == 8
        assert (REDUCE_FACTOR, t.reduce_patience) == (0.5, 3)
        assert t.use_weights is False

    def test_mts_hyperparameters(self):
        t = load_preset("mts").train
        assert t.learning_rate == 1e-3 and t.lr_decay == 1e-5
        assert t.weight_cap == 2000.0 and t.use_weights is True

    def test_centriole_oversample_and_cap(self):
        t = load_preset("centriole").train
        assert t.oversample_copies == 4
        assert t.weight_cap == 2000.0
        assert t.early_stop_patience == 10

    def test_golgi_oversample_and_cap(self):
        t = load_preset("golgi").train
        assert t.oversample_copies == 2
        assert t.weight_cap == 1000.0
        assert t.reduce_patience == 2

    def test_granules_has_no_weighting(self):
        t = load_preset("granules").train
        assert t.use_weights is False
        assert t.early_stop_patience == 5

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("mitochondria")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth")
    rc = cli.main(["synth", "--seed", "3", "--size", "32", "--slices", "5",
                   "--classes", "blob", "--out-dir", str(path)])
    assert rc == 0
    return path


TRAIN_OVERRIDES = [
    "--set", "network.base_filters=2",
    "--set", "network.depth=2",
    "--set", "network.dilation_rates=1,2",
    "--set", "train.epochs=3",
    "--set", "train.batch_size=2",
    "--set", "train.learning_rate=1e-3",
    "--set", "data.window=32",
    "--set", "data.stride=32",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    rc = cli.main([
        "train",
        "--volume", str(synth_dir / "volume.mrc"),
        "--mask", str(synth_dir / "mask_blob.mrc"),
        "--out-dir", str(out),
        "--seed", "0",
        *TRAIN_OVERRIDES,
    ])
    assert rc == 0
    return out


class TestCliTrain:
    def test_dump_config_round_trip(self, capsys, tmp_path):
        assert cli.main(["train", "--preset", "synapse", "--dump-config"]) == 0
        first = capsys.readouterr().out
        cfg_file = tmp_path / "echo.cfg"
        cfg_file.write_text(first)
        assert cli.main(["train", "--config", str(cfg_file), "--dump-config"]) == 0
        assert capsys.readouterr().out == first

    def test_artifacts_written(self, trained_dir):
        assert (trained_dir / "best.ckpt").exists()
        log = (trained_dir / "train_log.txt").read_text()
        assert log.splitlines()[0].startswith("epoch=1 loss=")
        manifest = (trained_dir / "manifest.txt").read_text()
        assert manifest.startswith("#")
        assert (trained_dir / "resolved_config.txt").exists()

    def test_bad_preset_exits_1(self):
        assert cli.main(["train", "--preset", "nope", "--dump-config"]) == 1

    def test_missing_volume_exits_4(self, tmp_path):
        rc = cli.main(["train", "--volume", str(tmp_path / "none.mrc"),
                       "--mask", str(tmp_path / "none.mrc"),
                       "--out-dir", str(tmp_path)])
        assert rc == 4

    def test_malformed_mrc_exits_2(self, tmp_path):
        bad = tmp_path / "bad.mrc"
        bad.write_bytes(b"\x00" * 10)
        rc = cli.main(["train", "--volume", str(bad), "--mask", str(bad),
                       "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_paths_is_config_error(self, tmp_path):
        assert cli.main(["train", "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("line", [
        "input_channels = 1", "skip_reduction = 2",
        "center_concat_input = true", "upsample_mode = half_pixel",
    ])
    def test_config_file_setting_a_fixed_choice_exits_1(self, tmp_path, line, capsys):
        """The network's fixed choices are not config keys, even at the
        value the network uses."""
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"[network]\n{line}\n")
        assert cli.main(["train", "--config", str(cfg_file), "--dump-config"]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", REMOVED_KEYS)
    def test_setting_a_removed_key_exits_1(self, section, key, value, capsys):
        assert cli.main(["train", "--set", f"{section}.{key}={value}", "--dump-config"]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", MALFORMED_SETTINGS)
    def test_malformed_setting_exits_1_before_writing(self, synth_dir, tmp_path, setting):
        out = tmp_path / "run"
        rc = cli.main(["train", "--volume", str(synth_dir / "volume.mrc"),
                       "--mask", str(synth_dir / "mask_blob.mrc"), "--out-dir", str(out),
                       *TRAIN_OVERRIDES, "--set", setting])
        assert rc == 1
        assert not out.exists()

    def test_out_dir_with_hash_exits_1_before_writing(self, synth_dir, tmp_path, capsys):
        rc = cli.main(["train", "--volume", str(synth_dir / "volume.mrc"),
                       "--mask", str(synth_dir / "mask_blob.mrc"),
                       "--out-dir", str(tmp_path / "runs" / "#3"), *TRAIN_OVERRIDES])
        assert rc == 1
        assert "cannot contain" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("setting", [
        "paths.checkpoint=a/b#c.ckpt",
        "paths.volume=v.mrc\n[train]\nepochs = 1",
    ])
    def test_set_value_a_line_cannot_carry_exits_1_before_writing(self, synth_dir, tmp_path,
                                                                  setting, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", "--volume", str(synth_dir / "volume.mrc"),
                       "--mask", str(synth_dir / "mask_blob.mrc"), "--out-dir", str(out),
                       *TRAIN_OVERRIDES, "--set", setting])
        assert rc == 1
        assert "cannot contain" in capsys.readouterr().err
        assert not out.exists()

    def test_window_the_network_cannot_take_exits_2_before_writing(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(["train", "--volume", str(synth_dir / "volume.mrc"),
                       "--mask", str(synth_dir / "mask_blob.mrc"), "--out-dir", str(out),
                       *TRAIN_OVERRIDES, "--set", "data.window=30"])
        assert rc == 2
        assert not (out / "manifest.txt").exists()

    def test_non_finite_volume_exits_2_before_writing(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", "--volume", str(nan_volume(synth_dir, tmp_path)),
                       "--mask", str(synth_dir / "mask_blob.mrc"), "--out-dir", str(out),
                       *TRAIN_OVERRIDES])
        assert rc == 2
        assert "1 non-finite voxels" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_empty_validation_split_exits_2_before_writing(self, tmp_path, capsys):
        data = tmp_path / "three"
        assert cli.main(["synth", "--seed", "1", "--size", "32", "--slices", "3",
                         "--classes", "blob", "--out-dir", str(data)]) == 0
        out = tmp_path / "run"
        rc = cli.main(["train", "--volume", str(data / "volume.mrc"),
                       "--mask", str(data / "mask_blob.mrc"), "--out-dir", str(out),
                       *TRAIN_OVERRIDES])
        assert rc == 2
        err = capsys.readouterr().err
        assert "3 slices" in err and "period 5" in err and "phase 4" in err
        assert not (out / "manifest.txt").exists()


def nan_volume(synth_dir, tmp_path):
    """The synthetic volume as a float32 (mode 2) MRC with one NaN voxel."""
    raw = (synth_dir / "volume.mrc").read_bytes()
    header = bytearray(raw[:1024])
    struct.pack_into("<i", header, 12, 2)
    data = np.frombuffer(raw, dtype=np.int8, offset=1024).astype(np.float32)
    data[100] = np.nan
    path = tmp_path / "nan.mrc"
    path.write_bytes(bytes(header) + data.tobytes())
    return path


class TestCliSynth:
    @pytest.mark.parametrize("args", BAD_SYNTH_ARGS, ids="=".join)
    def test_bad_arguments_exit_1_before_writing(self, tmp_path, args, capsys):
        out = tmp_path / "data"
        assert cli.main(["synth", *args, "--out-dir", str(out)]) == 1
        assert "config error: synth:" in capsys.readouterr().err
        assert not out.exists()


class TestCliPredict:
    def test_masks_and_probs(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "pred"
        rc = cli.main([
            "predict", "--checkpoint", str(trained_dir / "best.ckpt"),
            "--volume", str(synth_dir / "volume.mrc"),
            "--out-dir", str(out), "--window", "32", "--stride", "32",
            "--save-probs",
        ])
        assert rc == 0
        masks = sorted(out.glob("slice_*.pgm"))
        assert len(masks) == 5
        img = read_pgm(masks[0].read_bytes())
        assert img.shape == (32, 32)
        assert (out / "probs.npy").exists()

    def test_probs_match_direct_forward(self, synth_dir, trained_dir, tmp_path):
        """Single-window prediction equals a raw patch forward (no overlap)."""
        from seget.data import normalize, read_mrc
        out = tmp_path / "pred2"
        cli.main([
            "predict", "--checkpoint", str(trained_dir / "best.ckpt"),
            "--volume", str(synth_dir / "volume.mrc"),
            "--out-dir", str(out), "--window", "32", "--stride", "32",
            "--save-probs",
        ])
        probs = np.load(out / "probs.npy")
        net, _ = load_checkpoint(trained_dir / "best.ckpt")
        images = normalize(read_mrc(synth_dir / "volume.mrc"))
        x = Tensor(images[0][None, None].astype(np.float32))
        direct = sigmoid(net.forward(x, mode="infer").data[0, 0])
        np.testing.assert_allclose(probs[0], direct, rtol=1e-6, atol=1e-7)

    def test_prediction_deterministic(self, synth_dir, trained_dir, tmp_path):
        outs = []
        for sub in ("p1", "p2"):
            out = tmp_path / sub
            cli.main([
                "predict", "--checkpoint", str(trained_dir / "best.ckpt"),
                "--volume", str(synth_dir / "volume.mrc"),
                "--out-dir", str(out), "--window", "32", "--stride", "16",
            ])
            outs.append(b"".join(p.read_bytes() for p in sorted(out.glob("*.pgm"))))
        assert outs[0] == outs[1]

    def test_edge_windows_cover_the_slice(self, synth_dir, trained_dir, tmp_path, caplog):
        """Window 16, stride 12 on 32 px: windows at 0 and 12 stop at 28, so
        an edge window at 16 covers the last strip with real predictions."""
        from seget.data import normalize, read_mrc
        out = tmp_path / "edge"
        with caplog.at_level("WARNING"):
            rc = cli.main([
                "predict", "--checkpoint", str(trained_dir / "best.ckpt"),
                "--volume", str(synth_dir / "volume.mrc"),
                "--out-dir", str(out), "--window", "16", "--stride", "12",
                "--save-probs",
            ])
        assert rc == 0
        assert not any("uncovered" in r.message for r in caplog.records)
        probs = np.load(out / "probs.npy")
        net, _ = load_checkpoint(trained_dir / "best.ckpt")
        images = normalize(read_mrc(synth_dir / "volume.mrc"))
        x = Tensor(images[0, 16:, 16:][None, None].astype(np.float32))
        corner = sigmoid(net.forward(x, mode="infer").data[0, 0])
        # only the edge window reaches rows and columns 28..31
        np.testing.assert_allclose(probs[0, 28:, 28:], corner[12:, 12:], rtol=1e-6, atol=1e-7)

    def test_stride_beyond_window_exits_1(self, synth_dir, trained_dir, tmp_path):
        rc = cli.main([
            "predict", "--checkpoint", str(trained_dir / "best.ckpt"),
            "--volume", str(synth_dir / "volume.mrc"),
            "--out-dir", str(tmp_path / "x"), "--window", "16", "--stride", "20",
        ])
        assert rc == 1
        assert not (tmp_path / "x").exists()

    def test_checkpoint_of_another_upsampling_rule_exits_2(self, synth_dir, trained_dir,
                                                            tmp_path):
        """An echo asking for align-corners upsampling, which earlier
        versions could build, is refused rather than run as half-pixel."""
        raw = (trained_dir / "best.ckpt").read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16 : 16 + hlen])
        header["config"]["upsample_mode"] = "align_corners"
        blob = json.dumps(header, sort_keys=True).encode()
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])
        rc = cli.main([
            "predict", "--checkpoint", str(ckpt),
            "--volume", str(synth_dir / "volume.mrc"),
            "--out-dir", str(tmp_path / "x"), "--window", "32", "--stride", "32",
        ])
        assert rc == 2

    def test_non_finite_volume_exits_2(self, synth_dir, trained_dir, tmp_path, capsys):
        """A NaN voxel is refused, not predicted as finite garbage."""
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--checkpoint", str(trained_dir / "best.ckpt"),
                       "--volume", str(nan_volume(synth_dir, tmp_path)),
                       "--out-dir", str(out), "--window", "32", "--stride", "16"])
        assert rc == 2
        assert "(slice 0, y 3, x 4)" in capsys.readouterr().err
        assert not out.exists()

    def test_indivisible_window_exits_2(self, synth_dir, trained_dir, tmp_path):
        rc = cli.main([
            "predict", "--checkpoint", str(trained_dir / "best.ckpt"),
            "--volume", str(synth_dir / "volume.mrc"),
            "--out-dir", str(tmp_path / "x"), "--window", "30", "--stride", "30",
        ])
        assert rc == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS)
    def test_bad_threshold_exits_1_before_reading(self, tmp_path, capsys, threshold):
        """Refused before the (missing) checkpoint is opened, which would
        exit 4."""
        out = tmp_path / "x"
        rc = cli.main(["predict", "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--volume", str(tmp_path / "none.mrc"), "--out-dir", str(out),
                       "--window", "32", "--stride", "32", "--threshold", threshold])
        assert rc == 1
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()


class TestCliEvaluate:
    def test_identical_stacks_score_one(self, synth_dir, tmp_path, capsys):
        rc = cli.main(["evaluate", "--pred", str(synth_dir / "mask_blob.mrc"),
                       "--gt", str(synth_dir / "mask_blob.mrc")])
        assert rc == 0
        assert "miou=1.000000 pixel_accuracy=1.000000" in capsys.readouterr().out

    def test_worked_four_pixel_case(self, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir(), gt_dir.mkdir()
        (pred_dir / "s0.pgm").write_bytes(write_mask_pgm(np.array([[1, 0, 0, 0]])))
        (gt_dir / "s0.pgm").write_bytes(write_mask_pgm(np.array([[1, 1, 0, 0]])))
        rc = cli.main(["evaluate", "--pred", str(pred_dir), "--gt", str(gt_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"miou={7/12:.6f}" in out

    def test_disjoint_masks_score_zero_foreground(self, tmp_path, capsys):
        pred_dir = tmp_path / "pd"
        gt_dir = tmp_path / "gd"
        pred_dir.mkdir(), gt_dir.mkdir()
        (pred_dir / "s.pgm").write_bytes(write_mask_pgm(np.array([[1, 0]])))
        (gt_dir / "s.pgm").write_bytes(write_mask_pgm(np.array([[0, 1]])))
        cli.main(["evaluate", "--pred", str(pred_dir), "--gt", str(gt_dir)])
        assert "miou=0.000000" in capsys.readouterr().out

    def test_shape_mismatch_exits_2(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        (a / "s.pgm").write_bytes(write_mask_pgm(np.zeros((2, 2), dtype=np.int64)))
        (b / "s.pgm").write_bytes(write_mask_pgm(np.zeros((2, 3), dtype=np.int64)))
        assert cli.main(["evaluate", "--pred", str(a), "--gt", str(b)]) == 2

    def test_truncated_pgm_header_exits_2(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        (a / "s.pgm").write_bytes(b"P5\n12")
        (b / "s.pgm").write_bytes(write_mask_pgm(np.zeros((2, 2), dtype=np.int64)))
        assert cli.main(["evaluate", "--pred", str(a), "--gt", str(b)]) == 2

    def test_json_output(self, synth_dir, tmp_path):
        import json
        out = tmp_path / "metrics.json"
        cli.main(["evaluate", "--pred", str(synth_dir / "mask_blob.mrc"),
                  "--gt", str(synth_dir / "mask_blob.mrc"), "--json", str(out)])
        assert json.loads(out.read_text()) == {"miou": 1.0, "pixel_accuracy": 1.0}


class TestCliFuse:
    def test_fusion_and_unfusion(self, tmp_path):
        rng = np.random.default_rng(8)
        stacks = [rng.random((2, 8, 8)).astype(np.float32) for _ in range(5)]
        paths = []
        for i, s in enumerate(stacks):
            p = tmp_path / f"c{i}.npy"
            np.save(p, s)
            paths.append(str(p))
        out = tmp_path / "fused"
        rc = cli.main(["fuse", "--probs", *paths, "--out-dir", str(out)])
        assert rc == 0
        fused = np.load(out / "fused.npy")
        assert sorted(out.glob("fused_*.ppm"))
        # wherever class k won, its probability cleared the threshold
        for k, s in enumerate(stacks):
            won = fused == k + 1
            assert np.all(s[won] > 0.5)
        # background pixels have no candidate anywhere
        bg = fused == 0
        assert np.all(np.stack(stacks)[:, bg] <= 0.5)

    def test_ppm_colors_match_palette(self, tmp_path):
        from seget.data import PALETTE
        stacks = [np.full((1, 1, 1), 0.9, dtype=np.float32)] + [
            np.zeros((1, 1, 1), dtype=np.float32) for _ in range(4)
        ]
        paths = []
        for i, s in enumerate(stacks):
            p = tmp_path / f"k{i}.npy"
            np.save(p, s)
            paths.append(str(p))
        out = tmp_path / "f"
        cli.main(["fuse", "--probs", *paths, "--out-dir", str(out)])
        rgb = read_ppm((out / "fused_000.ppm").read_bytes())
        np.testing.assert_array_equal(rgb[0, 0], PALETTE[1])

    def test_misaligned_exits_2(self, tmp_path):
        np.save(tmp_path / "a.npy", np.zeros((1, 4, 4)))
        np.save(tmp_path / "b.npy", np.zeros((1, 4, 5)))
        rc = cli.main(["fuse", "--probs", str(tmp_path / "a.npy"),
                       str(tmp_path / "b.npy"), "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("case", [
        "empty", "truncated", "header_only", "not_npy", "object", "npz", "2d", "integer",
    ])
    def test_bad_probability_stack_exits_2(self, tmp_path, capsys, case):
        def saved(save, array, **kwargs):
            buf = io.BytesIO()
            save(buf, array, **kwargs)
            return buf.getvalue()

        good = saved(np.save, np.zeros((1, 4, 4), dtype=np.float32))
        bad = {
            "empty": b"",
            "truncated": good[:-5],
            "header_only": good[:20],
            "not_npy": b"P5\n4 4\n255\n" + bytes(16),
            "object": saved(np.save, np.empty((1, 4, 4), dtype=object), allow_pickle=True),
            "npz": saved(np.savez, np.zeros((1, 4, 4), dtype=np.float32)),
            "2d": saved(np.save, np.zeros((4, 4), dtype=np.float32)),
            "integer": saved(np.save, np.zeros((1, 4, 4), dtype=np.int64)),
        }
        path = tmp_path / "bad.npy"
        path.write_bytes(bad[case])
        np.save(tmp_path / "good.npy", np.zeros((1, 4, 4), dtype=np.float32))
        rc = cli.main(["fuse", "--probs", str(tmp_path / "good.npy"), str(path),
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS)
    def test_bad_threshold_exits_1_before_reading(self, tmp_path, capsys, threshold):
        """Refused before the (missing) stacks are opened, which would
        exit 4."""
        out = tmp_path / "o"
        rc = cli.main(["fuse", "--probs", str(tmp_path / "none.npy"), "--out-dir", str(out),
                       "--threshold", threshold])
        assert rc == 1
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()


class TestCliGradcheck:
    def test_passes_and_prints_report(self, capsys):
        rc = cli.main(["gradcheck", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_mutated_backward_exits_3(self, monkeypatch, capsys):
        from seget import ops
        real = ops.conv2d_backward

        def corrupted(grad_out, cache, spec, kernel, bias):
            out = real(grad_out, cache, spec, kernel, bias)
            kernel.grad *= 1.01
            return out

        monkeypatch.setattr(ops, "conv2d_backward", corrupted)
        assert cli.main(["gradcheck", "--seeds", "1"]) == 3


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seget", "synth", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "--out-dir" in proc.stdout
