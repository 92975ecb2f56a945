"""Flat key=value config parsing and canonical text."""

import dataclasses
import inspect

import pytest

from depest.config import (
    DEFAULTS,
    canonical_text,
    mel_config,
    model_config,
    musdl_config,
    parse_config,
    sam_config,
    stft_config,
)
from depest.dsp import MelConfig, StftConfig, log_mel_spectrogram, stft
from depest.errors import ConfigError
from depest.features import sliding_window_clips


class TestParse:
    def test_defaults_without_file(self):
        cfg = parse_config()
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS  # caller gets a private copy

    def test_file_overlays_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.05\nepochs=3\nmodality=av\n")
        cfg = parse_config(path)
        assert cfg["lr"] == 0.05
        assert cfg["epochs"] == 3
        assert cfg["modality"] == "av"
        assert cfg["batch_size"] == DEFAULTS["batch_size"]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nlr=0.5  # trailing comment\n")
        assert parse_config(path)["lr"] == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate=0.5\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr 0.5\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_type_coercion_follows_default(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs=7\nsam_rho=0.1\naudio_channels=8,16\n")
        cfg = parse_config(path)
        assert cfg["epochs"] == 7 and isinstance(cfg["epochs"], int)
        assert cfg["sam_rho"] == 0.1 and isinstance(cfg["sam_rho"], float)
        assert cfg["audio_channels"] == "8,16"

    def test_bad_int_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs=many\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr=0.5\n")
        cfg = parse_config(path, overrides={"lr": 0.25})
        assert cfg["lr"] == 0.25

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(overrides={"lrx": 1.0})

    def test_string_override_coerced(self):
        cfg = parse_config(overrides={"epochs": "12"})
        assert cfg["epochs"] == 12

    # Python's int and float read all three: 16, 0.01 and 3 (an Arabic-Indic three)
    @pytest.mark.parametrize("key, raw", [("batch_size", "1_6"), ("lr", "0.0_1"), ("epochs", "\u0663")])
    def test_numbers_outside_ascii_without_underscores_rejected(self, tmp_path, key, raw):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={raw}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            parse_config(path)
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            parse_config(overrides={key: raw})

    @pytest.mark.parametrize("raw", ["1_6", "\u0663", "16,3_2"])
    def test_stage_list_numbers_outside_ascii_without_underscores_rejected(self, raw):
        with pytest.raises(ConfigError, match="config key 'audio_channels'"):
            model_config(parse_config(overrides={"audio_channels": raw}))

    def test_plain_numbers_still_parse(self):
        cfg = parse_config(overrides={"lr": "1e-3", "momentum": "-0.5", "batch_size": " 16 ", "audio_channels": "32,64"})
        assert (cfg["lr"], cfg["momentum"], cfg["batch_size"]) == (1e-3, -0.5, 16)
        assert model_config(cfg).audio.conv_channels == (32, 64)


class TestCanonical:
    def test_sorted_and_stable(self):
        cfg = parse_config()
        text = canonical_text(cfg)
        keys = [line.split("=")[0] for line in text.strip().split("\n")]
        assert keys == sorted(keys)
        assert text == canonical_text(dict(reversed(list(cfg.items()))))

    def test_hash_changes_with_any_value(self):
        base = canonical_text(parse_config())
        for key, bumped in [("lr", 0.5), ("epochs", 3), ("modality", "a"), ("sam_rho", 0.0)]:
            cfg = parse_config(overrides={key: bumped})
            assert canonical_text(cfg) != base, key

    def test_hash_stable_across_parses(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr=0.05\n")
        assert canonical_text(parse_config(path)) == canonical_text(parse_config(overrides={"lr": 0.05}))

    @pytest.mark.parametrize("lr", [1e-3, 0.1 + 1e-12, 1e-20, 5e-324, 1e300])
    def test_checkpoint_text_round_trips(self, lr):
        # as eval rebuilds a checkpoint's config
        text = canonical_text(parse_config(overrides={"lr": lr}))
        assert canonical_text(parse_config(None, dict(line.partition("=")[::2] for line in text.splitlines()))) == text

    def test_float_repr_distinguishes_close_values(self):
        a = canonical_text(parse_config(overrides={"lr": 0.1}))
        b = canonical_text(parse_config(overrides={"lr": 0.1 + 1e-12}))
        assert a != b


class TestBuilders:
    def test_stft_and_mel(self):
        cfg = parse_config()
        s = stft_config(cfg)
        assert (s.window_len, s.hop, s.fft_len) == (1024, 533, 1024)
        m = mel_config(cfg)
        assert m.n_mels == 80
        assert m.f_max_hz == 8000.0

    def test_musdl_and_sam(self):
        cfg = parse_config(overrides={"sam_rho": 0.2, "lr": 0.01, "momentum": 0.9})
        mu = musdl_config(cfg)
        assert (mu.n_classes, mu.n_expanded, mu.sigma) == (4, 32, 5.0)
        sa = sam_config(cfg)
        assert (sa.rho, sa.lr, sa.momentum) == (0.2, 0.01, 0.9)

    def test_model_builder_parses_stage_lists(self):
        cfg = parse_config(
            overrides={
                "feature_dim": 64,
                "lstm_hidden": 32,
                "audio_channels": "16,32",
                "audio_strides": "4,1",
                "audio_pools": "2,2",
            }
        )
        mc = model_config(cfg)
        assert mc.audio.conv_channels == (16, 32)
        assert mc.audio.strides == (4, 1)
        assert mc.audio.out_dim == 64
        assert mc.visual.conv2d_height == 72
        assert mc.text.in_channels == 512
        assert mc.n_classes == 32

    def test_bad_stage_list_rejected(self):
        cfg = parse_config(overrides={"audio_channels": "a,b"})
        with pytest.raises(ConfigError):
            model_config(cfg)

    def test_builder_and_branch_validation_compose(self):
        cfg = parse_config(overrides={"audio_channels": "16,32", "audio_pools": "2"})
        with pytest.raises(ConfigError):
            model_config(cfg)


class TestOneHomeOfDefaults:
    """Front-end settings come from DEFAULTS alone: the configs and functions carry no copy."""

    @pytest.mark.parametrize("cls", [StftConfig, MelConfig])
    def test_config_fields_have_no_defaults(self, cls):
        for f in dataclasses.fields(cls):
            assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING, f"{cls.__name__}.{f.name}"

    @pytest.mark.parametrize("fn", [stft, log_mel_spectrogram, sliding_window_clips])
    def test_parameters_have_no_defaults(self, fn):
        for name, param in inspect.signature(fn).parameters.items():
            assert param.default is inspect.Parameter.empty, f"{fn.__name__}({name}=...)"
