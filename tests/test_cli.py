"""End-to-end runs of the command-line surface.

Drives main(argv) in-process over a tiny two-participant corpus so the
whole chain (synthesis, preprocessing, training, eval, aggregation,
checkpoint inspection) runs in seconds. Error paths check the exit-code
contract: 1 for usage and config problems, 2 for data and format
problems, 0 on success.
"""

import filecmp
import shutil
import struct

import numpy as np
import pytest

from depest import cli, data, errors
from depest.cli import main
from depest.dsp import Waveform, write_wav
from depest.phq import N_ITEMS
from depest.synthetic import generate_synthetic_corpus
from depest.tensorio import load_checkpoint, save_checkpoint, write_tensor

# small model, short run; keys mirror the config-file syntax users write
TINY_CFG = """
feature_dim = 8
lstm_hidden = 4
audio_channels = 8
audio_strides = 4
audio_pools = 2
visual_channels = 8
visual_strides = 4
visual_pools = 2
text_channels = 8
epochs = 2
batch_size = 4
lr = 0.05
momentum = 0.9
sam_rho = 0.05
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Corpus synthesized, preprocessed, and trained once for the module."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    clips = root / "clips"
    run = root / "run"
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)

    rc = main(
        [
            "synth-data",
            "--out-dir", str(raw),
            "--seed", "11",
            "--participants", "2",
            "--duration-s", "70",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "preprocess",
            "--manifest", str(raw / "manifest.csv"),
            "--out-dir", str(clips),
            "--config", str(cfg_path),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--clips-dir", str(clips),
            "--out-dir", str(run),
            "--config", str(cfg_path),
        ]
    )
    assert rc == 0
    return {"root": root, "raw": raw, "clips": clips, "run": run, "cfg": cfg_path}


class TestHappyPath:
    def test_synth_data_defaults_are_the_library_defaults(self, tmp_path, capsys):
        assert main(["synth-data", "--out-dir", str(tmp_path / "cli")]) == 0
        generate_synthetic_corpus(tmp_path / "lib")
        files = sorted(p.relative_to(tmp_path / "lib") for p in (tmp_path / "lib").rglob("*") if p.is_file())
        assert sorted(p.relative_to(tmp_path / "cli") for p in (tmp_path / "cli").rglob("*") if p.is_file()) == files
        assert len(files) == 1 + 3 * 8  # the manifest, three files for each of 8 participants
        for rel in files:
            assert filecmp.cmp(tmp_path / "cli" / rel, tmp_path / "lib" / rel, shallow=False), rel
        capsys.readouterr()

    def test_synth_data_wrote_manifest(self, pipeline):
        assert (pipeline["raw"] / "manifest.csv").exists()

    def test_preprocess_wrote_one_bundle_per_participant(self, pipeline):
        # 70 s with a 60 s window and 50 s stride cuts exactly one clip each
        bundles = sorted(p.name for p in pipeline["clips"].iterdir() if p.is_dir())
        assert bundles == ["P000_c0000", "P001_c0000"]

    def test_train_artifacts(self, pipeline):
        log = (pipeline["run"] / "epoch_log.txt").read_text().strip().splitlines()
        assert len(log) == 2
        for line in log:
            parts = line.split()
            assert len(parts) == 5
            int(parts[0])
            for p in parts[1:]:
                float(p)
        ckpt = load_checkpoint(pipeline["run"] / "model.ckpt")
        assert ckpt.epoch == 2
        assert len(ckpt.state) > 0

    def test_eval_writes_clip_metrics(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "eval",
                "--clips-dir", str(pipeline["clips"]),
                "--checkpoint", str(pipeline["run"] / "model.ckpt"),
                "--config", str(pipeline["cfg"]),
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[clip-level]" in out
        text = (tmp_path / "clip_metrics.txt").read_text()
        assert "accuracy" in text
        assert "f1" in text

    def test_aggregate_writes_participant_report(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "aggregate",
                "--clips-dir", str(pipeline["clips"]),
                "--checkpoint", str(pipeline["run"] / "model.ckpt"),
                "--config", str(pipeline["cfg"]),
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        text = (tmp_path / "participant_report.txt").read_text()
        assert "overall" in text
        assert capsys.readouterr().out.strip()

    def test_inspect_checkpoint_lists_tensors(self, pipeline, capsys):
        rc = main(["inspect-checkpoint", "--checkpoint", str(pipeline["run"] / "model.ckpt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("epoch 2")
        assert "config sha256" in out
        ckpt = load_checkpoint(pipeline["run"] / "model.ckpt")
        for name in ckpt.state:
            assert name in out


class TestUsageErrors:
    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 1
        capsys.readouterr()

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate"])
        assert ei.value.code == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["train", "--out-dir", "x"])
        assert ei.value.code == 1
        assert "clips-dir" in capsys.readouterr().err

    def test_unknown_config_key_returns_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning_rate = 0.1\n")
        rc = main(["preprocess", "--manifest", "unused.csv", "--out-dir", str(tmp_path), "--config", str(bad)])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["musdl_classes = 8", "musdl_classes = 5\nmusdl_expanded = 40"])
    def test_musdl_class_count_key_returns_1_before_training(self, pipeline, tmp_path, capsys, lines):
        # the class count is the item score range; any other value failed only at the first epoch's eval
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pipeline["cfg"].read_text() + lines + "\n")
        rc = main(["train", "--clips-dir", str(pipeline["clips"]), "--out-dir", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 1
        assert "unknown config key 'musdl_classes'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_conv_kernel_key_returns_1_before_training(self, pipeline, tmp_path, capsys):
        # every branch conv has 3 taps; the per-branch kernel keys are gone
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pipeline["cfg"].read_text() + "audio_kernel = 3\n")
        rc = main(["train", "--clips-dir", str(pipeline["clips"]), "--out-dir", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 1
        assert "unknown config key 'audio_kernel'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_positive_duration_returns_1(self, tmp_path, capsys):
        rc = main(["synth-data", "--out-dir", str(tmp_path / "raw"), "--duration-s", "-5"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "duration" in err[0]

    @pytest.mark.parametrize("argv", [
        ["synth-data", "--depressed-fraction", "nan"],
        ["synth-data", "--depressed-fraction", "1.7"],
        ["synth-data", "--duration-s", "inf"],
        ["synth-data", "--seed", "-1"],
    ])
    def test_bad_synth_data_input_returns_1(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out-dir", str(tmp_path / "raw")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "raw").exists()

    @pytest.mark.parametrize("line, flags, key", [
        ("clip_window_s = nan", [], "clip_window_s"),
        ("lr = inf", [], "lr"),
        ("sam_rho = nan", [], "sam_rho"),
    ])
    def test_non_finite_config_value_returns_1(self, tmp_path, capsys, line, flags, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        command = ["train", "--clips-dir", "unused"] if flags else ["preprocess", "--manifest", "unused.csv"]
        rc = main(command + ["--out-dir", str(tmp_path / "out"), "--config", str(cfg)] + flags)
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and f"'{key}'" in err[0]

    @pytest.mark.parametrize("line, flags, key", [
        ("seed = -1", [], "seed"),
        ("max_sentences = -1", [], "max_sentences"),
        ("", ["--seed", "-3"], "seed"),
    ])
    def test_negative_config_value_returns_1(self, tmp_path, capsys, line, flags, key):
        self.test_non_finite_config_value_returns_1(tmp_path, capsys, line, flags, key)

    @pytest.mark.parametrize("value", ["nan", "1.5", "-0.2"])
    def test_stop_accuracy_outside_unit_interval_returns_1(self, pipeline, tmp_path, capsys, value):
        rc = main(["train", "--clips-dir", str(pipeline["clips"]), "--out-dir", str(tmp_path / "run"),
                   "--config", str(pipeline["cfg"]), "--stop-accuracy", value])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "stop accuracy" in err[0]
        assert (tmp_path / "run" / "epoch_log.txt").read_text() == ""

    def test_negative_clip_overlap_returns_1(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pipeline["cfg"].read_text() + "clip_overlap_s = -10\n")
        rc = main(["preprocess", "--manifest", str(pipeline["raw"] / "manifest.csv"),
                   "--out-dir", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "0 <= overlap < window" in err[0]

    def test_malformed_config_line_returns_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs\n")
        rc = main(["preprocess", "--manifest", "unused.csv", "--out-dir", str(tmp_path), "--config", str(bad)])
        assert rc == 1
        assert "key=value" in capsys.readouterr().err

    def test_zero_epochs_returns_1(self, pipeline, tmp_path, capsys):
        rc = main(["train", "--clips-dir", str(pipeline["clips"]), "--out-dir", str(tmp_path),
                   "--config", str(pipeline["cfg"]), "--epochs", "0"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "epochs" in err[0]


class TestDataErrors:
    def test_missing_manifest_returns_2(self, tmp_path, capsys):
        rc = main(["preprocess", "--manifest", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        capsys.readouterr()

    def test_manifest_directory_returns_2(self, tmp_path, capsys):
        rc = main(["preprocess", "--manifest", str(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not a file" in err[0]

    def test_truncated_wav_returns_2(self, pipeline, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(pipeline["raw"], raw)
        wav = raw / "P000" / "audio.wav"
        wav.write_bytes(wav.read_bytes()[:30])
        rc = main(["preprocess", "--manifest", str(raw / "manifest.csv"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(wav) in err[0]

    @pytest.mark.parametrize("pid", ["P000", "P001"], ids=["caller-session", "worker-session"])
    def test_corrupt_keypoints_returns_2(self, pipeline, tmp_path, capsys, monkeypatch, pid):
        monkeypatch.setattr(data, "_available_cpus", lambda: 2)  # P000 in this process, P001 in a worker
        raw = tmp_path / "raw"
        shutil.copytree(pipeline["raw"], raw)
        kp = raw / pid / "keypoints.txt"
        lines = kp.read_text().splitlines(keepends=True)
        lines[5] = "corrupt line\n"
        kp.write_text("".join(lines))
        rc = main(["preprocess", "--manifest", str(raw / "manifest.csv"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {kp}:6:")

    @pytest.mark.parametrize("fault", ["swapped", "nan"])
    def test_bad_keypoint_timestamp_returns_2_naming_the_line(self, pipeline, tmp_path, capsys, fault):
        raw = tmp_path / "raw"
        shutil.copytree(pipeline["raw"], raw)
        kp = raw / "P001" / "keypoints.txt"
        lines = kp.read_text().splitlines(keepends=True)
        if fault == "swapped":  # frame 11 then falls below frame 10, the one from line 21
            lines[10], lines[20] = lines[20], lines[10]
        else:
            lines[11] = "nan " + lines[11].split(" ", 1)[1]
        kp.write_text("".join(lines))
        rc = main(["preprocess", "--manifest", str(raw / "manifest.csv"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {kp}:12: keypoint frame 11: timestamp")

    @pytest.mark.parametrize("fault", ["stop-before-start", "start-before-previous"])
    def test_bad_sentence_stamps_return_2_naming_the_line(self, pipeline, tmp_path, capsys, fault):
        raw = tmp_path / "raw"
        shutil.copytree(pipeline["raw"], raw)
        path = raw / "P001" / "embeddings.txt"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[2].split(" ")
        if fault == "stop-before-start":  # the third sentence: start 10, stop 8
            fields[:2] = ["10", "8"]
        else:  # the third sentence starts before the second
            fields[:2] = ["-1", lines[1].split(" ")[1]]
        lines[2] = " ".join(fields)
        path.write_text("".join(lines))
        rc = main(["preprocess", "--manifest", str(raw / "manifest.csv"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}:3: sentence 2 ")

    @pytest.mark.parametrize(
        "file_name, value, modality", [("keypoints.txt", "nan", "visual"), ("embeddings.txt", "inf", "text")]
    )
    def test_non_finite_session_value_returns_2(self, pipeline, tmp_path, capsys, file_name, value, modality):
        raw = tmp_path / "raw"
        shutil.copytree(pipeline["raw"], raw)
        path = raw / "P000" / file_name
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[0].split(" ")
        fields[2] = value  # a landmark coordinate, or the first embedding value, of the first frame or sentence
        lines[0] = " ".join(fields)
        path.write_text("".join(lines))
        rc = main(["preprocess", "--manifest", str(raw / "manifest.csv"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: clip 0 of P000:") and f"non-finite {modality}" in err[0]

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_wav_at_another_sample_rate_returns_2(self, pipeline, tmp_path, capsys, rate):
        raw = tmp_path / "raw"
        shutil.copytree(pipeline["raw"], raw)
        wav = raw / "P000" / "audio.wav"
        write_wav(wav, Waveform(np.zeros(70 * rate), sample_rate_hz=rate))
        rc = main(["preprocess", "--manifest", str(raw / "manifest.csv"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {wav}: sampled at {rate} Hz")

    def test_config_error_in_worker_returns_1(self, pipeline, tmp_path, capsys, monkeypatch):
        def fail_p001(entry, cfg):
            if entry.participant_id == "P001":
                raise errors.ConfigError("bad setting for P001")
            return data.preprocess_session(entry, cfg)

        monkeypatch.setattr(data, "_available_cpus", lambda: 2)
        monkeypatch.setattr(cli, "preprocess_session", fail_p001)  # the forked worker inherits the patch
        rc = main(["preprocess", "--manifest", str(pipeline["raw"] / "manifest.csv"), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == ["error: bad setting for P001"]

    def test_non_integer_subscore_in_manifest_returns_2(self, pipeline, tmp_path, capsys):
        lines = (pipeline["raw"] / "manifest.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "1.5"
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join([lines[0], ",".join(fields)]) + "\n")
        rc = main(["preprocess", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"{manifest}:2:" in capsys.readouterr().err

    def test_malformed_clip_index_in_bundle_returns_2(self, pipeline, tmp_path, capsys):
        clips = tmp_path / "clips"
        shutil.copytree(pipeline["clips"], clips)
        meta = sorted(clips.glob("*/meta.txt"))[0]  # the first clip, index 0
        meta.write_text(meta.read_text().replace("clip_index 0\n", "clip_index zero\n"))
        rc = main(["train", "--clips-dir", str(clips), "--out-dir", str(tmp_path / "run"), "--config", str(pipeline["cfg"])])
        assert rc == 2
        assert f"{meta}:" in capsys.readouterr().err

    def test_bundle_in_pre_npy_layout_returns_2(self, pipeline, tmp_path, capsys):
        # bundles once held "MFTK" files: magic, u32 version 1, u32 rank, u64 dims, C-order float32
        clips = tmp_path / "clips"
        shutil.copytree(pipeline["clips"], clips)
        old = sorted(clips.glob("*/visual.mft"))[0]
        arr = np.ascontiguousarray(np.load(old))
        old.write_bytes(b"MFTK" + struct.pack(f"<II{arr.ndim}Q", 1, arr.ndim, *arr.shape) + arr.tobytes())
        rc = main(["train", "--clips-dir", str(clips), "--out-dir", str(tmp_path / "run"), "--config", str(pipeline["cfg"])])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {old}:")

    def test_non_finite_bundle_value_returns_2(self, pipeline, tmp_path, capsys):
        clips = tmp_path / "clips"
        shutil.copytree(pipeline["clips"], clips)
        bundle = sorted(clips.iterdir())[0]
        visual = np.load(bundle / "visual.mft")
        visual[0, 0, 0] = np.nan
        write_tensor(bundle / "visual.mft", visual)
        rc = main(["train", "--clips-dir", str(clips), "--out-dir", str(tmp_path / "run"), "--config", str(pipeline["cfg"])])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bundle / 'meta.txt'}:") and "non-finite visual" in err[0]
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_gender_outside_genders_in_bundle_returns_2(self, pipeline, tmp_path, capsys):
        clips = tmp_path / "clips"
        shutil.copytree(pipeline["clips"], clips)
        meta = next(m for m in sorted(clips.glob("*/meta.txt")) if "gender female\n" in m.read_text())
        meta.write_text(meta.read_text().replace("gender female\n", "gender Female\n"))
        rc = main(["aggregate", "--clips-dir", str(clips), "--checkpoint", str(pipeline["run"] / "model.ckpt")])
        assert rc == 2
        out = capsys.readouterr()
        err = out.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {meta}:") and "'Female'" in err[0]
        assert out.out == ""  # no report was printed

    def test_missing_clips_dir_returns_2(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "eval",
                "--clips-dir", str(tmp_path / "absent"),
                "--checkpoint", str(pipeline["run"] / "model.ckpt"),
                "--config", str(pipeline["cfg"]),
            ]
        )
        assert rc == 2
        assert "clip directory not found" in capsys.readouterr().err

    def test_empty_clips_dir_returns_2(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "eval",
                "--clips-dir", str(tmp_path),
                "--checkpoint", str(pipeline["run"] / "model.ckpt"),
                "--config", str(pipeline["cfg"]),
            ]
        )
        assert rc == 2
        assert "no clip bundles" in capsys.readouterr().err

    def test_garbage_checkpoint_returns_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"not a checkpoint at all")
        rc = main(["inspect-checkpoint", "--checkpoint", str(junk)])
        assert rc == 2
        capsys.readouterr()

    def test_truncated_checkpoint_returns_2(self, pipeline, tmp_path, capsys):
        raw = (pipeline["run"] / "model.ckpt").read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[: len(raw) // 2])
        rc = main(["inspect-checkpoint", "--checkpoint", str(cut)])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("pad", [(b"", b"junk"), (b"junk", b"")], ids=["appended", "prepended"])
    def test_padded_checkpoint_returns_2(self, pipeline, tmp_path, capsys, pad):
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(pad[0] + (pipeline["run"] / "model.ckpt").read_bytes() + pad[1])
        rc = main(["inspect-checkpoint", "--checkpoint", str(padded)])
        assert rc == 2
        assert "padded.ckpt" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [
            ["inspect-checkpoint", "--checkpoint", "{dir}"],
            ["eval", "--clips-dir", "{clips}", "--checkpoint", "{dir}", "--config", "{cfg}"],
            ["preprocess", "--manifest", "{manifest}", "--out-dir", "{out}", "--config", "{dir}"],
            ["train", "--clips-dir", "{file}", "--out-dir", "{out}"],
        ],
        ids=["checkpoint-dir", "eval-checkpoint-dir", "config-dir", "clips-dir-file"],
    )
    def test_wrong_path_kind_returns_2(self, pipeline, tmp_path, capsys, argv):
        paths = {
            "dir": tmp_path,
            "file": pipeline["cfg"],
            "clips": pipeline["clips"],
            "cfg": pipeline["cfg"],
            "manifest": pipeline["raw"] / "manifest.csv",
            "out": tmp_path / "out",
        }
        rc = main([a.format(**paths) for a in argv])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "cls, code",
    [(errors.ConfigError, 1), (errors.GraphError, 3), (errors.NumericError, 3)]
    + [(getattr(errors, n), 2) for n in ("DepestError", "ShapeError", "DomainError", "EmptyInputError",
                                         "EmptyOutputError", "FormatError", "DataError")],
)
def test_error_classes_carry_exit_codes(cls, code):
    assert cls("x").exit_code == code


@pytest.fixture(scope="module")
def audio_mean_run(pipeline):
    """A checkpoint trained with --modality a --fusion mean, plus a config file that matches it."""
    run = pipeline["root"] / "run_a_mean"
    rc = main(["train", "--clips-dir", str(pipeline["clips"]), "--out-dir", str(run),
               "--config", str(pipeline["cfg"]), "--modality", "a", "--fusion", "mean"])
    assert rc == 0
    matching = pipeline["root"] / "a_mean.cfg"
    matching.write_text(TINY_CFG + "modality = a\nfusion = mean\n")
    return run / "model.ckpt", matching


class TestConfigHashGuard:
    @pytest.mark.parametrize("command", ["eval", "aggregate"])
    def test_restores_under_the_stored_config(self, pipeline, audio_mean_run, capsys, command):
        # flags change the trained config; without --config the checkpoint's own is used
        ckpt, matching = audio_mean_run
        argv = [command, "--clips-dir", str(pipeline["clips"]), "--checkpoint", str(ckpt)]
        assert main(argv + ["--config", str(matching)]) == 0
        want = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_eval_refuses_mismatched_config(self, pipeline, audio_mean_run, capsys):
        ckpt, _ = audio_mean_run
        rc = main(["eval", "--clips-dir", str(pipeline["clips"]), "--checkpoint", str(ckpt),
                   "--config", str(pipeline["cfg"])])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "different config" in err[0] and "fusion, modality" in err[0]

    @pytest.mark.parametrize("command", ["eval", "aggregate"])
    def test_unknown_key_in_stored_config_returns_2(self, pipeline, tmp_path, capsys, command):
        # the checkpoint file is at fault, not the user's config
        ckpt = load_checkpoint(pipeline["run"] / "model.ckpt")
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, ckpt.epoch, ckpt.config_text + "learning_rate=0.1\n", ckpt.state)
        rc = main([command, "--clips-dir", str(pipeline["clips"]), "--checkpoint", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: stored config:") and "learning_rate" in err[0]

    @pytest.mark.parametrize(
        "command, layout",
        [("eval", "per-head"), ("aggregate", "per-head"), ("eval", "per-direction"), ("aggregate", "per-direction")],
        ids=["eval", "aggregate", "eval-per-direction", "aggregate-per-direction"],
    )
    def test_checkpoint_of_per_head_layout_returns_2(self, pipeline, tmp_path, capsys, command, layout):
        # checkpoints written before the item heads and the fusion bank were
        # stored stacked held one entry per head: heads.3.weight, bank.heads.3.*;
        # those written before the BiLSTM directions were, one per direction:
        # branch_a.lstm.w_f and w_b
        ckpt = load_checkpoint(pipeline["run"] / "model.ckpt")
        state = {}
        for name, arr in ckpt.state.items():
            if layout == "per-direction" and ".lstm." in name:
                state.update({f"{name}_f": arr[0], f"{name}_b": arr[1]})
            elif layout == "per-head" and name.startswith("heads."):
                state.update({f"heads.{k}.{name[6:]}": a for k, a in enumerate(arr)})
            elif layout == "per-head" and name.startswith("bank."):
                axis = arr.shape.index(N_ITEMS)
                state.update({f"bank.heads.{k}.{name[5:]}": np.take(arr, [k], axis) for k in range(N_ITEMS)})
            else:
                state[name] = arr
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, ckpt.epoch, ckpt.config_text, state)
        rc = main([command, "--clips-dir", str(pipeline["clips"]), "--checkpoint", str(old)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        first = "bank." if layout == "per-head" else "branch_a.lstm.w'"
        assert len(err) == 1 and err[0].startswith(f"error: {old}: checkpoint missing entries: ['{first}")

    def test_aggregate_refuses_mismatched_config(self, pipeline, tmp_path, capsys):
        tweaked = tmp_path / "tweaked.cfg"
        tweaked.write_text(TINY_CFG + "seed = 99\n")
        rc = main(
            [
                "aggregate",
                "--clips-dir", str(pipeline["clips"]),
                "--checkpoint", str(pipeline["run"] / "model.ckpt"),
                "--config", str(tweaked),
            ]
        )
        assert rc == 1
        assert "different config" in capsys.readouterr().err

    def test_matching_config_is_accepted(self, pipeline, capsys):
        rc = main(
            [
                "eval",
                "--clips-dir", str(pipeline["clips"]),
                "--checkpoint", str(pipeline["run"] / "model.ckpt"),
                "--config", str(pipeline["cfg"]),
            ]
        )
        assert rc == 0
        capsys.readouterr()


def test_trained_state_differs_from_init(pipeline):
    # two epochs of updates must move every floating parameter somewhere
    from depest import config as cfgmod
    from depest.model import MultiModalClassifier

    cfg = cfgmod.parse_config(pipeline["cfg"])
    fresh = MultiModalClassifier(cfgmod.model_config(cfg), rng=np.random.default_rng(cfg["seed"]))
    ckpt = load_checkpoint(pipeline["run"] / "model.ckpt")
    moved = 0
    for name, arr in fresh.state().items():
        if not np.array_equal(ckpt.state[name], arr.astype(np.float32)):
            moved += 1
    assert moved > 0.5 * len(ckpt.state)
