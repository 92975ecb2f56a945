"""Training loop: overfit sanity, SGD equivalence, logs, early stops, reports."""

import contextlib
import io

import numpy as np
import pytest

from conftest import tiny_clip
from depest import autodiff as ad
from depest import sam, training
from depest.errors import ConfigError, EmptyInputError
from depest.model import BranchConfig, ModelConfig, MultiModalClassifier, batch_inputs
from depest.musdl import MusdlConfig, kl_rows
from depest.phq import aggregate_participant, compute_metrics, derive_phq, gender_split_report
from depest.sam import SamConfig
from depest.sampling import compute_sampler_weights, draw_indices
from depest.training import (
    EpochStats,
    comparison_table,
    evaluate_clips,
    fusion_comparison,
    report,
    soft_targets,
    train,
)

AUDIO_CFG = BranchConfig(in_channels=8, conv_channels=(4,), pools=(2,), strides=(1,), lstm_hidden=3, out_dim=6)
VISUAL_CFG = BranchConfig(
    in_channels=3, conv_channels=(4,), pools=(1,), strides=(1,), lstm_hidden=3, out_dim=6, conv2d_height=72
)
TEXT_CFG = BranchConfig(in_channels=512, conv_channels=(4,), pools=(1,), strides=(1,), lstm_hidden=3, out_dim=6)
SAM_CFG = SamConfig(rho=0.05, lr=0.1)
MUSDL_CFG = MusdlConfig(n_classes=4, n_expanded=32, sigma=5.0)  # the config.DEFAULTS values


def make_model(modality="a", fusion="mean", seed=5):
    cfg = ModelConfig(
        modality=modality,
        fusion=fusion,
        feature_dim=6,
        audio=AUDIO_CFG,
        visual=VISUAL_CFG,
        text=TEXT_CFG,
    )
    return MultiModalClassifier(cfg, rng=np.random.default_rng(seed))


def separable_clips(n_per_group=12, seed=1):
    """Two label groups whose audio content is trivially separable."""
    rng = np.random.default_rng(seed)
    clips = []
    for i in range(n_per_group):
        lo = tiny_clip(rng, (0,) * 8, participant_id=f"L{i:02d}",
                       gender="female" if i % 2 == 0 else "male", clip_index=0)
        lo.audio = -1.0 + 0.05 * rng.normal(size=lo.audio.shape)
        clips.append(lo)
        hi = tiny_clip(rng, (3,) * 8, participant_id=f"H{i:02d}",
                       gender="male" if i % 2 == 0 else "female", clip_index=0)
        hi.audio = 1.0 + 0.05 * rng.normal(size=hi.audio.shape)
        clips.append(hi)
    return clips


class TestSoftTargets:
    def test_shape_and_row_sums(self, rng):
        clips = [tiny_clip(rng, (0, 1, 2, 3, 3, 2, 1, 0)), tiny_clip(rng, (1,) * 8)]
        t = soft_targets(clips, MUSDL_CFG)
        assert t.shape == (2, 8, 32)
        assert np.allclose(t.sum(axis=-1), 1.0)


class TestOverfit:
    def test_loss_collapses_on_separable_groups(self):
        clips = separable_clips()
        model = make_model()
        history = train(
            model,
            clips,
            musdl_cfg=MUSDL_CFG,
            sam_cfg=SamConfig(rho=0.05, lr=0.1, momentum=0.9),
            epochs=40,
            batch_size=8,
            seed=2,
        )
        assert history[-1].loss < 0.1 * history[0].loss
        assert history[-1].clip_accuracy == 1.0

    def test_history_one_entry_per_epoch(self):
        clips = separable_clips(n_per_group=4)
        history = train(make_model(), clips, musdl_cfg=MUSDL_CFG, sam_cfg=SAM_CFG, epochs=3, batch_size=4, seed=0)
        assert [h.epoch for h in history] == [1, 2, 3]


class TestSgdEquivalence:
    def test_rho_zero_matches_manual_loop(self):
        """rho=0 without dynamic weights is a plain SGD loop, bit for bit."""
        clips = separable_clips(n_per_group=4)
        musdl_cfg = MUSDL_CFG
        lr = 0.1
        epochs, batch_size, seed = 2, 4, 3

        trained = make_model(seed=7)
        train(
            trained,
            clips,
            musdl_cfg=musdl_cfg,
            sam_cfg=SamConfig(rho=0.0, lr=lr, momentum=0.0),
            epochs=epochs,
            batch_size=batch_size,
            dynamic_weights=False,
            seed=seed,
        )

        manual = make_model(seed=7)
        params = list(manual.parameters())
        targets_all = soft_targets(clips, musdl_cfg)
        weights = compute_sampler_weights(clips, "score", True)
        loop_rng = np.random.default_rng(seed)
        steps = max(1, (len(clips) + batch_size - 1) // batch_size)
        for _ in range(epochs):
            manual.train()
            for _ in range(steps):
                idx = draw_indices(loop_rng, weights, min(batch_size, len(clips)))
                chunk = [clips[i] for i in idx]
                inputs = batch_inputs(chunk, manual.cfg)
                flat_t = targets_all[idx].reshape(-1, musdl_cfg.n_expanded)
                for p in params:
                    p.grad = None
                preds = ad.reshape(manual.forward(**inputs), (-1, musdl_cfg.n_expanded))
                loss = ad.mul(kl_rows(flat_t, preds), ad.tensor(1.0 / len(chunk)))
                ad.backward(loss)
                for p in params:
                    if p.grad is not None:
                        p.data = p.data - lr * p.grad.astype(p.data.dtype)

        got = trained.state()
        want = manual.state()
        assert sorted(got) == sorted(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


class TestSamRunningStats:
    def test_perturbed_pass_changes_only_the_running_stats(self, monkeypatch):
        # SAM's perturbed pass runs under passes(update_stats=False); with the
        # setter a no-op it folds its statistics in too. Training normalizes
        # by batch statistics, so the weights and losses are the same bits
        clips = separable_clips(n_per_group=4)
        runs = []
        for frozen in (True, False):
            if not frozen:
                monkeypatch.setattr(sam, "passes", lambda **changes: contextlib.nullcontext())
            model, log = make_model("avt", "subatten"), io.StringIO()
            train(model, clips, musdl_cfg=MUSDL_CFG, sam_cfg=SAM_CFG, epochs=2, batch_size=4, seed=0, log_fh=log)
            runs.append((model.state(), [line.split()[1] for line in log.getvalue().splitlines()]))
        (state, losses), (state_all, losses_all) = runs
        assert losses == losses_all and len(losses) == 2
        differ = {k for k in state if state[k].tobytes() != state_all[k].tobytes()}
        stats = {k for k in state if k.endswith(("running_mean", "running_var"))}
        assert differ == stats and len(stats) == 2 * (3 + 8)


class TestLogging:
    def test_log_line_fields(self):
        stats = EpochStats(
            epoch=3, loss=0.5, clip_accuracy=0.75, female_accuracy=1.0, male_accuracy=0.5,
        )
        parts = stats.log_line().split()
        assert parts == ["3", "0.500000", "0.7500", "1.0000", "0.5000"]

    def test_identical_seeds_identical_logs(self):
        clips = separable_clips(n_per_group=4)
        logs = []
        for _ in range(2):
            fh = io.StringIO()
            train(make_model(seed=9), clips, musdl_cfg=MUSDL_CFG, sam_cfg=SAM_CFG, epochs=3, batch_size=4, seed=4,
                  log_fh=fh)
            logs.append(fh.getvalue())
        assert logs[0] == logs[1]
        assert len(logs[0].strip().splitlines()) == 3


class TestEarlyStop:
    def test_stop_accuracy_halts_first_epoch(self):
        clips = separable_clips(n_per_group=2)
        history = train(make_model(), clips, musdl_cfg=MUSDL_CFG, sam_cfg=SAM_CFG, epochs=50, batch_size=4, seed=0,
                        stop_accuracy=0.0)
        assert len(history) == 1

    def test_empty_clip_list_rejected(self):
        with pytest.raises(EmptyInputError):
            train(make_model(), [], musdl_cfg=MUSDL_CFG, sam_cfg=SAM_CFG, epochs=1, batch_size=16)
        with pytest.raises(EmptyInputError):
            evaluate_clips(make_model(), [], MUSDL_CFG, 16)

    @pytest.mark.parametrize("epochs, batch_size", [(0, 4), (-1, 4), (1, 0)])
    def test_non_positive_epochs_or_batch_rejected(self, epochs, batch_size):
        clips = separable_clips(n_per_group=1)
        with pytest.raises(ConfigError):
            train(make_model(), clips, musdl_cfg=MUSDL_CFG, sam_cfg=SAM_CFG, epochs=epochs, batch_size=batch_size)


class TestEvaluate:
    def test_result_shapes(self, rng):
        clips = [tiny_clip(rng, (i % 4,) * 8, participant_id=f"P{i}") for i in range(5)]
        ev = evaluate_clips(make_model(), clips, MUSDL_CFG, 2)
        assert ev.subscores.shape == (5, 8)
        assert len(ev.records) == 5
        assert ev.report.overall.n == 5
        assert 0.0 <= ev.report.overall.accuracy <= 1.0

    def test_single_gender_leaves_other_nan(self, rng):
        clips = [tiny_clip(rng, (1,) * 8, participant_id=f"P{i}", gender="female") for i in range(3)]
        ev = evaluate_clips(make_model(), clips, MUSDL_CFG, 16)
        assert ev.report.female.n == 3
        assert ev.report.male is None
        fh = io.StringIO()
        history = train(make_model(), clips, musdl_cfg=MUSDL_CFG, sam_cfg=SAM_CFG, epochs=1, batch_size=4, log_fh=fh)
        female, male = fh.getvalue().split()[3:]
        assert not np.isnan(float(female)) and female == f"{history[0].female_accuracy:.4f}"
        assert male == "nan"
        assert np.isnan(history[0].male_accuracy)


class TestComparison:
    def test_fusion_comparison_rows_and_table(self):
        clips = separable_clips(n_per_group=3)
        rows = fusion_comparison(
            clips,
            lambda fusion, modality: make_model(modality=modality, fusion=fusion),
            fusion_modes=("mean", "concat"),
            sam_cfg=SAM_CFG,
            musdl_cfg=MUSDL_CFG,
            modalities=("av",),
            epochs=1,
            batch_size=4,
        )
        assert len(rows) == 2
        assert {r["fusion"] for r in rows} == {"mean", "concat"}
        assert all(r["modality"] == "av" for r in rows)
        for r in rows:
            assert 0.0 <= r["clip_accuracy"] <= 1.0
            assert r["rmse"] >= 0.0

        table = comparison_table(rows)
        lines = table.splitlines()
        assert "fusion" in lines[0] and "rmse" in lines[0]
        assert len(lines) == 4  # header, rule, two data rows
        assert "concat" in table

    def test_each_model_evaluated_once_after_training(self, monkeypatch):
        calls = []
        real = training.evaluate_clips

        def counting(model, *args, **kwargs):
            calls.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(training, "evaluate_clips", counting)
        models = []

        def make(fusion, modality):
            models.append(make_model(modality=modality, fusion=fusion))
            return models[-1]

        clips = separable_clips(n_per_group=2)
        rows = fusion_comparison(clips, make, fusion_modes=("mean", "concat"),
                                 sam_cfg=SAM_CFG, musdl_cfg=MUSDL_CFG, modalities=("a",), epochs=2, batch_size=4)
        # one eval per training epoch; the row reuses the last epoch's, which
        # a fresh eval of the trained weights repeats
        assert [sum(c is m for c in calls) for m in models] == [2, 2]
        for row, model in zip(rows, models):
            ev = real(model, clips, MUSDL_CFG, 4)
            rep = report(clips, ev.records, by_participant=True).overall
            assert row == {"fusion": row["fusion"], "modality": "a", "clip_accuracy": ev.report.overall.accuracy,
                           "f1": rep.f1, "mae": rep.mae, "rmse": rep.rmse}


def mixed_clips_and_records(seed=3):
    """Two clips or three per participant, both genders, random labels and predictions."""
    rng = np.random.default_rng(seed)
    clips, records = [], []
    for p, (gender, n_clips) in enumerate((("male", 3), ("female", 2), ("female", 3), ("male", 2), ("female", 1))):
        for k in range(n_clips):
            clips.append(tiny_clip(rng, tuple(rng.integers(0, 4, size=8)), participant_id=f"P{p}",
                                   gender=gender, clip_index=k))
            records.append(derive_phq(rng.integers(0, 4, size=8)))
    return clips, records


def per_clip_metrics(clips, records):
    """The clip-level formula: metrics over the per-clip binary and score lists."""
    truth = [derive_phq(c.phq_subscores) for c in clips]
    return compute_metrics([r.binary for r in records], [t.binary for t in truth],
                           [r.score for r in records], [t.score for t in truth])


def participant_metrics(clips, records):
    """The participant-level formula: aggregate each participant's truth and predictions by id."""
    by_pid = {}
    for clip, rec in zip(clips, records):
        info = by_pid.setdefault(clip.participant_id, {"gender": clip.gender, "true": [], "pred": []})
        info["true"].append(derive_phq(clip.phq_subscores))
        info["pred"].append(rec)
    truth, preds = [], {}
    for pid in sorted(by_pid):
        info = by_pid[pid]
        truth.append(aggregate_participant(pid, info["gender"], info["true"]))
        agg = aggregate_participant(pid, info["gender"], info["pred"])
        preds[pid] = (agg.binary, agg.score)
    return gender_split_report(truth, preds)


class TestReport:
    def test_clip_level_matches_per_clip_metrics(self):
        clips, records = mixed_clips_and_records()
        rep = report(clips, records)
        assert rep.overall == per_clip_metrics(clips, records)
        for gender in ("female", "male"):
            idx = [i for i, c in enumerate(clips) if c.gender == gender]
            assert getattr(rep, gender) == per_clip_metrics([clips[i] for i in idx], [records[i] for i in idx])

    def test_evaluate_clips_report_is_clip_level(self):
        clips, _ = mixed_clips_and_records()
        ev = evaluate_clips(make_model(), clips, MUSDL_CFG, 4)
        assert ev.report == report(clips, ev.records)
        assert ev.report.overall == per_clip_metrics(clips, ev.records)
        assert ev.report.overall.n == len(clips)

    def test_participant_level_matches_grouped_aggregation(self):
        clips, records = mixed_clips_and_records()
        rep = report(clips, records, by_participant=True)
        assert rep == participant_metrics(clips, records)
        assert (rep.overall.n, rep.female.n, rep.male.n) == (5, 3, 2)


class TestAggregate:
    def test_participant_grouping(self, rng):
        clips = []
        for pid, gender in (("P2", "male"), ("P0", "female"), ("P1", "female")):
            for k in range(2):
                clips.append(tiny_clip(rng, (2,) * 8, participant_id=pid, gender=gender, clip_index=k))
        pred_scores = [4, 6, 12, 14, 9, 12]  # two clips each of P2, P0, P1
        records = [derive_phq([min(3, max(0, s - 3 * i)) for i in range(8)]) for s in pred_scores]
        assert [r.score for r in records] == pred_scores
        rep = report(clips, records, by_participant=True)
        # truth: eight items at 2 apiece, score 16, binary 1, for every participant
        assert (rep.overall.n, rep.female.n, rep.male.n) == (3, 2, 1)
        # P0 votes 1,1 -> 1; P1 votes 0,1 -> no strict majority -> 0; P2 votes 0,0 -> 0
        assert rep.overall.recall == pytest.approx(1 / 3)
        assert rep.female.accuracy == 0.5
        assert rep.male.accuracy == 0.0
        # mean predicted scores 13, 10.5, 5 against 16
        assert rep.female.mae == pytest.approx((3 + 5.5) / 2)
        assert rep.male.mae == pytest.approx(11.0)
        assert rep.overall.mae == pytest.approx((3 + 5.5 + 11) / 3)
