"""Training loop: overfit sanity, SGD equivalence, logs, early stops."""

import io

import numpy as np
import pytest

from conftest import tiny_clip
from depest import autodiff as ad
from depest import training
from depest.errors import EmptyInputError
from depest.model import BranchConfig, ModelConfig, MultiModalClassifier, batch_inputs
from depest.musdl import MusdlConfig, kl_rows
from depest.sam import SamConfig
from depest.sampling import compute_sampler_weights, draw_indices
from depest.training import (
    EpochStats,
    aggregate_predictions,
    comparison_table,
    evaluate_clips,
    fusion_comparison,
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


class TestLogging:
    def test_log_line_fields(self):
        stats = EpochStats(
            epoch=3, loss=0.5, clip_accuracy=0.75,
            subscore_accuracy=np.zeros(8), female_accuracy=1.0, male_accuracy=0.5,
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


class TestEvaluate:
    def test_result_shapes(self, rng):
        clips = [tiny_clip(rng, (i % 4,) * 8, participant_id=f"P{i}") for i in range(5)]
        ev = evaluate_clips(make_model(), clips, MUSDL_CFG, 2)
        assert ev.subscores.shape == (5, 8)
        assert len(ev.records) == 5
        assert 0.0 <= ev.clip_accuracy <= 1.0
        assert ev.subscore_accuracy.shape == (8,)

    def test_single_gender_leaves_other_nan(self, rng):
        clips = [tiny_clip(rng, (1,) * 8, participant_id=f"P{i}", gender="female") for i in range(3)]
        ev = evaluate_clips(make_model(), clips, MUSDL_CFG, 16)
        assert not np.isnan(ev.female_accuracy)
        assert np.isnan(ev.male_accuracy)


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

        fusion_comparison(separable_clips(n_per_group=2), make, fusion_modes=("mean", "concat"),
                          sam_cfg=SAM_CFG, musdl_cfg=MUSDL_CFG, modalities=("a",), epochs=1, batch_size=4)
        # one eval per training epoch, then one shared by the accuracy and participant metrics
        assert [sum(c is m for c in calls) for m in models] == [2, 2]


class TestAggregate:
    def test_participant_grouping(self, rng):
        clips = []
        for pid, gender in (("P2", "male"), ("P0", "female"), ("P1", "female")):
            for k in range(2):
                clips.append(tiny_clip(rng, (2,) * 8, participant_id=pid, gender=gender, clip_index=k))
        truth, preds = aggregate_predictions(make_model(), clips, MUSDL_CFG, 16)
        assert [r.participant_id for r in truth] == ["P0", "P1", "P2"]
        assert set(preds) == {"P0", "P1", "P2"}
        for r in truth:
            assert r.score == 16  # eight items at 2 apiece
            assert r.binary == 1
        for binary, score in preds.values():
            assert binary in (0, 1)
            assert 0.0 <= score <= 24.0
