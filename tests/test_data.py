"""Manifests, session loading, and on-disk clip bundles."""

import concurrent.futures
import filecmp
import gc
import hashlib
import os
import re
import sys
import threading
import time
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_clip
from depest import data
from depest.cli import main
from depest.data import (
    ManifestEntry,
    map_sessions,
    preprocess_session,
    read_clip_bundle,
    read_clips,
    read_manifest,
    write_clip_bundle,
    write_clips,
    write_manifest,
)
from depest.config import parse_config
from depest.errors import ConfigError, DataError, FormatError
from depest.synthetic import generate_synthetic_corpus


def entry(pid="P000", gender="female", subs=(1, 0, 2, 0, 1, 0, 0, 3)):
    return ManifestEntry(
        participant_id=pid,
        gender=gender,
        phq_subscores=subs,
        audio_path=Path(f"{pid}/audio.wav"),
        keypoints_path=Path(f"{pid}/keypoints.txt"),
        embeddings_path=Path(f"{pid}/embeddings.txt"),
    )


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.csv"
        entries = [entry("P000", "female"), entry("P001", "male", (3,) * 8)]
        write_manifest(path, entries)
        back = read_manifest(path)
        assert len(back) == 2
        assert back[0].participant_id == "P000"
        assert back[1].phq_subscores == (3,) * 8
        # stored paths are relative; loaded ones hang off the manifest dir
        assert back[0].audio_path == tmp_path / "P000/audio.wav"

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not a file"):
            read_manifest(tmp_path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, [entry("P000"), entry("P000", "male")])
        with pytest.raises(DataError):
            read_manifest(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,gender\nP0,female\n")
        with pytest.raises(FormatError):
            read_manifest(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, [entry()])
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\nP001,male,0,0\n")
        with pytest.raises(FormatError):
            read_manifest(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, [])
        with pytest.raises(DataError):
            read_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_manifest(tmp_path / "nope.csv")

    def test_non_integer_subscore_rejected_with_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, [entry("P000"), entry("P001")])
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("P001,female,1,", "P001,female,one,")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"{path}:3:"):
            read_manifest(path)

    def test_bad_gender_rejected(self):
        with pytest.raises(DataError):
            entry(gender="other")

    def test_bad_subscores_rejected(self):
        with pytest.raises(DataError):
            entry(subs=(4, 0, 0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("score", ["4", "1.5", "nan"])
    def test_bad_label_in_manifest_names_the_line(self, tmp_path, score):
        path = tmp_path / "manifest.csv"
        write_manifest(path, [entry("P000"), entry("P001")])
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("P001,female,1,", f"P001,female,{score},")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: need 8 whole item subscores")):
            read_manifest(path)


class TestClipBundles:
    def test_round_trip(self, tmp_path, rng):
        clip = tiny_clip(rng, (1, 0, 2, 0, 1, 0, 0, 3), participant_id="P007", gender="male", clip_index=4)
        clip.start_s = 200.0
        write_clip_bundle(tmp_path / "b", clip)
        back = read_clip_bundle(tmp_path / "b")
        assert back.participant_id == "P007"
        assert back.gender == "male"
        assert back.clip_index == 4
        assert back.start_s == 200.0
        assert back.phq_subscores == clip.phq_subscores
        # clips and storage are both float32, so the round trip is exact
        np.testing.assert_array_equal(back.audio, clip.audio)
        np.testing.assert_array_equal(back.visual, clip.visual)
        np.testing.assert_array_equal(back.text, clip.text)

    def test_write_read_write_gives_identical_files(self, tmp_path, rng):
        write_clip_bundle(tmp_path / "a", tiny_clip(rng, (1, 0, 2, 0, 1, 0, 0, 3)))
        write_clip_bundle(tmp_path / "b", read_clip_bundle(tmp_path / "a"))
        names = ["audio.mft", "visual.mft", "text.mft", "meta.txt"]
        assert filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False) == (names, [], [])

    def test_missing_meta_rejected(self, tmp_path):
        (tmp_path / "b").mkdir()
        with pytest.raises(DataError):
            read_clip_bundle(tmp_path / "b")

    def test_incomplete_meta_rejected(self, tmp_path, rng):
        clip = tiny_clip(rng, (0,) * 8)
        write_clip_bundle(tmp_path / "b", clip)
        meta = tmp_path / "b" / "meta.txt"
        meta.write_text("participant_id P000\n")
        with pytest.raises(FormatError):
            read_clip_bundle(tmp_path / "b")

    def test_malformed_number_in_meta_rejected(self, tmp_path, rng):
        write_clip_bundle(tmp_path / "b", tiny_clip(rng, (0,) * 8))
        meta = tmp_path / "b" / "meta.txt"
        meta.write_text(meta.read_text().replace("clip_index 0", "clip_index zero"))
        with pytest.raises(FormatError, match="meta.txt"):
            read_clip_bundle(tmp_path / "b")

    def test_gender_outside_genders_in_meta_rejected(self, tmp_path, rng):
        dirs = write_clips(tmp_path, [tiny_clip(rng, (0,) * 8, clip_index=k) for k in range(2)])
        meta = dirs[1] / "meta.txt"
        meta.write_text(meta.read_text().replace("gender female\n", "gender Female\n"))
        with pytest.raises(DataError, match=re.escape(f"{meta}: gender must be one of female, male, got 'Female'")):
            read_clips(tmp_path)

    def test_half_score_in_meta_rejected_not_truncated(self, tmp_path, rng):
        write_clip_bundle(tmp_path / "b", tiny_clip(rng, (0,) * 8))
        meta = tmp_path / "b" / "meta.txt"
        meta.write_text(meta.read_text().replace("subscores 0 0", "subscores 0 1.5"))
        with pytest.raises(DataError, match=re.escape(f"{meta}: need 8 whole item subscores")):
            read_clip_bundle(tmp_path / "b")

    def test_whole_scores_written_as_reals_in_meta_are_read(self, tmp_path, rng):
        write_clip_bundle(tmp_path / "b", tiny_clip(rng, (1, 0, 2, 0, 1, 0, 0, 3)))
        meta = tmp_path / "b" / "meta.txt"
        meta.write_text(meta.read_text().replace("subscores 1 0 2", "subscores 1.0 0 2e0"))
        assert read_clip_bundle(tmp_path / "b").phq_subscores == (1, 0, 2, 0, 1, 0, 0, 3)

    def test_read_clips_gives_float32(self, tmp_path, rng):
        write_clips(tmp_path, [tiny_clip(rng, (0,) * 8)])
        (back,) = read_clips(tmp_path)
        assert (back.audio.dtype, back.visual.dtype, back.text.dtype) == (np.float32,) * 3

    def test_write_clips_layout_and_order(self, tmp_path, rng):
        clips = [
            tiny_clip(rng, (0,) * 8, participant_id="P001", clip_index=1),
            tiny_clip(rng, (0,) * 8, participant_id="P001", clip_index=0),
            tiny_clip(rng, (0,) * 8, participant_id="P000", clip_index=0),
        ]
        dirs = write_clips(tmp_path, clips)
        assert [d.name for d in dirs] == ["P001_c0001", "P001_c0000", "P000_c0000"]
        back = read_clips(tmp_path)
        # read side sorts by directory name
        assert [(c.participant_id, c.clip_index) for c in back] == [
            ("P000", 0), ("P001", 0), ("P001", 1)
        ]

    def test_read_clips_missing_dir_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_clips(tmp_path / "nope")

    def test_read_clips_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_clips(tmp_path)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_synthetic_corpus(root, n_participants=2, seed=4, duration_s=70.0)
    return read_manifest(manifest)


class TestPreprocess:
    def test_clip_shapes(self, corpus):
        cfg = parse_config()
        clips = preprocess_session(corpus[0], cfg)
        assert len(clips) == 1  # 70 s holds one 60 s window at stride 50
        c = clips[0]
        assert c.audio.shape == (80, 1800)
        assert c.visual.shape == (1800, 72, 3)
        assert c.text.shape == (32, 512)
        assert c.participant_id == corpus[0].participant_id

    def test_deterministic_bundles(self, corpus, tmp_path):
        cfg = parse_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_clips(a, preprocess_session(corpus[0], cfg))
        write_clips(b, preprocess_session(corpus[0], cfg))
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def with_pid(item):
    return item, os.getpid()


def mark_or_fail(item, *, bad, marks):
    if item == bad:
        raise ConfigError(f"session {item} failed")
    time.sleep(0.2)
    (marks / str(item)).touch()
    return item


def map_on_threads(fn, items):
    return data.map_lanes(fn, items, concurrent.futures.ThreadPoolExecutor)


class TestMapSessions:
    def test_pool_writes_the_in_process_trees(self, tmp_path, monkeypatch):
        # an odd session count, so the caller's share (P000, P002) and the worker's (P001) differ
        digests = {}
        for cpus in (2, 1):
            monkeypatch.setattr(data, "_available_cpus", lambda n=cpus: n)
            raw, clips = tmp_path / f"cpus{cpus}" / "raw", tmp_path / f"cpus{cpus}" / "clips"
            assert main(["synth-data", "--out-dir", str(raw), "--participants", "3", "--duration-s", "70", "--seed", "6"]) == 0
            assert main(["preprocess", "--manifest", str(raw / "manifest.csv"), "--out-dir", str(clips)]) == 0
            digests[cpus] = tree_digest(raw), tree_digest(clips)
        assert len(list((tmp_path / "cpus2" / "clips").iterdir())) == 3
        assert digests[2] == digests[1]

    @pytest.mark.parametrize("cpus, n_items, pools", [(1, 4, []), (4, 1, []), (3, 2, [1]), (2, 5, [1]), (4, 7, [3])])
    def test_one_process_per_extra_cpu_and_caller_takes_its_share(self, monkeypatch, cpus, n_items, pools):
        started = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(data, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        out = map_sessions(with_pid, range(n_items))
        assert started == pools
        assert [item for item, _ in out] == list(range(n_items))
        workers = min(cpus, n_items)
        assert [item for item, pid in out if pid == os.getpid()] == list(range(0, n_items, workers))

    def test_thread_lanes_run_each_item_once_in_order(self, monkeypatch):
        # more lanes than a 2-CPU machine has cores and a short switch
        # interval, so the pool lanes' loops and the caller interleave often
        monkeypatch.setattr(data, "_available_cpus", lambda: 4)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = map_on_threads(lambda i: calls.append(i) or i * i, range(300))
        finally:
            sys.setswitchinterval(interval)
        assert out == [i * i for i in range(300)]
        assert sorted(calls) == list(range(300))

    @pytest.mark.parametrize(
        "cpus, bad",
        [(2, ()), (2, (0,)), (2, (1,)), (4, (1, 2))],
        ids=["no-error", "caller-fails", "worker-fails", "two-workers-fail-on-4-cpus"],
    )
    def test_items_die_with_their_last_reference(self, monkeypatch, cpus, bad):
        # a model forward's items are its batch inputs: no reference cycle may
        # keep them alive until the cyclic collector runs
        monkeypatch.setattr(data, "_available_cpus", lambda: cpus)
        items = [np.full(4, float(i)) for i in range(6)]
        refs = [weakref.ref(a) for a in items]

        def fn(a):
            if a[0] in bad:
                time.sleep(0.05)  # the other lanes' results are stored meanwhile
                raise ConfigError(f"session {a[0]:g} failed")
            return a

        gc.collect()
        gc.disable()
        try:
            try:
                out = map_on_threads(fn, items)
            except ConfigError:
                assert bad
            else:
                assert not bad and [o[0] for o in out] == list(range(6))
                del out
            del items
            assert [r() is None for r in refs] == [True] * 6
        finally:
            gc.enable()

    def test_caller_submits_each_pool_lanes_first_item_before_its_own(self, monkeypatch):
        # map_sessions relies on this: a forking pool forks on its first
        # submit, which must come before any item runs and any lane thread starts
        monkeypatch.setattr(data, "_available_cpus", lambda: 3)
        caller = threading.current_thread()
        events = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, item):
                events.append(("submit", item, threading.current_thread() is caller))
                return super().submit(fn, item)

        def fn(item):
            events.append(("run", item, threading.current_thread() is caller))
            return item

        assert data.map_lanes(fn, range(9), Recording) == list(range(9))
        submits = [(item, by_caller) for kind, item, by_caller in events if kind == "submit"]
        # 3 lanes: the caller runs 0, 3 and 6, and the pool lanes 1, 2, 4, 5, 7 and 8
        assert submits[:2] == [(1, True), (2, True)]
        assert sorted(submits[2:]) == [(4, False), (5, False), (7, False), (8, False)]
        assert events.index(("run", 0, True)) > max(events.index(("submit", i, True)) for i in (1, 2))

    @pytest.mark.parametrize(
        "bad, run",
        [(0, map_sessions), (1, map_sessions), (0, map_on_threads), (1, map_on_threads)],
        ids=["caller-fails", "worker-fails", "thread-caller-fails", "thread-worker-fails"],
    )
    def test_first_error_cancels_sessions_not_started(self, tmp_path, monkeypatch, bad, run):
        monkeypatch.setattr(data, "_available_cpus", lambda: 2)
        with pytest.raises(ConfigError, match=f"session {bad} failed") as info:
            run(partial(mark_or_fail, bad=bad, marks=tmp_path), range(20))
        assert info.value.exit_code == 1
        # run to the end, 19 sessions would leave a mark; after the error no
        # session starts, so only the one running on the other lane may
        assert {p.name for p in tmp_path.iterdir()} <= {str(1 - bad)}
