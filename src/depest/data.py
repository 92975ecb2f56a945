"""Dataset layout: manifests, session loading, and on-disk clip bundles.

A manifest is a small CSV naming each participant's label row and the
three modality files. Loading a session pulls the WAV, keypoint text and
embedding text into a SessionFeatures; preprocessing cuts it into
overlapped clips and writes each clip as a bundle directory of tensor
files plus a small metadata text file. Labels read from either file are
checked by ``phq.check_label``; a bad one raises DataError naming the
file. ``map_lanes`` is the one scheduler
that spreads independent items over every available CPU: ``map_sessions``
runs sessions on it in forked processes, and the model runs its branch
forwards and backwards on it in threads.
"""

from __future__ import annotations

import csv
import itertools
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from .config import mel_config, stft_config
from .dsp import read_wav
from .errors import DataError, FormatError
from .features import (
    ClipSample,
    SessionFeatures,
    ingest_embeddings,
    read_keypoints,
    sliding_window_clips,
)
from .phq import N_ITEMS, check_label
from .tensorio import read_tensor, write_tensor

MANIFEST_FIELDS = ["participant_id", "gender"] + [f"s{i}" for i in range(N_ITEMS)] + ["audio", "keypoints", "embeddings"]


@dataclass
class ManifestEntry:
    participant_id: str
    gender: str
    phq_subscores: tuple
    audio_path: Path
    keypoints_path: Path
    embeddings_path: Path

    def __post_init__(self):
        self.phq_subscores = check_label(self.phq_subscores, self.gender)


def write_manifest(path, entries) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        for e in entries:
            writer.writerow(
                [e.participant_id, e.gender]
                + list(e.phq_subscores)
                + [str(e.audio_path), str(e.keypoints_path), str(e.embeddings_path)]
            )


def read_manifest(path) -> list:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest not found or not a file: {path}")
    entries = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(MANIFEST_FIELDS):
            raise FormatError(f"{path}: unexpected manifest header {header}")
        for ln, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != len(MANIFEST_FIELDS):
                raise FormatError(f"{path}:{ln}: expected {len(MANIFEST_FIELDS)} columns, got {len(row)}")
            pid = row[0]
            if pid in seen:
                raise DataError(f"{path}:{ln}: duplicate participant id '{pid}'")
            seen.add(pid)
            items = row[2 : 2 + N_ITEMS]
            audio, keypoints, embeddings = (path.parent / name for name in row[2 + N_ITEMS :])
            try:
                # parsed as numbers; phq decides which numbers are scores (1.5 is a bad label, "one" bad text)
                entries.append(ManifestEntry(pid, row[1], tuple(float(v) for v in items), audio, keypoints, embeddings))
            except ValueError as exc:
                raise FormatError(f"{path}:{ln}: subscores must be numbers, got {items}") from exc
            except DataError as exc:  # a bad label
                raise DataError(f"{path}:{ln}: {exc}") from exc
    if not entries:
        raise DataError(f"{path}: manifest lists no participants")
    return entries


def load_session(entry: ManifestEntry) -> SessionFeatures:
    for p in (entry.audio_path, entry.keypoints_path, entry.embeddings_path):
        if not Path(p).is_file():
            raise DataError(f"missing modality file for {entry.participant_id}: {p}")
    return SessionFeatures(
        audio=read_wav(entry.audio_path),
        frames=read_keypoints(entry.keypoints_path),
        sentences=ingest_embeddings(entry.embeddings_path),
        phq_subscores=entry.phq_subscores,
        participant_id=entry.participant_id,
        gender=entry.gender,
    )


def preprocess_session(entry: ManifestEntry, cfg: dict) -> list:
    """Manifest row -> clip samples under the given run config."""
    session = load_session(entry)
    rate = session.audio.sample_rate_hz
    if rate != cfg["sample_rate"]:
        raise DataError(f"{entry.audio_path}: sampled at {rate} Hz, config sample_rate is {cfg['sample_rate']} Hz")
    return sliding_window_clips(
        session,
        window_s=cfg["clip_window_s"],
        overlap_s=cfg["clip_overlap_s"],
        stft_cfg=stft_config(cfg),
        mel_cfg=mel_config(cfg),
        max_sentences=cfg["max_sentences"],
    )


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_lanes(fn, items, make_pool) -> list:
    """[fn(item) for item in items] on one lane per available CPU.

    The caller runs items ``0::lanes`` and submits each pool lane's first
    item, so a forking ``make_pool(lanes - 1)`` forks before any item runs.
    Each pool lane is then one loop on its own thread with one item in
    flight: it waits for the item, stores the result and submits the next
    of the pool's items, so nothing waits in the pool's queue. Every lane
    checks one error list before it starts an item, so after the first
    error no item starts; that error is raised once every lane thread and
    the pool are joined. Results come back in item order. Measured on 2
    CPUs: with every item in the pool, train_small eval fell from 243 to
    216 clips/s, and with refills only between the caller's items, a
    20-session synth-data took 8.8-10.2 s instead of 7.2-7.5 s.
    """
    items = list(items)
    lanes = min(len(items), _available_cpus())
    if lanes <= 1:
        return [fn(item) for item in items]
    theirs = iter([i for i in range(len(items)) if i % lanes])
    results, errors = [None] * len(items), []

    def lane(i, future):
        try:
            while i is not None:
                results[i] = future.result()
                i = None if errors else next(theirs, None)
                future = None if i is None else pool.submit(fn, items[i])
        except BaseException as exc:
            errors.append(exc)
            future = None  # else the error's traceback holds this frame, which holds the future holding the error

    with make_pool(lanes - 1) as pool:  # joined on the way out, also on error
        threads = [threading.Thread(target=lane, args=(i, pool.submit(fn, items[i]))) for i in itertools.islice(theirs, lanes - 1)]
        for thread in threads:
            thread.start()
        try:
            for i in range(0, len(items), lanes):
                if errors:
                    break
                results[i] = fn(items[i])
            for thread in threads:
                thread.join()
        except BaseException as exc:  # an interrupt while the caller waits too: the lanes stop after their current item
            errors.append(exc)
            for thread in threads:
                thread.join()
    try:
        if errors:
            raise errors[0]
    finally:
        errors = None  # each error's traceback holds a frame that holds this list
    return results


def map_sessions(fn, items) -> list:
    """``map_lanes`` on forked worker processes; serial where there is no fork. fn and each item and result must pickle."""
    if not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # named, not defaulted: Python 3.14 defaults to forkserver, whose workers re-import numpy and depest
    fork = multiprocessing.get_context("fork")
    return map_lanes(fn, items, lambda workers: ProcessPoolExecutor(workers, mp_context=fork))


# -- clip bundles ------------------------------------------------------


def write_clip_bundle(bundle_dir, clip: ClipSample) -> None:
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    write_tensor(bundle_dir / "audio.mft", clip.audio)
    write_tensor(bundle_dir / "visual.mft", clip.visual)
    write_tensor(bundle_dir / "text.mft", clip.text)
    with open(bundle_dir / "meta.txt", "w") as fh:
        fh.write(f"participant_id {clip.participant_id}\n")
        fh.write(f"gender {clip.gender}\n")
        fh.write("subscores " + " ".join(str(s) for s in clip.phq_subscores) + "\n")
        fh.write(f"clip_index {clip.clip_index}\n")
        fh.write(f"start_s {clip.start_s:.8g}\n")


def read_clip_bundle(bundle_dir) -> ClipSample:
    bundle_dir = Path(bundle_dir)
    meta = {}
    meta_path = bundle_dir / "meta.txt"
    if not meta_path.exists():
        raise DataError(f"not a clip bundle (no meta.txt): {bundle_dir}")
    with open(meta_path) as fh:
        for line in fh:
            key, _, rest = line.strip().partition(" ")
            meta[key] = rest
    try:
        return ClipSample(
            audio=read_tensor(bundle_dir / "audio.mft"),
            visual=read_tensor(bundle_dir / "visual.mft"),
            text=read_tensor(bundle_dir / "text.mft"),
            phq_subscores=tuple(float(v) for v in meta["subscores"].split()),
            participant_id=meta["participant_id"],
            gender=meta["gender"],
            clip_index=int(meta["clip_index"]),
            start_s=float(meta["start_s"]),
        )
    except KeyError as exc:
        raise FormatError(f"{meta_path}: missing metadata key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{meta_path}: malformed number: {exc}") from exc
    except DataError as exc:  # a bad label or a non-finite value
        raise DataError(f"{meta_path}: {exc}") from exc


def write_clips(out_dir, clips) -> list:
    """One bundle per clip: <out_dir>/<participant>_c<k>/; returns dirs."""
    out_dir = Path(out_dir)
    dirs = []
    for clip in clips:
        d = out_dir / f"{clip.participant_id}_c{clip.clip_index:04d}"
        write_clip_bundle(d, clip)
        dirs.append(d)
    return dirs


def read_clips(root) -> list:
    """Load every bundle directory under root, sorted by name."""
    root = Path(root)
    if not root.exists():
        raise DataError(f"clip directory not found: {root}")
    dirs = sorted(p for p in root.iterdir() if p.is_dir() and (p / "meta.txt").exists())
    if not dirs:
        raise DataError(f"no clip bundles under {root}")
    return [read_clip_bundle(d) for d in dirs]
