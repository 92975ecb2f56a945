"""Smoke test of the benchmark at its smallest size.

    python3 perfbench/smoke.py

Run from the root of a depest source tree; takes well under a minute.
Checks that every workload, untraced and traced, emits exactly the
metrics BENCHMARK.json names, with valid names and the listed units;
that a corrupt keypoint file in ingest is counted as a failed operation
without ending the run; and that the benchmark refuses to run, without
printing a result, from a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(root: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "1", "--smoke", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], sorted(res)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    return res


def check_metrics(res: dict, declared: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = res["metrics"]
    assert set(got) == set(want), f"{label}: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for name, entry in got.items():
        assert NAME.match(name), f"{label}: bad metric name {name!r}"
        assert UNIT.match(entry["unit"]) and entry["unit"] == want[name], f"{label}: {name} unit {entry['unit']!r}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {name} value {entry['value']!r}"


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{w['name']} --trace {trace}"
            res = result(bench(root, "--workload", w["name"], "--trace", trace))
            assert res["correct"] and res["failed"] == 0, f"{label}: {res['correct']=} {res['failed']=}"
            check_metrics(res, declared, label)
            if trace == "0":
                for m in spec["end_to_end"]:
                    assert res["metrics"][m["name"]]["value"] > 0, f"{label}: {m['name']} is not positive"
            print(f"ok  {label}")

    res = result(bench(root, "--workload", "ingest", "--trace", "0", "--corrupt-keypoints"))
    assert res["correct"] and res["failed"] >= 1, f"corrupt keypoints: {res['correct']=} {res['failed']=}"
    print(f"ok  ingest with a corrupt keypoint file: {res['failed']} of {res['attempted']} operations failed")

    bare = root / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for p in spec["paths"]:
            shutil.copytree(root / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = bench(bare, "--workload", "ingest", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), f"bare directory: exit {proc.returncode}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if bare.parent.is_dir() and not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    print("ok  refuses to run without a source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
