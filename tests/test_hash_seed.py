"""Output does not depend on PYTHONHASHSEED: demo 04's stdout and the stage
files of `eventframes all` on the synthetic workspace, each from runs under
two hash seeds.  Under seeds 0 and 1 a set's iteration order differs for the
demo's slot names."""

import os
import subprocess
import sys
from pathlib import Path

from eventframes.pipeline import STAGE_TABLE

from synthetic import build_workspace

ROOT = Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "1")


def run_python(args: list[str], hash_seed: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demo_04_prints_the_same_under_any_hash_seed():
    demo = str(ROOT / "demos" / "04_slot_scoring.py")
    outputs = [run_python([demo], seed, ROOT) for seed in HASH_SEEDS]
    assert outputs[0] == outputs[1]


def test_stage_files_are_the_same_under_any_hash_seed(tmp_path):
    workspace = build_workspace(tmp_path / "ws")["config"].parent
    files = []
    for seed in HASH_SEEDS:
        out = tmp_path / f"out-{seed}"
        run_python(
            ["-m", "eventframes.cli", "all", "--config", "config.json",
             "--input", "corpus.jsonl", "--output", str(out)],
            seed,
            workspace,
        )
        files.append({s.file: (out / s.file).read_bytes() for s in STAGE_TABLE.values()})
    assert files[0] == files[1]
