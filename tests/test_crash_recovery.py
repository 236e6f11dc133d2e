"""Every write boundary of a replay-mode run, interrupted, then rerun, gives a
fresh run's files.

A run's write boundaries are its `os.replace` calls: `fileio.atomic_write`
renames each stage file and manifest into place.  For every k, the k-th call
of a run fails once before and once after its rename, as a process stopped
there would.  A plain rerun must then give the stage files and manifest
counts of a fresh `force=True` run, and no temp file may be left.  These are
process-level faults only; nothing here models a power loss.
"""

import json
import os
from dataclasses import replace

import pytest

from eventframes.fileio import atomic_write
from eventframes.pipeline import STAGE_TABLE, PipelineConfig, read_config, run_stage

from synthetic import build_workspace
from test_golden import write_tables


class Crash(BaseException):
    """Raised at a write boundary; like KeyboardInterrupt, no handler in the
    pipeline catches it."""


def fault_at(k: int | None, after: bool):
    """An os.replace that fails at its k-th call, before or after renaming,
    and the list of the calls it saw."""
    calls = []
    real = os.replace

    def faulty(src, dst):
        calls.append(dst)
        if len(calls) == k and not after:
            raise Crash(f"before replace {k}")
        real(src, dst)
        if len(calls) == k:
            raise Crash(f"after replace {k}")

    return faulty, calls


def outcome(out):
    """The files under out, each stage file's bytes and each manifest's counts."""
    names = sorted(p.name for p in out.iterdir())
    files = {s.file: (out / s.file).read_bytes() for s in STAGE_TABLE.values()}
    counts = {
        name: json.loads((out / name).read_text("utf-8"))["counts"]
        for name in names
        if name.endswith(".manifest.json")
    }
    return names, files, counts


def check_every_boundary(monkeypatch, root, corpus, start_cfg, cfg):
    """Interrupt run_stage("all", cfg) at each write boundary, in a workspace
    that start_cfg has run (an empty one if it is None), and check each rerun
    against a fresh force=True run of cfg.  Each case runs start_cfg in its
    own directory: manifests record absolute paths, so a copy would not be up
    to date."""

    def start(out):
        out.mkdir()
        if start_cfg is not None:
            run_stage("all", start_cfg, out, input_path=corpus)

    run_stage("all", cfg, root / "fresh", input_path=corpus, force=True)
    fresh = outcome(root / "fresh")
    counting, calls = fault_at(None, after=False)
    start(root / "count")
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", counting)
        run_stage("all", cfg, root / "count", input_path=corpus)
    assert calls, "the run writes nothing"

    for k in range(1, len(calls) + 1):
        for after in (False, True):
            where = f"{'after' if after else 'before'} replace {k} of {len(calls)}"
            out = root / f"k{k}-{'after' if after else 'before'}"
            start(out)
            faulty, _ = fault_at(k, after)
            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", faulty)
                with pytest.raises(Crash):
                    run_stage("all", cfg, out, input_path=corpus)
            left = [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
            assert left == [], f"temp files left by a crash {where}"
            try:
                run_stage("all", cfg, out, input_path=corpus)
            except Exception as exc:
                raise AssertionError(f"the rerun after a crash {where} failed: {exc}") from exc
            assert outcome(out) == fresh, f"the rerun after a crash {where} differs"


@pytest.fixture()
def workspace(tmp_path):
    paths = build_workspace(tmp_path / "ws")
    return paths["corpus"], PipelineConfig.from_dict(read_config(paths["config"])), tmp_path


def edited(cfg, section, key, value):
    data = cfg.to_dict()
    data[section][key] = value
    return PipelineConfig.from_dict(data)


# Each case's (start config, interrupted config), from the workspace's config
# and its root directory.
CASES = {
    "cold": lambda cfg, root: (None, cfg),
    "threshold-edit": lambda cfg, root: (cfg, edited(cfg, "scoring", "threshold", 0.3)),
    "lambda3-edit": lambda cfg, root: (cfg, edited(cfg, "graph", "lambda3", 2.5)),
    "repeats-3": lambda cfg, root: (None, edited(cfg, "evaluation", "repeats", 3)),
    "three-backends": lambda cfg, root: (
        None, PipelineConfig.from_dict({**cfg.to_dict(), "similarity": write_tables(root)})
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_rerun_after_any_crash_equals_a_fresh_run(workspace, monkeypatch, case):
    corpus, cfg, root = workspace
    check_every_boundary(monkeypatch, root, corpus, *CASES[case](cfg, root))


def manifest_first(stage):
    """The stage with a planted bug: before it runs, its old manifest is
    rewritten under the new stage key, so a crash before its stage file is
    renamed leaves a manifest that vouches for the old file."""

    def run(ctx):
        path = ctx.out_dir / f"{stage.name}.manifest.json"
        manifest = json.loads(path.read_text("utf-8")) if path.exists() else {}
        with atomic_write(path) as handle:
            json.dump({**manifest, "config_hash": ctx.cfg.stage_keys[stage.name]}, handle)
        return stage.run(ctx)

    return replace(stage, run=run)


def test_the_harness_catches_a_manifest_written_before_its_stage_file(workspace, monkeypatch):
    corpus, cfg, root = workspace
    for name, stage in list(STAGE_TABLE.items()):
        monkeypatch.setitem(STAGE_TABLE, name, manifest_first(stage))
    with pytest.raises(AssertionError, match="the rerun after a crash"):
        check_every_boundary(monkeypatch, root, corpus, *CASES["threshold-edit"](cfg, root))
