"""The README's library quickstart runs as written, and its configuration
defaults are the config's own."""

import json
import re
from pathlib import Path

from eventframes.pipeline import PipelineConfig

from synthetic import PLANTED, build_workspace

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs_in_a_synthetic_workspace(tmp_path, monkeypatch, capsys):
    build_workspace(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(quickstart(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split(",")[0] for line in lines) == [f"Type: {t}" for t in sorted(PLANTED)]


def test_documented_config_defaults_are_the_defaults():
    section = README.read_text(encoding="utf-8").split("### Configuration", 1)[1]
    documented = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert documented == json.loads(json.dumps(PipelineConfig().to_dict()))
