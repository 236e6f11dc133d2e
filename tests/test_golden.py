"""Golden digests: the sha256 of every stage-file body that `run_stage("all")`
writes for the synthetic workspace, committed here so that every Python and
numpy version checks the same bytes.  A change that alters output on purpose
updates DIGESTS and says so in CHANGES.md.

A body leaves out what depends on the config hash (the header line of a
.jsonl stage file, config_hash in metrics.json), as perfbench's
digest(skip_header=True) does.  Each expression's `source` holds the corpus
path, so the runs use a relative input path from inside the workspace.
"""

import hashlib
import json
from pathlib import Path

import pytest

from eventframes.pipeline import STAGE_TABLE, PipelineConfig, run_stage

from synthetic import build_workspace

LEXICON = [
    ["attacker", "assailant"],
    ["victim", "casualty", "target"],
    ["site", "venue", "place"],
    ["winner", "victor"],
    ["bride", "groom", "spouse"],
]
# Every token of the synthetic corpus and slot inventory except the
# election objects and "ballot", "margin" and "officiant", which stay
# uncovered and so score lexically.
EMBEDDED = [
    "rebels", "attack", "village", "convoy", "outpost", "garrison", "bridge", "checkpoint",
    "barracks", "depot", "tower", "harbor", "voters", "election", "couples", "marriage",
    "chapel", "garden", "ballroom", "courthouse", "beach", "vineyard", "temple", "manor",
    "terrace", "pavilion", "attacker", "victim", "weapon", "site", "winner", "rival", "bride",
    "groom", "venue",
]


def write_tables(root: Path) -> dict:
    """A lexicon and a 5-d vector table; the similarity section reading them."""
    (root / "lexicon.tsv").write_text(
        "".join("\t".join(group) + "\n" for group in LEXICON), encoding="utf-8"
    )
    lines = []
    for i, token in enumerate(EMBEDDED):
        vector = [((i * 7 + j * 5) % 13 - 6) / 3.0 + 0.1 * j for j in range(5)]
        lines.append(" ".join([token, *map(repr, vector)]) + "\n")
    (root / "vectors.txt").write_text("".join(lines), encoding="utf-8")
    return {
        "backends": [
            {"kind": "lexical"},
            {"kind": "lexicon", "path": str(root / "lexicon.tsv")},
            {"kind": "embedding", "path": str(root / "vectors.txt")},
        ],
        "weights": [0.5, 0.3, 0.2],
    }


def body_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        record = json.loads(data)
        record.pop("config_hash")
        data = json.dumps(record, sort_keys=True).encode("utf-8")
    else:
        data = data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


def run_variant(variant: str, root: Path, monkeypatch) -> dict[str, str]:
    paths = build_workspace(root)
    data = json.loads(paths["config"].read_text(encoding="utf-8"))
    if variant == "repeats-3":
        data["evaluation"]["repeats"] = 3
    elif variant == "three-backend":
        data["similarity"] = write_tables(root)
    monkeypatch.chdir(root)
    run_stage("all", PipelineConfig.from_dict(data), "out", input_path="corpus.jsonl")
    return {stage.file: body_digest(root / "out" / stage.file) for stage in STAGE_TABLE.values()}


DIGESTS = {
    "repeats-1": {
        "conceptualized.jsonl": "e96031aadafcb0e5f2a5d6e01c4e4efbc5dea1722cd56ea3bb5bd26c0698b345",
        "expressions.jsonl": "4244ef2127b7c58fc65cebfa073cff178a441a7b33c51b3ed2f194579f0c2df1",
        "metrics.json": "3af2f0fb09f655063b6febaf38e7a0efd6166e3398a8055de8b45f0067e4d45b",
        "schemas.jsonl": "c28def1d07d12c137276c3c73bca88ede40c6d50ce2221b6ce5f7e074e6f9cca",
        "structured.jsonl": "ad9ff1775af2c4b4e0820e5d17cc917a0c2efd2d92a70cefd595ff657f5e7342",
    },
    "repeats-3": {
        "conceptualized.jsonl": "e96031aadafcb0e5f2a5d6e01c4e4efbc5dea1722cd56ea3bb5bd26c0698b345",
        "expressions.jsonl": "4244ef2127b7c58fc65cebfa073cff178a441a7b33c51b3ed2f194579f0c2df1",
        "metrics.json": "3229017477518bac444efcc1c5b040bc23fdc01a0c959e5410553c6b303dc7b3",
        "schemas.jsonl": "c28def1d07d12c137276c3c73bca88ede40c6d50ce2221b6ce5f7e074e6f9cca",
        "structured.jsonl": "ad9ff1775af2c4b4e0820e5d17cc917a0c2efd2d92a70cefd595ff657f5e7342",
    },
    "three-backend": {
        "conceptualized.jsonl": "e96031aadafcb0e5f2a5d6e01c4e4efbc5dea1722cd56ea3bb5bd26c0698b345",
        "expressions.jsonl": "4244ef2127b7c58fc65cebfa073cff178a441a7b33c51b3ed2f194579f0c2df1",
        "metrics.json": "3af2f0fb09f655063b6febaf38e7a0efd6166e3398a8055de8b45f0067e4d45b",
        "schemas.jsonl": "1eb4d9a23ef7f6683ac89ff36e0573510da93e1c4ddb1ec0abc461c86ba7cca0",
        "structured.jsonl": "f125a2a6bbca2fc9dcf4a4b586f6c96286e49cb8653ed07637b5532b73c88a63",
    },
}


class TestGoldenDigests:
    @pytest.mark.parametrize("variant", sorted(DIGESTS))
    def test_stage_file_bodies(self, variant, tmp_path, monkeypatch):
        assert run_variant(variant, tmp_path / "ws", monkeypatch) == DIGESTS[variant]
