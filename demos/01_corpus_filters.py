"""Load a small corpus and watch the length/numeric filters work.

Run from the repo root:  python3 demos/01_corpus_filters.py
"""

import json
import tempfile
from pathlib import Path

from eventframes.corpus import CorpusFilterConfig, load_corpus, tokenize

lines = [
    "Rebels attacked the village at dawn",
    "More than 35,000 people fled the region",
    "1 2 3 4 5 6",                      # numeric ratio 1.0 -> dropped
    " ".join(["token"] * 300),          # 300 tokens -> dropped
    "",                                 # blank -> dropped
    "The president resigned yesterday",
]

print("tokenization:")
print("  space-delimited:", tokenize("More than 35,000 people fled"))
print("  character mode :", tokenize("三人死亡", "character"))
print()

with tempfile.TemporaryDirectory() as tmp:
    corpus_path = Path(tmp) / "corpus.txt"
    corpus_path.write_text("\n".join(lines), encoding="utf-8")

    cfg = CorpusFilterConfig(max_tokens=256, max_numeric_ratio=0.25)
    expressions, report = load_corpus(corpus_path, cfg=cfg)

print("kept expressions:")
for expr in expressions:
    print(f"  {expr.id}: {expr.text!r} ({len(tokenize(expr.text))} tokens)")
print()
print("load report:")
print(json.dumps(report.as_dict(), indent=2))
