"""Slot confidence scoring: salience, reliability, consistency, threshold.

Run from the repo root:  python3 demos/04_slot_scoring.py
"""

from eventframes.conceptualize import ConceptualizedInstance
from eventframes.corpus import EventExpression
from eventframes.schemas import SchemaCandidate
from eventframes.scoring import (
    ScoringConfig,
    collect_slot_set,
    global_slot_frequencies,
    reliability,
    salience,
    structuralize,
)
from eventframes.similarity import default_ensemble


def make_instance(expr_id, text, candidates):
    return ConceptualizedInstance(
        EventExpression.from_text(expr_id, text),
        tuple(SchemaCandidate.create(t, s) for t, s in candidates),
    )


# three generations for one expression; "person" shows up everywhere in the
# corpus below, so its IDF (and salience) will collapse
target = make_instance(
    "e0",
    "rebels attack the village",
    [
        ("attack", ["attacker", "victim", "person"]),
        ("attack", ["attacker", "weapon", "person"]),
        ("attack", ["attacker", "victim"]),
    ],
)
background = [
    make_instance("e1", "voters elect the mayor", [("elect", ["winner", "person"])] * 3),
    make_instance("e2", "couples marry in spring", [("marry", ["bride", "person"])] * 3),
    make_instance("e3", "workers strike again", [("strike", ["union", "person"])] * 3),
]
corpus = [target] + background

slot_set = collect_slot_set(target)
print("slot frequencies within the instance:", dict(slot_set.freq))

totals, size = global_slot_frequencies([collect_slot_set(inst) for inst in corpus])
print("corpus-wide totals:", totals, "instances:", size)
print()

print("salience (TF-IDF style, can go negative):")
for slot in sorted(slot_set.freq):
    value = salience(slot_set.freq[slot], totals[slot], size)
    print(f"  {slot:<10} freq={slot_set.freq[slot]} total={totals[slot]}  salience={value:+.3f}")
print()

print("reliability (PageRank over slot co-occurrence):")
for slot, value in sorted(reliability(slot_set).items()):
    print(f"  {slot:<10} {value:.3f}")
print()

structured = structuralize(corpus, ScoringConfig(), default_ensemble())
result = structured[0]
print(f"structured instance: type={result.event_type!r} "
      f"(type consistency {result.type_consistency:.3f})")
print("surviving slots (score >= 1/3):")
for record in result.slots:
    print(
        f"  {record.slot:<10} salience={record.salience:+.3f} "
        f"reliability={record.reliability:.3f} consistency={record.consistency:.3f} "
        f"score={record.score:.3f}"
    )
dropped = set(slot_set.freq) - set(result.slot_names)
print(f"filtered out: {sorted(dropped)} (ubiquitous or weakly supported)")
