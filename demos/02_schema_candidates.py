"""From text to schema candidates: prompts, completions, parsing.

A canned client stands in for the generation endpoint, so this runs offline.
Run from the repo root:  python3 demos/02_schema_candidates.py
"""

from eventframes.conceptualize import build_prompt, conceptualize_corpus, sample_demonstrations
from eventframes.corpus import EventExpression
from eventframes.endpoint import GenerationResponse
from eventframes.schemas import Demonstration, SchemaCandidate, parse_schema, render_schema

# the schema surface form and its parser are inverses
candidate = SchemaCandidate.create("Die", ["Agent", "attacker", "instrument", "victim", "victim"])
rendered = render_schema(candidate)
print("rendered surface form:", rendered)
print("parsed back          :", parse_schema(rendered))
print()

pool = [
    Demonstration("Bombs destroyed the embassy", SchemaCandidate.create("attack", ["attacker", "target"])),
    Demonstration("The couple wed in June", SchemaCandidate.create("marry", ["bride", "groom"])),
    Demonstration("Shareholders approved the merger", SchemaCandidate.create("merge", ["parties"])),
    Demonstration("The mayor stepped down", SchemaCandidate.create("resign", ["official", "post"])),
]
demos = sample_demonstrations(pool, m=3, seed=1234)

expressions = [
    EventExpression.from_text("e1", "Gunmen stormed the checkpoint"),
    EventExpression.from_text("e2", "Flood waters displaced residents"),
]

prompt = build_prompt(demos, expressions[0].text)
print("prompt sent to the endpoint:")
print(prompt)
print()

# a stand-in endpoint that answers every prompt with the same completions
CANNED = [
    "Type: attack, Slots: attacker; target; weapon",
    "Type: attack, Slots: attacker; victim",
    "not a schema at all",  # parse failures drop the candidate, not the instance
]


class CannedClient:
    def generate(self, request):
        return GenerationResponse(completions=tuple(CANNED[: request.n]))


client = CannedClient()
instances, report = conceptualize_corpus(client, demos, expressions, n=3)

for inst in instances:
    print(f"{inst.expression.id}: {inst.expression.text!r}")
    for c in inst.candidates:
        print("   ", render_schema(c))
    print(f"    parse failures: {inst.parse_failures}")
print()
print("report:", report.as_dict())
