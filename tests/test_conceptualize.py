import pytest

from eventframes.conceptualize import (
    SEPARATOR,
    ConfigError,
    build_prompt,
    conceptualize_corpus,
    sample_demonstrations,
)
from eventframes.endpoint import ReplayClient, ReplayStore, StaticClient
from eventframes.schemas import Demonstration, SchemaCandidate

from helpers import expression


def demo(text, event_type, slots=()):
    return Demonstration(text=text, schema=SchemaCandidate.create(event_type, list(slots)))


DEMO_POOL = [demo(f"demo text {i}", f"type{i}", [f"slot{i}"]) for i in range(10)]


class TestSampleDemonstrations:
    def test_full_pool_is_permutation(self):
        sampled = sample_demonstrations(DEMO_POOL[:8], m=8, seed=1234)
        assert sorted(d.text for d in sampled) == sorted(d.text for d in DEMO_POOL[:8])

    def test_deterministic(self):
        first = sample_demonstrations(DEMO_POOL, m=8, seed=1234)
        second = sample_demonstrations(DEMO_POOL, m=8, seed=1234)
        assert first == second

    def test_distinct(self):
        sampled = sample_demonstrations(DEMO_POOL, m=8, seed=7)
        assert len({d.text for d in sampled}) == 8

    def test_pool_too_small(self):
        with pytest.raises(ConfigError):
            sample_demonstrations(DEMO_POOL[:5], m=8, seed=1234)


class TestBuildPrompt:
    def test_single_demo_template(self):
        demos = [demo("A", "t", ["s"])]
        assert build_prompt(demos, "B") == f"A {SEPARATOR} Type: t, Slots: s\nB {SEPARATOR} "

    def test_no_demos_rejected(self):
        with pytest.raises(ValueError):
            build_prompt([], "B")

    def test_ends_with_separator_and_space(self):
        prompt = build_prompt(DEMO_POOL[:3], "text here")
        assert prompt.endswith(f"{SEPARATOR} ")

    def test_separator_count_is_demos_plus_one(self):
        for m in (1, 2, 5, 8):
            prompt = build_prompt(DEMO_POOL[:m], "any text")
            assert prompt.count(SEPARATOR) == m + 1

    def test_separator_in_text_is_rewritten(self):
        demos = [demo(f"weird {SEPARATOR} demo", "t", ["s"])]
        prompt = build_prompt(demos, f"target {SEPARATOR} text")
        assert prompt.count(SEPARATOR) == 2


def completions_for(candidates):
    from eventframes.schemas import render_schema

    return [render_schema(SchemaCandidate.create(t, list(s))) for t, s in candidates]


class TestConceptualizeCorpus:
    def test_counts(self):
        corpus = [expression("e1", "first text"), expression("e2", "second text")]
        client = StaticClient(table={}, default=completions_for(
            [("die", ["agent"]), ("die", ["victim"]), ("perish", ["agent"])]
        ))
        instances, report = conceptualize_corpus(client, DEMO_POOL[:2], corpus, n=3)
        assert len(instances) == 2
        assert all(len(inst.candidates) == 3 for inst in instances)
        assert [inst.expression.id for inst in instances] == ["e1", "e2"]
        assert report.instances == 2
        assert report.dropped == 0

    def test_all_malformed_drops_instance(self):
        corpus = [expression("e1", "only text")]
        client = StaticClient(table={}, default=["junk", "more junk", "still junk"])
        instances, report = conceptualize_corpus(client, DEMO_POOL[:2], corpus, n=3)
        assert instances == []
        assert report.dropped == 1
        assert report.parse_failures == 3

    def test_partial_failure_keeps_instance(self):
        corpus = [expression("e1", "text")]
        client = StaticClient(table={}, default=["garbage", "Type: die, Slots: agent"])
        instances, report = conceptualize_corpus(client, DEMO_POOL[:2], corpus, n=2)
        assert len(instances) == 1
        assert instances[0].candidates[0].event_type == "die"
        assert instances[0].parse_failures == 1

    def test_transport_failure_drops_with_report(self):
        corpus = [expression("e1", "text"), expression("e2", "other")]
        prompt_ok = build_prompt(DEMO_POOL[:2], "other")
        client = StaticClient(table={prompt_ok: ["Type: go, Slots: agent"]}, default=None)
        instances, report = conceptualize_corpus(client, DEMO_POOL[:2], corpus, n=1)
        assert [inst.expression.id for inst in instances] == ["e2"]
        assert report.transport_failures == 1

    def test_replay_client_is_deterministic(self):
        corpus = [expression("e1", "alpha beta"), expression("e2", "gamma delta")]
        demos = DEMO_POOL[:2]
        store = ReplayStore()
        for expr in corpus:
            store.put(build_prompt(demos, expr.text), ("Type: die, Slots: agent; victim",))
        client = ReplayClient(store)
        first, _ = conceptualize_corpus(client, demos, corpus, n=1)
        second, _ = conceptualize_corpus(client, demos, corpus, n=1)
        assert first == second

    def test_workers_preserve_order(self):
        corpus = [expression(f"e{i}", f"text number {i}") for i in range(12)]
        client = StaticClient(table={}, default=["Type: t, Slots: s"])
        instances, _ = conceptualize_corpus(client, DEMO_POOL[:2], corpus, n=1, workers=4)
        assert [inst.expression.id for inst in instances] == [f"e{i}" for i in range(12)]

    def test_candidate_count_capped_at_n(self):
        class OverDeliveringClient:
            def generate(self, request):
                from eventframes.endpoint import GenerationResponse

                return GenerationResponse(tuple(f"Type: t{i}, Slots: s" for i in range(7)))

        corpus = [expression("e1", "text")]
        instances, _ = conceptualize_corpus(OverDeliveringClient(), DEMO_POOL[:2], corpus, n=3)
        assert len(instances[0].candidates) == 3
