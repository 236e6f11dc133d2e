"""eventframes: induce event schemas (Type + Slots frames) from unlabeled text.

The pipeline turns raw expressions into normalized cluster-level schemas:
corpus filtering, in-context schema generation against a pluggable endpoint,
confidence-aware slot scoring, and graph-based schema aggregation, plus an
evaluation harness for event-mention clustering.
"""

from .aggregate import (
    AggregatedSchema,
    GraphConfig,
    SchemaGraph,
    SlotGroup,
    aggregate,
    build_schema_graph,
    cluster_instances,
    merge_slot_synonyms,
    normalize_type_name,
    render_aggregated,
)
from .conceptualize import (
    ConceptualizedInstance,
    build_prompt,
    conceptualize_corpus,
    sample_demonstrations,
)
from .corpus import (
    CorpusFilterConfig,
    EventExpression,
    filter_expression,
    load_corpus,
    tokenize,
)
from .endpoint import (
    GenerationRequest,
    GenerationResponse,
    HttpGenerationClient,
    RecordingClient,
    ReplayClient,
    ReplayStore,
    generate_all,
)
from .evaluation import (
    ClusteringMetrics,
    ari,
    average_metrics,
    bcubed,
    mention_harness,
    nmi,
    score_partition,
)
from .louvain import ClusterAssignment, louvain
from .pipeline import PipelineConfig, run_stage
from .schemas import Demonstration, SchemaCandidate, parse_schema, render_schema
from .scoring import (
    ScoringConfig,
    SlotRecord,
    StructuredInstance,
    collect_slot_set,
    consistency,
    global_slot_frequencies,
    reliability,
    salience,
    select_event_type,
    structuralize,
    type_similarities,
)
from .similarity import (
    EmbeddingBackend,
    LexicalBackend,
    LexiconBackend,
    SimilarityEnsemble,
    default_ensemble,
)

__version__ = "0.1.0"
