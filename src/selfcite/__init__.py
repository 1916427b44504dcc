"""Citation-network analytics at the individual researcher level.

The package classifies every resolvable citation edge in a publication
corpus by author relationship (direct self, co-author self, prior
collaborator, external) and computes the derived indicator suite:
self-reference and self-citation rates, citation-inflation weights,
career-age curves, h-index decompositions and citing-cited abstract
similarity. A seeded synthetic-corpus generator provides ground truth
for every analytic path.
"""

from .corpus import (
    AuthorIndexEntry,
    AuthorRecord,
    Corpus,
    CorpusError,
    PaperRecord,
    build_author_index,
    eligible_authors,
    load_corpus,
    save_corpus,
)
from .graph import (
    CitationEdge,
    CollaborationIndex,
    build_collaboration_index,
    build_edges,
)
from .classify import (
    AuthorEdgeClass,
    CitationType,
    Perspective,
    classify_all,
    classify_citation,
    classify_paper_level,
    classify_reference,
)
from .metrics import (
    AuthorProfile,
    InflationWeights,
    academic_age,
    compute_inflation_weights,
    heatmap_by_production_and_age,
    percentile_strata,
)
from .hindex import (
    HDecomposition,
    attribution_curve,
    attribution_distribution,
    h_index,
)
from .textsim import (
    TfIdfVector,
    TokenizedAbstract,
    build_vectors,
    cosine,
    preprocess,
)
from .synth import GroundTruth, SynthConfig, generate, ground_truth

__version__ = "0.1.0"
