import random

from selfcite.classify import classify_all, read_classifications, write_classifications
from selfcite.graph import build_collaboration_index, build_edges, iter_edges
from selfcite.hindex import HindexTally
from selfcite.kernel import tally_corpus
from selfcite.metrics import AgeCurveTally, CitationAgeTally, ProfileTally
from selfcite.pipeline import run_edge_tallies, run_record_tallies
from selfcite.textsim import SimilarityTally, build_vectors
from oracles import random_corpus


def all_five(corpus, vectors, include):
    return [ProfileTally(), AgeCurveTally.for_corpus(corpus, include=include),
            CitationAgeTally(), HindexTally(), SimilarityTally(vectors, include=include)]


def integer_state(tallies):
    profile, age, citeage, hind, sim = tallies
    return (profile.ref_counts, profile.cite_year_counts,
            age.per_author, age.skipped_ineligible, age.skipped_preage,
            citeage.counts, citeage.negative_excluded, hind.per_paper,
            sim.coverage.as_dict(), sim.negative_age_records)


def similarity_state(sim):
    return sim.author_type, sim.author_type_age, sim.author_selfref


class TestThreadIndependence:
    def test_chunked_equals_stream(self, tmp_path):
        # run_record_tallies regroups a record stream into edges; fed from
        # classify_all or from a TSV round trip it must match the edge feed,
        # floats bit for bit
        rng = random.Random(83)
        for trial in range(20):
            corpus = random_corpus(rng, max_papers=40, max_authors=10)
            edges = build_edges(corpus)
            collab = build_collaboration_index(corpus)
            vectors = build_vectors(corpus) if corpus.papers_with_abstract else {}
            include = {a for a in corpus.author_index if rng.random() < 0.7}

            base = all_five(corpus, vectors, include)
            run_edge_tallies(corpus, edges, collab, base)

            streamed = all_five(corpus, vectors, include)
            run_record_tallies(classify_all(corpus, edges, collab), streamed)

            tsv = tmp_path / f"classifications-{trial}.tsv"
            write_classifications(classify_all(corpus, edges, collab), tsv)
            from_tsv = all_five(corpus, vectors, include)
            run_record_tallies(read_classifications(tsv, corpus), from_tsv)

            for other in (streamed, from_tsv):
                assert integer_state(other) == integer_state(base)
                assert similarity_state(other[4]) == similarity_state(base[4])


class TestKernel:
    def test_kernel_equals_reference_feed(self):
        # the CLI's fused int kernel, projected, must equal the per-tally
        # add_edge feed on corpora with anachronistic references, unresolved
        # ids and S10 < S2 string order; similarity floats bit for bit
        rng = random.Random(89)
        for _trial in range(20):
            corpus = random_corpus(rng, max_papers=40, max_authors=10)
            vectors = build_vectors(corpus) if corpus.papers_with_abstract else {}
            include = {a for a in corpus.author_index if rng.random() < 0.7}

            base = all_five(corpus, vectors, include)
            run_edge_tallies(corpus, iter_edges(corpus), build_collaboration_index(corpus), base)

            sim = SimilarityTally(vectors, include=include)
            full = tally_corpus(corpus, include=include, similarity=sim)
            kernel = [full.profile, full.age_curve, full.citation_age, full.hindex, sim]
            assert integer_state(kernel) == integer_state(base)
            assert similarity_state(sim) == similarity_state(base[4])

            events = full.author_edge_events
            assert events == {"reference": sum(base[0].ref_counts.values()),
                              "citation": sum(base[0].cite_year_counts.values())}

            hindex_only = tally_corpus(corpus, ["hindex"])
            assert hindex_only.hindex.per_paper == full.hindex.per_paper
            assert (hindex_only.profile, hindex_only.age_curve,
                    hindex_only.citation_age) == (None, None, None)
            assert hindex_only.author_edge_events == events

            simil_sim = SimilarityTally(vectors, include=include)
            simil_only = tally_corpus(corpus, ["profile"], include=include,
                                      similarity=simil_sim)
            assert (simil_only.profile.ref_counts, simil_only.profile.cite_year_counts) == (
                full.profile.ref_counts, full.profile.cite_year_counts)
            assert simil_only.hindex is None and simil_only.age_curve is None
            assert similarity_state(simil_sim) == similarity_state(sim)
            assert simil_sim.coverage == sim.coverage
            assert simil_only.author_edge_events == events
