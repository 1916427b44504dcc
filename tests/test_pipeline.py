import os
import random

import pytest

from selfcite.classify import CitationType, classify_all, read_classifications, write_classifications
from selfcite.corpus import PaperRecord, corpus_from_records
from selfcite.graph import build_collaboration_index, build_edges, iter_edges
from selfcite.hindex import HindexTally
from selfcite.kernel import count_edges
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
    def test_kernel_equals_reference_feed(self, monkeypatch):
        # the pass runs in one process per usable CPU: one, then two
        for workers in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=workers: set(range(n)),
                                raising=False)
            # the CLI's fused int kernel, projected, must equal the per-tally
            # add_edge feed on corpora with anachronistic references, unresolved
            # ids, S10 < S2 string order and, on odd trials, an uncited paper
            # from 1800 among papers from 1990-2010; similarity floats bit for bit
            rng = random.Random(89)
            for trial in range(20):
                corpus = random_corpus(rng, max_papers=40, max_authors=10)
                if trial % 2:
                    papers = list(corpus.papers.values())
                    papers.append(PaperRecord("S_old", 1800, papers[0].discipline,
                                              papers[0].author_ids[:1], ()))
                    corpus = corpus_from_records(papers)
                vectors = build_vectors(corpus) if corpus.papers_with_abstract else {}
                include = {a for a in corpus.author_index if rng.random() < 0.7}

                base = all_five(corpus, vectors, include)
                run_edge_tallies(corpus, iter_edges(corpus), build_collaboration_index(corpus),
                                 base)

                full = count_edges(corpus, include=include, vectors=vectors)
                # 8 event slots per author and distinct paper year: the gap
                # up to 1990 costs none
                n_years = len({p.year for p in corpus.papers.values()})
                assert len(full.events) == 8 * n_years * len(full.author_ids)

                profile, age_curve = full.project_events()
                hindex = full.project_hindex()
                sim = full.project_similarity()
                kernel = [profile, age_curve, full.project_citation_age(), hindex, sim]
                assert integer_state(kernel) == integer_state(base)
                assert similarity_state(sim) == similarity_state(base[4])
                assert full.project_events() == (None, None)
                assert full.project_citation_age() is None
                assert full.project_similarity() is None

                events = full.author_edge_events
                assert events == {"reference": sum(base[0].ref_counts.values()),
                                  "citation": sum(base[0].cite_year_counts.values())}

                # each table is projected once, then dropped, and a view not
                # asked for projects to None; a projected similarity tally
                # keeps no vectors
                hindex_only = count_edges(corpus, ["hindex"])
                assert hindex_only.project_similarity() is None
                assert hindex_only.project_events() == (None, None)
                assert hindex_only.project_citation_age() is None
                assert hindex_only.project_hindex().per_paper == hindex.per_paper
                assert hindex_only.project_hindex() is None and hindex_only.cells is None
                assert hindex_only.author_edge_events == events
                assert sim.vectors is None

                simil_only = count_edges(corpus, ["profile"], include=include, vectors=vectors)
                simil_profile, simil_age_curve = simil_only.project_events()
                simil_sim = simil_only.project_similarity()
                assert (simil_profile.ref_counts, simil_profile.cite_year_counts) == (
                    profile.ref_counts, profile.cite_year_counts)
                assert simil_only.project_hindex() is None and simil_age_curve is None
                assert similarity_state(simil_sim) == similarity_state(sim)
                assert simil_sim.coverage == sim.coverage
                assert simil_only.author_edge_events == events

    @pytest.mark.parametrize("views", [[], ["profiles"]])
    def test_count_edges_rejects_bad_views(self, views, fix1):
        with pytest.raises(ValueError, match="non-empty subset"):
            count_edges(fix1, views)

    def test_similarity_edge_cases(self):
        # "model" is in every non-empty abstract, so its idf is 0 and P4's
        # vector is all-zero; P2's abstract is stopwords only; P3 has none
        papers = [
            PaperRecord("P1", 1980, "health", ("A", "B"), (), "model graph citation network"),
            PaperRecord("P2", 2001, "health", ("A", "C"), ("P1",), "the of and a"),
            PaperRecord("P3", 2005, "health", ("D",), ("P1",)),
            PaperRecord("P4", 2005, "health", ("A", "E"), ("P1",), "model models"),
            PaperRecord("P5", 2005, "health", ("A", "F"), ("P1", "P6", "P7"),
                        "model graph stemming words graphs"),
            PaperRecord("P6", 2005, "health", ("B", "G"), ("P3", "P5"),
                        "model citation network"),
            PaperRecord("P7", 2008, "health", ("C", "H"), ("P5",), "model network analysis"),
            PaperRecord("P8", 2001, "health", ("B", "H"), ("P1", "P7"), "graph analysis model"),
            PaperRecord("P9", 2000, "health", ("E",), ("P1",), "citation graph model"),
        ]
        corpus = corpus_from_records(papers)
        vectors = build_vectors(corpus)
        assert vectors["P2"].weights == {} and vectors["P4"].weights == {}
        for include in (None, set(corpus.author_index) - {"C", "G"}):
            base = SimilarityTally(vectors, include=include)
            run_edge_tallies(corpus, iter_edges(corpus), build_collaboration_index(corpus),
                             [base])
            counts = count_edges(corpus, ["hindex"], include=include, vectors=vectors)
            sim = counts.project_similarity()
            assert similarity_state(sim) == similarity_state(base)
            assert sim.coverage == base.coverage
            assert sim.negative_age_records == base.negative_age_records

            # every case is met: ages 0, 20, 21+ and below 0, a direct
            # self-citation, missing abstracts and zero vectors
            assert base.coverage.missing_abstract_edges == 2
            assert base.coverage.zero_vector_edges == 2
            assert base.negative_age_records > 0
            age_bins = {age for _a, _t, age in base.author_type_age}
            assert {0, 20, 21} <= age_bins
            assert ("A", CitationType.DIRECT) in base.author_type
            assert "A" in base.author_selfref
            if include is not None:
                assert not {a for a, _t in base.author_type} & {"C", "G"}
