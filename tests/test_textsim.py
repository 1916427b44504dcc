import hashlib
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from selfcite import textsim
from selfcite.classify import CitationType
from selfcite.corpus import CorpusError, PaperRecord, corpus_from_records
from selfcite.graph import build_collaboration_index, build_edges
from selfcite.kernel import count_edges
from selfcite.metrics import finalize_profiles
from selfcite.pipeline import run_edge_tallies, run_record_tallies
from selfcite.textsim import (
    _SCAN_LIMIT,
    _TOKEN_RE,
    _tokens,
    SimilarityCoverage,
    SimilarityTally,
    TfIdfVector,
    build_vectors,
    cosine,
    load_stopwords,
    preprocess,
    similarity_by_citation_age,
    similarity_means,
    stopwords_sha256,
)

from oracles import brute_force_classify_all, brute_force_cosine, brute_force_vectors

D = CitationType.DIRECT


def similarity_tally(corpus, vectors=None, include=None):
    counts = count_edges(corpus, ["profile"], include=include,
                         vectors=build_vectors(corpus) if vectors is None else vectors)
    return counts.project_similarity()


class TestPreprocess:
    def test_stopwords_and_stemming(self):
        tokens = preprocess("The clustering of clusters")
        assert dict(tokens.stems) == {"cluster": 2}

    def test_empty_text_flagged(self):
        tokens = preprocess("")
        assert tokens.is_empty

    def test_stopwords_only_flagged(self):
        tokens = preprocess("the of and is was被".replace("被", ""))
        assert tokens.is_empty

    def test_case_and_punctuation(self):
        tokens = preprocess("Graph-based METHODS; graphs!")
        assert dict(tokens.stems) == {"graph": 2, "base": 1, "method": 1}

    def test_stems_in_first_occurrence_order(self):
        # the order of a vector's weights fixes its norm's float sum
        tokens = preprocess("The models of a Graph: models, graphs and 2010 model-graphs!")
        assert list(tokens.stems.items()) == [("model", 3), ("graph", 3), ("2010", 1)]

    def test_only_ascii_letters_and_digits_form_tokens(self):
        # every other character, accented letters included, separates tokens
        assert dict(preprocess("naïve résumé").stems) == {"na": 1, "ve": 1, "r": 1, "sum": 1}
        assert dict(preprocess("ÉCOLE école").stems) == {"cole": 2}

    @given(st.lists(
        # the Kelvin sign and the dotted capital I lowercase to ASCII and to
        # a letter plus a combining mark; the no-break space and the form
        # feed separate tokens; lone surrogates cannot be encoded
        st.sampled_from(["\u212a", "\u0130", "\xa0", "\x0c", "\ud800", "\udfff", "a", "Z", "7"])
        | st.characters(exclude_categories=()),
    ).map("".join))
    def test_tokens_follow_the_regex_rule(self, text):
        assert _tokens(text) == _TOKEN_RE.findall(text.lower())

    def test_numbers_kept_as_tokens(self):
        tokens = preprocess("model 42 models")
        assert dict(tokens.stems) == {"model": 2, "42": 1}

    def test_stopword_list_is_snowball(self):
        stopwords = load_stopwords()
        for word in ("the", "of", "and", "very", "cannot", "i'm"):
            assert word in stopwords
        assert "cluster" not in stopwords
        assert len(stopwords) == 174

    def test_stopword_hash_is_reported(self):
        stopwords = Path(textsim.__file__).parent / "data" / "stopwords_en.txt"
        assert stopwords_sha256() == hashlib.sha256(stopwords.read_bytes()).hexdigest()


class TestBuildVectors:
    def test_fix1_idf_values(self, fix1):
        vectors = build_vectors(fix1)
        # stems shared by both abstracts have idf ln(2/2)=0 and are dropped
        p1 = vectors["P1"].weights
        p2 = vectors["P2"].weights
        assert set(p1) == {"method"}
        assert set(p2) == {"larg"}
        assert p1["method"] == pytest.approx(math.log(2), rel=1e-15)

    def test_all_shared_stems_give_zero_vectors(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), (), abstract="graph kernel"),
            PaperRecord("P2", 2001, "health", ("B",), (), abstract="kernel graph graph"),
        ])
        vectors = build_vectors(corpus)
        assert vectors["P1"].weights == {}
        assert vectors["P2"].weights == {}

    def test_idf_single_occurrence(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), (), abstract="alpha shared"),
            PaperRecord("P2", 2001, "health", ("B",), (), abstract="beta shared"),
        ])
        vectors = build_vectors(corpus)
        assert vectors["P1"].weights["alpha"] == pytest.approx(math.log(2))

    def test_vector_equality_and_weights_copy(self):
        u = TfIdfVector("u", ("a", "b"), [1.0, 2.0])
        assert u == TfIdfVector("u", ("a", "b"), [1.0, 2.0])
        assert u != TfIdfVector("u", ("b", "a"), [2.0, 1.0])  # term order fixes the norm's sum
        assert u != TfIdfVector("v", ("a", "b"), [1.0, 2.0])
        u.weights["a"] = 5.0
        assert u.weights == {"a": 1.0, "b": 2.0}

    def test_zero_abstracts_error(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), ()),
        ])
        with pytest.raises(CorpusError):
            build_vectors(corpus)

    def test_empty_token_abstract_not_counted_in_n(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), (), abstract="the of"),
            PaperRecord("P2", 2001, "health", ("B",), (), abstract="alpha beta"),
            PaperRecord("P3", 2002, "health", ("C",), (), abstract="alpha gamma"),
        ])
        vectors = build_vectors(corpus)
        # N=2 (P1 tokenizes to nothing): alpha df=2 -> weight 0
        assert "alpha" not in vectors["P2"].weights
        assert vectors["P2"].weights["beta"] == pytest.approx(math.log(2))
        assert vectors["P1"].weights == {}


_ORACLE_WORDS = (
    "graph", "graphs", "kernel", "kernels", "spectral", "cluster", "clustering",
    "model", "models", "modeling", "signal", "neuron", "matrix", "field", "theory",
    "bound", "sample", "2010", "42", "the", "of", "and", "naïve", "x-ray",
)


def oracle_corpus(rng: random.Random):
    """Random corpus for the tf-idf oracle: missing abstracts, abstracts with
    no token or only stopwords, abstracts whose only stem every abstract
    shares, and 1-40 word abstracts, so pairs share from 0 to about 20
    terms."""
    n_papers = rng.randint(1, 25)
    records = []
    for i in range(n_papers):
        kind = rng.random()
        if kind < 0.1:
            abstract = None
        elif kind < 0.2:
            abstract = rng.choice(["", "!!! ...", "the of and", "é"])
        elif kind < 0.3:
            abstract = "shared shared"
        else:
            words = [rng.choice(_ORACLE_WORDS) for _ in range(rng.randint(1, 40))]
            abstract = " ".join(words + ["shared"])
        refs = tuple(f"P{j}" for j in rng.sample(range(n_papers), rng.randint(0, n_papers - 1))
                     if j != i)
        records.append(PaperRecord(f"P{i}", rng.randint(2000, 2010), "health",
                                   tuple(rng.sample("ABCDE", rng.randint(1, 3))), refs,
                                   abstract=abstract))
    return corpus_from_records(records)


class TestVectorOracle:
    """build_vectors, the cosine and the kernel's similarity sums against
    the plain-dict oracle, bit for bit."""

    def test_vectors_equal_oracle(self):
        rng = random.Random(1501)
        for _ in range(60):
            corpus = oracle_corpus(rng)
            if corpus.papers_with_abstract == 0:
                continue
            vectors = build_vectors(corpus)
            oracle = brute_force_vectors(corpus)
            assert vectors.keys() == oracle.keys()
            for pid, (weights, norm) in oracle.items():
                vector = vectors[pid]
                assert vector.terms == tuple(weights)
                assert [w.hex() for w in vector.values] == [w.hex() for w in weights.values()]
                assert vector.norm.hex() == norm.hex()

    def test_cosine_equals_oracle(self):
        rng = random.Random(1502)
        overlaps = set()
        for _ in range(40):
            corpus = oracle_corpus(rng)
            if corpus.papers_with_abstract == 0:
                continue
            vectors = build_vectors(corpus)
            oracle = brute_force_vectors(corpus)
            for p, u in vectors.items():
                for q, v in vectors.items():
                    overlaps.add(len(set(u.terms) & set(v.terms)))
                    assert cosine(u, v).hex() == brute_force_cosine(oracle[p], oracle[q]).hex()
        # both ways of finding the common terms in v ran: no, one, a few
        # common terms, and the first count above the scan limit
        assert {0, 1, 2, _SCAN_LIMIT, _SCAN_LIMIT + 1} <= overlaps

    def test_kernel_and_reference_feed_sums_equal_oracle(self):
        rng = random.Random(1503)
        for _ in range(40):
            corpus = oracle_corpus(rng)
            if corpus.papers_with_abstract == 0:
                continue
            oracle = brute_force_vectors(corpus)
            expected = {}
            for rec in brute_force_classify_all(corpus):
                u = oracle.get(rec.edge.citing_id)
                v = oracle.get(rec.edge.cited_id)
                if u is None or v is None or u[1] == 0.0 or v[1] == 0.0:
                    continue
                cell = expected.setdefault((rec.author_id, rec.ctype), [0.0, 0])
                cell[0] += brute_force_cosine(u, v)
                cell[1] += 1
            vectors = build_vectors(corpus)
            assert similarity_tally(corpus, vectors).author_type == expected
            reference = SimilarityTally(vectors)
            run_edge_tallies(corpus, build_edges(corpus), build_collaboration_index(corpus),
                             [reference])
            assert reference.author_type == expected


class TestCosine:
    def test_identical_vectors(self):
        u = TfIdfVector("u", ("a", "b", "c"), [0.3, 1.7, 0.22])
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports(self):
        u = TfIdfVector("u", ("a",), [1.0])
        v = TfIdfVector("v", ("b",), [2.0])
        assert cosine(u, v) == 0.0

    def test_hand_computed_value(self):
        u = TfIdfVector("u", ("a", "b"), [1.0, 1.0])
        v = TfIdfVector("v", ("a",), [1.0])
        assert cosine(u, v) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector_scores_zero(self):
        u = TfIdfVector("u", (), [])
        v = TfIdfVector("v", ("a",), [1.0])
        assert cosine(u, v) == 0.0
        assert cosine(u, u) == 0.0

    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(min_value=0.01, max_value=100.0),
                           max_size=8),
           st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(min_value=0.01, max_value=100.0),
                           max_size=8))
    def test_symmetry_exact(self, wu, wv):
        u = TfIdfVector("u", tuple(wu), list(wu.values()))
        v = TfIdfVector("v", tuple(wv), list(wv.values()))
        assert cosine(u, v) == cosine(v, u)

    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(min_value=0.01, max_value=100.0),
                           min_size=1, max_size=8),
           st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(min_value=0.01, max_value=100.0),
                           min_size=1, max_size=8),
           st.floats(min_value=0.001, max_value=1000.0))
    def test_scale_invariance(self, wu, wv, c):
        u = TfIdfVector("u", tuple(wu), list(wu.values()))
        v = TfIdfVector("v", tuple(wv), list(wv.values()))
        scaled = TfIdfVector("s", tuple(wu), [c * w for w in wu.values()])
        assert cosine(scaled, v) == pytest.approx(cosine(u, v), rel=1e-12, abs=1e-12)

    def test_range(self):
        rng = random.Random(71)
        for _ in range(200):
            wu = {f"t{i}": rng.uniform(0, 5) for i in range(rng.randint(0, 6))}
            wv = {f"t{i}": rng.uniform(0, 5) for i in range(rng.randint(0, 6))}
            u = TfIdfVector("u", tuple(wu), list(wu.values()))
            v = TfIdfVector("v", tuple(wv), list(wv.values()))
            assert 0.0 <= cosine(u, v) <= 1.0


class TestPairSimilarities:
    def test_fix1_records(self, fix1, fix1_records):
        tally = SimilarityTally(build_vectors(fix1))
        run_record_tallies(iter(fix1_records), [tally])
        # only P2 -> P1 has both abstracts; its vectors are disjoint
        assert tally.coverage.records == 3
        assert tally.author_type == {
            ("A", D): [0.0, 2],
            ("B", CitationType.COAUTHOR): [0.0, 1],
        }
        # one of A's two direct records is reference-side, the other citation-side
        assert tally.author_selfref == {"A": [0.0, 1]}
        assert set(tally.author_type_age) == {("A", D, 1), ("B", CitationType.COAUTHOR, 1)}
        assert tally.coverage.scored_edges == 1
        assert tally.coverage.missing_abstract_edges == 5

    def test_zero_vector_pairs_skipped_and_counted(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), (), abstract="shared term"),
            PaperRecord("P2", 2001, "health", ("A",), ("P1",), abstract="shared term"),
        ])
        tally = similarity_tally(corpus)
        assert tally.author_type == {}
        assert tally.coverage.records == 0
        assert tally.coverage.zero_vector_edges == 1

    def test_empty_corpus_stream(self, fix1, fix1_collab):
        tally = SimilarityTally(build_vectors(fix1))
        run_record_tallies(iter([]), [tally])
        assert tally.author_type == {}
        assert tally.coverage == SimilarityCoverage()

    def test_near_duplicate_pair_scores_high(self):
        # same stem support, different term counts: cosine near but below 1
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), (),
                        abstract="spin glass energy landscape minima"),
            PaperRecord("P2", 2001, "health", ("A",), ("P1",),
                        abstract="spin glass glass energy landscape minima"),
            PaperRecord("P3", 2002, "health", ("B",), (),
                        abstract="protein folding pathways dynamics"),
        ])
        tally = similarity_tally(corpus)
        assert tally.author_type
        assert all(0.9 < s / n <= 1.0 for s, n in tally.author_type.values())


class TestAggregation:
    def test_single_record_group_mean(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), (),
                        abstract="alpha beta gamma"),
            PaperRecord("P2", 2001, "health", ("A",), ("P1",),
                        abstract="alpha beta delta"),
            PaperRecord("P3", 2002, "health", ("B",), (),
                        abstract="iota kappa nu"),
        ])
        vectors = build_vectors(corpus)
        tally = similarity_tally(corpus, vectors)
        assert ("A", D) in tally.author_type
        profiles = finalize_profiles(corpus, count_edges(corpus, ["profile"]).project_events()[0])
        rows = similarity_means(tally, profiles, key="discipline")
        direct_row = next(r for r in rows if r["citation_type"] == "direct")
        assert direct_row["similarity_author_mean"] == pytest.approx(
            cosine(vectors["P2"], vectors["P1"]))
        assert direct_row["n_authors"] == 1

    def test_citation_age_grouping(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), (), abstract="alpha beta"),
            PaperRecord("P2", 2005, "health", ("A",), ("P1",), abstract="alpha gamma"),
            PaperRecord("P3", 2006, "health", ("B",), (), abstract="mu nu xi"),
        ])
        rows = similarity_by_citation_age(similarity_tally(corpus))
        assert all(row["citation_age_bin"] == "5" for row in rows)

    def test_selfref_reuse_coupling_drives_fig3d_decline(self):
        # heavy self-referencers draw abstract terms from the shared
        # background pool instead of their own topic, so their direct
        # reference similarity drops across self-reference groups
        from selfcite.synth import SynthConfig, generate
        from selfcite.textsim import similarity_by_selfref_percentile

        config = SynthConfig(
            n_authors=120, year_start=2000, year_end=2019, entry_years=4,
            papers_per_author_year=1.0, coauthors_mean=0.0,
            refs_per_paper_start=8.0, refs_per_paper_end=12.0,
            p_direct=0.3, p_coauthor=0.0, p_collaborator=0.0, p_external=0.7,
            direct_spread=0.9, selfref_reuse_coupling=0.9,
            own_topic_reuse=0.9, abstract_length=20,
            topic_terms_per_author=25, background_terms=300,
            seed=555,
        )
        corpus = generate(config)
        vectors = build_vectors(corpus)
        counts = count_edges(corpus, ["profile"], vectors=vectors)
        tally = counts.project_similarity()
        profiles = finalize_profiles(corpus, counts.project_events()[0])
        rows = similarity_by_selfref_percentile(tally, profiles, n_groups=4)
        sims = [row["mean_direct_reference_similarity"] for row in rows]
        assert len(sims) == 4
        assert sims == sorted(sims, reverse=True)
        assert sims[0] > sims[-1]

    def test_tally_include_filter(self, fix1, fix1_records):
        vectors = build_vectors(fix1)
        tally = SimilarityTally(vectors)
        filtered = SimilarityTally(vectors, include={"B"})
        run_record_tallies(iter(fix1_records), [tally, filtered])
        assert ("A", D) in tally.author_type
        assert ("A", D) not in filtered.author_type
        assert ("B", CitationType.COAUTHOR) in filtered.author_type
