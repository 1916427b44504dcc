import hashlib
import json
import random

import pytest

from selfcite.classify import CitationType, Perspective, classify_all
from selfcite.corpus import load_corpus
from selfcite.graph import build_collaboration_index, build_edges
from selfcite.synth import (
    SynthConfig,
    SynthConfigError,
    _poisson,
    generate,
    generate_with_stats,
    ground_truth,
    write_corpus,
)
from oracles import brute_force_classify_all

D = CitationType.DIRECT
REF = Perspective.REFERENCE

SMALL = SynthConfig(
    n_authors=30,
    year_start=2000,
    year_end=2009,
    papers_per_author_year=0.8,
    coauthors_mean=1.0,
    refs_per_paper_start=4.0,
    refs_per_paper_end=8.0,
    p_direct=0.25,
    p_coauthor=0.10,
    p_collaborator=0.15,
    p_external=0.50,
    seed=1234,
)


def ref_type_counts(corpus):
    edges = build_edges(corpus)
    collab = build_collaboration_index(corpus)
    counts = {t: 0 for t in CitationType}
    for rec in classify_all(corpus, edges, collab):
        if rec.perspective is REF:
            counts[rec.ctype] += 1
    return counts


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.papers == b.papers
        assert a.authors == b.authors

    def test_byte_identical_files(self, tmp_path):
        for name in ("one", "two"):
            corpus, stats = generate_with_stats(SMALL)
            write_corpus(corpus, tmp_path / name, SMALL, stats)
        for fname in ("papers.jsonl", "authors.jsonl", "synth_meta.json"):
            assert (tmp_path / "one" / fname).read_bytes() == \
                (tmp_path / "two" / fname).read_bytes()

    def test_different_seed_differs(self):
        import dataclasses
        other = dataclasses.replace(SMALL, seed=4321)
        assert generate(SMALL).papers != generate(other).papers


PIN_BASE = dict(
    n_authors=24, year_start=2000, year_end=2009, papers_per_author_year=0.8,
    coauthors_mean=1.5, refs_per_paper_start=4.0, refs_per_paper_end=8.0,
    p_direct=0.2, p_coauthor=0.2, p_collaborator=0.2, p_external=0.4,
    abstract_length=6, seed=17,
)

# SHA-256 of papers.jsonl, authors.jsonl and synth_meta.json for PIN_BASE
# with each case's overrides. Together the cases take every path of the
# draw loop: all four pools, the two couplings, the spread, the
# external age floor, single-author teams (empty co-author and collaborator
# pools), a pure-direct mixture (own-pool drops and fall-downs) and a
# one-year span. A change that moves a byte of a generated corpus on
# purpose re-pins the cases it changes, and says why.
GENERATOR_PINS = {
    "mixture": ({}, (
        "479ea74407da5d1781ba431cfdee8d4a38c73f48f1e9c0e4d0e3514f652a4c50",
        "d5ce1292ec379b3d5f16207afeeba79cdc3dd8ceff65a4da95ec27873d8af507",
        "0e17be81466bfb6e846a72fb04d76d1de53853158fd28c082695cb911c670241",
    )),
    "external_coupling": ({"selfref_external_coupling": 0.8, "direct_spread": 0.5}, (
        "a1c89a4013c5919b32d21968b7fcd78720dfe7c34531da64c60fe3533adde8e7",
        "d5ce1292ec379b3d5f16207afeeba79cdc3dd8ceff65a4da95ec27873d8af507",
        "06c70cc1a4e859a2534e65517967526393f15408d02c3635d0126ff9b97e5b51",
    )),
    "reuse_coupling": ({"selfref_reuse_coupling": 0.6, "direct_spread": 0.5}, (
        "e370928f4dedf47680cb36d2741700929817e7b0add836f588ec147e2c27cc68",
        "d5ce1292ec379b3d5f16207afeeba79cdc3dd8ceff65a4da95ec27873d8af507",
        "e934f0db4cd74512c1fc2d8155a84899ab01aebd4e5e7b01b75c0bb55dcee07d",
    )),
    "direct_spread": ({"direct_spread": 1.0}, (
        "9c5d33638accf3c4571732da39bce53c4c34dc952f6ce371246d02b692348d19",
        "d5ce1292ec379b3d5f16207afeeba79cdc3dd8ceff65a4da95ec27873d8af507",
        "c0a2d40a3b899072037574be10ad5ae7176e195bc8489b69367d5307c84180c4",
    )),
    "external_min_age": ({"external_min_paper_age": 3}, (
        "c26b14d9357cd54a6544f2cbff487848843e4a2aedbc036315a94f00590f7aa2",
        "d5ce1292ec379b3d5f16207afeeba79cdc3dd8ceff65a4da95ec27873d8af507",
        "72df7a5b0569dffad094ce9e825a215c921b65a5828d302226bd5823aef4c37b",
    )),
    "single_author": ({"coauthors_mean": 0.0}, (
        "4b791e1736429c246860f28e0eac675a53b0b534ace1d793eb41a192cbe7b953",
        "d5ce1292ec379b3d5f16207afeeba79cdc3dd8ceff65a4da95ec27873d8af507",
        "e3d7e6b75ce11f06fc53820ec3ec33403ea88707856e64fba62684a509bce2bc",
    )),
    "pure_direct": ({"p_direct": 1.0, "p_coauthor": 0.0, "p_collaborator": 0.0,
                     "p_external": 0.0}, (
        "2fe95c980128affdd71e9c24fad723f5c3099fa1e0f11d03420ee250d0c9ec03",
        "d5ce1292ec379b3d5f16207afeeba79cdc3dd8ceff65a4da95ec27873d8af507",
        "b3d8b846909f410143f0c387f2f3effec12feb8668a8dff29144a78e7597d5a1",
    )),
    "one_year": ({"year_start": 2005, "year_end": 2005}, (
        "ac92ece6229eb10ebba263c81d381044605e865844dec81e25faaf84920ca5d2",
        "ff4bdf65e9cf94dc1200315e15249665ac0a287eb28668829a6f15f4aecc424a",
        "5b7833301cb437dd882e5915c33a9873d601c642b98b31011ab240877ad49be7",
    )),
}


class TestGeneratorPins:
    @pytest.mark.parametrize("case", sorted(GENERATOR_PINS))
    def test_corpus_bytes(self, tmp_path, case):
        overrides, pins = GENERATOR_PINS[case]
        config = SynthConfig(**{**PIN_BASE, **overrides})
        corpus, stats = generate_with_stats(config)
        write_corpus(corpus, tmp_path, config, stats)
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in ("papers.jsonl", "authors.jsonl", "synth_meta.json"))
        assert digests == pins


class TestStructuralValidity:
    def test_loads_without_errors(self, tmp_path):
        corpus = generate(SMALL)
        write_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path / "papers.jsonl", tmp_path / "authors.jsonl")
        assert loaded.papers == corpus.papers
        assert loaded.unresolved_references == 0

    def test_no_anachronisms(self):
        corpus = generate(SMALL)
        for p in corpus.papers.values():
            for rid in p.reference_ids:
                assert corpus.papers[rid].year <= p.year

    def test_references_duplicate_free(self):
        corpus = generate(SMALL)
        for p in corpus.papers.values():
            assert len(set(p.reference_ids)) == len(p.reference_ids)

    def test_entry_stagger_bounds(self):
        import dataclasses
        config = dataclasses.replace(SMALL, entry_years=3)
        corpus = generate(config)
        years = [e.first_pub_year for e in corpus.author_index.values()]
        # first papers can only appear from the entry year onward
        assert min(years) >= config.year_start

    def test_classifier_agrees_with_oracle_on_synth_corpus(self):
        corpus = generate(SMALL)
        edges = build_edges(corpus)
        collab = build_collaboration_index(corpus)
        assert list(classify_all(corpus, edges, collab)) == \
            brute_force_classify_all(corpus)


class TestPlantedBehavior:
    def test_pure_direct_single_author(self):
        # with a non-empty own pool every draw is a direct self-reference;
        # the only non-direct references come from empty-pool fallbacks
        config = SynthConfig(
            n_authors=20, year_start=2000, year_end=2009,
            papers_per_author_year=1.0, coauthors_mean=0.0,
            refs_per_paper_start=4.0, refs_per_paper_end=6.0,
            p_direct=1.0, p_coauthor=0.0, p_collaborator=0.0, p_external=0.0,
            seed=7,
        )
        corpus, stats = generate_with_stats(config)
        counts = ref_type_counts(corpus)
        assert counts[D] == stats.landed["own"] > 0
        assert counts[CitationType.COAUTHOR] == 0
        assert counts[CitationType.COLLABORATOR] == 0
        assert counts[CitationType.EXTERNAL] == stats.fallbacks

    def test_zero_direct_share_is_exactly_zero(self):
        config = SynthConfig(
            n_authors=20, year_start=2000, year_end=2009,
            papers_per_author_year=1.0, coauthors_mean=0.0,
            refs_per_paper_start=4.0, refs_per_paper_end=6.0,
            p_direct=0.0, p_coauthor=0.0, p_collaborator=0.0, p_external=1.0,
            seed=8,
        )
        corpus = generate(config)
        counts = ref_type_counts(corpus)
        assert counts[D] == 0
        assert counts[CitationType.EXTERNAL] > 0

    def test_landed_pools_match_classification_exactly_single_author(self):
        config = SynthConfig(
            n_authors=25, year_start=2000, year_end=2011,
            papers_per_author_year=1.0, coauthors_mean=0.0,
            refs_per_paper_start=5.0, refs_per_paper_end=9.0,
            p_direct=0.3, p_coauthor=0.0, p_collaborator=0.0, p_external=0.7,
            seed=9,
        )
        corpus, stats = generate_with_stats(config)
        counts = ref_type_counts(corpus)
        assert counts[D] == stats.landed["own"]
        assert counts[CitationType.EXTERNAL] == stats.landed["external"]
        assert counts[CitationType.COAUTHOR] == 0
        assert counts[CitationType.COLLABORATOR] == 0

    def test_lead_classifications_match_landed_pools_multi_author(self):
        # the four pools map one-to-one onto the lead author's reference
        # classification, so landed counts must agree with the classifier
        # exactly even with co-authored papers
        corpus, stats = generate_with_stats(SMALL)
        edges = build_edges(corpus)
        collab = build_collaboration_index(corpus)
        lead = {pid: p.author_ids[0] for pid, p in corpus.papers.items()}
        counts = {t: 0 for t in CitationType}
        for rec in classify_all(corpus, edges, collab):
            if rec.perspective is REF and rec.author_id == lead[rec.edge.citing_id]:
                counts[rec.ctype] += 1
        assert counts[D] == stats.landed["own"]
        assert counts[CitationType.COAUTHOR] == stats.landed["coauthor"]
        assert counts[CitationType.COLLABORATOR] == stats.landed["collaborator"]
        assert counts[CitationType.EXTERNAL] == stats.landed["external"]


class TestGroundTruth:
    def test_pure_external_gives_zero_direct(self):
        config = SynthConfig(
            n_authors=15, year_start=2000, year_end=2006,
            papers_per_author_year=1.0, coauthors_mean=0.0,
            p_direct=0.0, p_coauthor=0.0, p_collaborator=0.0, p_external=1.0,
            seed=10,
        )
        truth = ground_truth(config)
        assert truth.reference_shares["direct"] == 0.0
        assert truth.citation_shares["direct"] == 0.0

    def test_single_author_config_zeroes_network_pools(self):
        config = SynthConfig(
            n_authors=15, year_start=2000, year_end=2006,
            papers_per_author_year=1.0, coauthors_mean=0.0,
            p_direct=0.4, p_coauthor=0.0, p_collaborator=0.0, p_external=0.6,
            seed=11,
        )
        truth = ground_truth(config)
        assert truth.reference_shares["coauthor"] == 0.0
        assert truth.reference_shares["collaborator"] == 0.0

    def test_uniform_mixture_with_mature_pools(self):
        config = SynthConfig(
            n_authors=150, year_start=1995, year_end=2014,
            papers_per_author_year=1.0, coauthors_mean=2.0,
            entry_years=3,
            refs_per_paper_start=8.0, refs_per_paper_end=12.0,
            p_direct=0.25, p_coauthor=0.25, p_collaborator=0.25, p_external=0.25,
            seed=12,
        )
        truth = ground_truth(config)
        for pool, share in truth.reference_shares.items():
            assert abs(share - 0.25) < 0.08, (pool, share)

    def test_correlation_signs(self):
        import dataclasses
        base = dataclasses.replace(SMALL, selfref_external_coupling=0.8,
                                   selfref_reuse_coupling=0.6, direct_spread=0.5)
        truth = ground_truth(base)
        assert truth.correlation_signs["external_citations_vs_self_reference_rate"] == 1
        assert truth.correlation_signs["direct_similarity_vs_self_reference_rate"] == -1
        neutral = ground_truth(SMALL)
        assert neutral.correlation_signs["external_citations_vs_self_reference_rate"] == 0


class TestConfigValidation:
    def test_mixture_must_sum_to_one(self):
        config = SynthConfig(p_direct=0.5, p_coauthor=0.5, p_collaborator=0.5,
                             p_external=0.5)
        with pytest.raises(SynthConfigError, match="p_direct"):
            config.validate()

    def test_error_names_field(self):
        with pytest.raises(SynthConfigError, match="n_authors"):
            SynthConfig(n_authors=0).validate()
        with pytest.raises(SynthConfigError, match="papers_per_author_year"):
            SynthConfig(papers_per_author_year=0.0).validate()
        with pytest.raises(SynthConfigError, match="disciplines"):
            SynthConfig(disciplines=("astrology",)).validate()

    @pytest.mark.parametrize("name", ["papers_per_author_year", "coauthors_mean",
                                      "refs_per_paper_start", "refs_per_paper_end"])
    def test_poisson_rate_bound(self, name):
        SynthConfig(**{name: 700.0}).validate()
        with pytest.raises(SynthConfigError, match=f"'{name}': must be <= 700"):
            SynthConfig(**{name: 700.5}).validate()

    def test_poisson_exact_at_rate_bound(self):
        # the product method stays unbiased up to the bound; at 1000 its
        # mean fell to about 743
        rng = random.Random(3)
        draws = [_poisson(rng, 700.0) for _ in range(300)]
        assert abs(sum(draws) / len(draws) - 700.0) < 10.0

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_authors": 5, "seed": 3}), encoding="utf-8")
        config = SynthConfig.from_file(path)
        assert config.n_authors == 5
        assert config.seed == 3

    def test_from_file_unknown_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_author": 5}), encoding="utf-8")
        with pytest.raises(SynthConfigError, match="n_author"):
            SynthConfig.from_file(path)

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(SynthConfigError, match="JSON"):
            SynthConfig.from_file(path)

    def test_generate_validates(self):
        with pytest.raises(SynthConfigError):
            generate(SynthConfig(n_authors=-1))


class TestAbstracts:
    def test_coverage_fraction(self):
        import dataclasses
        config = dataclasses.replace(SMALL, abstract_coverage=0.5, seed=99)
        corpus = generate(config)
        covered = sum(1 for p in corpus.papers.values() if p.abstract is not None)
        assert 0.3 < covered / len(corpus.papers) < 0.7

    def test_vocabulary_shape(self):
        corpus = generate(SMALL)
        sample = next(p for p in corpus.papers.values() if p.abstract)
        for token in sample.abstract.split():
            assert token.startswith(("a", "bg"))

    def test_meta_echoes_seed(self, tmp_path):
        corpus, stats = generate_with_stats(SMALL)
        meta = write_corpus(corpus, tmp_path, SMALL, stats)
        assert meta["seed"] == SMALL.seed
        on_disk = json.loads((tmp_path / "synth_meta.json").read_text())
        assert on_disk["seed"] == SMALL.seed
        assert on_disk["config"]["n_authors"] == SMALL.n_authors
