"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values once its assertions hold."""

import dataclasses
import json
import random
import time
from pathlib import Path

from selfcite.classify import CitationType, Perspective, classify_all
from selfcite.cli import main
from selfcite.corpus import PaperRecord, corpus_from_records
from selfcite.graph import build_collaboration_index, build_edges
from selfcite.hindex import finalize_decompositions
from selfcite.kernel import tally_corpus
from selfcite.metrics import compute_inflation_weights, finalize_profiles, unit_weights
from selfcite.synth import SynthConfig, generate, generate_with_stats, write_corpus
from selfcite.textsim import SimilarityTally, TfIdfVector, build_vectors, cosine, similarity_means
from conftest import TESTDATA
from oracles import brute_force_classify_all, brute_force_decompose, random_corpus

D = CitationType.DIRECT
REF = Perspective.REFERENCE
CIT = Perspective.CITATION

PAPERS = str(TESTDATA / "fix1_papers.jsonl")
AUTHORS = str(TESTDATA / "fix1_authors.jsonl")

N_ORACLE_CORPORA = 100

PLANTED_CONFIG = SynthConfig(
    n_authors=60, year_start=1990, year_end=2019, entry_years=1,
    papers_per_author_year=1.6, coauthors_mean=0.0,
    refs_per_paper_start=8.0, refs_per_paper_end=12.0,
    p_direct=0.3, p_coauthor=0.0, p_collaborator=0.0, p_external=0.7,
    seed=43,
)

SHAPE_CONFIG = SynthConfig(
    n_authors=200, year_start=1990, year_end=2019, entry_years=8,
    papers_per_author_year=1.2, coauthors_mean=0.4,
    refs_per_paper_start=30.0, refs_per_paper_end=48.0,
    p_direct=0.50, p_coauthor=0.08, p_collaborator=0.12, p_external=0.30,
    external_min_paper_age=4,
    seed=901,
)

SCALE_CONFIG = SynthConfig(
    n_authors=7000, year_start=2000, year_end=2019, entry_years=5,
    papers_per_author_year=0.85, coauthors_mean=1.2,
    refs_per_paper_start=16.0, refs_per_paper_end=24.0,
    p_direct=0.15, p_coauthor=0.10, p_collaborator=0.15, p_external=0.60,
    abstract_length=12, abstract_coverage=0.9,
    topic_terms_per_author=30, background_terms=500,
    seed=1001,
)


def _oracle_corpora():
    for i in range(N_ORACLE_CORPORA):
        yield random_corpus(random.Random(1000 + i), max_papers=50, max_authors=15)


def test_criterion_1_classification_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for corpus in _oracle_corpora():
        edges = build_edges(corpus)
        collab = build_collaboration_index(corpus)
        got = list(classify_all(corpus, edges, collab))
        expected = brute_force_classify_all(corpus)
        if got != expected:
            mismatches += 1
        checked += len(got)
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS - {N_ORACLE_CORPORA} corpora, {checked} records, "
          f"0 mismatches, {elapsed:.2f}s")


def test_criterion_2_hindex_oracle_equivalence():
    authors_checked = 0
    for corpus in _oracle_corpora():
        decomps = finalize_decompositions(corpus, tally_corpus(corpus, ["hindex"]).hindex)
        for aid, dec in decomps.items():
            expected = brute_force_decompose(corpus, aid)
            assert dec.h_obs == expected["h_obs"]
            assert dec.h_minus_direct == expected["h_minus_direct"]
            assert dec.h_minus_direct_coauthor == expected["h_minus_direct_coauthor"]
            assert dec.h_minus_direct_coauthor_collab == \
                expected["h_minus_direct_coauthor_collab"]
            assert dec.h_obs >= dec.h_minus_direct >= dec.h_minus_direct_coauthor \
                >= dec.h_minus_direct_coauthor_collab >= 0
            authors_checked += 1
    print(f"ACCEPTANCE 2: PASS - {N_ORACLE_CORPORA} corpora, "
          f"{authors_checked} author decompositions match brute force")


def test_criterion_3_fix1_golden_values(fix1, fix1_profiles):
    a = fix1_profiles["A"]
    assert a.self_reference_rate == 2 / 3
    assert a.self_citation_rate == 2 / 5
    dec = finalize_decompositions(fix1, tally_corpus(fix1, ["hindex"]).hindex)["A"]
    assert dec.h_obs == 2
    assert dec.h_minus_direct == 1
    assert dec.pct_direct == 50.0
    print("ACCEPTANCE 3: PASS - FIX1 author A: self_reference_rate=2/3, "
          "self_citation_rate=2/5, h_obs=2, h_minus_direct=1, pct=50%")


def test_criterion_4_planted_rate_recovery():
    corpus, stats = generate_with_stats(PLANTED_CONFIG)
    assert corpus.resolvable_references >= 5000
    profiles = finalize_profiles(corpus, tally_corpus(corpus, ["profile"]).profile)
    direct = sum(p.ref_counts[D] for p in profiles.values())
    total = sum(p.ref_total for p in profiles.values())
    share = direct / total
    assert abs(share - 0.3) <= 0.02

    zero_config = dataclasses.replace(PLANTED_CONFIG, p_direct=0.0, p_external=1.0, seed=44)
    corpus0 = generate(zero_config)
    profiles0 = finalize_profiles(corpus0, tally_corpus(corpus0, ["profile"]).profile)
    direct0 = sum(p.ref_counts[D] for p in profiles0.values())
    assert direct0 == 0
    print(f"ACCEPTANCE 4: PASS - planted 0.3 recovered as {share:.4f} "
          f"({total} references); planted 0.0 recovered as exactly 0")


def test_criterion_5_inflation_weights(fix1):
    checked_years = 0
    for corpus in (fix1, generate(PLANTED_CONFIG)):
        weights = compute_inflation_weights(corpus)
        assert weights.weight[weights.max_year] == 1.0
        for year, w in weights.weight.items():
            assert abs(w * weights.mu_ref[year] - weights.max_mu) \
                <= 1e-12 * weights.max_mu
            checked_years += 1

    forced = unit_weights(compute_inflation_weights(fix1))
    tally = tally_corpus(fix1, ["profile"]).profile
    weighted = finalize_profiles(fix1, tally, forced)
    raw = finalize_profiles(fix1, tally)
    for aid in raw:
        for t in CitationType:
            assert weighted[aid].weighted_cite_counts[t] == float(raw[aid].cite_counts[t])
            assert raw[aid].weighted_cite_counts[t] == float(raw[aid].cite_counts[t])
    print(f"ACCEPTANCE 5: PASS - w[argmax]=1 exactly; weight identity within "
          f"1e-12 over {checked_years} years; unit weights equal raw counts exactly")


def test_criterion_6_similarity_properties():
    rng = random.Random(4242)
    terms = [f"t{i}" for i in range(12)]
    for _ in range(500):
        wu = {t: rng.uniform(0.01, 10.0) for t in rng.sample(terms, rng.randint(1, 8))}
        wv = {t: rng.uniform(0.01, 10.0) for t in rng.sample(terms, rng.randint(1, 8))}
        u, v = TfIdfVector("u", wu), TfIdfVector("v", wv)
        base = cosine(u, v)
        assert abs(base - cosine(v, u)) <= 1e-12
        c = rng.uniform(0.001, 1000.0)
        scaled = TfIdfVector("s", {t: c * w for t, w in wu.items()})
        assert abs(cosine(scaled, v) - base) <= 1e-12 * max(base, 1.0)

    corpus = corpus_from_records([
        PaperRecord("P1", 2000, "health", ("A",), (),
                    abstract="quantum entanglement decoherence qubit"),
        PaperRecord("P2", 2001, "health", ("A",), ("P1",),
                    abstract="quantum entanglement decoherence qubit"),
        PaperRecord("P3", 2002, "health", ("B",), ("P1",),
                    abstract="market auction pricing equilibrium"),
    ])
    vectors = build_vectors(corpus)
    assert abs(cosine(vectors["P1"], vectors["P2"]) - 1.0) <= 1e-9
    assert cosine(vectors["P1"], vectors["P3"]) == 0.0
    print("ACCEPTANCE 6: PASS - symmetry/scale invariance within 1e-12 over 500 "
          "random pairs; identical abstracts 1.0 +/- 1e-9; disjoint stems 0.0")


def test_criterion_7_age_curve_shapes():
    corpus = generate(SHAPE_CONFIG)
    curve = tally_corpus(corpus, ["age_curve"]).age_curve.finalize()

    ref_shares = [curve.pooled_share(REF, D, {age}) for age in range(6)]
    assert all(s is not None for s in ref_shares)
    for age in range(5):
        assert ref_shares[age] < ref_shares[age + 1], (age, ref_shares)

    early = curve.pooled_share(CIT, D, {0, 1})
    late = curve.pooled_share(CIT, D, set(range(15, 200)))
    assert early is not None and late is not None
    assert early > late
    print(f"ACCEPTANCE 7: PASS - self-reference direct share strictly rises over "
          f"ages 0-5 ({ref_shares[0]:.3f}->{ref_shares[5]:.3f}); self-citation "
          f"direct share age 0-1 {early:.3f} > age 15+ {late:.3f}")


def test_criterion_8_similarity_ordering():
    corpus = corpus_from_records([
        PaperRecord("X1", 2000, "health", ("X",), (),
                    abstract="spin glass energy landscape quench anneal"),
        PaperRecord("X2", 2001, "health", ("X",), ("X1",),
                    abstract="spin glass energy landscape quench anneal states"),
        PaperRecord("XY", 2001, "health", ("X", "Y"), ()),
        PaperRecord("Y2", 2003, "health", ("Y",), ("X1",),
                    abstract="spin glass polymer folding membrane lattice"),
        PaperRecord("Z2", 2003, "health", ("Z",), ("X1",),
                    abstract="market auction equilibrium pricing agent trade"),
    ])
    tally = SimilarityTally(build_vectors(corpus))
    profiles = finalize_profiles(
        corpus, tally_corpus(corpus, ["profile"], similarity=tally).profile)
    rows = similarity_means(tally, profiles, key="discipline")
    means = {row["citation_type"]: row["similarity_author_mean"] for row in rows}
    assert means["direct"] > means["collaborator"] > means["external"]
    print(f"ACCEPTANCE 8: PASS - author-mean similarity direct {means['direct']:.3f} "
          f"> collaborator {means['collaborator']:.3f} > external {means['external']:.3f}")


def _artifact_bytes(out_dir: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "run_manifest.json"
    }


def test_criterion_9_determinism(tmp_path):
    def run_all(out: Path):
        base = ["--papers", PAPERS, "--authors", AUTHORS, "--out", str(out)]
        assert main(["validate"] + base) == 0
        assert main(["classify"] + base) == 0
        assert main(["metrics"] + base + ["--min-pubs", "0"]) == 0
        assert main(["hindex"] + base + ["--min-pubs", "0"]) == 0
        assert main(["simil"] + base + ["--min-pubs", "0"]) == 0
        assert main(["report"] + base + ["--min-pubs", "0"]) == 0
        return _artifact_bytes(out)

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"rerun differs: {name}"
    print(f"ACCEPTANCE 9: PASS - {len(first)} artifacts byte-identical across reruns")


def test_criterion_10_scale_smoke(tmp_path):
    started = time.perf_counter()
    corpus, stats = generate_with_stats(SCALE_CONFIG)
    assert len(corpus.papers) >= 100_000
    assert corpus.total_references >= 2_000_000
    write_corpus(corpus, tmp_path, SCALE_CONFIG, stats)
    del corpus

    out = tmp_path / "run"
    base = ["--papers", str(tmp_path / "papers.jsonl"),
            "--authors", str(tmp_path / "authors.jsonl"), "--out", str(out)]
    assert main(["classify"] + base) == 0
    assert main(["report"] + base) == 0
    elapsed = time.perf_counter() - started

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["peak_rss_kb"] > 0
    assert manifest["counts"]["papers"] >= 100_000
    assert elapsed < 300.0
    print(f"ACCEPTANCE 10: PASS - {manifest['counts']['papers']} papers / "
          f"{manifest['counts']['total_references']} references through synth + "
          f"classify + report in {elapsed:.1f}s, peak RSS "
          f"{manifest['peak_rss_kb'] / 1024:.0f} MB (recorded in manifest)")
