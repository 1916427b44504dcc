import math
import random

import pytest

from selfcite.classify import CitationType, Perspective, classify_all
from selfcite.corpus import CorpusError, PaperRecord, corpus_from_records
from selfcite.graph import build_collaboration_index, build_edges, iter_edges
from selfcite.kernel import tally_corpus
from selfcite.metrics import (
    AgeCurveTally,
    AuthorProfile,
    age_bin,
    compute_inflation_weights,
    finalize_profiles,
    heatmap_by_production_and_age,
    percentile_strata,
    rank_and_cut,
    sequential_sum,
    unit_weights,
)
from selfcite.pipeline import run_edge_tallies
from oracles import brute_force_rates, random_corpus

D = CitationType.DIRECT
CA = CitationType.COAUTHOR
CL = CitationType.COLLABORATOR
EX = CitationType.EXTERNAL
REF = Perspective.REFERENCE
CIT = Perspective.CITATION


def classified(corpus):
    edges = build_edges(corpus)
    collab = build_collaboration_index(corpus)
    return list(classify_all(corpus, edges, collab))


def kernel_profiles(corpus, weights=None):
    return finalize_profiles(corpus, tally_corpus(corpus, ["profile"]).profile, weights)


def age_curve_tally(corpus, include=None):
    return tally_corpus(corpus, ["age_curve"], include=include).age_curve


def citation_age_tally(corpus):
    return tally_corpus(corpus, ["citation_age"]).citation_age


def cells(curve, column="pct_pooled"):
    """{(domain, side, age bin, type): ``column``} of an age curve by domain,
    without the cells where ``column`` is empty."""
    return {(row["domain"], Perspective(row["side"]), row["age_bin"],
             CitationType(row["citation_type"])): row[column]
            for row in curve.rows if row[column] is not None}


def two_year_corpus():
    """2000: 2 papers with 10 refs each (mu=10); 2001: 1 paper with 20 refs
    (mu=20, the max). Targets live in 1990 with no references."""
    targets = [PaperRecord(f"T{i:02d}", 1990, "health", ("Z",), ()) for i in range(20)]
    t_ids = [t.paper_id for t in targets]
    papers = targets + [
        PaperRecord("A1", 2000, "health", ("X",), tuple(t_ids[:10])),
        PaperRecord("A2", 2000, "health", ("X",), tuple(t_ids[10:])),
        PaperRecord("B1", 2001, "health", ("Y",), tuple(t_ids)),
    ]
    return corpus_from_records(papers)


def test_sequential_sum_rounds_after_each_addition():
    # a compensated sum (builtin sum of floats from Python 3.12 on) gives
    # 2.0 here; a table must not depend on the interpreter
    assert sequential_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert sequential_sum(x / 10 for x in range(1, 4)) == (0.1 + 0.2) + 0.3 != 0.6
    assert sequential_sum([]) == 0


class TestInflationWeights:
    def test_max_year_weight_is_one(self):
        weights = compute_inflation_weights(two_year_corpus())
        assert weights.weight[2001] == 1.0
        assert weights.max_year == 2001

    def test_hand_evaluated_weight(self):
        weights = compute_inflation_weights(two_year_corpus())
        assert weights.mu_ref[2000] == 10.0
        assert weights.mu_ref[2001] == 20.0
        assert weights.weight[2000] == 2.0

    def test_all_equal_mu(self):
        papers = [PaperRecord("T1", 1990, "health", ("Z",), ())]
        papers += [
            PaperRecord(f"P{y}", y, "health", ("X",), ("T1",))
            for y in (2000, 2001, 2002)
        ]
        weights = compute_inflation_weights(corpus_from_records(papers))
        assert all(w == 1.0 for y, w in weights.weight.items() if y != 1990)

    def test_weight_identity(self):
        rng = random.Random(29)
        for _ in range(15):
            corpus = random_corpus(rng)
            weights = compute_inflation_weights(corpus)
            for year, w in weights.weight.items():
                assert math.isclose(w * weights.mu_ref[year], weights.max_mu,
                                    rel_tol=1e-12)
            assert all(w >= 1.0 for w in weights.weight.values())

    def test_zero_reference_year_flagged(self, fix1):
        weights = compute_inflation_weights(fix1)
        assert weights.zero_reference_years == (2000,)
        assert 2000 not in weights.weight
        assert weights.weight[2002] == 1.0
        assert weights.weight[2001] == 2.0
        assert weights.weight[2003] == pytest.approx(4 / 3, rel=1e-15)

    def test_empty_corpus_is_error(self):
        with pytest.raises(CorpusError):
            compute_inflation_weights(corpus_from_records([]))

    def test_resolvable_references_only(self):
        papers = [
            PaperRecord("T1", 1990, "health", ("Z",), ()),
            PaperRecord("P1", 2000, "health", ("X",), ("T1", "GHOST1", "GHOST2")),
        ]
        weights = compute_inflation_weights(corpus_from_records(papers))
        assert weights.mu_ref[2000] == 1.0


class TestProfiles:
    def test_fix1_author_a_reference_side(self, fix1_profiles):
        a = fix1_profiles["A"]
        assert a.ref_counts == {D: 2, CA: 0, CL: 0, EX: 1}
        assert a.self_reference_rate == 2 / 3

    def test_fix1_author_a_citation_side(self, fix1_profiles):
        a = fix1_profiles["A"]
        assert a.cite_counts == {D: 2, CA: 1, CL: 1, EX: 1}
        assert a.self_citation_rate == 2 / 5

    def test_undefined_rates_flagged(self, fix1_profiles):
        # C's only paper (P3) is never cited
        assert fix1_profiles["C"].self_citation_rate is None
        # C makes references, so the reference rate is defined (0.0)
        assert fix1_profiles["C"].self_reference_rate == 0.0

    def test_no_references_author(self, fix1_profiles):
        # D references P2 (external), receives one external citation
        d = fix1_profiles["D"]
        assert d.self_reference_rate == 0.0
        assert d.self_citation_rate == 0.0

    def test_matches_raw_recount_on_random_corpora(self):
        rng = random.Random(31)
        for _ in range(10):
            corpus = random_corpus(rng)
            profiles = kernel_profiles(corpus)
            for aid, profile in profiles.items():
                ref_rate, cite_rate = brute_force_rates(corpus, aid)
                assert profile.self_reference_rate == ref_rate
                assert profile.self_citation_rate == cite_rate

    def test_weighted_counts(self, fix1):
        weights = compute_inflation_weights(fix1)
        profiles = kernel_profiles(fix1, weights)
        a = profiles["A"]
        # direct citations received in 2001 (w=2) and 2003 (w=4/3)
        assert a.weighted_cite_counts[D] == pytest.approx(2.0 + 4 / 3, rel=1e-15)

    def test_unit_weights_equal_raw_exactly(self, fix1):
        weights = unit_weights(compute_inflation_weights(fix1))
        profiles = kernel_profiles(fix1, weights)
        for p in profiles.values():
            for t in (D, CA, CL, EX):
                assert p.weighted_cite_counts[t] == float(p.cite_counts[t])

    def test_rates_in_unit_interval(self):
        rng = random.Random(37)
        for _ in range(10):
            corpus = random_corpus(rng)
            for p in kernel_profiles(corpus).values():
                for rate in (p.self_reference_rate, p.self_citation_rate):
                    if rate is not None:
                        assert 0.0 <= rate <= 1.0

    def test_count_conservation(self):
        # per-type sums over author profiles equal per-type record counts
        rng = random.Random(83)
        for _ in range(10):
            corpus = random_corpus(rng)
            records = classified(corpus)
            profiles = kernel_profiles(corpus)
            for side, bucket in ((REF, "ref_counts"), (CIT, "cite_counts")):
                for t in (D, CA, CL, EX):
                    from_profiles = sum(getattr(p, bucket)[t] for p in profiles.values())
                    from_records = sum(
                        1 for r in records if r.perspective is side and r.ctype is t
                    )
                    assert from_profiles == from_records

    def test_first_year_property(self):
        # direct references can only target papers from the author's own
        # career, so none precede the first publication year
        rng = random.Random(41)
        for _ in range(10):
            corpus = random_corpus(rng)
            for rec in classified(corpus):
                if rec.perspective is REF and rec.ctype is D:
                    first = corpus.author_index[rec.author_id].first_pub_year
                    assert rec.edge.cited_year >= first


class TestAcademicAge:
    def test_age_bins(self):
        assert age_bin(0) == "0"
        assert age_bin(10) == "10"
        assert age_bin(11) == "11-15"
        assert age_bin(16) == "16-20"
        assert age_bin(21) == "21+"
        assert age_bin(40) == "21+"


class TestAgeCurves:
    def test_fix1_author_a_alone(self, fix1):
        curve = age_curve_tally(fix1, include={"A"}).finalize()
        key = ("natural_sciences_engineering", REF, "1", D)
        assert cells(curve)[key] == 100.0
        assert cells(curve, "pct_author_mean")[key] == 100.0

    def test_direct_row_zero_without_self_citation(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), ()),
            PaperRecord("P2", 2001, "health", ("B",), ("P1",)),
        ])
        curve = age_curve_tally(corpus).finalize()
        for (facet, side, bin_label, ctype), pct in cells(curve).items():
            if ctype is D:
                assert pct == 0.0

    def test_cell_percentages_sum_to_100(self):
        rng = random.Random(43)
        for _ in range(10):
            corpus = random_corpus(rng)
            curve = age_curve_tally(corpus).finalize()
            totals = {}
            for (facet, side, bin_label, ctype), pct in cells(curve).items():
                totals.setdefault((facet, side, bin_label), 0.0)
                totals[(facet, side, bin_label)] += pct
            for total in totals.values():
                assert total == pytest.approx(100.0, abs=1e-9)

    def test_preage_events_skipped(self):
        # B (first year 2000) cites A's paper from 2005; the citation-side
        # event for A predates A's first publication year
        corpus = corpus_from_records([
            PaperRecord("P1", 2005, "health", ("A",), ()),
            PaperRecord("P2", 2000, "health", ("B",), ("P1",)),
        ])
        curve = age_curve_tally(corpus).finalize()
        assert curve.skipped_preage == 1

    def test_ineligible_events_counted(self, fix1, fix1_records):
        curve = age_curve_tally(fix1, include=set()).finalize()
        assert curve.skipped_ineligible == len(fix1_records)
        assert curve.rows == []

    def test_production_facet(self, fix1):
        curve = age_curve_tally(fix1).finalize(by_production=True)
        assert all(row["pubs_bin"] == "1-5" for row in curve.rows)

    def test_weighted_variant_hand_computed(self, fix1):
        # citation-side cell at age 2 pools A's 2002 events (w=1) with B's
        # 2003 event (w=4/3): raw shares 1/3 each, weighted external 40%
        weights = compute_inflation_weights(fix1)
        curve = age_curve_tally(fix1).finalize(weights=weights)
        domain = "natural_sciences_engineering"
        weighted = cells(curve, "pct_pooled_weighted")
        assert cells(curve)[(domain, CIT, "2", EX)] == pytest.approx(100 / 3)
        assert weighted[(domain, CIT, "2", EX)] == pytest.approx(40.0)
        assert weighted[(domain, CIT, "2", CA)] == pytest.approx(30.0)
        # reference-side shares stay unweighted by design
        assert all(key[1] is not REF for key in weighted)
        for row in curve.rows:
            if row["side"] == "reference":
                assert row["pct_pooled_weighted"] is None

    def test_weighted_variant_equals_raw_under_unit_weights(self, fix1):
        weights = unit_weights(compute_inflation_weights(fix1))
        curve = age_curve_tally(fix1).finalize(weights=weights)
        pooled = cells(curve)
        for key, pct in cells(curve, "pct_pooled_weighted").items():
            assert pct == pooled[key]

    def test_finalize_independent_of_fill_order(self):
        # the add_edge feed (edge order), the kernel (author order) and a
        # shuffled copy fill per_author in three orders; every finalize gives
        # the same bytes, weighted percentages included
        rng = random.Random(101)
        orders_differ = 0
        for _ in range(20):
            corpus = random_corpus(rng, max_papers=40, max_authors=10)
            include = {a for a in corpus.author_index if rng.random() < 0.8}
            fed = AgeCurveTally.for_corpus(corpus, include)
            run_edge_tallies(corpus, iter_edges(corpus), build_collaboration_index(corpus),
                             [fed])
            kernel = age_curve_tally(corpus, include)
            items = list(kernel.per_author.items())
            rng.shuffle(items)
            shuffled = AgeCurveTally.for_corpus(corpus, include)
            shuffled.per_author.update(items)
            tallies = (fed, kernel, shuffled)
            orders_differ += len({tuple(t.per_author) for t in tallies}) > 1
            weights = compute_inflation_weights(corpus)
            for by_production in (False, True):
                for w in (None, weights):
                    curves = [t.finalize(by_production, w) for t in tallies]
                    assert len({repr(c.rows) for c in curves}) == 1
                    assert len({repr(c.pooled_raw) for c in curves}) == 1
        assert orders_differ == 20


class TestCitationAgeDistribution:
    def test_fix1_ages(self, fix1):
        tally = citation_age_tally(fix1)
        rows, excluded = tally.finalize(5), tally.negative_excluded
        assert excluded == 0
        by_key = {(r["side"], r["citation_type"], r["publication_age"]): r for r in rows}
        # P5 -> P4 is same-year external (reference side for A, citation side for D)
        assert by_key[("reference", "external", 0)]["events"] == 1
        assert by_key[("citation", "external", 0)]["events"] == 1
        # P5 -> P1 direct at age 3
        assert by_key[("reference", "direct", 3)]["events"] == 1

    def test_normalized_peak_is_one(self):
        rng = random.Random(47)
        for _ in range(10):
            corpus = random_corpus(rng)
            rows = citation_age_tally(corpus).finalize(len(corpus.papers))
            peaks = {}
            for row in rows:
                key = (row["side"], row["citation_type"])
                peaks[key] = max(peaks.get(key, 0.0), row["normalized"])
            for peak in peaks.values():
                assert peak == 1.0

    def test_negative_ages_excluded(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2005, "health", ("A",), ()),
            PaperRecord("P2", 2000, "health", ("B",), ("P1",)),
        ])
        tally = citation_age_tally(corpus)
        rows, excluded = tally.finalize(2), tally.negative_excluded
        assert rows == []
        assert excluded == 2

    def test_mean_per_paper(self, fix1):
        rows = citation_age_tally(fix1).finalize(5)
        for row in rows:
            assert row["mean_per_paper"] == row["events"] / 5


def make_profile(aid, ref_direct=0, ref_external=0, cite_direct=0, cite_external=0,
                 first=2000, last=2005, n_pubs=8, discipline="health", gender="unknown"):
    ref_counts = {D: ref_direct, CA: 0, CL: 0, EX: ref_external}
    cite_counts = {D: cite_direct, CA: 0, CL: 0, EX: cite_external}
    return AuthorProfile(
        author_id=aid, first_pub_year=first, last_pub_year=last, n_pubs=n_pubs,
        discipline=discipline, gender=gender, ref_counts=ref_counts,
        cite_counts=cite_counts,
        weighted_cite_counts={t: float(v) for t, v in cite_counts.items()},
    )


def group_sizes(strata, n_groups: int) -> list[int]:
    sizes = {row["group"]: row["n_authors"] for row in strata.rows}
    return [sizes.get(g, 0) for g in range(1, n_groups + 1)]


class TestPercentileStrata:
    def test_distinct_rates_one_per_group(self):
        profiles = {
            f"A{i}": make_profile(f"A{i}", ref_direct=i, ref_external=10 - i)
            for i in range(10)
        }
        strata = percentile_strata(profiles, n_percentiles=10)
        assert group_sizes(strata, 10) == [1] * 10
        rates = [row["mean_self_reference_rate"] for row in strata.rows]
        assert rates == sorted(rates)

    def test_equal_rates_tie_break_by_id(self):
        profiles = {
            f"A{i}": make_profile(f"A{i}", ref_direct=1, ref_external=1)
            for i in range(6)
        }
        strata = percentile_strata(profiles, n_percentiles=3)
        assert group_sizes(strata, 3) == [2, 2, 2]
        # fed in reverse id order, so the sort's tie-break places A0 first
        members = [(p.self_reference_rate, aid, p) for aid, p in reversed(profiles.items())]
        first_group = rank_and_cut(members, 3)[0]
        assert first_group[0] == 1
        assert [aid for _r, aid, _p in first_group[1]] == ["A0", "A1"]

    def test_group_sizes_differ_by_at_most_one(self):
        for total in (1, 4, 7, 23, 100):
            profiles = {
                f"A{i:03d}": make_profile(f"A{i:03d}", ref_direct=i % 5, ref_external=7)
                for i in range(total)
            }
            strata = percentile_strata(profiles, n_percentiles=10)
            sizes = group_sizes(strata, 10)
            assert sum(sizes) == total
            assert max(sizes) - min(sizes) <= 1

    def test_rank_and_cut_keeps_only_non_empty_groups(self):
        # one member among a million groups costs one group, not a million
        # lists; the group is the last, as (g-1)*1//10**6 <= 0 < g*1//10**6
        assert rank_and_cut([(0.5, "A")], 10**6) == [(10**6, [(0.5, "A")])]
        for total in range(0, 30):
            for n_groups in (1, 2, 3, 7, 10, 29, 30, 31, 100, 1000):
                members = [((i * 7) % 5 / 5, f"A{i:02d}") for i in range(total)]
                ranked = sorted(members)
                old = [ranked[g * total // n_groups:(g + 1) * total // n_groups]
                       for g in range(n_groups)]
                assert rank_and_cut(members, n_groups) == \
                    [(g + 1, chunk) for g, chunk in enumerate(old) if chunk]

    def test_small_stratum_flagged_low_support(self):
        profiles = {"A1": make_profile("A1", ref_direct=1, ref_external=1)}
        strata = percentile_strata(profiles, n_percentiles=10)
        assert all(row["low_support"] == 1 for row in strata.rows)

    def test_undefined_rates_excluded_and_counted(self):
        profiles = {"A1": make_profile("A1")}  # no references at all
        strata = percentile_strata(profiles, n_percentiles=4)
        assert strata.rows == []
        assert strata.excluded_undefined == 1

    def test_planted_external_correlation_is_monotone(self):
        # high self-referencers receive more external citations by construction
        profiles = {
            f"A{i:02d}": make_profile(f"A{i:02d}", ref_direct=i, ref_external=40 - i,
                                      cite_external=i * 3)
            for i in range(40)
        }
        strata = percentile_strata(profiles, n_percentiles=4)
        means = [row["mean_external_citations"] for row in strata.rows]
        assert means == sorted(means)
        assert means[0] < means[-1]

    def test_share_women(self):
        profiles = {
            "A1": make_profile("A1", ref_direct=1, ref_external=1, gender="woman"),
            "A2": make_profile("A2", ref_direct=2, ref_external=1, gender="man"),
            "A3": make_profile("A3", ref_direct=3, ref_external=1, gender="unknown"),
        }
        strata = percentile_strata(profiles, n_percentiles=1)
        assert strata.rows[0]["share_women"] == 0.5

    def test_synth_external_coupling_gives_monotone_groups(self):
        # generator planted so that heavy self-referencers are preferred
        # external targets; group means of external citations must rise
        from selfcite.synth import SynthConfig, generate

        config = SynthConfig(
            n_authors=120, year_start=2000, year_end=2019, entry_years=1,
            papers_per_author_year=1.0, coauthors_mean=0.0,
            refs_per_paper_start=8.0, refs_per_paper_end=12.0,
            p_direct=0.3, p_coauthor=0.0, p_collaborator=0.0, p_external=0.7,
            direct_spread=0.9, selfref_external_coupling=1.0,
            disciplines=("health",),
            seed=556,
        )
        corpus = generate(config)
        profiles = kernel_profiles(corpus)
        strata = percentile_strata(profiles, n_percentiles=4, pubs_bins=((1, None),))
        means = [row["mean_external_citations"] for row in strata.rows]
        assert len(means) == 4
        assert means == sorted(means)
        assert means[0] < means[-1]


class TestHeatmap:
    def test_clones_give_equal_cells(self):
        profiles = {
            f"A{i}": make_profile(f"A{i}", ref_direct=1, ref_external=3,
                                  cite_direct=1, cite_external=4)
            for i in range(6)
        }
        rows = heatmap_by_production_and_age(profiles)
        assert len(rows) == 1
        assert rows[0]["n_authors"] == 6
        assert rows[0]["low_support"] == 0
        assert rows[0]["mean_self_reference_pct"] == pytest.approx(25.0)
        assert rows[0]["mean_self_citation_pct"] == pytest.approx(20.0)

    def test_fix1_low_support_cells(self, fix1_profiles):
        rows = heatmap_by_production_and_age(fix1_profiles)
        assert rows
        assert all(row["low_support"] == 1 for row in rows)
        assert all(row["pubs_bin"] == "1-5" for row in rows)
        assert sum(row["n_authors"] for row in rows) == 4

    def test_empty(self):
        assert heatmap_by_production_and_age({}) == []
