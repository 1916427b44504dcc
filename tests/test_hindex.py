import random

import pytest
from hypothesis import given, strategies as st

from selfcite.corpus import PaperRecord, corpus_from_records
from selfcite.hindex import (
    attribution_curve,
    attribution_distribution,
    finalize_decompositions,
    h_index,
    individual_exclusion_table,
)
from selfcite.kernel import count_edges
from oracles import brute_force_decompose, brute_force_h, random_corpus

counts_lists = st.lists(st.integers(min_value=0, max_value=50), max_size=30)


def decompositions(corpus):
    return finalize_decompositions(corpus, count_edges(corpus, ["hindex"]).project_hindex())


class TestHIndex:
    @pytest.mark.parametrize("counts,expected", [
        ([3, 2, 0], 2),
        ([], 0),
        ([5, 5, 5, 5, 5], 5),
        ([3, 0, 6, 1, 5], 3),
        ([0], 0),
        ([1], 1),
        ([100], 1),
    ])
    def test_examples(self, counts, expected):
        assert h_index(counts) == expected

    @given(counts_lists)
    def test_matches_brute_force(self, counts):
        assert h_index(counts) == brute_force_h(counts)

    @given(counts_lists)
    def test_bounds(self, counts):
        h = h_index(counts)
        assert 0 <= h <= len(counts)
        if counts:
            assert h <= max(counts)

    @given(counts_lists, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, counts, rng):
        shuffled = list(counts)
        rng.shuffle(shuffled)
        assert h_index(counts) == h_index(shuffled)


class TestDecompose:
    def test_fix1_author_a(self, fix1):
        dec = decompositions(fix1)["A"]
        # A's papers: P1 cited 3x, P2 cited 2x, P5 uncited
        assert dec.h_obs == 2
        assert dec.h_minus["direct"] == 1
        assert dec.pct("direct") == 50.0

    def test_fix1_author_a_deeper_levels(self, fix1):
        dec = decompositions(fix1)["A"]
        # removing coauthor (P3->P2) leaves P1:1, P2:1 -> h=1
        assert dec.h_minus["direct_coauthor"] == 1
        # removing collaborator (P3->P1) leaves P1:0, P2:1 -> h=1
        assert dec.h_minus["direct_coauthor_collab"] == 1

    def test_author_without_self_citations(self, fix1):
        dec = decompositions(fix1)["D"]
        assert dec.h_obs == dec.h_minus["direct"] == dec.h_minus["direct_coauthor"] \
            == dec.h_minus["direct_coauthor_collab"] == 1
        assert dec.pct("direct_coauthor_collab") == 0.0

    def test_h_zero_author(self, fix1):
        dec = decompositions(fix1)["C"]
        assert dec.h_obs == 0
        assert dec.pct("direct") == 0.0
        assert dec.pct("direct_coauthor_collab") == 0.0

    def test_oracle_equivalence(self):
        rng = random.Random(53)
        for _ in range(15):
            corpus = random_corpus(rng)
            decomps = decompositions(corpus)
            for aid, dec in decomps.items():
                expected = brute_force_decompose(corpus, aid)
                assert dec.h_obs == expected["h_obs"]
                assert dec.h_minus["direct"] == expected["h_minus_direct"]
                assert dec.h_minus["direct_coauthor"] == expected["h_minus_direct_coauthor"]
                assert dec.h_minus["direct_coauthor_collab"] == \
                    expected["h_minus_direct_coauthor_collab"]
                assert dec.h_minus["coauthor_only"] == expected["h_minus_coauthor_only"]
                assert dec.h_minus["collaborator_only"] == expected["h_minus_collaborator_only"]

    def test_monotone_exclusion(self):
        rng = random.Random(59)
        for _ in range(15):
            corpus = random_corpus(rng)
            for dec in decompositions(corpus).values():
                assert dec.h_obs >= dec.h_minus["direct"] >= dec.h_minus["direct_coauthor"] \
                    >= dec.h_minus["direct_coauthor_collab"] >= 0


class TestAttributionCurve:
    def _clone_decomps(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), ()),
            PaperRecord("P2", 2001, "health", ("A",), ("P1",)),
            PaperRecord("P3", 2001, "health", ("B",), ("P1",)),
        ])
        return decompositions(corpus)

    def test_single_bucket_per_h(self):
        decomps = self._clone_decomps()
        rows = attribution_curve(decomps)
        assert {row["h_obs"] for row in rows} == {d.h_obs for d in decomps.values()}

    def test_means_bounded(self):
        rng = random.Random(61)
        for _ in range(10):
            corpus = random_corpus(rng)
            rows = attribution_curve(decompositions(corpus))
            for row in rows:
                for col in ("mean_pct_direct", "mean_pct_direct_coauthor",
                            "mean_pct_direct_coauthor_collab"):
                    assert 0.0 <= row[col] <= 100.0

    def test_clones_constant(self):
        profiles = self._clone_decomps()
        clones = {f"X{i}": profiles["A"] for i in range(8)}
        rows = attribution_curve(clones)
        assert len(rows) == 1
        assert rows[0]["n_authors"] == 8
        assert rows[0]["low_support"] == 0

    def test_low_support_flag(self):
        rows = attribution_curve(self._clone_decomps())
        assert all(row["low_support"] == 1 for row in rows)

    def test_individual_table_columns(self):
        rows = individual_exclusion_table(self._clone_decomps())
        for row in rows:
            assert row["mean_drop_direct"] >= 0
            assert 0.0 <= row["mean_pct_collaborator"] <= 100.0

    def test_curves_coincide_without_collaborator_citations(self):
        # single-authored corpus with collaborator probability 0: no
        # collaborator citations exist, so the direct+coauthor and
        # direct+coauthor+collab levels agree for every author
        from selfcite.synth import SynthConfig, generate

        config = SynthConfig(
            n_authors=40, year_start=2000, year_end=2014, entry_years=2,
            papers_per_author_year=1.0, coauthors_mean=0.0,
            refs_per_paper_start=6.0, refs_per_paper_end=10.0,
            p_direct=0.3, p_coauthor=0.0, p_collaborator=0.0, p_external=0.7,
            seed=57,
        )
        corpus = generate(config)
        decomps = decompositions(corpus)
        assert any(d.h_obs > 0 for d in decomps.values())
        for dec in decomps.values():
            assert dec.h_minus["direct_coauthor"] == dec.h_minus["direct_coauthor_collab"]
            assert dec.h_minus["direct"] == dec.h_minus["direct_coauthor"]
        rows = attribution_curve(decomps)
        for row in rows:
            assert row["mean_pct_direct_coauthor"] == row["mean_pct_direct_coauthor_collab"]


class TestAttributionDistribution:
    def test_bucket_values_accepted(self):
        rows = attribution_distribution({}, h_buckets=[5, 15, 30, 50])
        assert rows == []

    def test_masses_sum_to_bucket_counts(self):
        rng = random.Random(67)
        for _ in range(10):
            corpus = random_corpus(rng)
            decomps = decompositions(corpus)
            buckets = (1, 2, 3, 5)
            rows = attribution_distribution(decomps, h_buckets=buckets)
            per_level: dict = {}
            for row in rows:
                key = (row["h_obs"], row["level"])
                per_level[key] = per_level.get(key, 0) + row["n_authors"]
            for (h_obs, _level), total in per_level.items():
                expected = sum(1 for d in decomps.values() if d.h_obs == h_obs)
                assert total == expected

    def test_no_authors_at_bucket_is_empty_not_error(self, fix1):
        decomps = decompositions(fix1)
        rows = attribution_distribution(decomps, h_buckets=[50])
        assert rows == []

    def test_bin_edges(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), ()),
            PaperRecord("P2", 2001, "health", ("A",), ("P1",)),
        ])
        decomps = decompositions(corpus)
        # A: h_obs=1 entirely from a direct self-citation -> pct 100
        rows = attribution_distribution(decomps, h_buckets=[1])
        direct_rows = [r for r in rows if r["level"] == "direct"]
        assert direct_rows == [
            {"h_obs": 1, "level": "direct", "bin_lo": 95, "bin_hi": 100, "n_authors": 1}
        ]
