import random
from itertools import combinations, permutations

from hypothesis import given, strategies as st

from selfcite.corpus import PaperRecord, corpus_from_records
from selfcite.graph import (
    build_collaboration_index,
    build_edges,
    export_edges,
    index_collaborations,
    intern_corpus,
)
from oracles import joint_paper_before, random_corpus


def joint_before(index, a, b, year):
    # the classifier's strict-year rule: a joint paper before the citing year
    joint = index.adjacency.get(a, {}).get(b)
    return joint is not None and joint < year


class TestBuildEdges:
    def test_fix1_edges(self, fix1_edges):
        assert [(e.citing_id, e.cited_id) for e in fix1_edges] == [
            ("P2", "P1"), ("P3", "P1"), ("P3", "P2"),
            ("P4", "P2"), ("P5", "P1"), ("P5", "P4"),
        ]

    def test_edge_years(self, fix1_edges):
        by_pair = {(e.citing_id, e.cited_id): e for e in fix1_edges}
        assert by_pair[("P5", "P1")].citing_year == 2003
        assert by_pair[("P5", "P1")].cited_year == 2000

    def test_no_references(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), ()),
        ])
        assert build_edges(corpus) == []

    def test_unresolved_reference_yields_no_edge(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), ("GONE",)),
        ])
        assert build_edges(corpus) == []
        assert corpus.unresolved_references == 1

    def test_edge_count_matches_resolvable_references(self):
        rng = random.Random(3)
        for _ in range(20):
            corpus = random_corpus(rng)
            assert len(build_edges(corpus)) == corpus.resolvable_references

    def test_sorted_and_duplicate_free(self):
        rng = random.Random(5)
        for _ in range(10):
            corpus = random_corpus(rng)
            edges = build_edges(corpus)
            keys = [(e.citing_id, e.cited_id) for e in edges]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_export(self, fix1_edges, tmp_path):
        path = tmp_path / "edges.tsv"
        export_edges(fix1_edges, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2\tP1\t2001\t2000"
        assert len(lines) == 6


class TestCollaborationIndex:
    def test_fix1_pairs(self, fix1_collab):
        neighbors = {a: dict(fix1_collab.adjacency.get(a, {})) for a in "ABCD"}
        assert neighbors == {"A": {"B": 2001}, "B": {"A": 2001, "C": 2002},
                             "C": {"B": 2002}, "D": {}}

    def test_single_authored_corpus(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), ()),
            PaperRecord("P2", 2001, "health", ("B",), ()),
        ])
        assert len(build_collaboration_index(corpus)) == 0

    def test_earliest_joint_year(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2005, "health", ("A", "B"), ()),
            PaperRecord("P2", 2003, "health", ("A", "B"), ()),
        ])
        index = build_collaboration_index(corpus)
        assert index.adjacency.get("A", {})["B"] == 2003

    def test_before_queries(self, fix1, fix1_collab):
        for a, b, year, expected in (("A", "B", 2002, True), ("A", "B", 2001, False),
                                     ("A", "C", 2010, False)):
            assert joint_before(fix1_collab, a, b, year) is expected
            assert joint_paper_before(fix1, a, b, year) is expected

    def test_symmetry_random(self):
        rng = random.Random(17)
        for _ in range(10):
            corpus = random_corpus(rng)
            index = build_collaboration_index(corpus)
            authors = sorted(corpus.author_index)
            for _ in range(30):
                a, b = rng.choice(authors), rng.choice(authors)
                if a == b:
                    continue
                year = rng.randint(1989, 2012)
                assert joint_before(index, a, b, year) == joint_before(index, b, a, year)

    def test_matches_raw_record_scan(self):
        # every author pair; the index of the interned corpus, read through
        # its author ids, must be the string index
        rng = random.Random(19)
        for _ in range(10):
            corpus = random_corpus(rng)
            index = build_collaboration_index(corpus)
            view = intern_corpus(corpus)
            interned = index_collaborations(zip(view.authors, view.years))
            ids = view.author_ids
            assert {ids[a]: {ids[b]: year for b, year in adj.items()}
                    for a, adj in interned.adjacency.items()} == index.adjacency
            pairs = {frozenset(pair) for p in corpus.papers.values()
                     for pair in combinations(p.author_ids, 2)}
            assert len(index) == len(interned) == len(pairs)
            for a, b in permutations(sorted(corpus.author_index), 2):
                year = rng.randint(1989, 2012)
                assert joint_before(index, a, b, year) == \
                    joint_paper_before(corpus, a, b, year)

    @given(st.integers(min_value=1990, max_value=2020), st.integers(min_value=0, max_value=30))
    def test_monotone_in_year(self, year, offset):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A", "B"), ()),
        ])
        index = build_collaboration_index(corpus)
        if joint_before(index, "A", "B", year):
            assert joint_before(index, "A", "B", year + offset)
        assert joint_before(index, "A", "B", year) == joint_paper_before(corpus, "A", "B", year)
