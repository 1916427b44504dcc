import random

import pytest

from selfcite.classify import (
    CITATION_TYPES,
    CitationType,
    Perspective,
    _side_types,
    classify_all,
    read_classifications,
    write_classifications,
)
from selfcite.corpus import CorpusError, PaperRecord, corpus_from_records
from selfcite.graph import build_collaboration_index, build_edges
from oracles import brute_force_classify_all, random_corpus

D = CitationType.DIRECT
CA = CitationType.COAUTHOR
CL = CitationType.COLLABORATOR
EX = CitationType.EXTERNAL


def edge_of(edges, citing, cited):
    return next(e for e in edges if e.citing_id == citing and e.cited_id == cited)


def record_type(records, citing, cited, author, perspective):
    """The type of the one record of ``author`` on edge citing -> cited."""
    [ctype] = [r.ctype for r in records
               if (r.edge.citing_id, r.edge.cited_id, r.author_id, r.perspective)
               == (citing, cited, author, perspective)]
    return ctype


def has_direct(records, edge):
    """Paper-level self-citation: some author is direct on ``edge``."""
    return any(r.ctype is D for r in records if r.edge == edge)


class TestClassifyReference:
    @pytest.mark.parametrize("citing,cited,author,expected", [
        ("P3", "P2", "B", D),
        ("P3", "P2", "C", CA),
        ("P3", "P1", "B", CL),
        ("P3", "P1", "C", EX),
        ("P5", "P4", "A", EX),
        ("P2", "P1", "A", D),
        ("P2", "P1", "B", CA),
    ])
    def test_fix1_rules(self, fix1_records, citing, cited, author, expected):
        assert record_type(fix1_records, citing, cited, author,
                           Perspective.REFERENCE) is expected


class TestClassifyCitation:
    @pytest.mark.parametrize("citing,cited,author,expected", [
        ("P2", "P1", "A", D),
        ("P3", "P2", "A", CA),
        ("P3", "P1", "A", CL),
        ("P4", "P2", "A", EX),
        ("P3", "P2", "B", D),
        ("P5", "P4", "D", EX),
    ])
    def test_fix1_rules(self, fix1_records, citing, cited, author, expected):
        assert record_type(fix1_records, citing, cited, author,
                           Perspective.CITATION) is expected


class TestPaperLevel:
    def test_overlap(self, fix1_edges, fix1_records):
        assert has_direct(fix1_records, edge_of(fix1_edges, "P2", "P1")) is True

    def test_disjoint(self, fix1_edges, fix1_records):
        assert has_direct(fix1_records, edge_of(fix1_edges, "P4", "P2")) is False

    def test_consistent_with_direct_records(self, fix1, fix1_edges, fix1_records):
        for edge in fix1_edges:
            edge_records = [r for r in fix1_records if r.edge == edge]
            ref_direct = any(r.ctype is D for r in edge_records
                             if r.perspective is Perspective.REFERENCE)
            cite_direct = any(r.ctype is D for r in edge_records
                              if r.perspective is Perspective.CITATION)
            flag = not set(fix1.papers[edge.citing_id].author_ids).isdisjoint(
                fix1.papers[edge.cited_id].author_ids)
            assert flag == ref_direct == cite_direct


class TestSideTypes:
    # one side of an edge citing in 2000: A and X co-published in 1999, B
    # and Y in 2000, and C never co-published
    ADJACENCY = {"A": {"X": 1999}, "X": {"A": 1999}, "B": {"Y": 2000}, "Y": {"B": 2000}}

    def test_indices_follow_citation_types(self):
        assert CITATION_TYPES == (D, CA, CL, EX)

    def test_intersecting_teams(self):
        side, other = ("A", "B"), ("A", "X")
        assert _side_types(side, frozenset(side), frozenset(other), other,
                           self.ADJACENCY, 2000) == [0, 1]

    def test_disjoint_teams(self):
        # joint year one before the citing year, equal to it, and no entry
        side, other = ("A", "B", "C"), ("X", "Y")
        assert "C" not in self.ADJACENCY
        assert _side_types(side, frozenset(side), frozenset(other), other,
                           self.ADJACENCY, 2000) == [2, 3, 3]


class TestClassifyAll:
    def test_fix1_record_counts(self, fix1_records):
        # 9 citing-author slots; 8 cited-author slots (1+1+2+2+1+1)
        ref = [r for r in fix1_records if r.perspective is Perspective.REFERENCE]
        cit = [r for r in fix1_records if r.perspective is Perspective.CITATION]
        assert len(ref) == 9
        assert len(cit) == 8

    def test_empty_edge_list(self, fix1, fix1_collab):
        assert list(classify_all(fix1, [], fix1_collab)) == []

    def test_single_author_self_loop_corpus(self):
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "health", ("A",), ()),
            PaperRecord("P2", 2001, "health", ("A",), ("P1",)),
        ])
        edges = build_edges(corpus)
        collab = build_collaboration_index(corpus)
        records = list(classify_all(corpus, edges, collab))
        assert len(records) == 2
        assert all(r.ctype is D for r in records)

    def test_exhaustive_partition(self, fix1, fix1_edges, fix1_records):
        slots = set()
        for edge in fix1_edges:
            for a in fix1.papers[edge.citing_id].author_ids:
                slots.add((a, edge, Perspective.REFERENCE))
            for a in fix1.papers[edge.cited_id].author_ids:
                slots.add((a, edge, Perspective.CITATION))
        seen = [(r.author_id, r.edge, r.perspective) for r in fix1_records]
        assert len(seen) == len(set(seen)) == len(slots)
        assert set(seen) == slots

    def test_direct_symmetry(self, fix1, fix1_records):
        for r in fix1_records:
            citing_authors = fix1.papers[r.edge.citing_id].author_ids
            cited_authors = fix1.papers[r.edge.cited_id].author_ids
            both = r.author_id in citing_authors and r.author_id in cited_authors
            assert (r.ctype is D) == both

    def test_oracle_equivalence_random(self):
        rng = random.Random(23)
        for _ in range(25):
            corpus = random_corpus(rng)
            edges = build_edges(corpus)
            collab = build_collaboration_index(corpus)
            got = list(classify_all(corpus, edges, collab))
            assert got == brute_force_classify_all(corpus)


class TestExportRoundTrip:
    def test_round_trip(self, fix1, fix1_records, tmp_path):
        path = tmp_path / "cls.tsv"
        n = write_classifications(iter(fix1_records), path)
        assert n == len(fix1_records)
        back = list(read_classifications(path, fix1))
        assert back == fix1_records

    def test_export_format(self, fix1, fix1_records, tmp_path):
        path = tmp_path / "cls.tsv"
        write_classifications(iter(fix1_records), path)
        first = path.read_text().splitlines()[0]
        assert first == "A\tP2\tP1\treference\tdirect"

    @pytest.mark.parametrize("tamper", [
        lambda rows: rows[:-3],                                  # truncated
        lambda rows: rows[:-2],                                  # last edge dropped
        lambda rows: [b"ZZZ" + rows[0][rows[0].index(b"\t"):]] + rows[1:],  # foreign author
        lambda rows: rows[3:] + rows[:3],                        # first edge moved last
        lambda rows: rows + rows[:3],                            # first edge duplicated
        lambda rows: [b"A\tP1\tP5\treference\tdirect",         # P5 -> P1 turned around
                      b"A\tP1\tP5\tcitation\tdirect"] + rows[:13] + rows[15:],
        lambda rows: rows[:4] + [b"\xff" + rows[4]] + rows[5:],  # not UTF-8
        lambda rows: [rows[0].replace(b"direct", b"external")] + rows[1:],  # retyped
        lambda rows: [rows[0] + b"\tdirect"] + rows[1:],               # sixth field
        lambda rows: [rows[0].replace(b"reference", b"citing")] + rows[1:],  # unknown side
        lambda rows: [rows[2]] + rows[:2] + rows[3:],            # citation row first
    ], ids=["truncated", "last_edge_dropped", "foreign_author", "reordered_edge", "duplicated_edge",
            "unreferenced_edge", "invalid_utf8", "wrong_type", "sixth_field",
            "unknown_perspective", "citation_before_reference"])
    def test_export_checked_against_corpus(self, fix1, fix1_records, tmp_path, tamper):
        path = tmp_path / "cls.tsv"
        write_classifications(iter(fix1_records), path)
        rows = path.read_bytes().splitlines()
        path.write_bytes(b"".join(r + b"\n" for r in tamper(rows)))
        with pytest.raises(CorpusError, match=r"^classifications line \d+: "):
            list(read_classifications(path, fix1))

    def test_mismatch_names_expected_row(self, fix1, fix1_records, tmp_path):
        path = tmp_path / "cls.tsv"
        write_classifications(iter(fix1_records), path)
        rows = path.read_text().splitlines()
        path.write_text("\n".join([rows[0].replace("direct", "external")] + rows[1:]) + "\n")
        with pytest.raises(CorpusError) as exc:
            list(read_classifications(path, fix1))
        assert str(exc.value) == (
            "classifications line 1: expected 'A\\tP2\\tP1\\treference\\tdirect', "
            "found 'A\\tP2\\tP1\\treference\\texternal'")
        path.write_text("\n".join(rows[:-1]) + "\n")
        with pytest.raises(CorpusError) as exc:
            list(read_classifications(path, fix1))
        assert str(exc.value) == (
            f"classifications line {len(rows)}: expected {rows[-1]!r}, found end of file")
        path.write_text("\n".join(rows + rows[:1]) + "\n")
        with pytest.raises(CorpusError) as exc:
            list(read_classifications(path, fix1))
        assert str(exc.value) == (
            f"classifications line {len(rows) + 1}: expected end of file, found {rows[0]!r}")

    def test_blank_lines_skipped(self, fix1, fix1_records, tmp_path):
        # a blank line inside an edge's block is no row: the file still reads
        # back equal to the records written
        path = tmp_path / "cls.tsv"
        write_classifications(iter(fix1_records), path)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:1] + [""] + rows[1:] + [""]) + "\n")
        assert list(read_classifications(path, fix1)) == fix1_records
