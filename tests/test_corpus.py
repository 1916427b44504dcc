import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from selfcite.classify import classify_all, read_classifications, write_classifications
from selfcite.corpus import (
    DISCIPLINES,
    GENDERS,
    AuthorIndexEntry,
    AuthorRecord,
    CorpusError,
    PaperRecord,
    build_author_index,
    corpus_from_records,
    eligible_authors,
    load_corpus,
    save_corpus,
)
from selfcite.graph import build_collaboration_index, build_edges
from conftest import TESTDATA
from oracles import brute_force_author_index, random_corpus


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def paper_line(pid, year, authors, refs, discipline="health", **extra):
    obj = {"id": pid, "year": year, "discipline": discipline,
           "authors": authors, "references": refs}
    obj.update(extra)
    return json.dumps(obj)


class TestLoadCorpus:
    def test_fix1_counts(self, fix1):
        assert len(fix1.papers) == 5
        assert len(fix1.authors) == 4
        assert fix1.total_references == 6
        assert fix1.unresolved_references == 0

    def test_empty_file(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        papers.write_text("", encoding="utf-8")
        corpus = load_corpus(papers)
        assert len(corpus.papers) == 0
        assert len(corpus.authors) == 0

    def test_duplicate_paper_id(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [
            paper_line("P1", 2000, ["A"], []),
            paper_line("P1", 2001, ["B"], []),
        ])
        with pytest.raises(CorpusError, match=r"line 2.*duplicate paper_id 'P1'"):
            load_corpus(papers)

    def test_malformed_json_names_line(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [paper_line("P1", 2000, ["A"], []), "{broken"])
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(papers)

    def test_crlf_and_cr_line_endings_count_lines(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        papers.write_bytes((paper_line("P1", 2000, ["A"], []) + "\r\n"
                            + paper_line("P2", 2001, ["A"], ["P1"]) + "\r"
                            + "{broken\n").encode("utf-8"))
        with pytest.raises(CorpusError, match="line 3"):
            load_corpus(papers)

    def test_empty_author_list(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [paper_line("P1", 2000, [], [])])
        with pytest.raises(CorpusError, match="'authors'"):
            load_corpus(papers)

    @pytest.mark.parametrize("year", [1799, 2101, "2000"])
    def test_year_validation(self, tmp_path, year):
        papers = tmp_path / "papers.jsonl"
        papers.write_text(json.dumps({
            "id": "P1", "year": year, "discipline": "health",
            "authors": ["A"], "references": [],
        }) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="'year'"):
            load_corpus(papers)

    def test_duplicate_authors_within_paper(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [paper_line("P1", 2000, ["A", "A"], [])])
        with pytest.raises(CorpusError, match="'authors'"):
            load_corpus(papers)

    def test_duplicate_references_within_paper(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [paper_line("P1", 2000, ["A"], ["X", "X"])])
        with pytest.raises(CorpusError, match="'references'"):
            load_corpus(papers)

    def test_self_reference_names_line(self):
        # counted, p1 -> p1 would be a direct self-citation of p1 by itself
        with pytest.raises(CorpusError, match=r"^papers line 2: field 'references' contains "
                                              r"the paper's own id \(paper p1\)$"):
            load_corpus(TESTDATA / "self_citing_papers.jsonl")

    @pytest.mark.parametrize("field,value,message", [
        ("authors", ["A", 1], "field 'authors' entries must be non-empty strings"),
        ("references", ["X", 1], "field 'references' must be a list of id strings"),
        ("references", ["X", ""], "field 'references' must be a list of id strings"),
    ], ids=["author_not_string", "reference_not_string", "reference_empty"])
    def test_list_entry_messages(self, tmp_path, field, value, message):
        papers = tmp_path / "papers.jsonl"
        bad = {"id": "P1", "year": 2001, "discipline": "health", "authors": ["A"],
               "references": [], field: value}
        write_lines(papers, [paper_line("P0", 2000, ["A"], []), json.dumps(bad)])
        with pytest.raises(CorpusError) as err:
            load_corpus(papers)
        assert str(err.value) == f"papers line 2: {message} (paper P1)"

    def test_bad_discipline(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [paper_line("P1", 2000, ["A"], [], discipline="magic")])
        with pytest.raises(CorpusError, match="'discipline'"):
            load_corpus(papers)

    def test_unresolved_references_flagged(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [
            paper_line("P1", 2000, ["A"], []),
            paper_line("P2", 2001, ["A"], ["P1", "GHOST"]),
        ])
        corpus = load_corpus(papers)
        assert corpus.total_references == 2
        assert corpus.unresolved_references == 1
        report = corpus.validation_report()
        assert report["unresolved_fraction"] == 0.5

    def test_missing_papers_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl")

    def test_synthesized_author_records(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [paper_line("P1", 2000, ["A"], [])])
        corpus = load_corpus(papers)
        assert corpus.authors["A"].gender == "unknown"

    @pytest.mark.parametrize("paper_id,author,listed_author", [
        ("P\t1", "A", "A"),
        ("P1", "A\nB", "A"),
        ("P1", "A", "A\rB"),
    ], ids=["paper_id", "paper_author", "authors_file_id"])
    def test_id_with_separator_names_line(self, tmp_path, paper_id, author, listed_author):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [paper_line("P0", 2000, ["A"], []),
                             paper_line(paper_id, 2001, [author], [])])
        authors = tmp_path / "authors.jsonl"
        write_lines(authors, [json.dumps({"id": "Z"}), json.dumps({"id": listed_author})])
        source = "authors" if listed_author != "A" else "papers"
        with pytest.raises(CorpusError, match=f"^{source} line 2: .*tab or line break"):
            load_corpus(papers, authors)

    def test_bad_gender_in_authors_file(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [paper_line("P1", 2000, ["A"], [])])
        authors = tmp_path / "authors.jsonl"
        write_lines(authors, [json.dumps({"id": "A", "gender": "other"})])
        with pytest.raises(CorpusError, match="'gender'"):
            load_corpus(papers, authors)


def _id_objects(corpus):
    """Every id string object the corpus holds, by where it sits."""
    for pid, p in corpus.papers.items():
        yield "papers key", pid
        yield "paper_id", p.paper_id
        yield from (("author_ids", a) for a in p.author_ids)
        yield from (("reference_ids", r) for r in p.reference_ids)
    for aid, a in corpus.authors.items():
        yield "authors key", aid
        yield "author_id", a.author_id
    for aid, entry in corpus.author_index.items():
        yield "author_index key", aid
        yield from (("publication_ids", pid) for pid in entry.publication_ids)


class TestOneObjectPerId:
    """A load keeps one string object per distinct id, from a memo that
    lives for that load only. Ids are longer than one character, since
    CPython shares one-character strings anyway."""

    @pytest.fixture
    def files(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        write_lines(papers, [
            paper_line("paper-2", 2001, ["author-a", "author-b"], ["paper-1", "ghost-9"],
                       discipline="social_sciences"),
            paper_line("paper-1", 2000, ["author-a"], ["ghost-9"]),
            paper_line("paper-3", 2002, ["author-b", "author-c"], ["paper-2", "paper-1"]),
        ])
        authors = tmp_path / "authors.jsonl"
        write_lines(authors, [json.dumps({"id": "author-b", "gender": "woman"}),
                              json.dumps({"id": "author-z", "gender": "man"})])
        return papers, authors

    def test_resolvable_reference_is_its_paper_key(self, files):
        corpus = load_corpus(*files)
        keys = {pid: pid for pid in corpus.papers}
        resolvable = [rid for p in corpus.papers.values() for rid in p.reference_ids
                      if rid in keys]
        assert len(resolvable) == 3
        for rid in resolvable:
            assert rid is keys[rid]
        for pid, p in corpus.papers.items():
            assert p.paper_id is pid

    def test_one_object_per_id_across_the_corpus(self, files):
        corpus = load_corpus(*files)
        first = {}
        for where, value in _id_objects(corpus):
            assert first.setdefault(value, value) is value, (where, value)
        assert {"author-a", "author-b", "author-c", "author-z", "ghost-9"} <= set(first)

    def test_two_loads_share_no_id_object(self, files):
        one = load_corpus(*files)
        two = load_corpus(*files)
        ids_one = {id(v) for _where, v in _id_objects(one)}
        ids_two = {id(v) for _where, v in _id_objects(two)}
        assert ids_one.isdisjoint(ids_two)

    def test_discipline_and_gender_are_the_constants(self, files):
        corpus = load_corpus(*files)
        for p in corpus.papers.values():
            assert p.discipline is DISCIPLINES[DISCIPLINES.index(p.discipline)]
        for a in corpus.authors.values():
            assert a.gender is GENDERS[GENDERS.index(a.gender)]

    @pytest.mark.parametrize("field, value", [
        ("discipline", ["health"]), ("discipline", {"health": 1}),
        ("gender", ["woman"]), ("gender", {"woman": 1}),
    ])
    def test_unhashable_discipline_or_gender_names_its_line(self, files, field, value):
        papers, authors = files
        if field == "discipline":
            path, source, what = papers, "papers", f"one of {DISCIPLINES} (paper P9)"
            bad = json.loads(paper_line("P9", 2000, ["author-a"], []))
        else:
            path, source, what = authors, "authors", f"one of {GENDERS} (author A9)"
            bad = {"id": "A9"}
        bad[field] = value
        path.write_text(path.read_text() + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_corpus(papers, authors)
        lineno = 4 if source == "papers" else 3
        assert str(err.value) == f"{source} line {lineno}: field '{field}' must be {what}"

    def test_records_keep_their_callers_objects(self):
        papers = [PaperRecord("paper-1", 2000, "health", ("author-a",), ())]
        authors = [AuthorRecord("author-a", gender="woman")]
        corpus = corpus_from_records(papers, authors)
        assert corpus.papers["paper-1"] is papers[0]
        assert corpus.authors["author-a"] is authors[0]


class TestRecords:
    """Records are immutable named tuples."""

    @pytest.mark.parametrize("record, field", [
        (PaperRecord("P1", 2000, "health", ("A",), ()), "year"),
        (AuthorRecord("A"), "gender"),
        (AuthorIndexEntry(2000, 2001, ["P1"], "health"), "publication_ids"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_keyword_and_positional_construction_agree(self):
        paper = PaperRecord(paper_id="P1", year=2000, discipline="health",
                            author_ids=("A",), reference_ids=("P0",))
        assert paper == PaperRecord("P1", 2000, "health", ("A",), ("P0",), None, None)
        assert (paper.abstract, paper.title) == (None, None)
        author = AuthorRecord(author_id="A")
        assert author == AuthorRecord("A", "unknown", None)
        assert author.gender == "unknown"

    def test_replace_returns_a_new_record(self):
        paper = PaperRecord("P1", 2000, "health", ("A",), ("P0",))
        changed = paper._replace(reference_ids=(), title="T")
        assert changed == PaperRecord("P1", 2000, "health", ("A",), (), None, "T")
        assert paper == PaperRecord("P1", 2000, "health", ("A",), ("P0",))


class TestCorpusFromRecords:
    """In-memory records pass the id and year checks of :func:`load_corpus`."""

    @pytest.mark.parametrize("paper_id,author,listed_author", [
        ("P\t1", "A", "A"),
        ("P1", "A\nB", "A"),
        ("P1", "A", "A\rB"),
    ], ids=["paper_id", "paper_author", "author_record_id"])
    def test_id_with_separator(self, paper_id, author, listed_author):
        papers = [PaperRecord("P0", 2000, "health", ("A",), ()),
                  PaperRecord(paper_id, 2001, "health", (author,), ())]
        with pytest.raises(CorpusError, match="tab or line break"):
            corpus_from_records(papers, [AuthorRecord("Z"), AuthorRecord(listed_author)])

    @pytest.mark.parametrize("year", [1799, 2101])
    def test_year_out_of_range(self, year):
        papers = [PaperRecord("P1", year, "health", ("A",), ())]
        with pytest.raises(CorpusError, match="^field 'year' out of range"):
            corpus_from_records(papers)

    def test_duplicate_author_id(self):
        papers = [PaperRecord("P1", 2000, "health", ("A",), ())]
        authors = [AuthorRecord("A"), AuthorRecord("A", gender="woman")]
        with pytest.raises(CorpusError, match="^duplicate author_id 'A'$"):
            corpus_from_records(papers, authors)

    def test_duplicate_paper_id(self):
        papers = [PaperRecord("P1", 2000, "health", ("A",), ()),
                  PaperRecord("P1", 2001, "health", ("B",), ())]
        with pytest.raises(CorpusError, match="^duplicate paper_id 'P1'$"):
            corpus_from_records(papers)

    def test_unknown_discipline(self):
        papers = [PaperRecord("P1", 2000, "physics", ("A",), ())]
        with pytest.raises(CorpusError, match="^field 'discipline' must be one of"):
            corpus_from_records(papers)

    def test_unknown_gender(self):
        papers = [PaperRecord("P1", 2000, "health", ("A",), ())]
        with pytest.raises(CorpusError, match="^field 'gender' must be one of"):
            corpus_from_records(papers, [AuthorRecord("A", gender="x")])

    def test_repeated_reference(self):
        papers = [PaperRecord("P1", 2000, "health", ("A",), ()),
                  PaperRecord("P2", 2001, "health", ("B",), ("P1", "P1"))]
        with pytest.raises(CorpusError, match="^field 'references' contains duplicates"):
            corpus_from_records(papers)

    def test_self_reference(self):
        papers = [PaperRecord("p0", 2000, "health", ("a",), ()),
                  PaperRecord("p1", 2001, "health", ("a",), ("p0", "p1"))]
        with pytest.raises(CorpusError, match=r"^field 'references' contains the paper's own "
                                              r"id \(paper p1\)$"):
            corpus_from_records(papers)

    def test_repeated_author(self):
        papers = [PaperRecord("P1", 2000, "health", ("A", "A"), ()),
                  PaperRecord("P2", 2001, "health", ("A",), ())]
        with pytest.raises(CorpusError, match="^field 'authors' contains duplicates"):
            corpus_from_records(papers)

    def test_empty_author_list(self):
        papers = [PaperRecord("P1", 2000, "health", (), ())]
        with pytest.raises(CorpusError, match="^field 'authors' must be a non-empty list"):
            corpus_from_records(papers)

    @pytest.mark.parametrize("paper_id,author,listed_author", [
        ("", "A", "A"),
        ("P1", "", "A"),
        ("P1", "A", ""),
    ], ids=["paper_id", "paper_author", "author_record_id"])
    def test_empty_id(self, paper_id, author, listed_author):
        papers = [PaperRecord(paper_id, 2000, "health", (author,), ())]
        with pytest.raises(CorpusError, match="non-empty"):
            corpus_from_records(papers, [AuthorRecord(listed_author)])

    @pytest.mark.parametrize("paper_id,author,listed_author", [
        ("P\ud800", "A", "A"),
        ("P1", "A\udfff", "A"),
        ("P1", "A", "\ud800"),
    ], ids=["paper_id", "paper_author", "author_record_id"])
    def test_id_with_lone_surrogate(self, paper_id, author, listed_author):
        papers = [PaperRecord(paper_id, 2000, "health", (author,), ())]
        with pytest.raises(CorpusError, match="lone surrogate"):
            corpus_from_records(papers, [AuthorRecord(listed_author)])


def _mostly(valid, invalid):
    """Draws from ``valid`` 24 times in 25, else from ``invalid``."""
    return st.integers(0, 24).flatmap(lambda k: invalid if k == 0 else valid)


_PAPER_IDS = st.sampled_from(["P0", "P1", "P2", "P3", "P4"])
_AUTHOR_IDS = st.sampled_from(["A", "B", "C", "\u00e9 D"])
# empty ids and the characters an export cannot carry
_BAD_IDS = st.text(alphabet="A\t\n\r\ud800", max_size=2)
_ANY_PAPER = st.builds(
    PaperRecord,
    paper_id=_mostly(_PAPER_IDS, _BAD_IDS),
    year=_mostly(st.integers(1995, 2005), st.integers(1700, 2200)),
    discipline=_mostly(st.sampled_from(DISCIPLINES), st.sampled_from(["", "physics"])),
    author_ids=_mostly(st.lists(_AUTHOR_IDS, min_size=1, max_size=3, unique=True),
                       st.lists(_mostly(_AUTHOR_IDS, _BAD_IDS), max_size=3)).map(tuple),
    reference_ids=_mostly(st.lists(_PAPER_IDS | st.just("X"), max_size=4, unique=True),
                          st.lists(_PAPER_IDS, max_size=4)).map(tuple),
)
# a valid paper does not cite itself
_PAPER = _mostly(_ANY_PAPER.map(lambda p: p._replace(reference_ids=tuple(
    r for r in p.reference_ids if r != p.paper_id))), _ANY_PAPER)
_PAPERS = _mostly(st.lists(_PAPER, max_size=6, unique_by=lambda p: p.paper_id),
                  st.lists(_PAPER, max_size=6))
_AUTHOR = st.builds(
    AuthorRecord,
    author_id=_mostly(_AUTHOR_IDS, _BAD_IDS),
    gender=_mostly(st.sampled_from(GENDERS), st.sampled_from(["", "x"])),
)
_AUTHORS = _mostly(st.lists(_AUTHOR, max_size=3, unique_by=lambda a: a.author_id),
                   st.lists(_AUTHOR, max_size=3))


class TestCorpusFromRecordsFuzz:
    @settings(max_examples=100, deadline=None)
    @given(_PAPERS, _AUTHORS)
    def test_accepted_corpus_exports_and_reads_back(self, papers, authors):
        # nothing but CorpusError may escape; an accepted corpus writes a
        # classify export that its checked reader takes back unchanged
        try:
            corpus = corpus_from_records(papers, authors)
        except CorpusError:
            return
        edges = build_edges(corpus)
        records = list(classify_all(corpus, edges, build_collaboration_index(corpus)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "classifications.tsv"
            write_classifications(iter(records), path)
            assert list(read_classifications(path, corpus)) == records


class TestAuthorIndex:
    def test_fix1_author_a(self, fix1):
        entry = fix1.author_index["A"]
        assert entry.first_pub_year == 2000
        assert entry.n_pubs == 3
        assert sorted(entry.publication_ids) == ["P1", "P2", "P5"]

    def test_fix1_author_d(self, fix1):
        entry = fix1.author_index["D"]
        assert entry.first_pub_year == 2003
        assert entry.n_pubs == 1

    def test_single_paper_author(self):
        from selfcite.corpus import PaperRecord
        corpus = corpus_from_records([
            PaperRecord("P1", 1999, "health", ("Z",), ()),
        ])
        assert corpus.author_index["Z"].first_pub_year == 1999
        assert corpus.author_index["Z"].n_pubs == 1

    def test_modal_discipline_tie_breaks_by_enumeration_order(self):
        from selfcite.corpus import PaperRecord
        corpus = corpus_from_records([
            PaperRecord("P1", 2000, "social_sciences", ("A",), ()),
            PaperRecord("P2", 2001, "health", ("A",), ()),
        ])
        # tie between health and social_sciences: health comes first
        assert corpus.author_index["A"].modal_discipline == "health"

    def test_equals_brute_force_recount(self):
        # first and last year, publication ids in papers order, modal
        # discipline with ties broken by DISCIPLINES order, and authors in
        # order of first appearance
        rng = random.Random(17)
        ties = 0
        for _ in range(30):
            corpus = random_corpus(rng, max_papers=30, max_authors=8)
            index = build_author_index(corpus.papers)
            expected = brute_force_author_index(corpus.papers)
            assert list(index) == list(expected)
            for aid, entry in index.items():
                assert (entry.first_pub_year, entry.last_pub_year, entry.publication_ids,
                        entry.modal_discipline) == expected[aid][:4]
            ties += sum(tied for *_entry, tied in expected.values())
        assert ties > 0  # the tie-break was exercised


class TestEligibleAuthors:
    def test_fix1_default_min_pubs(self, fix1):
        assert eligible_authors(fix1) == set()

    def test_fix1_min_pubs_zero(self, fix1):
        assert eligible_authors(fix1, 0) == {"A", "B", "C", "D"}

    def test_fix1_min_pubs_two(self, fix1):
        assert eligible_authors(fix1, 2) == {"A"}

    def test_strictly_greater(self, fix1):
        # A has exactly 3 papers: min_pubs=3 must exclude A
        assert "A" not in eligible_authors(fix1, 3)

    def test_negative_min_pubs(self, fix1):
        with pytest.raises(ValueError):
            eligible_authors(fix1, -1)


class TestInvariants:
    def test_round_trip(self, fix1, tmp_path):
        save_corpus(fix1, tmp_path / "p.jsonl", tmp_path / "a.jsonl")
        reloaded = load_corpus(tmp_path / "p.jsonl", tmp_path / "a.jsonl")
        assert reloaded.papers == fix1.papers
        assert reloaded.authors == fix1.authors

    def test_round_trip_random_corpora(self, tmp_path):
        rng = random.Random(7)
        for i in range(10):
            corpus = random_corpus(rng)
            save_corpus(corpus, tmp_path / f"p{i}.jsonl", tmp_path / f"a{i}.jsonl")
            reloaded = load_corpus(tmp_path / f"p{i}.jsonl", tmp_path / f"a{i}.jsonl")
            assert reloaded.papers == corpus.papers
            assert reloaded.authors == corpus.authors
            assert reloaded.unresolved_references == corpus.unresolved_references

    def test_pub_count_conservation(self):
        rng = random.Random(11)
        for _ in range(20):
            corpus = random_corpus(rng)
            total_slots = sum(len(p.author_ids) for p in corpus.papers.values())
            assert sum(e.n_pubs for e in corpus.author_index.values()) == total_slots

    def test_first_year_lower_bound(self):
        rng = random.Random(13)
        for _ in range(20):
            corpus = random_corpus(rng)
            for entry in corpus.author_index.values():
                for pid in entry.publication_ids:
                    assert entry.first_pub_year <= corpus.papers[pid].year
                    assert entry.last_pub_year >= corpus.papers[pid].year

    def test_every_listed_paper_contains_the_author(self):
        rng = random.Random(15)
        for _ in range(20):
            corpus = random_corpus(rng)
            for aid, entry in corpus.author_index.items():
                for pid in entry.publication_ids:
                    assert aid in corpus.papers[pid].author_ids
