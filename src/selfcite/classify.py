"""Four-way citation typing from each involved author's perspective.

Every (author, edge, perspective) triple receives exactly one type, with
precedence Direct > CoAuthor > Collaborator > External so the taxonomy is a
partition:

* Direct: the author is on both the citing and the cited paper.
* CoAuthor: another author on the author's side of the edge is on the
  opposite paper.
* Collaborator: some author of the opposite paper co-published with the
  author strictly before the citing year.
* External: none of the above.

The collaborator test is evaluated against the perspective author alone,
never against their whole paper.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from .corpus import Corpus, CorpusError, atomic_write, iter_text_lines
from .graph import (
    CitationEdge,
    CollaborationIndex,
    build_collaboration_index,
    intern_corpus,
    iter_edges,
)


class CitationType(str, Enum):
    DIRECT = "direct"
    COAUTHOR = "coauthor"
    COLLABORATOR = "collaborator"
    EXTERNAL = "external"


class Perspective(str, Enum):
    REFERENCE = "reference"  # author belongs to the citing paper
    CITATION = "citation"    # author belongs to the cited paper


#: The four types in precedence order, indexed by the types 0-3 that
#: :func:`_side_types` returns.
CITATION_TYPES = tuple(CitationType)


class AuthorEdgeClass(NamedTuple):
    author_id: str
    edge: CitationEdge
    perspective: Perspective
    ctype: CitationType


def _side_types(side_authors, side_set, other_set, other_authors, adjacency, citing_year):
    """Types for every author on one side of an edge, in author order, as
    indices into :data:`CITATION_TYPES`: 0 direct, 1 coauthor,
    2 collaborator, 3 external.

    ``adjacency`` is :attr:`selfcite.graph.CollaborationIndex.adjacency`:
    ``adjacency.get(a)`` is ``{collaborator: earliest joint year}`` of
    author ``a``, or None for an author who never co-published. Authors
    are string ids or interned int ids alike."""
    if not side_set.isdisjoint(other_set):
        # an author off the intersection has a co-author on the other paper
        return [0 if a in other_set else 1 for a in side_authors]
    out = []
    for a in side_authors:
        ctype = 3
        adj = adjacency.get(a)
        if adj:
            for b in other_authors:
                joint = adj.get(b)
                if joint is not None and joint < citing_year:
                    ctype = 2
                    break
        out.append(ctype)
    return out


def build_author_sets(corpus: Corpus) -> dict[str, frozenset[str]]:
    return {pid: frozenset(p.author_ids) for pid, p in corpus.papers.items()}


def iter_edge_types(
    corpus: Corpus,
    edges: Iterable[CitationEdge],
    collab: CollaborationIndex,
    author_sets: dict[str, frozenset[str]] | None = None,
):
    """Per edge: (edge, citing_authors, reference_types, cited_authors,
    citation_types), with types aligned to author positions."""
    papers = corpus.papers
    if author_sets is None:
        author_sets = build_author_sets(corpus)
    adjacency = collab.adjacency
    for edge in edges:
        citing_authors = papers[edge.citing_id].author_ids
        cited_authors = papers[edge.cited_id].author_ids
        citing_set = author_sets[edge.citing_id]
        cited_set = author_sets[edge.cited_id]
        year = edge.citing_year
        ref = _side_types(citing_authors, citing_set, cited_set, cited_authors, adjacency, year)
        cite = _side_types(cited_authors, cited_set, citing_set, citing_authors, adjacency, year)
        yield (edge, citing_authors, [CITATION_TYPES[t] for t in ref],
               cited_authors, [CITATION_TYPES[t] for t in cite])


def classify_all(
    corpus: Corpus,
    edges: Iterable[CitationEdge],
    collab: CollaborationIndex,
) -> Iterator[AuthorEdgeClass]:
    """Stream of one record per (edge, citing author) and one per
    (edge, cited author), ordered by (citing_id, cited_id, author position)
    with reference-side records first within each edge."""
    for edge, citing_authors, ref_types, cited_authors, cite_types in iter_edge_types(
        corpus, edges, collab
    ):
        for a, t in zip(citing_authors, ref_types):
            yield AuthorEdgeClass(a, edge, Perspective.REFERENCE, t)
        for a, t in zip(cited_authors, cite_types):
            yield AuthorEdgeClass(a, edge, Perspective.CITATION, t)


def _row(rec: AuthorEdgeClass) -> str:
    """The export line of one record, without its newline."""
    return (f"{rec.author_id}\t{rec.edge.citing_id}\t{rec.edge.cited_id}"
            f"\t{rec.perspective.value}\t{rec.ctype.value}")


def write_classifications(
    records: Iterable[AuthorEdgeClass], path: Union[str, Path]
) -> int:
    """Tab-separated export: author_id, citing_id, cited_id, perspective,
    ctype. Returns the number of rows written."""
    n = 0
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(f"{_row(rec)}\n")
            n += 1
    return n


def export_corpus(
    corpus: Corpus, edges_path: Union[str, Path], classifications_path: Union[str, Path]
) -> dict:
    """Write the edge list and the classification export in one walk of the
    interned corpus. Returns the manifest counts ``edges``,
    ``collaboration_pairs``, ``author_edge_events`` and ``classification_rows``.

    The files hold the bytes of :func:`~selfcite.graph.export_edges` over
    :func:`~selfcite.graph.iter_edges` and of :func:`write_classifications`
    over :func:`classify_all`, built without a record per edge or row: each
    type index of :func:`_side_types` picks a pre-rendered row end, each
    edge adds its ``"\\t<citing>\\t<cited>"`` middle, and each citing
    paper's lines go to each file in one write. Either both files are
    replaced or, if the walk raises, neither.
    """
    view = intern_corpus(corpus)
    authors, author_sets, years = view.authors, view.author_sets, view.years
    paper_ids = view.paper_ids
    adjacency = view.collab.adjacency
    names = [corpus.papers[pid].author_ids for pid in paper_ids]
    year_ends = [f"\t{year}\n" for year in years]
    ref_ends, cite_ends = (tuple(f"\t{side.value}\t{t.value}\n" for t in CITATION_TYPES)
                           for side in Perspective)
    with atomic_write(edges_path) as edges_fh, atomic_write(classifications_path) as rows_fh:
        for p, refs in enumerate(view.references):
            if not refs:
                continue
            citing, citing_set, citing_names, year = authors[p], author_sets[p], names[p], years[p]
            lead = f"{paper_ids[p]}\t"
            head = "\t" + lead
            year_tab = f"\t{year}"
            edge_lines = []
            rows = []
            for q in refs:
                cited, cited_set, cited_id = authors[q], author_sets[q], paper_ids[q]
                middle = head + cited_id
                edge_lines.append(f"{lead}{cited_id}{year_tab}{year_ends[q]}")
                ref = _side_types(citing, citing_set, cited_set, cited, adjacency, year)
                cite = _side_types(cited, cited_set, citing_set, citing, adjacency, year)
                rows += [a + middle + ref_ends[t] for a, t in zip(citing_names, ref)]
                rows += [b + middle + cite_ends[t] for b, t in zip(names[q], cite)]
            edges_fh.write("".join(edge_lines))
            rows_fh.write("".join(rows))
    events = view.author_edge_events()
    return {"edges": sum(map(len, view.references)), "collaboration_pairs": len(view.collab),
            "author_edge_events": events,
            "classification_rows": events["reference"] + events["citation"]}


def read_classifications(
    path: Union[str, Path], corpus: Corpus
) -> Iterator[AuthorEdgeClass]:
    """Read a classification export back as records, checked against the
    corpus.

    The export must equal what ``classify_all`` writes for the corpus, row
    for row (blank lines are skipped), and the records yielded are
    ``classify_all``'s. Any other line, a line after the last expected row
    or an end of file before it raises :class:`CorpusError` naming the line
    and the row expected there.
    """
    expected = classify_all(corpus, iter_edges(corpus), build_collaboration_index(corpus))

    def mismatch(lineno: int, rec: AuthorEdgeClass | None, found: str) -> CorpusError:
        want = "end of file" if rec is None else repr(_row(rec))
        return CorpusError(f"classifications line {lineno}: expected {want}, found {found}")

    lineno = 0
    for lineno, line in iter_text_lines(path, "classifications"):
        if not line:
            continue
        rec = next(expected, None)
        if rec is None or line != _row(rec):
            raise mismatch(lineno, rec, repr(line))
        yield rec
    rec = next(expected, None)
    if rec is not None:
        raise mismatch(lineno + 1, rec, "end of file")
