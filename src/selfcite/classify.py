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
from .graph import CitationEdge, CollaborationIndex, build_collaboration_index


class CitationType(str, Enum):
    DIRECT = "direct"
    COAUTHOR = "coauthor"
    COLLABORATOR = "collaborator"
    EXTERNAL = "external"


class Perspective(str, Enum):
    REFERENCE = "reference"  # author belongs to the citing paper
    CITATION = "citation"    # author belongs to the cited paper


#: The four types in precedence order: the order of the ``labels`` of
#: :func:`_side_types`, and the interned kernel's types 0-3 index it.
CITATION_TYPES = tuple(CitationType)


class AuthorEdgeClass(NamedTuple):
    author_id: str
    edge: CitationEdge
    perspective: Perspective
    ctype: CitationType


def _side_types(side_authors, side_set, other_set, other_authors, neighbors, citing_year,
                labels=CITATION_TYPES):
    """Types for every author on one side of an edge, in author order.

    ``neighbors(a)`` maps an author to ``{collaborator: earliest joint
    year}`` and ``labels`` are the values returned for direct, coauthor,
    collaborator and external, so one rule serves string ids with
    :class:`CitationType` labels and interned int ids with labels 0-3."""
    direct, coauthor, collaborator, external = labels
    if not side_set.isdisjoint(other_set):
        # an author off the intersection has a co-author on the other paper
        return [direct if a in other_set else coauthor for a in side_authors]
    out = []
    for a in side_authors:
        ctype = external
        adj = neighbors(a)
        if adj:
            for b in other_authors:
                joint = adj.get(b)
                if joint is not None and joint < citing_year:
                    ctype = collaborator
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
    neighbors = collab.neighbors
    for edge in edges:
        citing_authors = papers[edge.citing_id].author_ids
        cited_authors = papers[edge.cited_id].author_ids
        citing_set = author_sets[edge.citing_id]
        cited_set = author_sets[edge.cited_id]
        year = edge.citing_year
        ref_types = _side_types(citing_authors, citing_set, cited_set, cited_authors,
                                neighbors, year)
        cite_types = _side_types(cited_authors, cited_set, citing_set, citing_authors,
                                 neighbors, year)
        yield edge, citing_authors, ref_types, cited_authors, cite_types


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


def write_classifications(
    records: Iterable[AuthorEdgeClass], path: Union[str, Path]
) -> int:
    """Tab-separated export: author_id, citing_id, cited_id, perspective,
    ctype. Returns the number of rows written."""
    n = 0
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(
                f"{rec.author_id}\t{rec.edge.citing_id}\t{rec.edge.cited_id}"
                f"\t{rec.perspective.value}\t{rec.ctype.value}\n"
            )
            n += 1
    return n


def read_classifications(
    path: Union[str, Path], corpus: Corpus
) -> Iterator[AuthorEdgeClass]:
    """Parse a classification export back into records, checked against the
    corpus; edge years and types are re-derived from the corpus.

    The export must be exactly what ``classify_all`` writes: one block per
    resolvable reference in increasing (citing_id, cited_id) order, each
    block one reference row per citing author, then one citation row per
    cited author, in author order, each row with the type the corpus gives
    its author (both sides are typed once per block, against one
    collaboration index built per call). Anything else raises
    :class:`CorpusError` naming the line.
    """
    papers = corpus.papers
    neighbors = build_collaboration_index(corpus).neighbors
    perspectives = {p.value: p for p in Perspective}
    ctypes = {t.value: t for t in CitationType}
    reference, citation = Perspective.REFERENCE, Perspective.CITATION
    pair = None
    edge = None
    expected: tuple[str, ...] = ()  # citing authors, then cited authors
    types: list[CitationType] = []  # their types, in the same order
    n_ref = 0
    pos = 0
    n_edges = 0
    lineno = 0

    def fail(message: str) -> CorpusError:
        return CorpusError(f"classifications line {lineno}: {message}")

    for lineno, line in iter_text_lines(path, "classifications"):
        parts = line.split("\t")
        if parts == [""]:
            continue
        if len(parts) != 5:
            raise fail("expected 5 tab-separated fields")
        author_id, citing_id, cited_id, perspective, ctype = parts
        if (citing_id, cited_id) != pair:
            if pos < len(expected):
                raise fail(f"edge {pair[0]} -> {pair[1]} ends before the row "
                           f"of author {expected[pos]!r}")
            if pair is not None and (citing_id, cited_id) < pair:
                raise fail(f"edge {citing_id} -> {cited_id} is out of order "
                           f"after {pair[0]} -> {pair[1]}")
            citing = papers.get(citing_id)
            cited = papers.get(cited_id)
            if citing is None or cited is None:
                raise fail(f"unknown paper id "
                           f"'{citing_id if citing is None else cited_id}'")
            if cited_id not in citing.reference_ids:
                raise fail(f"paper {citing_id} does not reference {cited_id}")
            edge = CitationEdge(citing_id, cited_id, citing.year, cited.year)
            pair = (citing_id, cited_id)
            expected = citing.author_ids + cited.author_ids
            citing_set, cited_set = frozenset(citing.author_ids), frozenset(cited.author_ids)
            types = (_side_types(citing.author_ids, citing_set, cited_set, cited.author_ids,
                                 neighbors, citing.year)
                     + _side_types(cited.author_ids, cited_set, citing_set, citing.author_ids,
                                   neighbors, citing.year))
            n_ref = len(citing.author_ids)
            pos = 0
            n_edges += 1
        persp = perspectives.get(perspective)
        ct = ctypes.get(ctype)
        if persp is None or ct is None:
            raise fail(
                f"unknown {'perspective' if persp is None else 'citation type'} "
                f"'{perspective if persp is None else ctype}'"
            )
        if pos == len(expected):
            raise fail(f"extra row for edge {citing_id} -> {cited_id}")
        side = reference if pos < n_ref else citation
        if persp is not side or author_id != expected[pos]:
            raise fail(f"expected the {side.value} row of author {expected[pos]!r}, "
                       f"found the {perspective} row of {author_id!r}")
        if ct is not types[pos]:
            raise fail(f"the {perspective} row of author {author_id!r} has type "
                       f"'{ctype}'; the corpus gives '{types[pos].value}'")
        pos += 1
        yield AuthorEdgeClass(author_id, edge, persp, ct)
    lineno += 1
    if pos < len(expected):
        raise fail(f"end of file inside edge {pair[0]} -> {pair[1]}")
    if n_edges != corpus.resolvable_references:
        raise fail(f"end of file after {n_edges} edges; the corpus has "
                   f"{corpus.resolvable_references} resolvable references")
