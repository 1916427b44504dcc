"""Citation edges, the interned corpus and the time-stamped co-authorship
index.

The index maps each author to the earliest joint year with every
co-author. :func:`intern_corpus` builds it once over the int author ids,
and the interned view carries it to both of its walks, the analysis kernel
and the ``classify`` export. The strict-year reading of "former
collaborator" that the classifier applies to it lives in
:func:`selfcite.classify._side_types`: a joint paper in the citing year
itself does not establish prior collaboration.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import mul
from pathlib import Path
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence, Union

from .corpus import Corpus, atomic_write


class CitationEdge(NamedTuple):
    citing_id: str
    cited_id: str
    citing_year: int
    cited_year: int


def iter_edges(corpus: Corpus) -> Iterator[CitationEdge]:
    """One edge per resolvable (citing, cited) pair, sorted by
    (citing_id, cited_id). Unresolved references yield no edge."""
    papers = corpus.papers
    for pid in sorted(papers):
        p = papers[pid]
        year = p.year
        for rid in sorted(p.reference_ids):
            target = papers.get(rid)
            if target is not None:
                yield CitationEdge(pid, rid, year, target.year)


def build_edges(corpus: Corpus) -> list[CitationEdge]:
    """:func:`iter_edges` as a list, for library callers that walk the edges
    twice. No command builds it: ``classify`` walks the interned corpus."""
    return list(iter_edges(corpus))


class InternedCorpus(NamedTuple):
    """The corpus over dense int ids assigned in sorted string order: per
    paper its author tuple and set, its year, and its resolvable references
    as a sorted int list, with the co-authorship index over the int author
    ids that every interned walk types its edges with."""

    paper_ids: list[str]
    author_ids: list[str]
    authors: list[tuple[int, ...]]
    author_sets: list[frozenset[int]]
    years: list[int]
    references: list[list[int]]
    collab: CollaborationIndex

    def author_edge_events(self) -> dict[str, int]:
        """Author-edge events per side: one per citing author and reference,
        and one per cited author and edge."""
        team_sizes = list(map(len, self.authors))
        return {
            "reference": sum(map(mul, team_sizes, map(len, self.references))),
            "citation": sum(map(team_sizes.__getitem__, chain.from_iterable(self.references))),
        }


def intern_corpus(corpus: Corpus) -> InternedCorpus:
    """Int order is string order, so walking each paper's ``references`` in
    paper order meets every edge in the order of :func:`iter_edges`."""
    paper_ids = sorted(corpus.papers)
    author_ids = sorted(corpus.author_index)
    paper_index = {pid: i for i, pid in enumerate(paper_ids)}
    author_index = {aid: i for i, aid in enumerate(author_ids)}
    authors, author_sets, years, references = [], [], [], []
    for pid in paper_ids:
        p = corpus.papers[pid]
        team = tuple([author_index[a] for a in p.author_ids])
        authors.append(team)
        author_sets.append(frozenset(team))
        years.append(p.year)
        references.append(
            sorted([i for i in map(paper_index.get, p.reference_ids) if i is not None]))
    # the id maps go before the index is built, so the two never share the peak
    del paper_index, author_index
    return InternedCorpus(paper_ids, author_ids, authors, author_sets, years, references,
                          index_collaborations(zip(authors, years)))


class CollaborationIndex:
    """Unordered author pairs mapped to the earliest joint publication year.

    ``adjacency`` maps each author to ``{collaborator: earliest joint
    year}``, both ways round; an author who never co-published is absent
    from it. Authors are string ids, or the interned int ids of an analysis
    run."""

    __slots__ = ("adjacency", "n_pairs")

    def __init__(self) -> None:
        self.adjacency: dict[Hashable, dict[Hashable, int]] = {}
        self.n_pairs = 0

    def __len__(self) -> int:
        return self.n_pairs


def index_collaborations(teams: Iterable[tuple[Sequence, int]]) -> CollaborationIndex:
    """All co-authorship pairs of ``(authors, year)`` teams with their
    earliest joint year."""
    index = CollaborationIndex()
    adjacency = index.adjacency
    for authors, year in teams:
        for a, b in combinations(authors, 2):
            adj_a = adjacency.setdefault(a, {})
            prev = adj_a.get(b)
            if prev is None:
                index.n_pairs += 1
            elif prev <= year:
                continue
            adj_a[b] = year
            adjacency.setdefault(b, {})[a] = year
    return index


def build_collaboration_index(corpus: Corpus) -> CollaborationIndex:
    """All co-authorship pairs in the corpus with their earliest joint year."""
    return index_collaborations((p.author_ids, p.year) for p in corpus.papers.values())


def export_edges(edges: list[CitationEdge], path: Union[str, Path]) -> None:
    """Tab-separated edge list: citing_id, cited_id, citing_year, cited_year."""
    with atomic_write(path) as fh:
        for e in edges:
            fh.write(f"{e.citing_id}\t{e.cited_id}\t{e.citing_year}\t{e.cited_year}\n")
