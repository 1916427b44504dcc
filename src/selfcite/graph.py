"""Citation edges, the interned corpus and the time-stamped co-authorship
index.

The index maps each author to the earliest joint year with every
co-author. The strict-year reading of "former collaborator" that the
classifier applies to it lives in :func:`selfcite.classify._side_types`: a
joint paper in the citing year itself does not establish prior
collaboration.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .corpus import Corpus, atomic_write

_EMPTY: dict = {}


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
    as a sorted int list."""

    paper_ids: list[str]
    author_ids: list[str]
    authors: list[tuple[int, ...]]
    author_sets: list[frozenset[int]]
    years: list[int]
    references: list[list[int]]


def intern_corpus(corpus: Corpus) -> InternedCorpus:
    """Int order is string order, so walking each paper's ``references`` in
    paper order meets every edge in the order of :func:`iter_edges`."""
    paper_ids = sorted(corpus.papers)
    author_ids = sorted(corpus.author_index)
    paper_index = {pid: i for i, pid in enumerate(paper_ids)}
    author_index = {aid: i for i, aid in enumerate(author_ids)}
    view = InternedCorpus(paper_ids, author_ids, [], [], [], [])
    for pid in paper_ids:
        p = corpus.papers[pid]
        team = tuple([author_index[a] for a in p.author_ids])
        view.authors.append(team)
        view.author_sets.append(frozenset(team))
        view.years.append(p.year)
        view.references.append(
            sorted([i for i in map(paper_index.get, p.reference_ids) if i is not None]))
    return view


class CollaborationIndex:
    """Unordered author pairs mapped to the earliest joint publication year.

    Authors are string ids, or the interned int ids of an analysis run."""

    __slots__ = ("_adjacency", "n_pairs")

    def __init__(self) -> None:
        self._adjacency: dict[Hashable, dict[Hashable, int]] = {}
        self.n_pairs = 0

    def _add(self, a: Hashable, b: Hashable, year: int) -> None:
        adj_a = self._adjacency.setdefault(a, {})
        prev = adj_a.get(b)
        if prev is None:
            self.n_pairs += 1
            adj_a[b] = year
            self._adjacency.setdefault(b, {})[a] = year
        elif year < prev:
            adj_a[b] = year
            self._adjacency[b][a] = year

    def neighbors(self, a: str) -> Mapping[str, int]:
        """Collaborators of ``a`` with earliest joint years (read-only view)."""
        return self._adjacency.get(a, _EMPTY)

    def __len__(self) -> int:
        return self.n_pairs


def index_collaborations(teams: Iterable[tuple[Sequence, int]]) -> CollaborationIndex:
    """All co-authorship pairs of ``(authors, year)`` teams with their
    earliest joint year."""
    index = CollaborationIndex()
    for authors, year in teams:
        for a, b in combinations(authors, 2):
            index._add(a, b, year)
    return index


def build_collaboration_index(corpus: Corpus) -> CollaborationIndex:
    """All co-authorship pairs in the corpus with their earliest joint year."""
    return index_collaborations((p.author_ids, p.year) for p in corpus.papers.values())


def export_edges(edges: list[CitationEdge], path: Union[str, Path]) -> None:
    """Tab-separated edge list: citing_id, cited_id, citing_year, cited_year."""
    with atomic_write(path) as fh:
        for e in edges:
            fh.write(f"{e.citing_id}\t{e.cited_id}\t{e.citing_year}\t{e.cited_year}\n")
