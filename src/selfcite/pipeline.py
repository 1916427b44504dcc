"""The one tally feed: every tally takes classified edges via ``add_edge``.

``run_edge_tallies`` classifies the edge list in fixed-size chunks,
regardless of the worker count, into fresh tally instances and merges the
partials in chunk order, so floating sums see the same association for any
``threads`` value and runs are bit-identical. ``run_record_tallies``
regroups a classification record stream into edges, the inverse of
``classify_all``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

from .classify import AuthorEdgeClass, Perspective, build_author_sets, iter_edge_types
from .corpus import Corpus
from .graph import CitationEdge, CollaborationIndex

DEFAULT_CHUNK_SIZE = 65536

_REFERENCE = Perspective.REFERENCE
_edge_pair = attrgetter("edge.citing_id", "edge.cited_id")


def run_edge_tallies(
    corpus: Corpus,
    edges: Sequence[CitationEdge],
    collab: CollaborationIndex,
    tallies: Sequence,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> None:
    """Classify every edge once and feed each tally's ``add_edge``.

    ``tallies`` are mutated in place. Each must provide ``spawn()``,
    ``add_edge(edge, citing_authors, ref_types, cited_authors, cite_types)``
    and ``merge(other)``.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")

    author_sets = build_author_sets(corpus)
    chunks = [edges[i : i + chunk_size] for i in range(0, len(edges), chunk_size)]

    def process(chunk):
        parts = [t.spawn() for t in tallies]
        for edge, citing, ref_types, cited, cite_types in iter_edge_types(
            corpus, chunk, collab, author_sets
        ):
            for part in parts:
                part.add_edge(edge, citing, ref_types, cited, cite_types)
        return parts

    if threads == 1 or len(chunks) <= 1:
        results = map(process, chunks)
        for parts in results:
            for tally, part in zip(tallies, parts):
                tally.merge(part)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for parts in pool.map(process, chunks):
                for tally, part in zip(tallies, parts):
                    tally.merge(part)


def run_record_tallies(records: Iterable[AuthorEdgeClass], tallies: Sequence) -> None:
    """Regroup a classification record stream into edges and feed each
    tally's ``add_edge`` once per edge.

    Contiguous records of one (citing_id, cited_id) pair form one edge, split
    by perspective in stream order: the order ``add_edge`` walks authors, so
    a full ``classify_all`` stream gives the tallies of one edge chunk, floats
    included. A filtered stream feeds only the authors present.
    """
    for _pair, group in groupby(records, _edge_pair):
        citing, ref_types, cited, cite_types = [], [], [], []
        for rec in group:
            if rec.perspective is _REFERENCE:
                citing.append(rec.author_id)
                ref_types.append(rec.ctype)
            else:
                cited.append(rec.author_id)
                cite_types.append(rec.ctype)
        edge = rec.edge
        for tally in tallies:
            tally.add_edge(edge, citing, ref_types, cited, cite_types)
