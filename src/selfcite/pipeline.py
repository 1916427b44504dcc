"""The reference tally feed: every tally takes classified edges via
``add_edge``.

The command line does not run this feed: its analysis subcommands run the
interned kernel of :mod:`selfcite.kernel`, whose integer count tables are
projected into these same tallies. The per-tally ``add_edge`` feed is the
reference that the tests compare the kernel with, and the entry point of
library callers.

``run_edge_tallies`` classifies the edge list in one sequential pass and
feeds every edge to each tally in edge order, so floating sums always see
the same association and runs are bit-identical. ``run_record_tallies``
regroups a classification record stream into edges, the inverse of
``classify_all``.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

from .classify import AuthorEdgeClass, Perspective, iter_edge_types
from .corpus import Corpus
from .graph import CitationEdge, CollaborationIndex

_REFERENCE = Perspective.REFERENCE
_edge_pair = attrgetter("edge.citing_id", "edge.cited_id")


def run_edge_tallies(
    corpus: Corpus,
    edges: Iterable[CitationEdge],
    collab: CollaborationIndex,
    tallies: Sequence,
) -> None:
    """Classify every edge once and feed each tally's ``add_edge``.

    ``tallies`` are mutated in place. Each must provide
    ``add_edge(edge, citing_authors, ref_types, cited_authors, cite_types)``.
    """
    for edge, citing, ref_types, cited, cite_types in iter_edge_types(corpus, edges, collab):
        for tally in tallies:
            tally.add_edge(edge, citing, ref_types, cited, cite_types)


def run_record_tallies(records: Iterable[AuthorEdgeClass], tallies: Sequence) -> None:
    """Regroup a classification record stream into edges and feed each
    tally's ``add_edge`` once per edge.

    Contiguous records of one (citing_id, cited_id) pair form one edge, split
    by perspective in stream order: the order ``add_edge`` walks authors, so
    a full ``classify_all`` stream gives the same tallies as
    ``run_edge_tallies``, floats included. A filtered stream feeds only the
    authors present.
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
