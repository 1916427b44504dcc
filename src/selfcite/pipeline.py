"""The reference tally feed: every tally takes classified edges via
``add_edge``.

No command runs this feed: the command line builds every table with
:func:`selfcite.kernel.tally_corpus`, whose integer count tables are
projected into these same tallies. Only the tests, which compare the kernel
with it, and the benchmark's traced replay (``perfbench/traced.py``), which
times it, run it. So each tally's ``add_edge`` states its rule with no speed
code.

``run_edge_tallies`` classifies the edge list in one sequential pass and
feeds every edge to each tally in edge order, so floating sums always see
the same association and runs are bit-identical. ``run_record_tallies``
regroups a classification record stream into edges, the inverse of
``classify_all``: it feeds the tallies from a ``classify`` export read back
with :func:`selfcite.classify.read_classifications`.
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
