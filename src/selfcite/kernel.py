"""The fused integer edge kernel behind ``metrics``, ``hindex``, ``simil``
and ``report``, and the one way into every table for library callers:
:func:`tally_corpus` followed by the finalize step of each view.

An analysis run interns the corpus once: author and paper ids become dense
ints in sorted string order, so int order is string order and every edge is
met in the order of :func:`~selfcite.graph.iter_edges`. The kernel types
both sides of each edge with the classifier of :mod:`selfcite.classify`
(int ids, labels 0-3). Per author-edge event it adds one to a count in each
table the run needs: a flat list indexed by an int that packs the event's
key. At the end the tables are projected into the reference tallies
(:class:`~selfcite.metrics.ProfileTally`,
:class:`~selfcite.metrics.AgeCurveTally`,
:class:`~selfcite.metrics.CitationAgeTally`,
:class:`~selfcite.hindex.HindexTally`), so their finalize functions and
every table writer keep their inputs. Those tallies' own ``add_edge``, fed
by :func:`selfcite.pipeline.run_edge_tallies`, is the reference the tests
compare the kernel with.

A :class:`~selfcite.textsim.SimilarityTally` is fed one edge at a time in
edge order, with string ids and :class:`~selfcite.classify.CitationType`
labels, so its float sums keep their association.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple, Optional

from .classify import CITATION_TYPES, Perspective, _side_types
from .corpus import Corpus
from .graph import CitationEdge, index_collaborations
from .hindex import HindexTally
from .metrics import AgeCurveTally, CitationAgeTally, ProfileTally

#: The tallies the kernel can project, by name.
VIEWS = ("profile", "age_curve", "citation_age", "hindex")

_LABELS = (0, 1, 2, 3)  # index into CITATION_TYPES
_SIDES = (Perspective.REFERENCE, Perspective.CITATION)


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


class KernelTables(NamedTuple):
    """The counts of one kernel pass, three flat lists (``None`` where not
    asked for) indexed by packed ints:

    * events, by ((2 * author + side) * n_years + citing year - first_year)
      * 4 + type;
    * ages, by ((publication age + n_years - 1) * 2 + side) * 4 + type;
    * cells, four counts (one per type) per authorship slot, the slots of
      the papers in int order and of each paper's authors in order.

    The events list holds 8 * n_years counts per author, used or not. On a
    corpus that spans a few decades that is far smaller than a dict of the
    (author, side, year, type) keys in use: at the acceptance scale 816k of
    its 1.12M slots are used, and a dict costs some 100 bytes per key
    against 8 bytes per slot.
    """

    events: Optional[list[int]]
    ages: Optional[list[int]]
    cells: Optional[list[int]]
    first_year: int
    n_years: int


def run_kernel(
    corpus: Corpus,
    view: InternedCorpus,
    events: bool,
    ages: bool,
    cells: bool,
    similarity=None,
) -> KernelTables:
    """One pass over the interned edges in edge order.

    The reference side is typed only when ``events``, ``ages`` or
    ``similarity`` needs it; ``cells`` reads the citation side alone.
    """
    authors, author_sets, years = view.authors, view.author_sets, view.years
    first_year = min(years, default=0)
    n_years = max(years, default=0) - first_year + 1
    collab = index_collaborations(zip(authors, years))
    neighbors = collab.neighbors
    side_stride = 4 * n_years
    author_stride = 2 * side_stride
    ev = [0] * (author_stride * len(view.author_ids)) if events else None
    ag = [0] * (8 * (2 * n_years - 1)) if ages else None
    hc = None
    if cells:
        cell_base = []  # index of each paper's first cell
        n = 0
        for team in authors:
            cell_base.append(n)
            n += 4 * len(team)
        hc = [0] * n
    type_references = events or ages or similarity is not None
    if similarity is not None:
        papers = corpus.papers
        paper_ids = view.paper_ids
        teams = [papers[pid].author_ids for pid in paper_ids]
        labels = CITATION_TYPES.__getitem__

    for p, refs in enumerate(view.references):
        if not refs:
            continue
        citing = authors[p]
        citing_set = author_sets[p]
        year = years[p]
        year_offset = 4 * (year - first_year)
        ref_base = [a * author_stride + year_offset for a in citing]
        cite_offset = side_stride + year_offset
        for q in refs:
            cited = authors[q]
            cited_set = author_sets[q]
            cite = _side_types(cited, cited_set, citing_set, citing, neighbors, year, _LABELS)
            if hc is not None:
                i = cell_base[q]
                for t in cite:
                    hc[i + t] += 1
                    i += 4
            if not type_references:
                continue
            ref = _side_types(citing, citing_set, cited_set, cited, neighbors, year, _LABELS)
            if ev is not None:
                for i, t in zip(ref_base, ref):
                    ev[i + t] += 1
                for b, t in zip(cited, cite):
                    ev[b * author_stride + cite_offset + t] += 1
            if ag is not None:
                i = 8 * (year - years[q] + n_years - 1)
                for t in ref:
                    ag[i + t] += 1
                i += 4
                for t in cite:
                    ag[i + t] += 1
            if similarity is not None:
                similarity.add_edge(
                    CitationEdge(paper_ids[p], paper_ids[q], year, years[q]),
                    teams[p], list(map(labels, ref)), teams[q], list(map(labels, cite)))
    return KernelTables(ev, ag, hc, first_year, n_years)


class Tallies(NamedTuple):
    """The reference tallies projected from one kernel pass (``None`` where
    not asked for) and the author-edge events per side."""

    profile: Optional[ProfileTally]
    age_curve: Optional[AgeCurveTally]
    citation_age: Optional[CitationAgeTally]
    hindex: Optional[HindexTally]
    author_edge_events: dict[str, int]


def tally_corpus(
    corpus: Corpus,
    views=VIEWS,
    include: Optional[set] = None,
    similarity=None,
) -> Tallies:
    """Intern the corpus, run the kernel for ``views`` (a subset of
    :data:`VIEWS`) and feed ``similarity`` (when given), then project each
    view. ``include`` is the author set of the age-curve view.

    The interned corpus and the collaboration index are dropped before the
    projection, and each count table once it is projected.
    """
    unknown = set(views) - set(VIEWS)
    if unknown or not views:
        raise ValueError(f"views must be a non-empty subset of {VIEWS}")
    view = intern_corpus(corpus)
    author_ids, paper_ids = view.author_ids, view.paper_ids
    events, ages, cells, first_year, n_years = run_kernel(
        corpus, view,
        events="profile" in views or "age_curve" in views,
        ages="citation_age" in views,
        cells="hindex" in views,
        similarity=similarity,
    )
    untyped_references = 0
    if events is None and ages is None:
        # the h-index cells type no reference side: count it per citing paper
        untyped_references = sum(len(team) * len(refs)
                                 for team, refs in zip(view.authors, view.references))
    del view
    # each table that types a side holds all of that side's events
    sides = None
    profile = age_curve = citation_age = hindex = None
    if events is not None:
        if "profile" in views:
            profile = ProfileTally()
        if "age_curve" in views:
            age_curve = AgeCurveTally.for_corpus(corpus, include)
        sides = _project_events(events, first_year, n_years, author_ids,
                                profile, age_curve)
        del events
    if ages is not None:
        citation_age = CitationAgeTally()
        sides = _project_ages(ages, n_years, citation_age)
        del ages
    if cells is not None:
        hindex = HindexTally()
        cited = _project_cells(cells, corpus, paper_ids, hindex)
        sides = sides or [untyped_references, cited]
    return Tallies(profile, age_curve, citation_age, hindex,
                   {"reference": sides[0], "citation": sides[1]})


def _project_events(events, first_year, n_years, author_ids,
                    profile, age_curve) -> list[int]:
    """Profile counts and per-author age-curve cells, with the age curve's
    include and pre-age rules applied per (author, side, year, type) count
    instead of per event. Returns the events per side."""
    if age_curve is not None:
        include = age_curve.include
        per_author = age_curve.per_author
    sides = [0, 0]
    for i in compress(range(len(events)), events):
        n = events[i]
        i, t = divmod(i, 4)
        i, year = divmod(i, n_years)
        author, side = divmod(i, 2)
        aid = author_ids[author]
        year += first_year
        ctype = CITATION_TYPES[t]
        sides[side] += n
        if profile is not None:
            if side:
                profile.cite_year_counts[(aid, ctype, year)] = n
            else:
                cell = (aid, ctype)
                profile.ref_counts[cell] = profile.ref_counts.get(cell, 0) + n
        if age_curve is not None:
            first = age_curve.meta[aid][0]
            if include is not None and aid not in include:
                age_curve.skipped_ineligible += n
            elif year < first:
                age_curve.skipped_preage += n
            else:
                per_author[(aid, _SIDES[side], year - first, ctype)] = n
    return sides


def _project_ages(ages, n_years, tally: CitationAgeTally) -> list[int]:
    """Events per (side, type, publication age); negative ages are counted
    as excluded. Returns the events per side."""
    sides = [0, 0]
    for i in compress(range(len(ages)), ages):
        n = ages[i]
        i, t = divmod(i, 4)
        age, side = divmod(i, 2)
        age -= n_years - 1
        sides[side] += n
        if age < 0:
            tally.negative_excluded += n
        else:
            tally.counts[(_SIDES[side], CITATION_TYPES[t], age)] = n
    return sides


def _project_cells(cells, corpus, paper_ids, tally: HindexTally) -> int:
    """Per cited (author, paper): [total, direct, coauthor, collaborator].
    Returns the citation-side events."""
    per_paper = tally.per_paper
    i = 0
    for pid in paper_ids:
        for aid in corpus.papers[pid].author_ids:
            direct, coauthor, collaborator, external = cells[i:i + 4]
            total = direct + coauthor + collaborator + external
            if total:
                per_paper[(aid, pid)] = [total, direct, coauthor, collaborator]
            i += 4
    return sum(cells)
