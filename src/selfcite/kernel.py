"""The fused integer edge kernel behind ``metrics``, ``hindex``, ``simil``
and ``report``, and the one way into every table for library callers:
:func:`tally_corpus` followed by the finalize step of each view.

An analysis run interns the corpus once with
:func:`~selfcite.graph.intern_corpus`: author and paper ids become dense
ints in sorted string order, so int order is string order and every edge is
met in the order of :func:`~selfcite.graph.iter_edges`. The kernel types
both sides of each edge as type indices 0-3 with the classifier of
:mod:`selfcite.classify` and the co-authorship index of the interned view,
as :func:`selfcite.classify.export_corpus` does for the ``classify``
export. Per author-edge event it adds one to a count in each table the run
needs: a flat list indexed by an int that packs the event's key. At the end the
tables are projected into the reference tallies
(:class:`~selfcite.metrics.ProfileTally`,
:class:`~selfcite.metrics.AgeCurveTally`,
:class:`~selfcite.metrics.CitationAgeTally`,
:class:`~selfcite.hindex.HindexTally`), so their finalize functions and
every table writer keep their inputs. Those tallies' own ``add_edge``, fed
by :func:`selfcite.pipeline.run_edge_tallies`, is the reference the tests
compare the kernel with.

Given tf-idf vectors, :func:`tally_corpus` builds a
:class:`~selfcite.textsim.SimilarityTally` and fills it in the same pass.
It reads each :class:`~selfcite.textsim.TfIdfVector` in its compact layout
(terms tuple, aligned ``array('d')`` of weights, norm made with the vector):
per citing paper it builds the term set and term -> weight dict of the
citing vector once, and per scored edge it takes the cosine of
:func:`selfcite.textsim._cosine`, the rule behind the
:func:`~selfcite.textsim.cosine` that the tally's own ``add_edge`` calls
(common terms in sorted order, each product added in turn). It adds
the cosine to flat float and count cells per (author, type),
(author, type, citation age bin) and direct-reference author, reference
side first, in edge order, so every float sum keeps the association of the
``add_edge`` feed. At the end the cells and the coverage counts are
projected into the tally's dicts with string ids and
:class:`~selfcite.classify.CitationType` keys. ``add_edge`` stays as the
reference feed the tests compare with.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import NamedTuple, Optional

from .classify import CITATION_TYPES, Perspective, _side_types
from .corpus import Corpus
from .graph import InternedCorpus, intern_corpus
from .hindex import HindexTally
from .metrics import AgeCurveTally, CitationAgeTally, ProfileTally

#: The tallies the kernel can project, by name.
VIEWS = ("profile", "age_curve", "citation_age", "hindex")

_SIDES = (Perspective.REFERENCE, Perspective.CITATION)


class KernelTables(NamedTuple):
    """The counts of one kernel pass, three flat lists (``None`` where not
    asked for) indexed by packed ints:

    * events, by ((2 * author + side) * len(event_years) + rank of the
      citing year in event_years) * 4 + type, where event_years are the
      distinct paper years in increasing order;
    * ages, by ((publication age + n_years - 1) * 2 + side) * 4 + type,
      where n_years is the span from the first paper year to the last;
    * cells, four counts (one per type) per authorship slot, the slots of
      the papers in int order and of each paper's authors in order.

    The events list holds 8 counts per author and distinct paper year, used
    or not, so a year gap in the corpus costs no slots. That is far smaller
    than a dict of the (author, side, year, type) keys in use: at the
    acceptance scale 816k of its 1.12M slots are used, and a dict costs
    some 100 bytes per key against 8 bytes per slot.
    """

    events: Optional[list[int]]
    ages: Optional[list[int]]
    cells: Optional[list[int]]
    event_years: list[int]
    n_years: int


def run_kernel(
    view: InternedCorpus,
    events: bool,
    ages: bool,
    cells: bool,
    similarity=None,
) -> KernelTables:
    """One pass over the interned edges in edge order.

    The reference side is typed only when ``events``, ``ages`` or
    ``similarity`` needs it; ``cells`` reads the citation side alone.
    ``similarity``, a :class:`~selfcite.textsim.SimilarityTally` no edge has
    fed, gets its cells and coverage at the end of the pass.
    """
    authors, author_sets, years = view.authors, view.author_sets, view.years
    n_years = max(years, default=0) - min(years, default=0) + 1
    event_years = sorted(set(years))
    year_rank = {year: i for i, year in enumerate(event_years)}
    adjacency = view.collab.adjacency
    side_stride = 4 * len(event_years)
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
        from .textsim import MAX_SINGLE_CITATION_AGE as max_age, _cosine, _term_lookup

        age_bins = max_age + 2  # 0 .. max_age, then max_age + 1 for every older citation
        include = similarity.include
        vectors = list(map(similarity.vectors.get, view.paper_ids))
        included = [include is None or aid in include for aid in view.author_ids]
        n = 4 * len(included)
        at_sum, at_n = [0.0] * n, [0] * n
        ata_sum, ata_n = [0.0] * (age_bins * n), [0] * (age_bins * n)
        sr_sum, sr_n = [0.0] * len(included), [0] * len(included)
        missing = zero = scored = 0

    for p, refs in enumerate(view.references):
        if not refs:
            continue
        citing = authors[p]
        citing_set = author_sets[p]
        year = years[p]
        year_offset = 4 * year_rank[year]
        ref_base = [a * author_stride + year_offset for a in citing]
        cite_offset = side_stride + year_offset
        if similarity is not None:
            u = vectors[p]
            if u is not None:
                nu = u.norm
                if nu != 0.0:
                    u_terms, u_weights = _term_lookup(u)
        for q in refs:
            cited = authors[q]
            cited_set = author_sets[q]
            cite = _side_types(cited, cited_set, citing_set, citing, adjacency, year)
            if hc is not None:
                i = cell_base[q]
                for t in cite:
                    hc[i + t] += 1
                    i += 4
            if not type_references:
                continue
            ref = _side_types(citing, citing_set, cited_set, cited, adjacency, year)
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
            if similarity is None:
                continue
            v = vectors[q]
            if u is None or v is None:
                missing += 1
                continue
            if nu == 0.0 or v.norm == 0.0:
                zero += 1
                continue
            scored += 1
            cos = _cosine(u_terms, u_weights, nu, v)
            age = year - years[q]
            age_bin = age if age <= max_age else max_age + 1
            # reference side first, then citation side: each cell's sum
            # takes its adds in the order of the add_edge feed
            for a, t in chain(zip(citing, ref), zip(cited, cite)):
                if not included[a]:
                    continue
                i = 4 * a + t
                at_sum[i] += cos
                at_n[i] += 1
                if age >= 0:
                    i = age_bins * i + age_bin
                    ata_sum[i] += cos
                    ata_n[i] += 1
            for a, t in zip(citing, ref):
                if t == 0 and included[a]:
                    sr_sum[a] += cos
                    sr_n[a] += 1
    if similarity is not None:
        coverage = similarity.coverage
        coverage.missing_abstract_edges += missing
        coverage.zero_vector_edges += zero
        coverage.scored_edges += scored
        # every included record has one (author, type) count, and one
        # (author, type, age bin) count unless its citation age is negative
        records = sum(at_n)
        coverage.records += records
        similarity.negative_age_records += records - sum(ata_n)
        _project_similarity(similarity, view.author_ids, age_bins,
                            at_sum, at_n, ata_sum, ata_n, sr_sum, sr_n)
    return KernelTables(ev, ag, hc, event_years, n_years)


class Tallies(NamedTuple):
    """The reference tallies projected from one kernel pass (``None`` where
    not asked for) and the author-edge events per side of the corpus."""

    profile: Optional[ProfileTally]
    age_curve: Optional[AgeCurveTally]
    citation_age: Optional[CitationAgeTally]
    hindex: Optional[HindexTally]
    similarity: Optional["SimilarityTally"]
    author_edge_events: dict[str, int]


def tally_corpus(
    corpus: Corpus,
    views=VIEWS,
    include: Optional[set] = None,
    vectors: Optional[dict] = None,
) -> Tallies:
    """Intern the corpus, run the kernel for ``views`` (a subset of
    :data:`VIEWS`), then project each view. ``include`` is the author set of
    the age-curve view and of the similarity tally, which the pass fills
    when ``vectors`` (tf-idf vectors by paper id) are given.

    The interned corpus and the collaboration index are dropped before the
    projection, and each count table once it is projected.
    """
    unknown = set(views) - set(VIEWS)
    if unknown or not views:
        raise ValueError(f"views must be a non-empty subset of {VIEWS}")
    similarity = None
    if vectors is not None:
        from .textsim import SimilarityTally

        similarity = SimilarityTally(vectors, include=include)
    view = intern_corpus(corpus)
    author_ids, paper_ids = view.author_ids, view.paper_ids
    events, ages, cells, event_years, n_years = run_kernel(
        view,
        events="profile" in views or "age_curve" in views,
        ages="citation_age" in views,
        cells="hindex" in views,
        similarity=similarity,
    )
    author_edge_events = view.author_edge_events()
    del view
    profile = age_curve = citation_age = hindex = None
    if events is not None:
        if "profile" in views:
            profile = ProfileTally()
        if "age_curve" in views:
            age_curve = AgeCurveTally.for_corpus(corpus, include)
        _project_events(events, event_years, author_ids, profile, age_curve)
        del events
    if ages is not None:
        citation_age = CitationAgeTally()
        _project_ages(ages, n_years, citation_age)
        del ages
    if cells is not None:
        hindex = HindexTally()
        _project_cells(cells, corpus, paper_ids, hindex)
    return Tallies(profile, age_curve, citation_age, hindex, similarity,
                   author_edge_events)


def _project_events(events, event_years, author_ids, profile, age_curve) -> None:
    """Profile counts and per-author age-curve cells, with the age curve's
    include and pre-age rules applied per (author, side, year, type) count
    instead of per event."""
    if age_curve is not None:
        include = age_curve.include
        per_author = age_curve.per_author
    n_event_years = len(event_years)
    for i in compress(range(len(events)), events):
        n = events[i]
        i, t = divmod(i, 4)
        i, year = divmod(i, n_event_years)
        author, side = divmod(i, 2)
        aid = author_ids[author]
        year = event_years[year]
        ctype = CITATION_TYPES[t]
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


def _project_ages(ages, n_years, tally: CitationAgeTally) -> None:
    """Events per (side, type, publication age); negative ages are counted
    as excluded."""
    for i in compress(range(len(ages)), ages):
        n = ages[i]
        i, t = divmod(i, 4)
        age, side = divmod(i, 2)
        age -= n_years - 1
        if age < 0:
            tally.negative_excluded += n
        else:
            tally.counts[(_SIDES[side], CITATION_TYPES[t], age)] = n


def _project_cells(cells, corpus, paper_ids, tally: HindexTally) -> None:
    """Per cited (author, paper): [total, direct, coauthor, collaborator]."""
    per_paper = tally.per_paper
    i = 0
    for pid in paper_ids:
        for aid in corpus.papers[pid].author_ids:
            direct, coauthor, collaborator, external = cells[i:i + 4]
            total = direct + coauthor + collaborator + external
            if total:
                per_paper[(aid, pid)] = [total, direct, coauthor, collaborator]
            i += 4


def _project_similarity(tally, author_ids, age_bins,
                        at_sum, at_n, ata_sum, ata_n, sr_sum, sr_n) -> None:
    """Each used similarity cell as ``[sum, n]`` under its string id and
    :class:`~selfcite.classify.CitationType` key: cells by 4 * author + type,
    by (4 * author + type) * age_bins + age bin, and by author for direct
    references."""
    for i in compress(range(len(at_n)), at_n):
        a, t = divmod(i, 4)
        tally.author_type[(author_ids[a], CITATION_TYPES[t])] = [at_sum[i], at_n[i]]
    for i in compress(range(len(ata_n)), ata_n):
        cell, age_bin = divmod(i, age_bins)
        a, t = divmod(cell, 4)
        tally.author_type_age[(author_ids[a], CITATION_TYPES[t], age_bin)] = [ata_sum[i], ata_n[i]]
    for a in compress(range(len(sr_n)), sr_n):
        tally.author_selfref[author_ids[a]] = [sr_sum[a], sr_n[a]]
