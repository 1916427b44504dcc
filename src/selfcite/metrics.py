"""Indicator suite: inflation weights, author profiles, career-age curves,
citation-age tables, percentile strata and production/age heatmaps.

Counts are tallied as exact integers; floating aggregates (weighted counts,
percentages) are derived from those integers in a fixed order at finalize
time, so results do not depend on the order in which edges were tallied.
Weights apply to citation-side aggregates only; reference-side
percentages are scale-free ratios within one citing year and stay
unweighted.

Authors whose rate denominators are zero have undefined rates (``None``)
and are excluded from curves, strata and heatmap means; exclusion counts
are reported so coverage stays visible.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from operator import add, truediv
from typing import Mapping, NamedTuple, Optional, Sequence

from .classify import CITATION_TYPES, CitationType, Perspective
from .corpus import Corpus, CorpusError

_DIRECT = CitationType.DIRECT
_EXTERNAL = CitationType.EXTERNAL
_REFERENCE = Perspective.REFERENCE
_CITATION = Perspective.CITATION


def sequential_sum(values) -> float:
    """``values`` added left to right, rounding after each addition.

    Builtin ``sum`` of floats is compensated from Python 3.12 on, so a table
    built with it can differ in the last bit between interpreters. The float
    sums behind the tables use this rule instead, the rule of the dot product
    in :func:`selfcite.textsim._cosine`."""
    return reduce(add, values, 0)


#: Report bins for academic age / career length: single years then ranges.
AGE_BINS = tuple(str(i) for i in range(11)) + ("11-15", "16-20", "21+")
_AGE_BIN_ORDER = {b: i for i, b in enumerate(AGE_BINS)}

DEFAULT_STRATA_PUBS_BINS: tuple[tuple[int, Optional[int]], ...] = (
    (6, 10), (11, 20), (21, 50), (51, None),
)
DEFAULT_HEATMAP_PUBS_BINS: tuple[tuple[int, Optional[int]], ...] = (
    (1, 5),
) + DEFAULT_STRATA_PUBS_BINS

#: Table cells averaged over fewer authors than this are flagged low-support.
LOW_SUPPORT_AUTHORS = 5

_TYPE_ORDER = {t: i for i, t in enumerate(CITATION_TYPES)}
_SIDE_ORDER = {_REFERENCE: 0, _CITATION: 1}


def age_bin(age: int) -> str:
    """Single years 0-10, then 11-15, 16-20, 21+."""
    if age < 0:
        raise ValueError("age must be >= 0")
    if age <= 10:
        return str(age)
    if age <= 15:
        return "11-15"
    if age <= 20:
        return "16-20"
    return "21+"


def pubs_bin_label(lo: int, hi: Optional[int]) -> str:
    return f"{lo}-{hi}" if hi is not None else f"{lo}+"


def pubs_bin(n_pubs: int, bins: Sequence[tuple[int, Optional[int]]]) -> Optional[str]:
    for lo, hi in bins:
        if n_pubs >= lo and (hi is None or n_pubs <= hi):
            return pubs_bin_label(lo, hi)
    return None


_HEATMAP_BIN_ORDER = {pubs_bin_label(lo, hi): i
                      for i, (lo, hi) in enumerate(DEFAULT_HEATMAP_PUBS_BINS)}


# ---------------------------------------------------------------------------
# Inflation weights
# ---------------------------------------------------------------------------

class InflationWeights(NamedTuple):
    """Per-year mean references per article and the derived weight
    w[y] = max(mu_ref) / mu_ref[y]."""

    mu_ref: dict[int, float]
    weight: dict[int, float]
    max_mu: float
    max_year: int
    papers_per_year: dict[int, int]
    refs_per_year: dict[int, int]
    zero_reference_years: tuple[int, ...]


def compute_inflation_weights(corpus: Corpus) -> InflationWeights:
    """Citation-inflation weights from resolvable reference volumes.

    mu_ref[y] = resolvable references made by papers of year y divided by
    the number of papers published in y. Years with papers but no
    resolvable references are flagged and carry no weight (no citation can
    be made in such a year, so no weight is ever looked up for it).
    """
    if not corpus.papers:
        raise CorpusError("cannot compute inflation weights for an empty corpus")

    papers_per_year: dict[int, int] = {}
    refs_per_year: dict[int, int] = {}
    paper_ids = corpus.papers
    for p in paper_ids.values():
        papers_per_year[p.year] = papers_per_year.get(p.year, 0) + 1
        n_resolvable = sum(1 for rid in p.reference_ids if rid in paper_ids)
        refs_per_year[p.year] = refs_per_year.get(p.year, 0) + n_resolvable

    mu_ref = {y: refs_per_year[y] / n for y, n in papers_per_year.items()}
    positive = {y: mu for y, mu in mu_ref.items() if mu > 0.0}
    zero_years = tuple(sorted(y for y, mu in mu_ref.items() if mu == 0.0))

    # with no positive year, max_mu is 0.0 and max_year the first year
    max_mu = max(positive.values(), default=0.0)
    max_year = min(y for y, mu in mu_ref.items() if mu == max_mu)
    weight = {y: max_mu / mu for y, mu in positive.items()}
    return InflationWeights(
        mu_ref=mu_ref, weight=weight, max_mu=max_mu, max_year=max_year,
        papers_per_year=papers_per_year, refs_per_year=refs_per_year,
        zero_reference_years=zero_years,
    )


def unit_weights(weights: InflationWeights) -> InflationWeights:
    """Copy of ``weights`` with every weight forced to exactly 1.0."""
    return weights._replace(
        mu_ref=dict(weights.mu_ref),
        weight={y: 1.0 for y in weights.weight},
        papers_per_year=dict(weights.papers_per_year),
        refs_per_year=dict(weights.refs_per_year),
    )


# ---------------------------------------------------------------------------
# Author profiles
# ---------------------------------------------------------------------------

class AuthorProfile(NamedTuple):
    author_id: str
    first_pub_year: int
    last_pub_year: int
    n_pubs: int
    discipline: str
    gender: str
    ref_counts: dict[CitationType, int]
    cite_counts: dict[CitationType, int]
    weighted_cite_counts: dict[CitationType, float]

    @property
    def ref_total(self) -> int:
        return sum(self.ref_counts.values())

    @property
    def cite_total(self) -> int:
        return sum(self.cite_counts.values())

    @property
    def self_reference_rate(self) -> Optional[float]:
        """Direct references over all resolvable references; None (flagged)
        when the author's papers make no resolvable references."""
        return _direct_share(self.ref_counts)

    @property
    def self_citation_rate(self) -> Optional[float]:
        return _direct_share(self.cite_counts)

    @property
    def career_length(self) -> int:
        return self.last_pub_year - self.first_pub_year


def _direct_share(counts: dict[CitationType, int]) -> Optional[float]:
    total = sum(counts.values())
    return counts[_DIRECT] / total if total else None


class ProfileTally:
    """Integer tallies behind AuthorProfile."""

    __slots__ = ("ref_counts", "cite_year_counts")

    def __init__(self) -> None:
        self.ref_counts: dict = {}        # (author, ctype) -> int
        self.cite_year_counts: dict = {}  # (author, ctype, citing_year) -> int

    def add_edge(self, edge, citing_authors, ref_types, cited_authors, cite_types):
        rc = self.ref_counts
        for a, t in zip(citing_authors, ref_types):
            key = (a, t)
            rc[key] = rc.get(key, 0) + 1
        cc = self.cite_year_counts
        year = edge.citing_year
        for a, t in zip(cited_authors, cite_types):
            key = (a, t, year)
            cc[key] = cc.get(key, 0) + 1


def finalize_profiles(
    corpus: Corpus,
    tally: ProfileTally,
    weights: Optional[InflationWeights] = None,
) -> dict[str, AuthorProfile]:
    """Profiles for every indexed author. Weighted citation counts scale
    each citation by w[citing year], summed in ascending year order so the
    result is independent of edge order; with ``weights=None`` the
    weighted counts equal the raw counts exactly."""
    per_author_years: dict = {}  # (author, ctype) -> {year: n}
    for (a, t, y), n in tally.cite_year_counts.items():
        per_author_years.setdefault((a, t), {})[y] = n

    profiles: dict[str, AuthorProfile] = {}
    for aid, entry in corpus.author_index.items():
        record = corpus.authors.get(aid)
        ref_counts = {}
        cite_counts = {}
        weighted = {}
        for t in CITATION_TYPES:
            ref_counts[t] = tally.ref_counts.get((aid, t), 0)
            years = per_author_years.get((aid, t))
            if years:
                cite_counts[t] = sum(years.values())
                if weights is None:
                    weighted[t] = float(cite_counts[t])
                else:
                    weighted[t] = sequential_sum(years[y] * weights.weight[y]
                                                 for y in sorted(years))
            else:
                cite_counts[t] = 0
                weighted[t] = 0.0
        profiles[aid] = AuthorProfile(
            author_id=aid,
            first_pub_year=entry.first_pub_year,
            last_pub_year=entry.last_pub_year,
            n_pubs=entry.n_pubs,
            discipline=entry.modal_discipline,
            gender=record.gender if record is not None else "unknown",
            ref_counts=ref_counts,
            cite_counts=cite_counts,
            weighted_cite_counts=weighted,
        )
    return profiles


# ---------------------------------------------------------------------------
# Age curves
# ---------------------------------------------------------------------------

class AgeCurve(NamedTuple):
    """Type percentages per (facet, side, age bin) in ``rows``; pooled
    percentages are canonical, author means reported alongside. When
    inflation weights are supplied, citation-side cells additionally carry
    weighted percentages (reference-side shares are scale-free within one
    citing year and stay unweighted). ``pooled_raw`` holds the event counts
    per (facet, side, raw age, type)."""

    rows: list[dict]
    pooled_raw: dict
    skipped_ineligible: int
    skipped_preage: int

    def pooled_share(self, side: Perspective, ctype: CitationType, ages) -> Optional[float]:
        """Pooled share of ``ctype`` among events at the given raw ages,
        across all facets. None when no events fall in the age set."""
        total = 0
        hits = 0
        for (_facet, s, age, t), n in self.pooled_raw.items():
            if s is side and age in ages:
                total += n
                if t is ctype:
                    hits += n
        if total == 0:
            return None
        return hits / total


class AgeCurveTally:
    """Per-author event counts by side, raw academic age and type. Events
    of authors outside ``include`` (when given) are skipped and counted, as
    are events predating an author's first publication."""

    __slots__ = ("meta", "include", "per_author", "skipped_ineligible", "skipped_preage")

    def __init__(self, author_meta: dict, include: Optional[set] = None):
        self.meta = author_meta  # author -> (first_year, domain, n_pubs)
        self.include = include
        self.per_author: dict = {}  # (author, side, age, ctype) -> int
        self.skipped_ineligible = 0
        self.skipped_preage = 0

    @classmethod
    def for_corpus(cls, corpus: Corpus, include: Optional[set] = None) -> "AgeCurveTally":
        meta = {
            aid: (e.first_pub_year, e.modal_discipline, e.n_pubs)
            for aid, e in corpus.author_index.items()
        }
        return cls(meta, include)

    def _add(self, author: str, side: Perspective, year: int, ctype: CitationType) -> None:
        include = self.include
        if include is not None and author not in include:
            self.skipped_ineligible += 1
            return
        meta = self.meta.get(author)
        if meta is None or year < meta[0]:
            self.skipped_preage += 1
            return
        key = (author, side, year - meta[0], ctype)
        self.per_author[key] = self.per_author.get(key, 0) + 1

    def add_edge(self, edge, citing_authors, ref_types, cited_authors, cite_types):
        year = edge.citing_year
        for a, t in zip(citing_authors, ref_types):
            self._add(a, _REFERENCE, year, t)
        for a, t in zip(cited_authors, cite_types):
            self._add(a, _CITATION, year, t)

    def finalize(
        self,
        by_production: bool = False,
        weights: Optional[InflationWeights] = None,
    ) -> AgeCurve:
        """Type percentages by academic age at the citing year, per side and
        domain, and per publication-count bin of
        :data:`DEFAULT_HEATMAP_PUBS_BINS` when ``by_production``.

        One walk over ``per_author`` in sorted ``(author, side, age, ctype)``
        key order builds every table, and three rules fix the float bytes
        whatever order ``per_author`` was filled in: author means add the
        authors' shares in sorted author order; weighted counts add
        ``n * w[citing year]`` in the walk's key order; a cell's weighted
        total adds its types in the order in which the walk first met them.
        """
        meta = self.meta
        per_author = self.per_author
        weight = weights.weight if weights is not None else None
        type_index = _TYPE_ORDER
        bins: dict = {}  # raw age -> age bin
        age_counts: dict = {}  # (facet, side, raw age) -> [n per type]
        author_cells: dict = {}  # (facet, side, bin) -> {author: [n per type]}
        weighted_bins: dict = {}  # (facet, bin) -> {ctype: weighted n}
        author = side = age = None
        for key in sorted(per_author):
            # a new (author, side, age) run: its facet, bin and count lists
            if key[2] != age or key[1] is not side or key[0] != author:
                if key[0] != author:
                    author = key[0]
                    first, domain, n_pubs = meta[author]
                    facet = domain
                    if by_production:
                        label = pubs_bin(n_pubs, DEFAULT_HEATMAP_PUBS_BINS)
                        facet = None if label is None else (domain, label)
                _author, side, age, _ctype = key
                if facet is None:
                    continue
                bin_label = bins.get(age) or bins.setdefault(age, age_bin(age))
                cell = author_cells.setdefault((facet, side, bin_label), {})
                counts = cell.setdefault(author, [0, 0, 0, 0])
                pooled = age_counts.setdefault((facet, side, age), [0, 0, 0, 0])
                wcell = None
                if weight is not None and side is _CITATION:
                    wcell = weighted_bins.setdefault((facet, bin_label), {})
                    # the citing year of every event is first_pub_year + age
                    w = weight[first + age]
            elif facet is None:
                continue
            ctype = key[3]
            i = type_index[ctype]
            n = per_author[key]
            counts[i] += n
            pooled[i] += n
            if wcell is not None:
                wcell[ctype] = wcell.get(ctype, 0.0) + n * w
        pooled_raw = {(*head, ctype): n
                      for head, ns in age_counts.items()
                      for ctype, n in zip(CITATION_TYPES, ns) if n}

        rows: list[dict] = []
        for cell_key in sorted(author_cells, key=lambda k: (
            (k[0][0], _HEATMAP_BIN_ORDER[k[0][1]]) if by_production else k[0],
            _SIDE_ORDER[k[1]], _AGE_BIN_ORDER[k[2]],
        )):
            facet, side, bin_label = cell_key
            authors = author_cells[cell_key].values()
            columns = tuple(zip(*authors))
            totals = tuple(map(sum, authors))
            total = sum(totals)
            n_authors = len(totals)
            wcounts = weighted_bins.get((facet, bin_label), {}) if side is _CITATION else {}
            wtotal = sequential_sum(wcounts.values())
            facet_cols = (dict(zip(("domain", "pubs_bin"), facet)) if by_production
                          else {"domain": facet})
            for ctype, column in zip(CITATION_TYPES, columns):
                n_events = sum(column)
                pct_weighted = 100.0 * wcounts.get(ctype, 0.0) / wtotal if wtotal > 0.0 else None
                rows.append({
                    **facet_cols,
                    "side": side.value,
                    "age_bin": bin_label,
                    "citation_type": ctype.value,
                    "pct_pooled": 100.0 * n_events / total,
                    "pct_author_mean": (100.0 * sequential_sum(map(truediv, column, totals))
                                        / n_authors),
                    "pct_pooled_weighted": pct_weighted,
                    "n_events": n_events,
                    "n_authors": n_authors,
                })
        return AgeCurve(
            rows=rows,
            pooled_raw=pooled_raw,
            skipped_ineligible=self.skipped_ineligible,
            skipped_preage=self.skipped_preage,
        )


# ---------------------------------------------------------------------------
# Citation-age distribution
# ---------------------------------------------------------------------------

class CitationAgeTally:
    """Events per (side, type, publication age); negative ages are excluded
    and counted. Finalized with a per-paper mean and a peak-normalized
    variant."""

    __slots__ = ("counts", "negative_excluded")

    def __init__(self) -> None:
        self.counts: dict = {}  # (side, ctype, publication_age) -> int
        self.negative_excluded = 0

    def add_edge(self, edge, citing_authors, ref_types, cited_authors, cite_types):
        age = edge.citing_year - edge.cited_year
        if age < 0:
            self.negative_excluded += len(citing_authors) + len(cited_authors)
            return
        counts = self.counts
        for a, t in zip(citing_authors, ref_types):
            key = (_REFERENCE, t, age)
            counts[key] = counts.get(key, 0) + 1
        for a, t in zip(cited_authors, cite_types):
            key = (_CITATION, t, age)
            counts[key] = counts.get(key, 0) + 1

    def finalize(self, n_papers: int) -> list[dict]:
        peaks: dict = {}
        for (side, ctype, _age), n in self.counts.items():
            key = (side, ctype)
            if n > peaks.get(key, 0):
                peaks[key] = n
        rows = []
        for (side, ctype, age) in sorted(
            self.counts, key=lambda k: (_SIDE_ORDER[k[0]], _TYPE_ORDER[k[1]], k[2])
        ):
            n = self.counts[(side, ctype, age)]
            rows.append({
                "side": side.value,
                "citation_type": ctype.value,
                "publication_age": age,
                "events": n,
                "mean_per_paper": n / n_papers if n_papers else 0.0,
                "normalized": n / peaks[(side, ctype)],
            })
        return rows


# ---------------------------------------------------------------------------
# Percentile strata
# ---------------------------------------------------------------------------

def rank_and_cut(members: list, n_groups: int) -> list[tuple[int, list]]:
    """Sort ``(rate, author_id, ...)`` tuples by rate, ties broken by author
    id, and cut them into ``n_groups`` near-equal consecutive groups: group
    ``g`` (from 1) holds sorted positions ``(g-1)*total//n_groups`` up to
    ``g*total//n_groups``. Returns ``(g, group)`` for the non-empty groups
    only, in O(members) time and memory whatever ``n_groups`` is."""
    members.sort(key=lambda item: (item[0], item[1]))
    total = len(members)
    # position i falls in the group g with (g-1)*total < (i+1)*n_groups <= g*total
    return [(g, [m for _i, m in group]) for g, group in groupby(
        enumerate(members), key=lambda im: ((im[0] + 1) * n_groups - 1) // total + 1)]


class PercentileStrata(NamedTuple):
    rows: list[dict]
    excluded_undefined: int
    excluded_out_of_bins: int


def percentile_strata(
    profiles: Mapping[str, AuthorProfile],
    n_percentiles: int = 100,
    include_authors: Optional[set] = None,
    pubs_bins: Sequence[tuple[int, Optional[int]]] = DEFAULT_STRATA_PUBS_BINS,
) -> PercentileStrata:
    """Within each (discipline, publication-count bin) stratum, rank authors
    by self-reference rate (ties broken by author id) and cut into
    ``n_percentiles`` near-equal groups; per group report mean external
    citations, share of women among known genders and mean first year."""
    if n_percentiles < 1:
        raise ValueError("n_percentiles must be >= 1")

    strata: dict = {}
    excluded_undefined = 0
    excluded_out_of_bins = 0
    for aid, profile in profiles.items():
        if include_authors is not None and aid not in include_authors:
            continue
        rate = profile.self_reference_rate
        if rate is None:
            excluded_undefined += 1
            continue
        bin_label = pubs_bin(profile.n_pubs, pubs_bins)
        if bin_label is None:
            excluded_out_of_bins += 1
            continue
        strata.setdefault((profile.discipline, bin_label), []).append((rate, aid, profile))

    bin_order = {pubs_bin_label(lo, hi): i for i, (lo, hi) in enumerate(pubs_bins)}
    rows: list[dict] = []
    for stratum_key in sorted(strata, key=lambda k: (k[0], bin_order[k[1]])):
        members = strata[stratum_key]
        low_support = len(members) < n_percentiles
        for g, chunk in rank_and_cut(members, n_percentiles):
            n = len(chunk)
            women = sum(1 for _r, _a, p in chunk if p.gender == "woman")
            men = sum(1 for _r, _a, p in chunk if p.gender == "man")
            known = women + men
            rows.append({
                "discipline": stratum_key[0],
                "pubs_bin": stratum_key[1],
                "group": g,
                "n_authors": n,
                "mean_self_reference_rate": sequential_sum(r for r, _a, _p in chunk) / n,
                "mean_external_citations": sum(p.cite_counts[_EXTERNAL] for _r, _a, p in chunk) / n,
                "share_women": (women / known) if known else None,
                "mean_first_pub_year": sum(p.first_pub_year for _r, _a, p in chunk) / n,
                "low_support": int(low_support),
            })
    return PercentileStrata(
        rows=rows,
        excluded_undefined=excluded_undefined,
        excluded_out_of_bins=excluded_out_of_bins,
    )


# ---------------------------------------------------------------------------
# Production x career-length heatmap
# ---------------------------------------------------------------------------

def heatmap_by_production_and_age(
    profiles: Mapping[str, AuthorProfile],
    include_authors: Optional[set] = None,
) -> list[dict]:
    """Mean self-citation and self-reference percentages per
    (publication-count bin of :data:`DEFAULT_HEATMAP_PUBS_BINS`,
    career-length bin) cell. Career length is the span between first and
    last publication year; cells with fewer than five authors are flagged
    low-support."""
    cells: dict = {}
    for aid, profile in profiles.items():
        if include_authors is not None and aid not in include_authors:
            continue
        bin_label = pubs_bin(profile.n_pubs, DEFAULT_HEATMAP_PUBS_BINS)
        if bin_label is None:
            continue
        career = age_bin(profile.career_length)
        cells.setdefault((bin_label, career), []).append(profile)

    rows = []
    for (bin_label, career) in sorted(
        cells, key=lambda k: (_HEATMAP_BIN_ORDER[k[0]], _AGE_BIN_ORDER[k[1]])
    ):
        members = cells[(bin_label, career)]
        cite_rates = [p.self_citation_rate for p in members if p.self_citation_rate is not None]
        ref_rates = [p.self_reference_rate for p in members if p.self_reference_rate is not None]
        rows.append({
            "pubs_bin": bin_label,
            "career_bin": career,
            "n_authors": len(members),
            "mean_self_citation_pct": (100.0 * sequential_sum(cite_rates) / len(cite_rates)
                                       if cite_rates else None),
            "mean_self_reference_pct": (100.0 * sequential_sum(ref_rates) / len(ref_rates)
                                        if ref_rates else None),
            "low_support": int(len(members) < LOW_SUPPORT_AUTHORS),
        })
    return rows
