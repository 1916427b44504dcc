"""h-index computation and its decomposition by citation type.

Each exclusion of :data:`EXCLUSIONS` drops a set of citation types from
every paper's citation count. The first three are cumulative (direct;
direct+coauthor; direct+coauthor+collaborator), matching how
network-driven gains accumulate; the last two drop the coauthor or the
collaborator type alone for the per-type view. Percentages are expressed
against the observed h-index. Raw citation counts are used throughout: the
h-index is defined on counts, not on inflation-weighted values.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .classify import CitationType
from .corpus import Corpus
from .metrics import LOW_SUPPORT_AUTHORS, sequential_sum

#: Exclusion name -> whether it drops (direct, coauthor, collaborator)
#: citations, cumulative levels first.
EXCLUSIONS = {
    "direct": (1, 0, 0),
    "direct_coauthor": (1, 1, 0),
    "direct_coauthor_collab": (1, 1, 1),
    "coauthor_only": (0, 1, 0),
    "collaborator_only": (0, 0, 1),
}

#: Cumulative exclusion levels in order.
LEVELS = tuple(EXCLUSIONS)[:3]

#: Observed h-index values whose pct-attributable distributions are reported.
DEFAULT_H_BUCKETS = (5, 15, 30, 50)

HIST_BIN_WIDTH = 5

_UNCITED = (0, 0, 0, 0)

#: Citation type -> its slot in a ``per_paper`` cell; external citations
#: count in the total alone.
_SLOTS = {CitationType.DIRECT: 1, CitationType.COAUTHOR: 2, CitationType.COLLABORATOR: 3}


def h_index(citation_counts: Iterable[int]) -> int:
    """Largest h such that at least h papers have at least h citations."""
    counts = sorted(citation_counts, reverse=True)
    h = 0
    for i, c in enumerate(counts, 1):
        if c >= i:
            h = i
        else:
            break
    return h


class HDecomposition(NamedTuple):
    """Observed h-index and its value under each exclusion of
    :data:`EXCLUSIONS` (``h_minus``, by name), evaluated from this author's
    perspective."""

    author_id: str
    h_obs: int
    h_minus: dict[str, int]

    def pct(self, exclusion: str) -> float:
        """Share of the observed h-index, in percent, lost under ``exclusion``."""
        if self.h_obs == 0:
            return 0.0
        return 100.0 * (self.h_obs - self.h_minus[exclusion]) / self.h_obs


class HindexTally:
    """Citation counts per (author, own paper) broken down by type."""

    __slots__ = ("per_paper",)

    def __init__(self) -> None:
        # (author, cited paper) -> [total, direct, coauthor, collaborator]
        self.per_paper: dict = {}

    def add_edge(self, edge, citing_authors, ref_types, cited_authors, cite_types):
        for a, t in zip(cited_authors, cite_types):
            cell = self.per_paper.setdefault((a, edge.cited_id), [0, 0, 0, 0])
            cell[0] += 1
            if t in _SLOTS:
                cell[_SLOTS[t]] += 1


def finalize_decompositions(
    corpus: Corpus,
    tally: HindexTally,
    include_authors: Optional[set] = None,
) -> dict[str, HDecomposition]:
    """The h-index decomposition of every indexed author (of those in
    ``include_authors``, when given) over their own papers."""
    per_paper = tally.per_paper
    out: dict[str, HDecomposition] = {}
    for aid, entry in corpus.author_index.items():
        if include_authors is not None and aid not in include_authors:
            continue
        # [total, direct, coauthor, collaborator] per own paper
        cells = [per_paper.get((aid, pid), _UNCITED) for pid in entry.publication_ids]
        out[aid] = HDecomposition(aid, h_index([t for t, d, c, l in cells]), {
            name: h_index([t - d * xd - c * xc - l * xl for t, d, c, l in cells])
            for name, (xd, xc, xl) in EXCLUSIONS.items()
        })
    return out


def _bucket_means(decompositions, domains, means) -> list[dict]:
    """One row per (domain, observed h-index) bucket in sorted order, with
    the bucket mean of each ``means`` column; buckets of fewer than
    LOW_SUPPORT_AUTHORS authors are flagged."""
    buckets: dict = {}
    for aid, dec in decompositions.items():
        domain = domains.get(aid, "unknown") if domains is not None else "all"
        buckets.setdefault((domain, dec.h_obs), []).append(dec)
    rows = []
    for (domain, h_obs), members in sorted(buckets.items()):
        n = len(members)
        row = {"domain": domain, "h_obs": h_obs, "n_authors": n}
        for column, value in means.items():
            row[column] = sequential_sum(value(d) for d in members) / n
        row["low_support"] = int(n < LOW_SUPPORT_AUTHORS)
        rows.append(row)
    return rows


def attribution_curve(
    decompositions: Mapping[str, HDecomposition],
    domains: Optional[Mapping[str, str]] = None,
) -> list[dict]:
    """Mean pct attributable per cumulative level, bucketed by exact
    observed h-index (and by domain when an author->domain map is given)."""
    return _bucket_means(decompositions, domains, {
        f"mean_pct_{level}": lambda d, level=level: d.pct(level) for level in LEVELS
    })


def individual_exclusion_table(
    decompositions: Mapping[str, HDecomposition],
    domains: Optional[Mapping[str, str]] = None,
) -> list[dict]:
    """Absolute and relative impact of each citation type excluded on its
    own (direct / coauthor / collaborator), bucketed like the curve."""
    means = {}
    for label, exclusion in (("direct", "direct"), ("coauthor", "coauthor_only"),
                             ("collaborator", "collaborator_only")):
        means[f"mean_drop_{label}"] = lambda d, e=exclusion: d.h_obs - d.h_minus[e]
        means[f"mean_pct_{label}"] = lambda d, e=exclusion: d.pct(e)
    return _bucket_means(decompositions, domains, means)


def attribution_distribution(
    decompositions: Mapping[str, HDecomposition],
    h_buckets: Sequence[int] = DEFAULT_H_BUCKETS,
) -> list[dict]:
    """Histograms of pct attributable (bin width 5 over [0, 100]) for
    authors whose observed h-index equals each requested bucket value."""
    n_bins = 100 // HIST_BIN_WIDTH
    hist: dict = {}  # (h_obs, index in LEVELS, bin_idx) -> count
    for dec in decompositions.values():
        if dec.h_obs not in h_buckets:
            continue
        for i, level in enumerate(LEVELS):
            idx = min(int(dec.pct(level) // HIST_BIN_WIDTH), n_bins - 1)
            key = (dec.h_obs, i, idx)
            hist[key] = hist.get(key, 0) + 1
    return [{
        "h_obs": h_obs,
        "level": LEVELS[i],
        "bin_lo": idx * HIST_BIN_WIDTH,
        "bin_hi": (idx + 1) * HIST_BIN_WIDTH,
        "n_authors": hist[(h_obs, i, idx)],
    } for h_obs, i, idx in sorted(hist)]
