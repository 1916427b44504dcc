"""h-index computation and its decomposition by citation type.

Exclusions are cumulative (direct; direct+coauthor; direct+coauthor+
collaborator), matching how network-driven gains accumulate; single-type
exclusions are computed alongside for the per-type view. Percentages are
expressed against the observed h-index. Raw citation counts are used
throughout: the h-index is defined on counts, not on inflation-weighted
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .classify import CitationType
from .corpus import Corpus
from .metrics import LOW_SUPPORT_AUTHORS

_DIRECT = CitationType.DIRECT
_COAUTHOR = CitationType.COAUTHOR
_COLLABORATOR = CitationType.COLLABORATOR

#: Cumulative exclusion levels in order.
LEVELS = ("direct", "direct_coauthor", "direct_coauthor_collab")

#: Observed h-index values whose pct-attributable distributions are reported.
DEFAULT_H_BUCKETS = (5, 15, 30, 50)

HIST_BIN_WIDTH = 5

_UNCITED = (0, 0, 0, 0)


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


@dataclass(slots=True)
class HDecomposition:
    """Observed h-index and its value under cumulative and single-type
    citation exclusions, evaluated from this author's perspective."""

    author_id: str
    h_obs: int
    h_minus_direct: int
    h_minus_direct_coauthor: int
    h_minus_direct_coauthor_collab: int
    h_minus_coauthor_only: int
    h_minus_collaborator_only: int

    def _pct(self, h_excl: int) -> float:
        if self.h_obs == 0:
            return 0.0
        return 100.0 * (self.h_obs - h_excl) / self.h_obs

    @property
    def pct_direct(self) -> float:
        return self._pct(self.h_minus_direct)

    @property
    def pct_direct_coauthor(self) -> float:
        return self._pct(self.h_minus_direct_coauthor)

    @property
    def pct_direct_coauthor_collab(self) -> float:
        return self._pct(self.h_minus_direct_coauthor_collab)

    @property
    def pct_coauthor_only(self) -> float:
        return self._pct(self.h_minus_coauthor_only)

    @property
    def pct_collaborator_only(self) -> float:
        return self._pct(self.h_minus_collaborator_only)

    def pct_attributable(self, level: str) -> float:
        if level not in LEVELS:
            raise ValueError(f"unknown exclusion level: {level!r}")
        return self._pct(getattr(self, f"h_minus_{level}"))


class HindexTally:
    """Citation counts per (author, own paper) broken down by type."""

    __slots__ = ("per_paper",)

    def __init__(self) -> None:
        # (author, cited paper) -> [total, direct, coauthor, collaborator]
        self.per_paper: dict = {}

    def add_edge(self, edge, citing_authors, ref_types, cited_authors, cite_types):
        cited_id = edge.cited_id
        per_paper = self.per_paper
        for a, t in zip(cited_authors, cite_types):
            key = (a, cited_id)
            cell = per_paper.get(key)
            if cell is None:
                cell = [0, 0, 0, 0]
                per_paper[key] = cell
            cell[0] += 1
            if t is _DIRECT:
                cell[1] += 1
            elif t is _COAUTHOR:
                cell[2] += 1
            elif t is _COLLABORATOR:
                cell[3] += 1


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
        out[aid] = HDecomposition(
            author_id=aid,
            h_obs=h_index([t for t, d, c, l in cells]),
            h_minus_direct=h_index([t - d for t, d, c, l in cells]),
            h_minus_direct_coauthor=h_index([t - d - c for t, d, c, l in cells]),
            h_minus_direct_coauthor_collab=h_index([t - d - c - l for t, d, c, l in cells]),
            h_minus_coauthor_only=h_index([t - c for t, d, c, l in cells]),
            h_minus_collaborator_only=h_index([t - l for t, d, c, l in cells]),
        )
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
            row[column] = sum(value(d) for d in members) / n
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
        f"mean_pct_{level}": lambda d, level=level: d.pct_attributable(level)
        for level in LEVELS
    })


def individual_exclusion_table(
    decompositions: Mapping[str, HDecomposition],
    domains: Optional[Mapping[str, str]] = None,
) -> list[dict]:
    """Absolute and relative impact of each citation type excluded on its
    own (direct / coauthor / collaborator), bucketed like the curve."""
    return _bucket_means(decompositions, domains, {
        "mean_drop_direct": lambda d: d.h_obs - d.h_minus_direct,
        "mean_pct_direct": lambda d: d.pct_direct,
        "mean_drop_coauthor": lambda d: d.h_obs - d.h_minus_coauthor_only,
        "mean_pct_coauthor": lambda d: d.pct_coauthor_only,
        "mean_drop_collaborator": lambda d: d.h_obs - d.h_minus_collaborator_only,
        "mean_pct_collaborator": lambda d: d.pct_collaborator_only,
    })


def attribution_distribution(
    decompositions: Mapping[str, HDecomposition],
    h_buckets: Sequence[int] = DEFAULT_H_BUCKETS,
) -> list[dict]:
    """Histograms of pct attributable (bin width 5 over [0, 100]) for
    authors whose observed h-index equals each requested bucket value."""
    n_bins = 100 // HIST_BIN_WIDTH
    hist: dict = {}  # (h_obs, level, bin_idx) -> count
    for dec in decompositions.values():
        if dec.h_obs not in h_buckets:
            continue
        for level in LEVELS:
            pct = dec.pct_attributable(level)
            idx = min(int(pct // HIST_BIN_WIDTH), n_bins - 1)
            key = (dec.h_obs, level, idx)
            hist[key] = hist.get(key, 0) + 1
    level_order = {lv: i for i, lv in enumerate(LEVELS)}
    rows = []
    for (h_obs, level, idx) in sorted(
        hist, key=lambda k: (k[0], level_order[k[1]], k[2])
    ):
        rows.append({
            "h_obs": h_obs,
            "level": level,
            "bin_lo": idx * HIST_BIN_WIDTH,
            "bin_hi": (idx + 1) * HIST_BIN_WIDTH,
            "n_authors": hist[(h_obs, level, idx)],
        })
    return rows
