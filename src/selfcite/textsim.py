"""Citing-cited abstract similarity.

Pipeline: lowercase, split into tokens that are runs of ASCII letters and
digits (``[a-z0-9]+``: every other character separates tokens, so accented
letters do too and ``naïve`` gives ``na`` and ``ve``), drop stopwords,
apply the Porter stemmer, weight terms with tf * ln(N/df) (unsmoothed,
tf = raw within-abstract count) and score pairs with cosine similarity.
Vector building is two-phase: a corpus-wide document-frequency pass, then
an independent per-document weighting pass.

A :class:`TfIdfVector` is compact: its terms as a tuple in first-occurrence
order, their weights as a flat ``array('d')`` aligned with the terms, and
its norm, computed once when the vector is made. Three rules fix every
float: a weight is tf * idf; the norm adds the squared weights left to
right in first-occurrence order; a dot product adds the products of the
common terms one at a time in sorted term order. One cosine rule serves
every caller (:func:`_cosine`), so cosine(u, v) == cosine(v, u) bit for bit
and no caller depends on how the common terms were found.

Pairs where either abstract is missing, or where either tf-idf vector is
all-zero, are excluded from every average and counted instead of being
scored 0, so short or generic abstracts do not drag type comparisons down.

Aggregation is author-first: each author's mean per citation type is
computed before averaging across authors (the pooled per-record mean is
reported alongside). Both sides of an edge are tallied; for direct
self-citations the author's two entries carry the same cosine, so author
means are unaffected by the duplication.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from importlib import resources
from itertools import chain, compress
from operator import mul
from typing import Mapping, Optional

from .classify import CitationType
from .corpus import Corpus, CorpusError
from .metrics import LOW_SUPPORT_AUTHORS, rank_and_cut, sequential_sum
from .porter import stem

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Citation ages above this are pooled into one open-ended bin.
MAX_SINGLE_CITATION_AGE = 20

#: Width of the similarity bins of :func:`similarity_histograms`.
HISTOGRAM_BIN_WIDTH = 0.02


def _stopword_bytes() -> bytes:
    return resources.files("selfcite").joinpath("data/stopwords_en.txt").read_bytes()


@functools.cache
def load_stopwords() -> frozenset[str]:
    """The standard English Snowball stopword list shipped with the package."""
    return frozenset(_stopword_bytes().decode("utf-8").split())


@functools.cache
def stopwords_sha256() -> str:
    """Hash of the shipped stopword file, echoed into run manifests."""
    return hashlib.sha256(_stopword_bytes()).hexdigest()


@dataclass(slots=True)
class TokenizedAbstract:
    paper_id: str
    stems: Counter

    @property
    def is_empty(self) -> bool:
        return not self.stems


def _stem_counts(text: str, cache: dict[str, Optional[str]]) -> Counter:
    """Stem -> count over the tokens of ``text`` that are not stopwords, in
    the order of each stem's first occurrence. ``cache`` maps each token
    already seen to its stem, or to None for a stopword; new tokens are
    added to it."""
    tokens = _TOKEN_RE.findall(text.lower())
    new = set(tokens).difference(cache)
    if new:
        stopwords = load_stopwords()
        for token in new:
            cache[token] = None if token in stopwords else stem(token)
    counts = Counter(map(cache.__getitem__, tokens))
    counts.pop(None, None)
    return counts


def preprocess(text: str, paper_id: str = "") -> TokenizedAbstract:
    """Lowercase, split into runs of ASCII letters and digits (every other
    character separates tokens), drop stopwords, stem.

    The stems keep the order of their first occurrence, which fixes the
    order of every later float sum over a vector's weights."""
    return TokenizedAbstract(paper_id=paper_id, stems=_stem_counts(text, {}))


class TfIdfVector:
    """One paper's tf-idf vector in a compact layout: ``terms``, a tuple in
    first-occurrence order; ``values``, their weights as a flat
    ``array('d')`` aligned with the terms; ``norm``, computed once when the
    vector is made, adding the squared weights left to right in that order.

    ``TfIdfVector(paper_id, weights)`` takes a term -> weight mapping, and
    ``weights`` rebuilds that mapping as a new dict each time it is read (a
    read-only copy). Vectors are equal when their paper id, terms (in
    order) and values are; they have no hash."""

    __slots__ = ("paper_id", "terms", "values", "norm")

    def __init__(self, paper_id: str, weights: Mapping[str, float]):
        self._fill(paper_id, tuple(weights), list(weights.values()))

    @classmethod
    def from_terms(cls, paper_id: str, terms: tuple, values: list) -> "TfIdfVector":
        """The vector of ``terms`` with the aligned float ``values``."""
        vector = cls.__new__(cls)
        vector._fill(paper_id, terms, values)
        return vector

    def _fill(self, paper_id: str, terms: tuple, values: list) -> None:
        self.paper_id = paper_id
        self.terms = terms
        self.values = array("d", values)
        self.norm = math.sqrt(sequential_sum(map(mul, values, values)))

    @property
    def weights(self) -> dict[str, float]:
        return dict(zip(self.terms, self.values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TfIdfVector):
            return NotImplemented
        return (self.paper_id, self.terms, self.values) == (
            other.paper_id, other.terms, other.values)

    def __repr__(self) -> str:
        return f"TfIdfVector({self.paper_id!r}, {self.weights!r})"


def build_vectors(corpus: Corpus) -> dict[str, TfIdfVector]:
    """tf-idf vectors for every paper that carries an abstract.

    idf = ln(N/df) where N counts abstracts with a non-empty stem multiset;
    terms present in every such abstract get weight 0 and are dropped, so a
    vector may come out empty (its norm is 0). A weight is tf * idf.

    No document is held twice: each abstract's stem counts become a terms
    tuple and an aligned count array as soon as it is tokenized, and the
    document frequencies turn into the idf in place. The vector keeps the
    terms tuple; the count arrays go when the function returns. The
    token -> stem cache is this call's own and goes before the idf pass.
    """
    docs = []  # (paper id, terms, term counts), in corpus order
    cache: dict[str, Optional[str]] = {}
    for pid, p in corpus.papers.items():
        if p.abstract is not None:
            counts = _stem_counts(p.abstract, cache)
            docs.append((pid, tuple(counts), array("I", counts.values())))
    del cache
    if not docs:
        raise CorpusError("no abstracts in corpus: tf-idf vectors undefined")

    n_docs = sum(1 for _pid, terms, _counts in docs if terms)
    # document frequencies, then replaced by ln(N/df) in place
    idf = Counter(chain.from_iterable(terms for _pid, terms, _counts in docs))
    for term, df in idf.items():
        idf[term] = math.log(n_docs / df)
    dropped = {term for term, w in idf.items() if not w > 0.0}

    vectors: dict[str, TfIdfVector] = {}
    for pid, terms, counts in docs:
        if dropped and not dropped.isdisjoint(terms):
            kept = [term not in dropped for term in terms]
            terms = tuple(compress(terms, kept))
            counts = compress(counts, kept)
        values = list(map(mul, counts, map(idf.__getitem__, terms)))
        vectors[pid] = TfIdfVector.from_terms(pid, terms, values)
    return vectors


#: Common terms up to which :func:`_cosine` finds each one in v by a scan of
#: v's terms tuple. A scan costs about half of v's length per term and one
#: dict of v's positions costs about v's length, so on the 125-140-term
#: vectors of the text-simil benchmark the dict pays from 8-10 terms on.
_SCAN_LIMIT = 8


def _term_lookup(u: TfIdfVector) -> tuple[frozenset, dict[str, float]]:
    """The term set and the term -> weight dict of ``u``: the first two
    arguments of :func:`_cosine`, built once for every pair ``u`` begins."""
    weights = u.weights
    return frozenset(weights), weights


def _cosine(terms: frozenset, weights: dict[str, float], norm: float,
            v: TfIdfVector) -> float:
    """Cosine of two non-zero vectors, u given by :func:`_term_lookup` and
    its norm.

    The dot product adds ``u[t] * v[t]`` one term at a time, starting from
    0.0, over the sorted common terms: multiplication commutes exactly, so
    the canonical order makes cosine(u, v) == cosine(v, u) bit for bit, and
    how a term is found in v does not touch the float. The loop adds in
    sequence, where ``sum`` of floats is compensated from Python 3.12 on."""
    v_terms = v.terms
    common = terms.intersection(v_terms)
    if not common:
        return 0.0
    if len(common) <= _SCAN_LIMIT:
        position = v_terms.index
    else:
        position = dict(zip(v_terms, range(len(v_terms)))).__getitem__
    values = v.values
    dot = 0.0
    for term in sorted(common):
        dot += weights[term] * values[position(term)]
    value = dot / (norm * v.norm)
    return value if value < 1.0 else 1.0


def cosine(u: TfIdfVector, v: TfIdfVector) -> float:
    """Cosine similarity in [0, 1]; 0 when either vector is all-zero."""
    if u.norm == 0.0 or v.norm == 0.0:
        return 0.0
    return _cosine(*_term_lookup(u), u.norm, v)


@dataclass(slots=True)
class SimilarityCoverage:
    """Why edges did or did not produce similarity records."""

    scored_edges: int = 0
    missing_abstract_edges: int = 0
    zero_vector_edges: int = 0
    records: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def citation_age_bin(age: int) -> str:
    return str(age) if age <= MAX_SINGLE_CITATION_AGE else f"{MAX_SINGLE_CITATION_AGE + 1}+"


def _add_to_cell(cells: dict, key, cos: float) -> None:
    """Add one cosine to the ``[sum, n]`` cell of ``key``."""
    cell = cells.setdefault(key, [0.0, 0])
    cell[0] += cos
    cell[1] += 1


class SimilarityTally:
    """Per-author similarity sums, added in edge order: filled in one pass
    by :func:`selfcite.kernel.tally_corpus`, or one edge at a time by
    ``add_edge``, the reference feed the tests compare the kernel with.

    ``include`` (when given) restricts tallies to that author set; skipped
    records are not counted anywhere.
    """

    __slots__ = (
        "vectors", "include", "author_type", "author_type_age",
        "author_selfref", "coverage", "negative_age_records",
    )

    def __init__(self, vectors: dict[str, TfIdfVector], include=None):
        self.vectors = vectors
        self.include = include
        self.author_type: dict = {}       # (author, ctype) -> [sum, n]
        self.author_type_age: dict = {}   # (author, ctype, age 0..21) -> [sum, n]
        self.author_selfref: dict = {}    # author -> [sum, n]; direct reference-side only
        self.coverage = SimilarityCoverage()
        self.negative_age_records = 0

    def add_edge(self, edge, citing_authors, ref_types, cited_authors, cite_types):
        u = self.vectors.get(edge.citing_id)
        v = self.vectors.get(edge.cited_id)
        if u is None or v is None:
            self.coverage.missing_abstract_edges += 1
            return
        if u.norm == 0.0 or v.norm == 0.0:
            self.coverage.zero_vector_edges += 1
            return
        self.coverage.scored_edges += 1
        cos = cosine(u, v)
        age = edge.citing_year - edge.cited_year
        age_key = min(age, MAX_SINGLE_CITATION_AGE + 1)
        for authors, types, is_ref in (
            (citing_authors, ref_types, True),
            (cited_authors, cite_types, False),
        ):
            for a, t in zip(authors, types):
                if self.include is not None and a not in self.include:
                    continue
                self.coverage.records += 1
                _add_to_cell(self.author_type, (a, t), cos)
                if age < 0:
                    self.negative_age_records += 1
                else:
                    _add_to_cell(self.author_type_age, (a, t, age_key), cos)
                if is_ref and t is CitationType.DIRECT:
                    _add_to_cell(self.author_selfref, a, cos)


def _author_first_rows(cells, column: str, label=str) -> list[dict]:
    """Author-first mean rows from ``((group, ctype), (sum, n))`` author
    cells given in sorted author order: the author-mean column is the mean
    of per-author means (canonical), the pooled column averages records.
    Rows are sorted by (group, type); ``label`` renders the group."""
    groups: dict = {}  # (group, ctype) -> [author_mean_sum, n_authors, pooled_sum, pooled_n]
    for group_key, (s, n) in cells:
        cell = groups.setdefault(group_key, [0.0, 0, 0.0, 0])
        cell[0] += s / n
        cell[1] += 1
        cell[2] += s
        cell[3] += n
    rows = []
    for (group, ctype), (asum, acount, psum, pcount) in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        rows.append({
            column: label(group),
            "citation_type": ctype.value,
            "similarity_author_mean": asum / acount,
            "similarity_pooled": psum / pcount,
            "n_authors": acount,
            "n_records": pcount,
        })
    return rows


def similarity_means(tally, profiles, key: str = "discipline") -> list[dict]:
    """Author-first mean similarity per citation type grouped by an author
    attribute, ``key`` "discipline" or "gender"."""
    # sorted iteration keeps float sums canonical for any tally build order
    cells = sorted(tally.author_type.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
    return _author_first_rows(
        (((getattr(profiles[a], key), ctype), sn)
         for (a, ctype), sn in cells if a in profiles),
        key,
    )


def similarity_histograms(tally, profiles) -> list[dict]:
    """Histogram of per-author mean similarity per (discipline, type), in
    bins of :data:`HISTOGRAM_BIN_WIDTH`."""
    bin_width = HISTOGRAM_BIN_WIDTH
    n_bins = max(1, round(1.0 / bin_width))
    counts: dict = {}
    for (author, ctype), (s, n) in tally.author_type.items():
        profile = profiles.get(author)
        if profile is None:
            continue
        mean = s / n
        idx = min(int(mean / bin_width), n_bins - 1)
        key = (profile.discipline, ctype, idx)
        counts[key] = counts.get(key, 0) + 1
    rows = []
    for (discipline, ctype, idx), n in sorted(
        counts.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2])
    ):
        rows.append({
            "discipline": discipline,
            "citation_type": ctype.value,
            "bin_lo": round(idx * bin_width, 10),
            "bin_hi": round((idx + 1) * bin_width, 10),
            "n_authors": n,
        })
    return rows


def similarity_by_citation_age(tally) -> list[dict]:
    """Author-first mean similarity per (citation age bin, type)."""
    cells = sorted(tally.author_type_age.items(),
                   key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2]))
    return _author_first_rows(
        (((age_key, ctype), sn) for (_a, ctype, age_key), sn in cells),
        "citation_age_bin", citation_age_bin,
    )


def similarity_by_selfref_percentile(tally, profiles, n_groups: int = 10) -> list[dict]:
    """Direct self-reference similarity across self-reference-rate groups.

    Authors with a defined self-reference rate and at least one scored
    direct reference are ranked by rate (ties broken by author id) and cut
    into ``n_groups`` near-equal groups.
    """
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    scored = []
    for author, (s, n) in tally.author_selfref.items():
        profile = profiles.get(author)
        if profile is None:
            continue
        rate = profile.self_reference_rate
        if rate is None:
            continue
        scored.append((rate, author, s / n))
    rows = []
    for g, members in rank_and_cut(scored, n_groups):
        rows.append({
            "group": g,
            "n_authors": len(members),
            "mean_self_reference_rate": sequential_sum(m[0] for m in members) / len(members),
            "mean_direct_reference_similarity":
                sequential_sum(m[2] for m in members) / len(members),
            "low_support": int(len(members) < LOW_SUPPORT_AUTHORS),
        })
    return rows
