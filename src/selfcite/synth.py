"""Seeded synthetic corpora with planted citation behavior.

Careers unfold chronologically: authors enter across the year span, write
papers at a Poisson rate, and draw each reference target from a mixture of
four pools that map one-to-one onto the classification taxonomy from the
writing (lead) author's perspective:

* own: the lead's earlier papers (direct),
* coauthor: papers by a co-author of the current paper (co-author),
* collaborator: papers by a strictly-earlier collaborator of the lead
  (collaborator),
* external: any paper already written (external).

The pools form one cumulative chain: each bars the authors the pool before
it barred plus one more group (no one; the lead; the current team; the team
and the lead's prior collaborators). A candidate is admissible when the
paper does not reference it yet and it shares no author with its pool's
barred set; an external one must also be ``external_min_paper_age`` years
old and pass the coupling's acceptance draw. A pool gets :data:`_TRIES`
candidates per draw. A draw falls *down* the chain own -> coauthor ->
collaborator -> external when its pool is empty or, below own, yields no
admissible candidate; it never moves upward, so a planted probability of
zero stays exactly zero. An own draw that only re-hits targets already
referenced is dropped rather than retyped, and an external draw that finds
nothing is skipped. Pool-availability effects (empty pools at career
start) are exactly what makes the career-age curves emerge, and
:func:`ground_truth` reports the realized shares from an instrumented run
instead of pretending the planted mixture survives them.

Abstracts are sampled from a per-author topic vocabulary mixed with a
shared background vocabulary; optional couplings tie an author's direct
propensity to lower topical reuse (text similarity) and to a higher
chance of being picked as an external target (external citations).
Generation is a single seeded sequence: a fixed seed reproduces the
corpus byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations
from pathlib import Path
from typing import Optional, Union

from .corpus import (
    DISCIPLINES,
    YEAR_MAX,
    YEAR_MIN,
    AuthorRecord,
    Corpus,
    CorpusError,
    PaperRecord,
    atomic_write,
    corpus_from_records,
    save_corpus,
)

#: Each pool's citation type from the lead's side (reference) and from the
#: target's lead's side (citation): a co-author's paper is direct for its lead.
_POOL_TYPES = {
    "own": ("direct", "direct"),
    "coauthor": ("coauthor", "direct"),
    "collaborator": ("collaborator", "collaborator"),
    "external": ("external", "external"),
}
_POOLS = tuple(_POOL_TYPES)
#: Candidates tried per pool before the draw falls down (or, own pool, drops).
_TRIES = (6, 8, 8, 12)
#: Knuth's product method in :func:`_poisson` is exact while ``exp(-rate)``
#: is a normal float; far past that it silently draws too few.
_MAX_RATE = 700

_REAL_DISCIPLINES = tuple(d for d in DISCIPLINES if d != "unknown")


#: Annotation of a scalar config field -> (accepted types, rule when not).
_TYPES = {
    "int": (int, "must be an integer"),
    "Optional[int]": ((int, type(None)), "must be an integer or null"),
    "float": ((int, float), "must be a number"),
}


class SynthConfigError(CorpusError):
    """Invalid generator configuration; the message names the field."""


@dataclass(slots=True)
class SynthConfig:
    n_authors: int = 100
    year_start: int = 2000
    year_end: int = 2019
    #: Authors enter within the first k years of the span (None: whole span).
    entry_years: Optional[int] = None
    papers_per_author_year: float = 0.8
    coauthors_mean: float = 1.0
    refs_per_paper_start: float = 8.0
    refs_per_paper_end: float = 16.0
    p_direct: float = 0.15
    p_coauthor: float = 0.10
    p_collaborator: float = 0.15
    p_external: float = 0.60
    #: Relative per-author spread of the direct propensity (0 = homogeneous).
    direct_spread: float = 0.0
    #: >0 makes heavy self-referencers likelier external-citation targets.
    selfref_external_coupling: float = 0.0
    #: >0 makes heavy self-referencers reuse their own topic terms less.
    selfref_reuse_coupling: float = 0.0
    #: External draws only target papers at least this many years old,
    #: modelling the diffusion delay before strangers pick work up.
    external_min_paper_age: int = 0
    topic_terms_per_author: int = 40
    background_terms: int = 400
    abstract_length: int = 14
    abstract_coverage: float = 1.0
    own_topic_reuse: float = 0.6
    gender_women: float = 0.4
    gender_men: float = 0.5
    disciplines: tuple[str, ...] = _REAL_DISCIPLINES
    seed: int = 0

    def validate(self) -> None:
        def bad(name, reason):
            raise SynthConfigError(f"invalid config field '{name}': {reason}")

        # each field's type, read from its annotation; a bool is no number
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple[str, ...]":
                if not (isinstance(value, (list, tuple))
                        and all(isinstance(d, str) for d in value)):
                    bad(f.name, "must be a list of strings")
            elif isinstance(value, bool) or not isinstance(value, _TYPES[f.type][0]):
                bad(f.name, _TYPES[f.type][1])
            elif isinstance(value, float) and not math.isfinite(value):
                bad(f.name, "must be finite")

        if self.n_authors < 1:
            bad("n_authors", "must be >= 1")
        if self.seed < 0:
            # random.Random(-s) draws the same stream as Random(s)
            bad("seed", "must be >= 0")
        if not (YEAR_MIN <= self.year_start <= self.year_end <= YEAR_MAX):
            bad("year_start/year_end", f"need {YEAR_MIN} <= start <= end <= {YEAR_MAX}")
        if self.entry_years is not None and self.entry_years < 1:
            bad("entry_years", "must be >= 1 when given")
        if self.papers_per_author_year <= 0:
            bad("papers_per_author_year", "rate must be positive")
        if self.coauthors_mean < 0:
            bad("coauthors_mean", "must be >= 0")
        if self.refs_per_paper_start < 0 or self.refs_per_paper_end < 0:
            bad("refs_per_paper_start/refs_per_paper_end", "must be >= 0")
        for name in ("papers_per_author_year", "coauthors_mean",
                     "refs_per_paper_start", "refs_per_paper_end"):
            if getattr(self, name) > _MAX_RATE:
                bad(name, f"must be <= {_MAX_RATE}")
        probs = (self.p_direct, self.p_coauthor, self.p_collaborator, self.p_external)
        if any(p < 0 or p > 1 for p in probs):
            bad("p_direct/p_coauthor/p_collaborator/p_external", "must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-12:
            bad("p_direct/p_coauthor/p_collaborator/p_external",
                f"mixture must sum to 1, got {sum(probs)!r}")
        for name in ("direct_spread", "selfref_external_coupling",
                     "selfref_reuse_coupling", "abstract_coverage", "own_topic_reuse"):
            v = getattr(self, name)
            if v < 0 or v > 1:
                bad(name, "must lie in [0, 1]")
        if self.topic_terms_per_author < 1:
            bad("topic_terms_per_author", "must be >= 1")
        if self.background_terms < 1:
            bad("background_terms", "must be >= 1")
        if self.abstract_length < 0:
            bad("abstract_length", "must be >= 0")
        if self.external_min_paper_age < 0:
            bad("external_min_paper_age", "must be >= 0")
        if self.gender_women < 0 or self.gender_men < 0 or self.gender_women + self.gender_men > 1:
            bad("gender_women/gender_men", "must be >= 0 and sum to <= 1")
        if not self.disciplines:
            bad("disciplines", "must not be empty")
        for d in self.disciplines:
            if d not in DISCIPLINES:
                bad("disciplines", f"unknown discipline {d!r}")

    def to_obj(self) -> dict:
        obj = {}
        for f in fields(self):
            value = getattr(self, f.name)
            obj[f.name] = list(value) if isinstance(value, tuple) else value
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "SynthConfig":
        if not isinstance(obj, dict):
            raise SynthConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise SynthConfigError(f"invalid config field '{sorted(unknown)[0]}': unknown field")
        kwargs = dict(obj)
        if "disciplines" in kwargs and isinstance(kwargs["disciplines"], list):
            kwargs["disciplines"] = tuple(kwargs["disciplines"])
        config = cls(**kwargs)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SynthConfig":
        path = Path(path)
        if not path.exists():
            raise SynthConfigError(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise SynthConfigError(
                f"config file is not valid UTF-8 at byte {exc.start + 1}") from exc
        except json.JSONDecodeError as exc:
            raise SynthConfigError(f"config file is not valid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer past the int-string digit limit
            raise SynthConfigError(f"config file is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SynthConfigError("config file is nested too deeply to parse") from exc
        return cls.from_obj(obj)


@dataclass(slots=True)
class DrawStats:
    """Instrumentation of reference-target draws during generation."""

    intended: dict[str, int] = field(default_factory=lambda: {p: 0 for p in _POOLS})
    landed: dict[str, int] = field(default_factory=lambda: {p: 0 for p in _POOLS})
    fallbacks: int = 0
    dropped_duplicate_draws: int = 0
    skipped_draws: int = 0

    @property
    def total_kept(self) -> int:
        return sum(self.landed.values())


@dataclass(slots=True)
class GroundTruth:
    """Expected shares and correlation signs realized by a config."""

    reference_shares: dict[str, float]
    citation_shares: dict[str, float]
    intended_shares: dict[str, float]
    fallback_rate: float
    correlation_signs: dict[str, int]


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's product method, exact up to the validated :data:`_MAX_RATE`."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def generate_with_stats(config: SynthConfig) -> tuple[Corpus, DrawStats]:
    """Generate a corpus and the draw instrumentation behind it."""
    config.validate()
    rng = random.Random(config.seed)
    stats = DrawStats()

    n = config.n_authors
    span = config.year_end - config.year_start + 1
    entry_span = min(config.entry_years, span) if config.entry_years else span

    author_ids = [f"A{i:05d}" for i in range(n)]
    entry: dict[str, int] = {}
    # chance that an external draw which passed every other check lands
    ext_accept: dict[str, float] = {}
    mixture: dict[str, tuple[float, float, float]] = {}
    reuse: dict[str, float] = {}
    topic_idx: dict[str, int] = {}
    gender: dict[str, str] = {}
    home_disc: dict[str, str] = {}

    ext_coupling = config.selfref_external_coupling
    rest_mass = config.p_coauthor + config.p_collaborator + config.p_external
    for i, aid in enumerate(author_ids):
        entry[aid] = config.year_start + rng.randrange(entry_span)
        u = rng.random()
        ext_accept[aid] = (1.0 + ext_coupling * u) / (1.0 + ext_coupling)
        d = config.p_direct * (1.0 + config.direct_spread * (2.0 * u - 1.0))
        d = min(max(d, 0.0), 1.0)
        if rest_mass > 0.0:
            scale = (1.0 - d) / rest_mass
            c2 = d + config.p_coauthor * scale
            c3 = c2 + config.p_collaborator * scale
        else:
            d, c2, c3 = 1.0, 1.0, 1.0
        mixture[aid] = (d, c2, c3)
        reuse[aid] = max(config.own_topic_reuse * (1.0 - config.selfref_reuse_coupling * u), 0.0)
        topic_idx[aid] = i
        g = rng.random()
        if g < config.gender_women:
            gender[aid] = "woman"
        elif g < config.gender_women + config.gender_men:
            gender[aid] = "man"
        else:
            gender[aid] = "unknown"
        home_disc[aid] = config.disciplines[rng.randrange(len(config.disciplines))]

    order = sorted(author_ids, key=lambda a: (entry[a], a))
    papers: dict[str, PaperRecord] = {}
    paper_list: list[str] = []
    paper_authors: dict[str, tuple[str, ...]] = {}
    authored: dict[str, list[str]] = {aid: [] for aid in author_ids}
    first_joint: dict[str, dict[str, int]] = {aid: {} for aid in author_ids}

    ext_min_age = config.external_min_paper_age
    n_topic = config.topic_terms_per_author
    n_bg = config.background_terms

    pid_n = 0
    ptr = 0
    active: list[str] = []
    for year in range(config.year_start, config.year_end + 1):
        while ptr < n and entry[order[ptr]] <= year:
            active.append(order[ptr])
            ptr += 1
        if span > 1:
            ref_rate = config.refs_per_paper_start + (
                config.refs_per_paper_end - config.refs_per_paper_start
            ) * (year - config.year_start) / (span - 1)
        else:
            ref_rate = config.refs_per_paper_end
        n_active = len(active)

        for lead in active:
            for _ in range(_poisson(rng, config.papers_per_author_year)):
                pid = f"P{pid_n:07d}"
                pid_n += 1

                team = [lead]
                want = _poisson(rng, config.coauthors_mean)
                if want > 0 and n_active > 1:
                    want = min(want, n_active - 1)
                    guard = 0
                    while len(team) - 1 < want and guard < 20 * want:
                        cand = active[rng.randrange(n_active)]
                        guard += 1
                        if cand != lead and cand not in team:
                            team.append(cand)

                prior = [c for c, jy in first_joint[lead].items() if jy < year]
                team_set = frozenset(team)
                sources = (authored[lead], [c for c in team[1:] if authored[c]],
                           prior, paper_list)
                barred = (frozenset(), frozenset((lead,)), team_set, team_set.union(prior))

                refs: list[str] = []
                ref_set: set[str] = set()
                for _ in range(_poisson(rng, ref_rate)):
                    drawn = bisect_right(mixture[lead], rng.random())
                    stats.intended[_POOLS[drawn]] += 1
                    target = None
                    for pool in range(drawn, 4):
                        source = sources[pool]
                        if not source:
                            continue
                        bar = barred[pool]
                        for _try in range(_TRIES[pool]):
                            t = source[rng.randrange(len(source))]
                            if pool == 1 or pool == 2:  # an author, then one of their papers
                                theirs = authored[t]
                                t = theirs[rng.randrange(len(theirs))]
                            ta = paper_authors[t]
                            if t not in ref_set and bar.isdisjoint(ta) and (
                                    pool < 3 or year - papers[t].year >= ext_min_age and (
                                        not ext_coupling or rng.random() <= ext_accept[ta[0]])):
                                target = t
                                break
                        if target is not None or pool == 0:
                            break

                    if target is not None:
                        stats.fallbacks += pool != drawn
                        refs.append(target)
                        ref_set.add(target)
                        stats.landed[_POOLS[pool]] += 1
                    elif drawn == 0 and sources[0]:
                        stats.dropped_duplicate_draws += 1
                    else:
                        stats.skipped_draws += 1

                abstract = None
                if config.abstract_length > 0 and rng.random() < config.abstract_coverage:
                    r = reuse[lead]
                    t_idx = topic_idx[lead]
                    tokens = []
                    for _ in range(config.abstract_length):
                        if rng.random() < r:
                            tokens.append(f"a{t_idx}t{rng.randrange(n_topic)}")
                        else:
                            tokens.append(f"bg{rng.randrange(n_bg)}")
                    abstract = " ".join(tokens)

                team_t = tuple(team)
                papers[pid] = PaperRecord(
                    paper_id=pid,
                    year=year,
                    discipline=home_disc[lead],
                    author_ids=team_t,
                    reference_ids=tuple(refs),
                    abstract=abstract,
                )
                paper_authors[pid] = team_t
                paper_list.append(pid)
                for a in team:
                    authored[a].append(pid)
                if len(team) > 1:
                    for x, y in combinations(team, 2):
                        first_joint[x].setdefault(y, year)
                        first_joint[y].setdefault(x, year)

    author_records = [
        AuthorRecord(author_id=aid, gender=gender[aid]) for aid in author_ids
    ]
    corpus = corpus_from_records(papers.values(), author_records)
    return corpus, stats


def generate(config: SynthConfig) -> Corpus:
    """Deterministic synthetic corpus for a validated config and seed."""
    corpus, _stats = generate_with_stats(config)
    return corpus


def ground_truth(config: SynthConfig) -> GroundTruth:
    """Planted shares adjusted for realized empty-pool fallbacks.

    Shares come from an instrumented generation run. Reference-side shares
    are exact for the writing author's perspective; citation-side shares
    use the lead-of-target mapping (own and coauthor pool draws are direct
    citations for the target's owner) and are exact for single-authored
    corpora.
    """
    _corpus, stats = generate_with_stats(config)
    total = stats.total_kept
    intended_total = sum(stats.intended.values())

    def share(count: int, denom: int) -> float:
        return count / denom if denom else 0.0

    references = {ref_type: 0 for ref_type, _cite_type in _POOL_TYPES.values()}
    citations = dict(references)
    for pool, (ref_type, cite_type) in _POOL_TYPES.items():
        references[ref_type] += stats.landed[pool]
        citations[cite_type] += stats.landed[pool]
    signs = {
        "external_citations_vs_self_reference_rate": 1 if config.selfref_external_coupling > 0 else 0,
        "direct_similarity_vs_self_reference_rate": -1 if config.selfref_reuse_coupling > 0 else 0,
    }
    return GroundTruth(
        reference_shares={t: share(c, total) for t, c in references.items()},
        citation_shares={t: share(c, total) for t, c in citations.items()},
        intended_shares={p: share(c, intended_total) for p, c in stats.intended.items()},
        fallback_rate=share(stats.fallbacks, total),
        correlation_signs=signs,
    )


def write_corpus(
    corpus: Corpus,
    out_dir: Union[str, Path],
    config: Optional[SynthConfig] = None,
    stats: Optional[DrawStats] = None,
) -> dict:
    """Write papers/authors files plus a metadata echo of the config."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    papers_path = out_dir / "papers.jsonl"
    authors_path = out_dir / "authors.jsonl"
    save_corpus(corpus, papers_path, authors_path)
    meta = {
        "papers": len(corpus.papers),
        "authors": len(corpus.authors),
        "total_references": corpus.total_references,
        "unresolved_references": corpus.unresolved_references,
    }
    if config is not None:
        meta["config"] = config.to_obj()
        meta["seed"] = config.seed
    if stats is not None:
        meta["draws"] = asdict(stats)
    with atomic_write(out_dir / "synth_meta.json") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return meta
