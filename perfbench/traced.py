"""Traced in-process replay of one workload's subcommands.

The replay calls the public functions of each module in the order the CLI
subcommand calls them and wraps each stage in a span. CSV writing and the
run manifest are not replayed; they fall into the command span's self
time. After the replay, isolation passes time single layers that the CLI
fuses: classification alone, the TSV parse alone, one tally at a time,
preprocessing alone and the stemmer over the distinct tokens.

Spans (name, start, end, parent) and counts are kept in memory and printed
once, as one JSON object on the last line of standard output.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/traced.py --commands classify,report --data DIR --out DIR
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from selfcite.classify import (
    build_author_sets,
    classify_all,
    iter_edge_types,
    read_classifications,
    write_classifications,
)
from selfcite.corpus import eligible_authors, load_corpus
from selfcite.graph import build_collaboration_index, build_edges, export_edges
from selfcite.hindex import (
    HindexTally,
    attribution_curve,
    attribution_distribution,
    finalize_decompositions,
    individual_exclusion_table,
)
from selfcite.metrics import (
    AgeCurveTally,
    CitationAgeTally,
    ProfileTally,
    compute_inflation_weights,
    finalize_profiles,
    heatmap_by_production_and_age,
    percentile_strata,
)
from selfcite.pipeline import run_edge_tallies, run_record_tallies
from selfcite.porter import stem
from selfcite.textsim import (
    SimilarityTally,
    build_vectors,
    load_stopwords,
    preprocess,
    similarity_by_citation_age,
    similarity_by_selfref_percentile,
    similarity_histograms,
    similarity_means,
)

# The tokenizer of selfcite.textsim.preprocess.
TOKEN_RE = re.compile(r"[a-z0-9]+")

# CLI defaults: --min-pubs 5, --n-percentiles 100, weighting on, individual on.
MIN_PUBS = 5
N_PERCENTILES = 100

# Tallies each subcommand feeds, by the name of its self-time metric.
COMMAND_TALLIES = {
    "classify": (),
    "metrics": ("metrics.profile", "metrics.agecurve", "metrics.citeage"),
    "hindex": ("hindex.tally",),
    "simil": ("textsim.tally", "metrics.profile"),
    "report": ("metrics.profile", "metrics.agecurve", "metrics.citeage",
               "hindex.tally", "textsim.tally"),
}

class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _new_tally(name, corpus, eligible, vectors):
    if name == "metrics.profile":
        return ProfileTally()
    if name == "metrics.agecurve":
        return AgeCurveTally.for_corpus(corpus, include=eligible)
    if name == "metrics.citeage":
        return CitationAgeTally()
    if name == "hindex.tally":
        return HindexTally()
    return SimilarityTally(vectors, include=eligible)


class Replay:
    """State shared by the replayed commands of one workload."""

    def __init__(self, tracer: Tracer, papers: Path, authors: Path, out: Path):
        self.t = tracer
        self.papers = papers
        self.authors = authors
        self.out = out
        self.corpus = self.edges = self.collab = self.vectors = None

    def load(self):
        with self.t.span("corpus.load"):
            corpus = load_corpus(self.papers, self.authors)
        counts = self.t.counts
        counts.setdefault("corpus.rss_mb", _rss_mb())
        counts["corpus.papers"] = len(corpus.papers)
        counts["corpus.refs_resolvable"] = corpus.resolvable_references
        self.corpus = corpus
        return corpus

    def graph(self, corpus):
        with self.t.span("graph.build_edges"):
            edges = build_edges(corpus)
        with self.t.span("graph.collab_index"):
            collab = build_collaboration_index(corpus)
        self.t.counts["graph.edges"] = len(edges)
        self.t.counts["graph.collab_pairs"] = len(collab)
        self.edges, self.collab = edges, collab
        return edges, collab

    def build_vectors(self, corpus):
        before = _rss_mb()
        with self.t.span("textsim.build_vectors"):
            vectors = build_vectors(corpus)
        self.t.counts.setdefault("textsim.rss_mb", _rss_mb() - before)
        self.t.counts["textsim.vector_nnz"] = sum(len(v.weights) for v in vectors.values())
        self.vectors = vectors
        return vectors

    def metrics_finalize(self, corpus, tallies, weights, eligible):
        profile, age, citeage = tallies
        self.t.counts["metrics.tally_keys"] = (
            len(profile.ref_counts) + len(profile.cite_year_counts)
            + len(age.per_author) + len(citeage.counts))
        with self.t.span("metrics.finalize"):
            profiles = finalize_profiles(corpus, profile, weights)
            age.finalize(weights=weights)
            age.finalize(by_production=True, weights=weights)
            citeage.finalize(len(corpus.papers))
            percentile_strata(profiles, N_PERCENTILES, include_authors=eligible)
            heatmap_by_production_and_age(profiles, include_authors=eligible)

    def hindex_finalize(self, corpus, tally, eligible):
        self.t.counts["hindex.cells"] = len(tally.per_paper)
        with self.t.span("hindex.finalize"):
            decomps = finalize_decompositions(corpus, tally, include_authors=eligible)
            domains = {aid: e.modal_discipline for aid, e in corpus.author_index.items()}
            attribution_curve(decomps, domains)
            individual_exclusion_table(decomps, domains)
            attribution_distribution(decomps)

    def textsim_finalize(self, corpus, sim_tally, profile_tally, eligible):
        self.t.counts["textsim.scored_edges"] = sim_tally.coverage.scored_edges
        with self.t.span("textsim.finalize"):
            profiles = finalize_profiles(corpus, profile_tally, None)
            eligible_profiles = {a: p for a, p in profiles.items() if a in eligible}
            similarity_histograms(sim_tally, eligible_profiles)
            similarity_means(sim_tally, eligible_profiles, key="discipline")
            similarity_by_citation_age(sim_tally)
            similarity_by_selfref_percentile(sim_tally, eligible_profiles,
                                             n_groups=N_PERCENTILES)
            similarity_means(sim_tally, eligible_profiles, key="gender")

    # One method per subcommand, mirroring its stage order in the CLI.

    def classify(self):
        corpus = self.load()
        edges, collab = self.graph(corpus)
        with self.t.span("graph.export_edges"):
            export_edges(edges, self.out / "edges.tsv")
        tsv = self.out / "classifications.tsv"
        with self.t.span("classify.write_tsv"):
            write_classifications(classify_all(corpus, edges, collab), tsv)
        self.t.counts["classify.tsv_mb"] = tsv.stat().st_size / 1e6

    def metrics(self):
        corpus = self.load()
        edges, collab = self.graph(corpus)
        eligible = eligible_authors(corpus, MIN_PUBS)
        weights = compute_inflation_weights(corpus)
        tallies = [ProfileTally(), AgeCurveTally.for_corpus(corpus, include=eligible),
                   CitationAgeTally()]
        with self.t.span("pipeline.edge_tallies"):
            run_edge_tallies(corpus, edges, collab, tallies)
        self.metrics_finalize(corpus, tallies, weights, eligible)

    def hindex(self):
        corpus = self.load()
        edges, collab = self.graph(corpus)
        eligible = eligible_authors(corpus, MIN_PUBS)
        tally = HindexTally()
        with self.t.span("pipeline.edge_tallies"):
            run_edge_tallies(corpus, edges, collab, [tally])
        self.hindex_finalize(corpus, tally, eligible)

    def simil(self):
        corpus = self.load()
        edges, collab = self.graph(corpus)
        eligible = eligible_authors(corpus, MIN_PUBS)
        vectors = self.build_vectors(corpus)
        sim_tally = SimilarityTally(vectors, include=eligible)
        profile_tally = ProfileTally()
        with self.t.span("pipeline.edge_tallies"):
            run_edge_tallies(corpus, edges, collab, [sim_tally, profile_tally])
        self.textsim_finalize(corpus, sim_tally, profile_tally, eligible)

    def report(self):
        corpus = self.load()
        eligible = eligible_authors(corpus, MIN_PUBS)
        weights = compute_inflation_weights(corpus)
        tallies = [ProfileTally(), AgeCurveTally.for_corpus(corpus, include=eligible),
                   CitationAgeTally(), HindexTally()]
        sim_tally = None
        if corpus.papers_with_abstract > 0:
            sim_tally = SimilarityTally(self.build_vectors(corpus), include=eligible)
            tallies.append(sim_tally)
        records = read_classifications(self.out / "classifications.tsv", corpus)
        with self.t.span("pipeline.record_tallies"):
            run_record_tallies(records, tallies)
        self.metrics_finalize(corpus, tallies[:3], weights, eligible)
        self.hindex_finalize(corpus, tallies[3], eligible)
        if sim_tally is not None:
            self.textsim_finalize(corpus, sim_tally, tallies[0], eligible)

    def isolate(self, commands):
        """Time single layers on the corpus and graph of the replay."""
        t, corpus, edges, collab = self.t, self.corpus, self.edges, self.collab
        if edges is None:
            edges, collab = build_edges(corpus), build_collaboration_index(corpus)
        eligible = eligible_authors(corpus, MIN_PUBS)

        events = 0
        with t.span("classify.types"):
            for _edge, citing, _rt, cited, _ct in iter_edge_types(
                    corpus, edges, collab, build_author_sets(corpus)):
                events += len(citing) + len(cited)
        t.counts["classify.events"] = events

        with t.span("pipeline.no_tallies"):
            run_edge_tallies(corpus, edges, collab, [])
        names = dict.fromkeys(n for c in commands for n in COMMAND_TALLIES[c])
        for name in names:
            if name == "textsim.tally" and self.vectors is None:
                continue
            tally = _new_tally(name, corpus, eligible, self.vectors)
            with t.span(name + "_pass"):
                run_edge_tallies(corpus, edges, collab, [tally])

        tsv = self.out / "classifications.tsv"
        if tsv.exists():
            with t.span("classify.read_tsv"):
                for _rec in read_classifications(tsv, corpus):
                    pass

        if self.vectors is not None:
            abstracts = [(pid, p.abstract) for pid, p in corpus.papers.items()
                         if p.abstract is not None]
            with t.span("textsim.preprocess"):
                for pid, text in abstracts:
                    preprocess(text, pid)
            tokens = {tok for _pid, text in abstracts for tok in TOKEN_RE.findall(text.lower())}
            tokens = sorted(tokens - load_stopwords())
            t.counts["porter.distinct_tokens"] = len(tokens)
            with t.span("porter.stem"):
                for tok in tokens:
                    stem(tok)


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced run.

    Replay spans are summed over the commands of the workload. A tally's
    self time is its single-tally pass minus the pass with no tallies,
    ``classify.write_tsv_s`` is the export span minus classification alone,
    and ``pipeline.record_tallies_s`` includes the TSV parse it consumes.
    Layers a workload does not run are left out.
    """
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    present = {s["name"] for s in spans}
    out = {name: float(v) for name, v in counts.items()}
    for name in ("corpus.load", "graph.build_edges", "graph.collab_index",
                 "classify.types", "classify.read_tsv", "pipeline.edge_tallies",
                 "pipeline.record_tallies", "metrics.finalize", "hindex.finalize",
                 "textsim.preprocess", "porter.stem", "textsim.build_vectors",
                 "textsim.finalize"):
        if name in present:
            out[name + "_s"] = total(name)
    if "classify.write_tsv" in present:
        out["classify.write_tsv_s"] = total("classify.write_tsv") - total("classify.types")
    baseline = total("pipeline.no_tallies")
    for name in COMMAND_TALLIES["report"]:
        if name + "_pass" in present:
            out[name + "_self_s"] = total(name + "_pass") - baseline
    if "textsim.scored_edges" in out:
        out["textsim.scored_ratio"] = out["textsim.scored_edges"] / out["graph.edges"]
    out["trace.replay_s"] = sum(s["end"] - s["start"] for s in spans
                                if s["parent"] is None and s["name"].startswith("cli."))
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, children in zip(spans, child_time):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - children)
    return out


def run(commands, data: Path, out: Path) -> dict:
    tracer = Tracer()
    replay = Replay(tracer, data / "papers.jsonl", data / "authors.jsonl", out)
    out.mkdir(parents=True, exist_ok=True)
    for command in commands:
        with tracer.span("cli." + command):
            getattr(replay, command)()
    with tracer.span("isolate"):
        replay.isolate(commands)
    return {"spans": tracer.spans, "counts": tracer.counts,
            "layers": layer_metrics(tracer.spans, tracer.counts),
            "self_s": self_times(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commands", required=True, help="comma-separated subcommands")
    parser.add_argument("--data", required=True, type=Path, help="directory of the corpus files")
    parser.add_argument("--out", required=True, type=Path, help="scratch output directory")
    args = parser.parse_args(argv)
    commands = args.commands.split(",")
    unknown = [c for c in commands if c not in COMMAND_TALLIES]
    if unknown:
        parser.error(f"unknown subcommands: {unknown}")
    print(json.dumps(run(commands, args.data, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
