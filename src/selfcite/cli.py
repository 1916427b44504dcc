"""Command-line pipeline: validate, classify (an export of the per-author
edge types), metrics/hindex/simil or report (all their tables from one
edge pass), plus synthetic-corpus generation.

Every analysis subcommand is deterministic: rerunning with identical
inputs and options reproduces every CSV artifact byte for byte (the run
manifest carries wall-clock and memory measurements and is excluded from
that guarantee).

Exit codes: 0 success, 1 usage error, 2 data, i/o or worker error.

Only the standard library and :mod:`selfcite.corpus`, which every subcommand
uses, are imported at module level. Each subcommand imports the analysis
modules it runs inside its own functions, so a run loads no module it does
not execute; :mod:`dataclasses` (with :mod:`inspect`) is loaded by
``synth`` alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .corpus import Corpus, CorpusError, atomic_write, eligible_authors, load_corpus

CLASSIFICATIONS_FILE = "classifications.tsv"
EDGES_FILE = "edges.tsv"
MANIFEST_FILE = "run_manifest.json"

FIG1_COLUMNS = ["domain", "side", "age_bin", "citation_type",
                "pct_pooled", "pct_author_mean", "pct_pooled_weighted",
                "n_events", "n_authors"]
FIGS2_S5_COLUMNS = ["domain", "pubs_bin"] + FIG1_COLUMNS[1:]
FIGS6_COLUMNS = ["side", "citation_type", "publication_age", "events",
                 "mean_per_paper", "normalized"]
FIGS7_COLUMNS = ["discipline", "pubs_bin", "group", "n_authors",
                 "mean_self_reference_rate", "mean_external_citations",
                 "share_women", "mean_first_pub_year", "low_support"]
FIGS8_COLUMNS = ["pubs_bin", "career_bin", "n_authors",
                 "mean_self_citation_pct", "mean_self_reference_pct", "low_support"]
WEIGHTS_COLUMNS = ["year", "n_papers", "n_references", "mu_ref", "weight"]
FIG2_COLUMNS = ["domain", "h_obs", "n_authors", "mean_pct_direct",
                "mean_pct_direct_coauthor", "mean_pct_direct_coauthor_collab",
                "low_support"]
FIGS10_COLUMNS = ["domain", "h_obs", "n_authors",
                  "mean_drop_direct", "mean_pct_direct",
                  "mean_drop_coauthor", "mean_pct_coauthor",
                  "mean_drop_collaborator", "mean_pct_collaborator", "low_support"]
FIGS11_COLUMNS = ["h_obs", "level", "bin_lo", "bin_hi", "n_authors"]
FIG3A_COLUMNS = ["discipline", "citation_type", "bin_lo", "bin_hi", "n_authors"]
FIG3B_COLUMNS = ["discipline", "citation_type", "similarity_author_mean",
                 "similarity_pooled", "n_authors", "n_records"]
FIG3C_COLUMNS = ["citation_age_bin", "citation_type", "similarity_author_mean",
                 "similarity_pooled", "n_authors", "n_records"]
FIG3D_COLUMNS = ["group", "n_authors", "mean_self_reference_rate",
                 "mean_direct_reference_similarity", "low_support"]
FIGS9_COLUMNS = ["gender", "discipline", "citation_type",
                 "similarity_author_mean", "n_authors"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, columns: Sequence[str], rows) -> None:
    with atomic_write(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[col]) for col in columns) + "\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class _Run:
    """Collects manifest fields while a subcommand executes.

    The output directory is created when the first file is written into it,
    so a run that ends in an error before that leaves no directory behind.
    Each :meth:`stage` the run passes through adds one ``stages`` entry."""

    def __init__(self, command: str, out_dir: Path, options: dict):
        self.command = command
        self.out_dir = out_dir
        self.options = options
        self.inputs: dict[str, str] = {}
        self.counts: dict = {}
        self.coverage: dict = {}
        self.artifacts: list[str] = []
        self.notes: list[str] = []
        self.stages: list[dict] = []
        self.started = time.perf_counter()

    def add_input(self, path: Optional[Path]) -> None:
        if path is not None:
            self.inputs[str(path)] = _sha256(path)

    def path(self, name: str) -> Path:
        """``name`` in the output directory, which exists once this returns."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    @contextmanager
    def stage(self, name: str):
        """Time the block as stage ``name``: when it completes, ``stages``
        gains its name, its seconds and the process's peak RSS so far
        (``ru_maxrss``, in KB on Linux)."""
        start = time.perf_counter()
        yield
        self.stages.append({
            "name": name,
            "seconds": round(time.perf_counter() - start, 3),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })

    def record_corpus(self, corpus: Corpus) -> None:
        self.counts.update(corpus.validation_report())

    def csv(self, name: str, columns, rows) -> None:
        write_csv(self.path(name), columns, rows)
        self.artifacts.append(name)

    def finish(self) -> None:
        manifest = {
            "tool": "selfcite",
            "version": __version__,
            "command": self.command,
            "options": self.options,
            "inputs": self.inputs,
            "counts": self.counts,
            "coverage": self.coverage,
            "artifacts": self.artifacts,
            "notes": self.notes,
            "stages": self.stages,
            "elapsed_seconds": round(time.perf_counter() - self.started, 3),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            # the largest of the reaped child processes, the kernel's workers
            "children_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        with atomic_write(self.path(MANIFEST_FILE)) as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load(args, run: _Run) -> Corpus:
    papers = Path(args.papers)
    authors = Path(args.authors) if args.authors else None
    with run.stage("load"):
        corpus = load_corpus(papers, authors)
        run.add_input(papers)
        if authors is not None:
            run.add_input(authors)
        run.record_corpus(corpus)
    return corpus


def _common_options(args) -> dict:
    options = {}
    for name in ("papers", "authors", "out", "min_pubs", "n_percentiles",
                 "weighting", "seed", "config", "individual"):
        if hasattr(args, name):
            value = getattr(args, name)
            options[name] = str(value) if isinstance(value, Path) else value
    return options


def _weights_rows(weights) -> list[dict]:
    rows = []
    for year in sorted(weights.papers_per_year):
        rows.append({
            "year": year,
            "n_papers": weights.papers_per_year[year],
            "n_references": weights.refs_per_year[year],
            "mu_ref": weights.mu_ref[year],
            "weight": weights.weight.get(year),
        })
    return rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    run = _Run("validate", Path(args.out), _common_options(args))
    corpus = _load(args, run)
    run.counts["eligible_authors"] = len(eligible_authors(corpus, args.min_pubs))
    run.finish()
    print(f"validate: {run.counts['papers']} papers, {run.counts['authors']} authors, "
          f"{run.counts['unresolved_references']} unresolved references")
    return 0


def cmd_classify(args) -> int:
    from .classify import export_corpus

    run = _Run("classify", Path(args.out), _common_options(args))
    corpus = _load(args, run)
    with run.stage("export"):
        counts = export_corpus(corpus, run.path(EDGES_FILE), run.path(CLASSIFICATIONS_FILE))
    run.artifacts += [EDGES_FILE, CLASSIFICATIONS_FILE]
    run.counts.update(counts)
    run.finish()
    print(f"classify: {counts['edges']} edges, "
          f"{counts['classification_rows']} classification rows")
    return 0


def _metrics_outputs(run: _Run, corpus, profiles, age_tally, citeage_tally,
                     weighting, eligible, n_percentiles) -> None:
    from .metrics import (
        compute_inflation_weights,
        heatmap_by_production_and_age,
        percentile_strata,
    )

    weights = compute_inflation_weights(corpus) if weighting else None
    curve = age_tally.finalize(weights=weights)
    run.csv("fig1_age_curves.csv", FIG1_COLUMNS, curve.rows)
    production = age_tally.finalize(by_production=True, weights=weights)
    run.csv("figS2_S5_age_curves_by_production.csv", FIGS2_S5_COLUMNS, production.rows)
    run.coverage["age_curve_skipped_ineligible"] = curve.skipped_ineligible
    run.coverage["age_curve_skipped_preage"] = curve.skipped_preage

    run.csv("figS6_citation_age.csv", FIGS6_COLUMNS,
            citeage_tally.finalize(len(corpus.papers)))
    run.coverage["citation_age_negative_excluded"] = citeage_tally.negative_excluded

    strata = percentile_strata(profiles, n_percentiles, include_authors=eligible)
    run.csv("figS7_strata.csv", FIGS7_COLUMNS, strata.rows)
    run.coverage["strata_excluded_undefined_rate"] = strata.excluded_undefined
    run.coverage["strata_excluded_out_of_bins"] = strata.excluded_out_of_bins

    run.csv("figS8_heatmap.csv", FIGS8_COLUMNS,
            heatmap_by_production_and_age(profiles, include_authors=eligible))

    if weights is not None:
        run.csv("inflation_weights.csv", WEIGHTS_COLUMNS, _weights_rows(weights))
        run.coverage["zero_reference_years"] = list(weights.zero_reference_years)


def _hindex_outputs(run: _Run, corpus, hindex_tally, eligible, individual) -> None:
    from .hindex import (
        attribution_curve,
        attribution_distribution,
        finalize_decompositions,
        individual_exclusion_table,
    )

    decomps = finalize_decompositions(corpus, hindex_tally, include_authors=eligible)
    domains = {aid: e.modal_discipline for aid, e in corpus.author_index.items()}
    run.csv("fig2_attribution_curve.csv", FIG2_COLUMNS,
            attribution_curve(decomps, domains))
    if individual:
        run.csv("figS10_individual.csv", FIGS10_COLUMNS,
                individual_exclusion_table(decomps, domains))
    run.csv("figS11_distributions.csv", FIGS11_COLUMNS,
            attribution_distribution(decomps))
    run.counts["decomposed_authors"] = len(decomps)


def _simil_outputs(run: _Run, sim_tally, profiles, eligible, n_percentiles) -> None:
    from .textsim import (
        similarity_by_citation_age,
        similarity_by_selfref_percentile,
        similarity_histograms,
        similarity_means,
        stopwords_sha256,
    )

    eligible_profiles = {aid: p for aid, p in profiles.items() if aid in eligible}

    run.csv("fig3a_distributions.csv", FIG3A_COLUMNS,
            similarity_histograms(sim_tally, eligible_profiles))
    run.csv("fig3b_means.csv", FIG3B_COLUMNS,
            similarity_means(sim_tally, eligible_profiles, key="discipline"))
    run.csv("fig3c_by_age.csv", FIG3C_COLUMNS, similarity_by_citation_age(sim_tally))
    run.csv("fig3d_by_selfref.csv", FIG3D_COLUMNS,
            similarity_by_selfref_percentile(sim_tally, eligible_profiles,
                                             n_groups=n_percentiles))
    # rows grouped by gender alone carry no discipline: the column stays
    # empty until a change that re-pins this table's digests drops it
    run.csv("figS9_by_gender.csv", FIGS9_COLUMNS,
            ({**row, "discipline": None}
             for row in similarity_means(sim_tally, eligible_profiles, key="gender")))
    run.coverage["similarity"] = sim_tally.coverage.as_dict()
    run.coverage["similarity_negative_age_records"] = sim_tally.negative_age_records
    run.coverage["stopwords_sha256"] = stopwords_sha256()


def cmd_analysis(args) -> int:
    """metrics, hindex, simil and report: one pass of the interned kernel
    builds only the tallies behind ``args.tables``, then each table group is
    written."""
    from .kernel import tally_corpus
    from .metrics import finalize_profiles

    tables = args.tables
    run = _Run(args.subcommand, Path(args.out), _common_options(args))
    corpus = _load(args, run)
    run.counts["edges"] = corpus.resolvable_references
    eligible = eligible_authors(corpus, args.min_pubs)
    run.counts["eligible_authors"] = len(eligible)

    views = []
    if "metrics" in tables or "simil" in tables:
        views.append("profile")
    if "metrics" in tables:
        views += ["age_curve", "citation_age"]
    if "hindex" in tables:
        views.append("hindex")
    vectors = None
    if "simil" in tables:
        from .textsim import build_vectors

        # report writes every table group, so a corpus without abstracts must
        # not cost it the other nine tables: with no vectors no edge is scored
        # and the similarity tables are header-only. simil has nothing else
        # to write, and build_vectors makes that case a data error.
        if args.subcommand == "report" and corpus.papers_with_abstract == 0:
            run.notes.append("no abstracts in corpus: similarity tables are header-only")
            vectors = {}
        else:
            with run.stage("vectors"):
                vectors = build_vectors(corpus)
    tallies = tally_corpus(corpus, views, include=eligible, vectors=vectors, stage=run.stage)
    run.counts["author_edge_events"] = tallies.author_edge_events
    run.counts["kernel_workers"] = tallies.kernel_workers
    profiles = None
    if tallies.profile is not None:
        with run.stage("profiles"):
            # Unweighted: figS7, figS8 and the similarity tables read raw counts only.
            profiles = finalize_profiles(corpus, tallies.profile)

    if "metrics" in tables:
        with run.stage("metrics"):
            _metrics_outputs(run, corpus, profiles, tallies.age_curve, tallies.citation_age,
                             args.weighting, eligible, args.n_percentiles)
    if "hindex" in tables:
        with run.stage("hindex"):
            _hindex_outputs(run, corpus, tallies.hindex, eligible, args.individual)
    if "simil" in tables:
        with run.stage("simil"):
            _simil_outputs(run, tallies.similarity, profiles, eligible, args.n_percentiles)
    run.finish()
    print(f"{args.subcommand}: wrote {len(run.artifacts)} artifacts to {run.out_dir}")
    return 0


def cmd_synth(args) -> int:
    import dataclasses

    from .synth import SynthConfig, generate_with_stats, write_corpus

    run = _Run("synth", Path(args.out), _common_options(args))
    config = SynthConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
        config.validate()
    run.add_input(Path(args.config))
    with run.stage("generate"):
        corpus, stats = generate_with_stats(config)
    with run.stage("write"):
        meta = write_corpus(corpus, run.out_dir, config, stats)
    run.artifacts.extend(["papers.jsonl", "authors.jsonl", "synth_meta.json"])
    run.counts.update({k: v for k, v in meta.items() if k not in ("config", "draws")})
    run.finish()
    print(f"synth: {meta['papers']} papers, {meta['total_references']} references "
          f"(seed {config.seed})")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_io_options(sub, min_pubs=True):
    sub.add_argument("--papers", required=True, help="papers file (one JSON object per line)")
    sub.add_argument("--authors", default=None, help="optional authors file")
    sub.add_argument("--out", required=True, help="output directory")
    if min_pubs:
        sub.add_argument("--min-pubs", type=int, default=5, dest="min_pubs",
                         help="eligibility: authors need strictly more papers than this (default 5)")


def build_parser() -> _Parser:
    parser = _Parser(prog="selfcite", description=__doc__)
    parser.add_argument("--version", action="version", version=f"selfcite {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("validate", help="load and validate a corpus")
    _add_io_options(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("classify", help="export per-author edge classifications")
    _add_io_options(p, min_pubs=False)
    p.set_defaults(func=cmd_classify)

    for name, help_text, tables in (
        ("metrics", "age curves, strata, heatmap, inflation weights", ("metrics",)),
        ("hindex", "h-index decomposition tables", ("hindex",)),
        ("simil", "abstract-similarity tables", ("simil",)),
        ("report", "every table of metrics, hindex and simil in one pass",
         ("metrics", "hindex", "simil")),
    ):
        p = subs.add_parser(name, help=help_text)
        _add_io_options(p)
        if "metrics" in tables or "simil" in tables:
            p.add_argument("--n-percentiles", type=int, default=100, dest="n_percentiles",
                           help="self-reference-rate groups of figS7 and fig3d (default 100)")
        if "metrics" in tables:
            p.add_argument("--no-weighting", action="store_false", dest="weighting",
                           help="skip citation-inflation weighting")
        if "hindex" in tables:
            p.add_argument("--no-individual", action="store_false", dest="individual",
                           help="skip the single-type exclusion table")
        p.set_defaults(func=cmd_analysis, tables=tables)

    p = subs.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", required=True, help="generator config (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_synth)
    return parser


def _check_options(args) -> None:
    for option in ("papers", "authors", "out", "config"):
        if getattr(args, option, None) == "":
            raise UsageError(f"--{option} must not be empty")
    if getattr(args, "min_pubs", 0) < 0:
        raise UsageError("--min-pubs must be >= 0")
    if getattr(args, "n_percentiles", 1) < 1:
        raise UsageError("--n-percentiles must be >= 1")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_options(args)
    except UsageError as exc:
        print(f"selfcite: usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except CorpusError as exc:
        print(f"selfcite: data error: {exc}", file=sys.stderr)
        return 2
    except ChildProcessError as exc:
        print(f"selfcite: worker error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"selfcite: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
