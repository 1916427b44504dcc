"""End-to-end benchmark of the selfcite CLI on fixed-seed synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload report-quarter --seed 1001 --seconds 36 --trace 0

The corpus of a workload is generated by ``selfcite synth`` from the
workload's config and ``--seed``; the program receives only the generated
files. After one warm-up pass, the benchmark repeats until ``--seconds``
have passed (at least ``MIN_ITERATIONS`` times): ``selfcite validate``
(timed as ``setup_s``), then the workload's subcommands one child process at
a time with default options (their summed wall time is ``wall_s``; the
largest ``ru_maxrss`` from ``os.wait4`` is ``peak_rss_mb``). Each metric is
the median over the iterations.

``wall_s`` and ``setup_s`` are reference seconds: each child's wall time is
rescaled to the CPU speed at which a fixed calibration kernel, run just
before and just after the child, takes ``CALIBRATION_REF_S``. The speed of
a shared virtual CPU changes by up to a factor of two, within seconds and
for minutes at a time, so the same work spreads by 20-35 % in raw seconds
between runs; the kernel is slowed by the same tenants as the program, and
the rescaled times spread far less. Raw seconds are printed and kept too
(``raw_wall_s``, ``raw_setup_s`` and the per-command ``cli.*`` figures).

Every artifact a command writes is hashed after the command exits. At a
seed listed in ``pins.json`` the corpus and artifact digests must equal the
pinned ones (a corpus mismatch aborts before timing). At any other seed
every pass must reproduce the warm-up pass byte for byte, and the digests
are remembered in ``.bench_build/perfbench/digests.json`` so that a later
run at that seed in the same checkout must reproduce them too. A command
fails on a non-zero exit, a missing artifact or a digest mismatch; failures
over commands attempted is the error rate.

With ``--trace 1`` the timed loop is followed by a traced in-process replay
(``traced.py``) in its own child process, and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object; a full record (machine
facts, per-iteration samples, spans) is written to
``.bench_build/perfbench/<workload>-<seed>/result.json``.
``--write-pins`` records the digests of the workload at ``--seed`` into
``pins.json`` instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"
MIN_ITERATIONS = 3

# SCALE_CONFIG of the acceptance suite (tests/test_acceptance.py) without
# its size and seed. Each workload keeps its shape (events per edge, abstract
# coverage and length) but cuts n_authors so that one pass takes 2-3 s and
# a 36 s run yields about ten to fifteen passes.
BASE_CONFIG = {
    "year_start": 2000, "year_end": 2019, "entry_years": 5,
    "papers_per_author_year": 0.85, "coauthors_mean": 1.2,
    "refs_per_paper_start": 16.0, "refs_per_paper_end": 24.0,
    "p_direct": 0.15, "p_coauthor": 0.10, "p_collaborator": 0.15, "p_external": 0.60,
    "abstract_length": 12, "abstract_coverage": 0.9,
    "topic_terms_per_author": 30, "background_terms": 500,
}

# report-quarter: the only path that writes and re-parses classifications.tsv
# and feeds all five tallies from records. teams-edge: large teams and no
# abstracts, so classification and the integer tallies carry the load and
# textsim does nothing. text-simil: long abstracts and small teams, so
# tokenising, stemming, tf-idf and cosine dominate.
WORKLOADS = {
    "report-quarter": {
        "commands": ("classify", "report"),
        "default_seed": 1001,
        "config": {**BASE_CONFIG, "n_authors": 150},
    },
    "teams-edge": {
        "commands": ("metrics", "hindex"),
        "default_seed": 2002,
        "config": {**BASE_CONFIG, "n_authors": 250, "coauthors_mean": 4.0,
                   "abstract_coverage": 0.0},
    },
    "text-simil": {
        "commands": ("simil",),
        "default_seed": 3003,
        "config": {**BASE_CONFIG, "n_authors": 200, "coauthors_mean": 0.5,
                   "refs_per_paper_start": 10.0, "refs_per_paper_end": 14.0,
                   "abstract_length": 150, "background_terms": 6000,
                   "topic_terms_per_author": 200, "abstract_coverage": 1.0},
    },
}

METRICS_ARTIFACTS = ("fig1_age_curves.csv", "figS2_S5_age_curves_by_production.csv",
                     "figS6_citation_age.csv", "figS7_strata.csv", "figS8_heatmap.csv",
                     "inflation_weights.csv")
HINDEX_ARTIFACTS = ("fig2_attribution_curve.csv", "figS10_individual.csv",
                    "figS11_distributions.csv")
SIMIL_ARTIFACTS = ("fig3a_distributions.csv", "fig3b_means.csv", "fig3c_by_age.csv",
                   "fig3d_by_selfref.csv", "figS9_by_gender.csv")
# Artifacts each subcommand writes; run_manifest.json is not deterministic.
ARTIFACTS = {
    "validate": (),
    "classify": ("edges.tsv", "classifications.tsv"),
    "metrics": METRICS_ARTIFACTS,
    "hindex": HINDEX_ARTIFACTS,
    "simil": SIMIL_ARTIFACTS,
    "report": METRICS_ARTIFACTS + HINDEX_ARTIFACTS + SIMIL_ARTIFACTS,
}
CORPUS_FILES = ("papers.jsonl", "authors.jsonl")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics of a traced run (see traced.py); a layer the workload
# does not run reads 0.
PER_LAYER = {
    "corpus.load_s": "s", "corpus.rss_mb": "MB", "corpus.papers": "count",
    "corpus.refs_resolvable": "count",
    "graph.build_edges_s": "s", "graph.edges": "count",
    "graph.collab_index_s": "s", "graph.collab_pairs": "count",
    "classify.types_s": "s", "classify.events": "count",
    "classify.write_tsv_s": "s", "classify.tsv_mb": "MB", "classify.read_tsv_s": "s",
    "pipeline.edge_tallies_s": "s", "pipeline.record_tallies_s": "s",
    "metrics.profile_self_s": "s", "metrics.agecurve_self_s": "s",
    "metrics.citeage_self_s": "s", "hindex.tally_self_s": "s",
    "textsim.tally_self_s": "s",
    "metrics.finalize_s": "s", "metrics.tally_keys": "count",
    "hindex.finalize_s": "s", "hindex.cells": "count",
    "textsim.preprocess_s": "s", "porter.stem_s": "s", "porter.distinct_tokens": "count",
    "textsim.build_vectors_s": "s", "textsim.vector_nnz": "count", "textsim.rss_mb": "MB",
    "textsim.scored_edges": "count", "textsim.scored_ratio": "ratio",
    "textsim.finalize_s": "s",
    **{f"cli.{c}{suffix}": "s" for c in ("classify", "report", "metrics", "hindex", "simil")
       for suffix in ("_s", "_cpu_s")},
    "trace.replay_s": "s", "trace.overhead_s": "s",
}


# Kernel seconds that define one reference second: roughly the kernel's time
# on an unloaded Intel Xeon KVM vCPU under CPython 3.11. Changing the kernel
# or this value changes the scale of wall_s and setup_s.
CALIBRATION_REF_S = 0.025


def calibration_kernel() -> float:
    """Seconds taken by a fixed loop of dict updates on string keys, the
    kind of work the program does."""
    started = time.perf_counter()
    for _ in range(2):
        counts: dict[str, int] = {}
        for i in range(40000):
            key = f"a{i % 997}"
            counts[key] = counts.get(key, 0) + (i * i) % 7
    return time.perf_counter() - started


class BenchError(Exception):
    """The benchmark cannot produce a valid measurement."""


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Program:
    """Launches selfcite subcommands from one process, one child at a time."""

    def __init__(self, root: Path, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_log = workdir / "stderr.log"

    def launch(self, argv: list[str]) -> dict:
        """Run one child to completion; wall, CPU and peak RSS from wait4,
        and the wall time in reference seconds."""
        kernel_before = calibration_kernel()
        with open(self.stderr_log, "ab") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        kernel_s = (kernel_before + calibration_kernel()) / 2
        return {"exit": proc.returncode, "wall_s": wall,
                "ref_s": wall * CALIBRATION_REF_S / kernel_s, "kernel_s": kernel_s,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}

    def command(self, name: str, data: Path, out: Path) -> dict:
        return self.launch(["-m", "selfcite.cli", name,
                            "--papers", str(data / "papers.jsonl"),
                            "--authors", str(data / "authors.jsonl"),
                            "--out", str(out)])


def digests(directory: Path, names) -> dict[str, str | None]:
    return {n: sha256(directory / n) if (directory / n).is_file() else None for n in names}


def mismatched(got: dict, expected: dict | None) -> list[str]:
    """Artifacts that are missing or differ from the expected digests."""
    return [name for name, digest in got.items()
            if digest is None or (expected is not None and expected.get(name) != digest)]


def generate_corpus(program: Program, config: dict, seed: int, workdir: Path) -> Path:
    data = workdir / "data"
    config_path = workdir / "synth.json"
    config_path.write_text(json.dumps({**config, "seed": seed}, sort_keys=True))
    run = program.launch(["-m", "selfcite.cli", "synth", "--config", str(config_path),
                          "--out", str(data)])
    if run["exit"] != 0:
        raise BenchError(f"selfcite synth exited {run['exit']}; see {program.stderr_log}")
    return data


class Bench:
    """One benchmark run of a workload at a seed."""

    def __init__(self, program: Program, commands, data: Path, workdir: Path,
                 expected: dict | None):
        self.program = program
        self.commands = commands
        self.data = data
        self.workdir = workdir
        self.expected = expected  # command -> {artifact: sha256}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _run_command(self, name: str, out: Path) -> dict:
        run = self.program.command(name, self.data, out)
        run["digests"] = digests(out, ARTIFACTS[name])
        bad = mismatched(run["digests"], None if self.expected is None
                         else self.expected.get(name, {}))
        self.attempted += 1
        if run["exit"] != 0 or bad:
            self.failed += 1
            self.failures.append(f"{name}: exit {run['exit']}, bad artifacts {bad}")
        return run

    def iteration(self) -> dict:
        """validate, then the workload's commands into a fresh directory."""
        load = os.getloadavg()[0]
        setup = self._run_command("validate", self.workdir / "validate")
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        runs = {name: self._run_command(name, out) for name in self.commands}
        return {
            "loadavg_1m": load,
            "setup_s": setup["ref_s"],
            "wall_s": sum(r["ref_s"] for r in runs.values()),
            "raw_setup_s": setup["wall_s"],
            "raw_wall_s": sum(r["wall_s"] for r in runs.values()),
            "peak_rss_mb": max(r["rss_mb"] for r in runs.values()),
            "commands": {n: {k: v for k, v in r.items() if k != "digests"}
                         for n, r in runs.items()},
            "digests": {n: r["digests"] for n, r in runs.items()},
        }

    def measure(self, seconds: float) -> list[dict]:
        """One warm-up pass, then passes until ``seconds`` (counted from the
        start of the warm-up) have passed."""
        deadline = time.perf_counter() + seconds
        warm = self.iteration()
        if self.expected is None:
            self.expected = warm["digests"]
        samples = []
        while len(samples) < MIN_ITERATIONS or time.perf_counter() < deadline:
            samples.append(self.iteration())
        return samples


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


def summarize(samples: list[dict], commands) -> dict:
    """Median, quartiles and count of each end-to-end and per-command figure."""
    def stats(values):
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}

    out = {name: stats([s[name] for s in samples])
           for name in (*END_TO_END, "raw_wall_s", "raw_setup_s")}
    for c in commands:
        out[f"cli.{c}_s"] = stats([s["commands"][c]["wall_s"] for s in samples])
        out[f"cli.{c}_cpu_s"] = stats([s["commands"][c]["cpu_s"] for s in samples])
    return out


def traced_run(program: Program, commands, data: Path, workdir: Path) -> dict:
    result_path = workdir / "trace.json"
    out = workdir / "trace_out"
    argv = [str(HERE / "traced.py"), "--commands", ",".join(commands),
            "--data", str(data), "--out", str(out)]
    with open(result_path, "wb") as fh, open(program.stderr_log, "ab") as err:
        proc = subprocess.run([sys.executable] + argv, env=program.env,
                              stdout=fh, stderr=err, check=False)
    if proc.returncode != 0:
        raise BenchError(f"traced run exited {proc.returncode}; see {program.stderr_log}")
    return json.loads(result_path.read_text().splitlines()[-1])


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}


def benchmark(root: Path, name: str, seed: int, seconds: float, trace: bool,
              pins: dict) -> dict:
    """Run one workload at one seed and return the full record."""
    workload = WORKLOADS[name]
    commands = workload["commands"]
    if not (root / "src" / "selfcite" / "cli.py").is_file():
        raise BenchError(f"no selfcite sources under {root / 'src'}; "
                         "run from the repository root")
    workdir = root / ".bench_build" / "perfbench" / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    program = Program(root, workdir)
    facts = machine_facts()

    seen_path = workdir.parent / "digests.json"
    seen = json.loads(seen_path.read_text()) if seen_path.exists() else {}
    reference = "pinned"
    pinned = pins.get(name, {}).get(str(seed))
    if pinned is None:
        reference = "an earlier run in this checkout"
        pinned = seen.get(name, {}).get(str(seed))
    if pinned is None:
        reference = "the warm-up pass"

    data = generate_corpus(program, workload["config"], seed, workdir)
    corpus = digests(data, CORPUS_FILES)
    if pinned is not None and corpus != pinned["corpus"]:
        raise BenchError(f"generated corpus differs from {reference} for {name} at "
                         f"seed {seed}: the generator drifted (after an intended change, "
                         f"re-pin or delete {seen_path})")

    bench = Bench(program, commands, data, workdir,
                  None if pinned is None else pinned["artifacts"])
    samples = bench.measure(seconds)
    summary = summarize(samples, commands)
    if pinned is None and bench.failed == 0:
        seen.setdefault(name, {})[str(seed)] = {"corpus": corpus,
                                                "artifacts": bench.expected}
        seen_path.write_text(json.dumps(seen, sort_keys=True))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "reference": reference,
        "facts": facts, "config": workload["config"],
        "corpus_digests": corpus, "artifact_digests": bench.expected,
        "attempted": bench.attempted, "failed": bench.failed,
        "error_rate": bench.failed / bench.attempted, "failures": bench.failures,
        "summary": summary, "samples": samples,
    }
    if trace:
        traced = traced_run(program, commands, data, workdir)
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update({k: v["median"] for k, v in summary.items() if k.startswith("cli.")})
        layers.update(traced["layers"])
        layers["trace.overhead_s"] = layers["trace.replay_s"] - summary["raw_wall_s"]["median"]
        record["trace"] = traced
        record["layers"] = layers
    (workdir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def result_line(record: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": record["summary"][k]["median"], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def write_pins(root: Path, name: str, seed: int) -> None:
    pins = load_pins()
    record = benchmark(root, name, seed, 0, False, {})
    if record["failed"]:
        raise BenchError(f"cannot pin a failing run: {record['failures']}")
    pins.setdefault(name, {})[str(seed)] = {"corpus": record["corpus_digests"],
                                            "artifacts": record["artifact_digests"]}
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {name} at seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record the digests at --seed into pins.json and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    seed = WORKLOADS[args.workload]["default_seed"] if args.seed is None else args.seed
    try:
        if args.write_pins:
            write_pins(root, args.workload, seed)
            return 0
        record = benchmark(root, args.workload, seed, args.seconds, bool(args.trace),
                           load_pins())
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    facts = record["facts"]
    print(f"# {args.workload} seed {seed}, outputs checked against {record['reference']}; "
          f"nproc {facts['nproc']}, python {facts['python']}, {facts['platform']}")
    for name, s in record["summary"].items():
        print(f"{name:>16}  median {s['median']:.4f}  q1 {s['q1']:.4f}  "
              f"q3 {s['q3']:.4f}  n {s['n']}")
    print(f"{'error_rate':>16}  {record['error_rate']:.4f}  "
          f"({record['failed']} of {record['attempted']} commands failed)")
    for failure in record["failures"]:
        print(f"  failed: {failure}")
    if args.trace:
        for name, value in sorted(record["trace"]["self_s"].items()):
            print(f"{'self ' + name:>32}  {value:.4f} s")
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
