import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from selfcite import cli, kernel
from selfcite.cli import main, write_csv
from selfcite.hindex import HindexTally
from selfcite.kernel import MAX_WORKERS
from selfcite.metrics import AgeCurveTally, CitationAgeTally, ProfileTally
from selfcite.textsim import SimilarityTally, TfIdfVector
from conftest import TESTDATA

PAPERS = str(TESTDATA / "fix1_papers.jsonl")
AUTHORS = str(TESTDATA / "fix1_authors.jsonl")


SRC = Path(cli.__file__).resolve().parent.parent
STOPWORDS = SRC / "selfcite" / "data" / "stopwords_en.txt"


def run(*argv):
    return main([str(a) for a in argv])


def hashlib_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest(out_dir):
    return json.loads((Path(out_dir) / "run_manifest.json").read_text())


def _paper(pid):
    # Q0 names no record, so no paper cites itself, duplicates included
    return {"id": pid, "year": 2000, "discipline": "health",
            "authors": ["A", "B"], "references": ["Q0"], "abstract": "a b"}


def _author(aid):
    return {"id": aid, "gender": "woman", "name": "Author"}


_WRONG_ID = [None, "", 7, ["P9"]]

#: Per input file: a valid record for an id, the required fields and wrong
#: values per field.
_RECORDS = {
    "papers": (_paper, ["id", "year", "discipline", "authors", "references"], {
        "id": _WRONG_ID,
        "year": [None, "2000", 2000.5, True, 1799, 2101],
        "discipline": [None, "physics", 3],
        "authors": [None, [], "A", [""], [1], ["A", "A"]],
        "references": [None, "P0", [1], [""], ["P0", "P0"]],
        "abstract": [3, ["a"]],
        "title": [3, {"t": "a"}],
    }),
    "authors": (_author, ["id"], {
        "id": _WRONG_ID,
        "gender": ["other", "Woman", 3],
        "name": [3, ["Author"]],
    }),
}


@st.composite
def malformed_file(draw, source):
    """A papers or authors file whose first bad line is known: (source,
    bytes, its line number).

    Valid and blank lines come first, then one line that is bad JSON, bad
    UTF-8, not an object, missing or mistyping a field, or repeating an id,
    then more lines the loader must never reach."""
    record, required, wrong_values = _RECORDS[source]
    prefix = source[0].upper()  # P0, P1, ... or A0, A1, ...
    n_good = draw(st.integers(0, 3))
    lines = [json.dumps(record(f"{prefix}{i}")).encode() for i in range(n_good)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([b"", b"  \t"])))
    bad = record(f"{prefix}X")
    kind = draw(st.sampled_from(["json", "utf8", "not_object", "missing", "mistyped",
                                 "duplicate"]))
    if kind == "json":
        text = json.dumps(bad).encode()
        line = text[:draw(st.integers(1, len(text) - 1))]
    elif kind == "utf8":
        text = json.dumps(bad).encode()
        at = draw(st.integers(0, len(text)))
        line = text[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + text[at:]
    elif kind == "not_object":
        line = draw(st.sampled_from([b"[]", b"1", b'"P1"', b"null", b"[{}]"]))
    else:
        if kind == "missing":
            del bad[draw(st.sampled_from(required))]
        elif kind == "mistyped":
            field = draw(st.sampled_from(sorted(wrong_values)))
            bad[field] = draw(st.sampled_from(wrong_values[field]))
        else:
            bad["id"] = f"{prefix}{draw(st.integers(0, max(n_good - 1, 0)))}"
            if n_good == 0:
                lines.append(json.dumps(bad).encode())
        line = json.dumps(bad).encode()
    lines.append(line)
    bad_line = len(lines)
    junk = [b"{", b"\xff", json.dumps(record(f"{prefix}Y")).encode()]
    lines += draw(st.lists(st.sampled_from(junk), max_size=2))
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    return source, newline.join(lines) + newline, bad_line


class TestValidate:
    def test_fix1(self, tmp_path, capsys):
        assert run("validate", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path) == 0
        m = manifest(tmp_path)
        assert m["counts"]["papers"] == 5
        assert m["counts"]["unresolved_references"] == 0
        assert "validate" in capsys.readouterr().out

    def test_input_digests_equal_hashlib(self, tmp_path):
        assert run("validate", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path) == 0
        assert manifest(tmp_path)["inputs"] == {
            PAPERS: hashlib_sha256(PAPERS), AUTHORS: hashlib_sha256(AUTHORS)}

    def test_empty_papers_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert run("validate", "--papers", empty, "--out", out) == 0
        m = manifest(out)
        assert m["counts"]["papers"] == 0
        assert m["counts"]["authors"] == 0

    # an integer of 5,001 digits is past CPython's int-string digit limit
    @pytest.mark.parametrize("source, content", [
        ("papers", b'{"id": "P1"}\n'),
        ("papers", b'{"id": "P1", "year": 2000, "discipline": "health", "authors": ["A"], '
                   b'"references": [], "title": "caf\xe9"}\n'),
        ("papers", b"[" * 100_000 + b"]" * 100_000 + b"\n"),
        ("papers", b'{"id": "P1", "year": 2000, "discipline": "health", "authors": ["A\\tX"], '
                   b'"references": []}\n'),
        ("papers", b'{"id": "P\\ud800", "year": 2000, "discipline": "health", "authors": ["A"], '
                   b'"references": []}\n'),
        ("papers", b'{"id": "P1", "year": 2000, "discipline": "health", "authors": ["A"], '
                   b'"references": ["P1"]}\n'),
        ("papers", b'{"id": "P1", "year": ' + b"1" * 5001 + b', "discipline": "health", '
                   b'"authors": ["A"], "references": []}\n'),
        ("authors", b'{"id": "A", "gender": "woman", "name": "Author", "rank": '
                    + b"1" * 5001 + b'}\n'),
        ("papers", b'{"id": "P1", "year": 2000, "discipline": ["health"], "authors": ["A"], '
                   b'"references": []}\n'),
        ("authors", b'{"id": "A", "gender": ["woman"]}\n'),
        # only space and tab are JSON whitespace within a line
        ("papers", b"\xc2\xa0\n"),
        ("papers", b"\x0c\n"),
        ("papers", b'{"id": "P1", "year": 2000, "discipline": "health", "authors": ["A"], '
                   b'"references": []}\x0c\n'),
    ], ids=["missing_fields", "invalid_utf8", "deeply_nested", "tab_in_author_id",
            "lone_surrogate_id", "self_citing_paper", "oversized_integer_papers",
            "oversized_integer_authors", "list_discipline", "list_gender",
            "nbsp_line", "form_feed_line", "form_feed_after_object"])
    def test_malformed_input_exit_2(self, tmp_path, capsys, source, content):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content)
        files = ["--papers", bad] if source == "papers" else ["--papers", PAPERS, "--authors", bad]
        assert run("validate", *files, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert f"{source} line 1:" in err

    # Each example draws which file is malformed; the other is fix1's.
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(_RECORDS)).flatmap(malformed_file))
    def test_malformed_papers_fuzz(self, tmp_path, capsys, case):
        source, content, bad_line = case
        bad = tmp_path / "fuzz.jsonl"
        bad.write_bytes(content)
        files = {"papers": PAPERS, "authors": AUTHORS, source: bad}
        assert run("validate", "--papers", files["papers"], "--authors", files["authors"],
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{source} line {bad_line}:" in err
        assert "Traceback" not in err

    def test_missing_file_exit_2(self, tmp_path):
        assert run("validate", "--papers", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "o") == 2


class TestWriteCsv:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b"], [{"a": 1, "b": 2}])
        before = path.read_bytes()

        def rows():
            yield {"a": 3, "b": 4}
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_missing_column_is_an_error(self, tmp_path):
        # a row without a column's key fails instead of writing an empty cell
        path = tmp_path / "table.csv"
        with pytest.raises(KeyError, match="'b'"):
            write_csv(path, ["a", "b"], [{"a": 1}])
        assert not path.exists()
        write_csv(path, ["a", "b"], [{"a": 1, "b": None}])
        assert path.read_text() == "a,b\n1,\n"


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_arguments(self):
        assert run() == 1

    def test_missing_required_option(self):
        assert run("validate") == 1

    def test_bad_n_percentiles(self, tmp_path):
        assert run("metrics", "--papers", PAPERS, "--out", tmp_path,
                   "--n-percentiles", "0") == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "--papers", PAPERS, "--authors", "", "--out", "o"],
        ["validate", "--papers", PAPERS, "--out", ""],
        ["validate", "--papers", "", "--out", "o"],
        ["synth", "--config", "", "--out", "o"],
    ], ids=["authors", "out", "papers", "config"])
    def test_empty_path_option(self, tmp_path, monkeypatch, capsys, argv):
        # refused before any load or write, under the option's name
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        flag = argv[argv.index("") - 1]
        assert f"usage error: {flag} must not be empty" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestClassify:
    def test_fix1_export(self, tmp_path):
        assert run("classify", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path) == 0
        rows = (tmp_path / "classifications.tsv").read_text().splitlines()
        assert len(rows) == 17  # 9 reference-side + 8 citation-side
        sides = [r.split("\t")[3] for r in rows]
        assert sides.count("reference") == 9
        assert sides.count("citation") == 8
        edges = (tmp_path / "edges.tsv").read_text().splitlines()
        assert len(edges) == 6
        m = manifest(tmp_path)
        assert m["counts"]["edges"] == 6
        assert m["counts"]["classification_rows"] == 17
        assert m["counts"]["author_edge_events"] == {"reference": 9, "citation": 8}

    def test_collaboration_pairs_in_manifest(self, tmp_path):
        assert run("classify", "--papers", PAPERS, "--out", tmp_path) == 0
        pairs = set()
        for line in Path(PAPERS).read_text().splitlines():
            team = json.loads(line)["authors"]
            pairs |= {frozenset((a, b)) for a in team for b in team if a != b}
        assert pairs
        assert manifest(tmp_path)["counts"]["collaboration_pairs"] == len(pairs)

    def test_failed_walk_keeps_both_exports(self, tmp_path, monkeypatch):
        import selfcite.classify

        base = ["classify", "--papers", PAPERS, "--authors", AUTHORS, "--out", tmp_path]
        assert run(*base) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.tsv")}
        side_types = selfcite.classify._side_types
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 11:  # the reference side of the sixth and last edge
                raise OSError("disk full")
            return side_types(*args)

        monkeypatch.setattr(selfcite.classify, "_side_types", failing)
        assert run(*base) == 2
        assert len(calls) == 11
        assert {p.name: p.read_bytes() for p in tmp_path.glob("*.tsv")} == before
        assert sorted(before) == ["classifications.tsv", "edges.tsv"]
        assert not list(tmp_path.glob("*.tmp"))


class TestMetrics:
    def test_artifacts_written(self, tmp_path):
        assert run("metrics", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path, "--min-pubs", "0") == 0
        for name in ("fig1_age_curves.csv", "figS2_S5_age_curves_by_production.csv",
                     "figS6_citation_age.csv", "figS7_strata.csv",
                     "figS8_heatmap.csv", "inflation_weights.csv"):
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "fig1_age_curves.csv").read_text().splitlines()[0]
        assert header.startswith("domain,side,age_bin,citation_type")

    def test_no_weighting_skips_weight_table(self, tmp_path):
        assert run("metrics", "--papers", PAPERS, "--out", tmp_path,
                   "--no-weighting") == 0
        assert not (tmp_path / "inflation_weights.csv").exists()
        header, *rows = (tmp_path / "fig1_age_curves.csv").read_text().splitlines()
        col = header.split(",").index("pct_pooled_weighted")
        assert all(r.split(",")[col] == "" for r in rows)
        # strata and heatmap read unweighted profile fields only
        weighted = tmp_path / "weighted"
        assert run("metrics", "--papers", PAPERS, "--out", weighted) == 0
        for name in ("figS7_strata.csv", "figS8_heatmap.csv"):
            assert (weighted / name).read_bytes() == (tmp_path / name).read_bytes(), name


class TestHindex:
    def test_artifacts_written(self, tmp_path):
        assert run("hindex", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path, "--min-pubs", "0") == 0
        for name in ("fig2_attribution_curve.csv", "figS10_individual.csv",
                     "figS11_distributions.csv"):
            assert (tmp_path / name).exists(), name

    def test_no_individual_flag(self, tmp_path):
        assert run("hindex", "--papers", PAPERS, "--out", tmp_path,
                   "--no-individual", "--min-pubs", "0") == 0
        assert not (tmp_path / "figS10_individual.csv").exists()


class TestSimil:
    def test_artifacts_written(self, tmp_path):
        assert run("simil", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path, "--min-pubs", "0") == 0
        for name in ("fig3a_distributions.csv", "fig3b_means.csv",
                     "fig3c_by_age.csv", "fig3d_by_selfref.csv",
                     "figS9_by_gender.csv"):
            assert (tmp_path / name).exists(), name
        m = manifest(tmp_path)
        assert m["coverage"]["stopwords_sha256"] == hashlib_sha256(STOPWORDS)

    def test_no_abstracts_is_data_error(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        papers.write_text(json.dumps({
            "id": "P1", "year": 2000, "discipline": "health",
            "authors": ["A"], "references": [],
        }) + "\n", encoding="utf-8")
        assert run("simil", "--papers", papers, "--out", tmp_path / "o") == 2


class TestReport:
    def test_full_report_after_classify(self, tmp_path):
        assert run("classify", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path) == 0
        assert run("report", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path, "--min-pubs", "0") == 0
        for name in ("fig1_age_curves.csv", "figS6_citation_age.csv",
                     "figS7_strata.csv", "figS8_heatmap.csv",
                     "fig2_attribution_curve.csv", "figS10_individual.csv",
                     "figS11_distributions.csv", "fig3a_distributions.csv",
                     "fig3b_means.csv", "fig3c_by_age.csv",
                     "fig3d_by_selfref.csv", "figS9_by_gender.csv"):
            assert (tmp_path / name).exists(), name

    def test_report_matches_direct_subcommands(self, tmp_path):
        shared = tmp_path / "shared"
        assert run("report", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", shared, "--min-pubs", "0") == 0
        direct = tmp_path / "direct"
        for command in ("metrics", "hindex", "simil"):
            assert run(command, "--papers", PAPERS, "--authors", AUTHORS,
                       "--out", direct, "--min-pubs", "0") == 0
        tables = sorted(p.name for p in shared.glob("*.csv"))
        assert len(tables) == 14
        assert tables == sorted(p.name for p in direct.glob("*.csv"))
        for name in tables:
            assert (shared / name).read_bytes() == (direct / name).read_bytes(), name

    def test_author_edge_events_in_manifest(self, tmp_path):
        # fix1 classifies into 9 reference-side and 8 citation-side rows;
        # hindex types the citation side only and must still count both
        for command in ("metrics", "hindex", "simil", "report"):
            out = tmp_path / command
            assert run(command, "--papers", PAPERS, "--authors", AUTHORS,
                       "--out", out) == 0
            assert manifest(out)["counts"]["author_edge_events"] == {
                "reference": 9, "citation": 8}, command

    def test_report_holds_one_group_of_tallies_at_a_time(self, tmp_path, monkeypatch):
        watched = (ProfileTally, AgeCurveTally, CitationAgeTally, HindexTally,
                   SimilarityTally, TfIdfVector)
        # objects of earlier tests are held, so no object of the run takes their ids
        earlier = [o for o in gc.get_objects() if isinstance(o, watched)]
        earlier_ids = set(map(id, earlier))
        alive = {}

        def watch(module, name):
            step = getattr(module, name)

            def inspected(*args, **kwargs):
                alive[name] = sorted({type(o).__name__ for o in gc.get_objects()
                                      if isinstance(o, watched) and id(o) not in earlier_ids})
                return step(*args, **kwargs)
            monkeypatch.setattr(module, name, inspected)

        watch(kernel.EdgeCounts, "project_similarity")
        for name in ("_metrics_outputs", "_hindex_outputs", "_simil_outputs"):
            watch(cli, name)
        assert run("report", "--papers", PAPERS, "--authors", AUTHORS,
                   "--out", tmp_path, "--min-pubs", "0") == 0
        # the vectors go when the pass returns, the profile tally once the
        # profiles are made, each group's tallies after the group, and the
        # similarity tally is made just before its group
        assert alive == {
            "project_similarity": [],
            "_metrics_outputs": ["AgeCurveTally", "CitationAgeTally"],
            "_hindex_outputs": ["HindexTally"],
            "_simil_outputs": ["SimilarityTally"],
        }

    def test_report_without_abstracts_writes_headers(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        papers.write_text(json.dumps({
            "id": "P1", "year": 2000, "discipline": "health",
            "authors": ["A"], "references": [],
        }) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("report", "--papers", papers, "--out", out) == 0
        assert not (out / "classifications.tsv").exists()
        lines = (out / "fig3b_means.csv").read_text().splitlines()
        assert len(lines) == 1  # header only
        assert manifest(out)["notes"] == [
            "no abstracts in corpus: similarity tables are header-only"]



@pytest.mark.parametrize("command,tables", [("simil", 5), ("report", 14)])
def test_long_y_run_in_abstract(tmp_path, command, tables):
    # 1,200 y letters then "ed": deeper than the default recursion limit,
    # so a stemmer that recursed once per letter would die on this token
    papers = TESTDATA / "long_y_run_papers.jsonl"
    assert run(command, "--papers", papers, "--out", tmp_path, "--min-pubs", "0") == 0
    assert len(list(tmp_path.glob("*.csv"))) == tables

#: Stage names of each subcommand's manifest on a corpus with abstracts.
_STAGES = {
    "validate": ["load"],
    "classify": ["load", "export"],
    "metrics": ["load", "intern", "kernel", "project_profile", "profiles",
                "project_citation_age", "metrics"],
    "hindex": ["load", "intern", "kernel", "project_hindex", "hindex"],
    "simil": ["load", "vectors", "intern", "kernel", "project_profile", "profiles",
              "project_similarity", "simil"],
    "report": ["load", "vectors", "intern", "kernel", "project_profile", "profiles",
               "project_citation_age", "metrics", "project_hindex", "hindex",
               "project_similarity", "simil"],
    "synth": ["generate", "write"],
}
#: Each stage's seconds and elapsed_seconds are rounded to the millisecond,
#: so their sum may pass elapsed_seconds by half a millisecond per value.
_ROUNDING_SLACK_S = 0.0005 * (max(map(len, _STAGES.values())) + 1)


class TestManifestStages:
    @pytest.mark.parametrize("command", sorted(_STAGES))
    def test_stage_names_seconds_and_rss(self, tmp_path, command):
        out = tmp_path / "o"
        if command == "synth":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"n_authors": 10, "seed": 5}), encoding="utf-8")
            argv = ["--config", config]
        else:
            argv = ["--papers", PAPERS, "--authors", AUTHORS]
        assert run(command, *argv, "--out", out) == 0
        m = manifest(out)
        stages = m["stages"]
        assert [s["name"] for s in stages] == _STAGES[command]
        assert all(s["seconds"] >= 0 for s in stages)
        assert sum(s["seconds"] for s in stages) <= m["elapsed_seconds"] + _ROUNDING_SLACK_S
        rss = [s["peak_rss_kb"] for s in stages]
        assert 0 < rss[0] and rss == sorted(rss) and rss[-1] <= m["peak_rss_kb"]
        assert m["children_peak_rss_kb"] >= 0 and m["children_private_kb"] >= 0
        if "kernel" in _STAGES[command]:
            assert 1 <= m["counts"]["kernel_workers"] <= MAX_WORKERS

    def test_report_without_abstracts_has_no_vectors_stage(self, tmp_path):
        papers = tmp_path / "papers.jsonl"
        papers.write_text(json.dumps({
            "id": "P1", "year": 2000, "discipline": "health",
            "authors": ["A"], "references": [],
        }) + "\n", encoding="utf-8")
        assert run("report", "--papers", papers, "--out", tmp_path / "o") == 0
        assert [s["name"] for s in manifest(tmp_path / "o")["stages"]] == [
            "load", "intern", "kernel", "project_profile", "profiles",
            "project_citation_age", "metrics", "project_hindex", "hindex",
            "project_similarity", "simil"]


# Touches 64 MB, then runs the command in a child: on Linux the child's
# ru_maxrss starts at this process's peak.
_LARGE_LAUNCHER = """
import subprocess, sys
ballast = b"x" * (64 << 20)
sys.exit(subprocess.run([sys.executable, "-m", "selfcite.cli", *sys.argv[1:]]).returncode)
"""


class TestManifestPeaks:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="the process's own peak is read from /proc/self/status")
    def test_peaks_are_the_commands_own(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        launched = subprocess.run(
            [sys.executable, "-c", _LARGE_LAUNCHER, "validate", "--papers", PAPERS,
             "--authors", AUTHORS, "--out", tmp_path], env=env, capture_output=True, text=True)
        assert launched.returncode == 0, launched.stderr
        m = manifest(tmp_path)
        peaks = [m["peak_rss_kb"]] + [s["peak_rss_kb"] for s in m["stages"]]
        assert all(0 < kb < 64 << 10 for kb in peaks), peaks


class TestSynthCommand:
    def test_generate_and_validate(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "n_authors": 10, "year_start": 2000, "year_end": 2004, "seed": 5,
        }), encoding="utf-8")
        out = tmp_path / "synth"
        assert run("synth", "--config", config, "--out", out) == 0
        assert run("validate", "--papers", out / "papers.jsonl",
                   "--authors", out / "authors.jsonl", "--out", out) == 0
        meta = json.loads((out / "synth_meta.json").read_text())
        assert meta["seed"] == 5

    def test_seed_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_authors": 5, "seed": 5}), encoding="utf-8")
        out = tmp_path / "s"
        assert run("synth", "--config", config, "--out", out, "--seed", "9") == 0
        meta = json.loads((out / "synth_meta.json").read_text())
        assert meta["seed"] == 9

    @pytest.mark.parametrize("content, message", [
        (b'{"n_authors": -2}', "field 'n_authors'"),
        (b'{"n_authors": 10, "seed": 5}\xff', "not valid UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        (b'{"n_authors": "5"}', "field 'n_authors'"),
        (b'{"n_authors": true}', "field 'n_authors'"),
        (b'{"n_authors": 5.0}', "field 'n_authors'"),
        (b'{"seed": null}', "field 'seed'"),
        # 5,001 digits is past CPython's int-string digit limit
        (b'{"n_authors": ' + b"1" * 5001 + b'}', "not valid JSON"),
        (b'{"p_direct": null}', "field 'p_direct'"),
        (b'{"p_direct": true}', "field 'p_direct'"),
        (b'{"p_direct": NaN}', "field 'p_direct'"),
        (b'{"coauthors_mean": Infinity}', "field 'coauthors_mean'"),
        (b'{"entry_years": 2.0}', "field 'entry_years'"),
        (b'{"disciplines": 5}', "field 'disciplines'"),
        (b'{"disciplines": "health"}', "field 'disciplines'"),
        (b'{"disciplines": ["health", 3]}', "field 'disciplines'"),
        # Poisson rates past 700 drew silently too few; one author keeps the
        # unchecked run short
        (b'{"n_authors": 1, "papers_per_author_year": 1000}',
         "field 'papers_per_author_year': must be <= 700"),
        (b'{"n_authors": 1, "coauthors_mean": 1000}', "field 'coauthors_mean': must be <= 700"),
        (b'{"n_authors": 1, "refs_per_paper_start": 1000}',
         "field 'refs_per_paper_start': must be <= 700"),
        (b'{"n_authors": 1, "refs_per_paper_end": 1000}',
         "field 'refs_per_paper_end': must be <= 700"),
        # Random(-s) draws the same stream as Random(s); a tuple case adds
        # its command-line arguments after the config bytes
        (b'{"n_authors": 5, "seed": -1}', "field 'seed': must be >= 0"),
        ((b'{"n_authors": 5, "seed": 5}', "--seed", "-1"), "field 'seed': must be >= 0"),
    ], ids=["invalid_value", "invalid_utf8", "deeply_nested", "int_as_string", "int_as_bool",
            "int_as_float", "int_as_null", "oversized_integer", "float_as_null",
            "float_as_bool", "float_nan", "float_infinite", "entry_years_as_float",
            "disciplines_as_int", "disciplines_as_string", "disciplines_with_int",
            "papers_rate_too_high", "coauthors_rate_too_high", "refs_start_rate_too_high",
            "refs_end_rate_too_high", "seed_negative", "seed_override_negative"])
    def test_bad_config_exit_2(self, tmp_path, capsys, content, message):
        content, *extra = content if isinstance(content, tuple) else (content,)
        config = tmp_path / "config.json"
        config.write_bytes(content)
        assert run("synth", "--config", config, "--out", tmp_path / "s", *extra) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert message in err
        assert not (tmp_path / "s").exists()


class TestFailedRunLeavesNoOutput:
    """A run that ends in a data error before writing anything does not
    create its --out directory."""

    @pytest.mark.parametrize("subcommand", [
        "validate", "classify", "metrics", "hindex", "simil", "report"])
    def test_bad_corpus(self, tmp_path, subcommand):
        out = tmp_path / "out"
        assert run(subcommand, "--papers", TESTDATA / "self_citing_papers.jsonl",
                   "--out", out) == 2
        assert not out.exists()

    def test_simil_without_abstracts(self, tmp_path):
        # the corpus loads; the error comes from the tf-idf step
        papers = tmp_path / "papers.jsonl"
        papers.write_text(json.dumps({
            "id": "P1", "year": 2000, "discipline": "health",
            "authors": ["A"], "references": [],
        }) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("simil", "--papers", papers, "--out", out) == 2
        assert not out.exists()

    def test_synth_bad_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"n_authors": 1, "refs_per_paper_end": 1000}', encoding="utf-8")
        out = tmp_path / "out"
        assert run("synth", "--config", config, "--out", out) == 2
        assert not out.exists()


class TestIdempotence:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("metrics", "--papers", PAPERS, "--authors", AUTHORS,
                       "--out", out, "--min-pubs", "0") == 0
        for f in sorted(a.glob("*.csv")):
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name
