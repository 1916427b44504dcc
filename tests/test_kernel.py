"""The edge kernel's worker processes: the same counts and the same float
bits for any number of workers, and no child process left behind however a
pass ends."""

import json
import os
import signal
import threading
import time
import warnings
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from selfcite import kernel
from selfcite.cli import main
from selfcite.corpus import PaperRecord, corpus_from_records
from selfcite.graph import intern_corpus
from selfcite.kernel import _fork_map, count_edges
from selfcite.textsim import build_vectors
from conftest import TESTDATA

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")

# "model" is in most abstracts (an idf of 0 when in all), and "the of and"
# is stopwords only, so zero vectors occur next to missing abstracts
_ABSTRACTS = [None, "the of and", "model", "model graph", "model network citation",
              "graph graph analysis", "citation network"]


@st.composite
def corpora(draw):
    """Up to 7 papers over up to 3 authors, years with gaps, papers without
    references or abstracts, and references to later papers."""
    n_papers = draw(st.integers(1, 7))
    n_authors = draw(st.integers(1, 3))
    papers = []
    for i in range(n_papers):
        team = draw(st.lists(st.integers(0, n_authors - 1), min_size=1, max_size=3, unique=True))
        others = [j for j in range(n_papers) if j != i]
        refs = draw(st.lists(st.sampled_from(others), max_size=6, unique=True)) if others else []
        papers.append(PaperRecord(
            f"P{i}", draw(st.sampled_from([1990, 1991, 1996, 2004, 2010])), "health",
            tuple(f"A{a}" for a in team), tuple(f"P{j}" for j in refs),
            draw(st.sampled_from(_ABSTRACTS))))
    return corpus_from_records(papers)


def _similarity_bits(sim):
    """Every similarity cell with its sum as the bits of the float."""
    return ({k: (s.hex(), n) for k, (s, n) in sim.author_type.items()},
            {k: (s.hex(), n) for k, (s, n) in sim.author_type_age.items()},
            {k: (s.hex(), n) for k, (s, n) in sim.author_selfref.items()},
            sim.coverage.as_dict(), sim.negative_age_records)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _workers(n):
    """Let the pass run in up to ``n`` processes, whatever the host's CPU
    quota."""
    with patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True), \
            patch.object(kernel, "MAX_WORKERS", n), \
            patch.object(kernel, "CGROUP_CPU_MAX", os.devnull + "/no-quota"):
        yield


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPUs the kernel sees, with no CPU quota."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(kernel, "CGROUP_CPU_MAX", os.devnull + "/no-quota")
    return set_cpus


@settings(max_examples=40, deadline=None)
@given(corpora(), st.data())
def test_any_worker_count_gives_the_same_tables_and_float_bits(corpus, data):
    view = intern_corpus(corpus)
    vectors = build_vectors(corpus) if corpus.papers_with_abstract else {}
    include = data.draw(st.none() | st.sets(st.sampled_from(sorted(corpus.author_index))))
    citing = sum(1 for refs in view.references if refs)
    results = []
    for workers in (1, 2, 3, citing + 1):
        with _workers(workers):
            counts = count_edges(corpus, include=include, vectors=vectors)
        assert 1 <= counts.kernel_workers <= max(1, min(workers, citing))
        tables = counts.events, counts.ages, counts.cells, counts.event_years, counts.n_years
        results.append((tables, _similarity_bits(counts.project_similarity())))
    assert all(r == results[0] for r in results[1:])
    _no_child_left()


def test_count_edges_and_report_leave_no_child(tmp_path, cpus, fix1):
    cpus(2)
    assert count_edges(fix1).kernel_workers == 2
    _no_child_left()
    assert main(["report", "--papers", str(TESTDATA / "fix1_papers.jsonl"),
                 "--authors", str(TESTDATA / "fix1_authors.jsonl"),
                 "--out", str(tmp_path / "o"), "--min-pubs", "0"]) == 0
    _no_child_left()


@pytest.mark.parametrize("cpu_max,affinity,workers", [
    ("100000 100000\n", True, 1), ("150000 100000\n", True, 2), ("max 100000\n", True, 4),
    (None, True, 4), ("100000\n", True, 4), ("a b\n", True, 4), ("0 100000\n", True, 4),
    ("", True, 4), ("150000 100000\n", False, 2), (None, False, 4)])
def test_the_cgroup_cpu_quota_caps_the_workers(tmp_path, monkeypatch, cpu_max, affinity,
                                               workers):
    # 4 usable CPUs capped at ceil(quota / period); max, a missing file or a
    # malformed line is no cap
    cpu_max_file = tmp_path / "cpu.max"
    if cpu_max is not None:
        cpu_max_file.write_text(cpu_max)
    monkeypatch.setattr(kernel, "CGROUP_CPU_MAX", str(cpu_max_file))
    monkeypatch.setattr(kernel, "MAX_WORKERS", 8)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    else:  # the os.cpu_count() fallback
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert kernel._worker_count() == workers


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="a child's private memory is read from /proc/self/smaps_rollup")
@pytest.mark.parametrize("n", [1, 2])
def test_the_manifest_sums_the_childrens_private_memory(tmp_path, cpus, n):
    cpus(n)
    out = tmp_path / "o"
    assert main(["report", "--papers", str(TESTDATA / "fix1_papers.jsonl"),
                 "--authors", str(TESTDATA / "fix1_authors.jsonl"),
                 "--out", str(out), "--min-pubs", "0"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counts"]["kernel_workers"] == n
    assert (manifest["children_private_kb"] > 0) == (n == 2)


def test_a_worker_that_ends_itself_raises_and_is_reaped():
    def chunk(item):
        if item == 0:
            os._exit(3)
        return item

    with pytest.raises(ChildProcessError, match="exited with status 3"):
        list(_fork_map(chunk, [2, 0, 1]))
    _no_child_left()


def test_a_worker_killed_by_a_signal_raises_and_is_reaped():
    parent = os.getpid()

    def chunk(item):
        if item == 0 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        list(_fork_map(chunk, [2, 0, 1]))
    _no_child_left()


def test_a_worker_error_names_the_exception():
    def chunk(item):
        if item == 0:
            raise ValueError("no such cell")
        return item

    with pytest.raises(ChildProcessError, match="ValueError: no such cell"):
        list(_fork_map(chunk, [1, 0]))
    _no_child_left()


def test_an_interrupt_in_the_caller_kills_the_workers():
    def chunk(item):
        if item == 0:
            time.sleep(60)
        raise KeyboardInterrupt

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        list(_fork_map(chunk, [1, 0, 0]))
    assert time.monotonic() - started < 30
    _no_child_left()


def test_results_arrive_in_item_order():
    assert list(_fork_map(lambda item: [item, float(item)], [0, 1, 2, 3])) == [
        [0, 0.0], [1, 1.0], [2, 2.0], [3, 3.0]]
    assert list(_fork_map(lambda item: item, [7])) == [7]
    _no_child_left()


def test_a_failed_worker_is_one_line_and_exit_2(tmp_path, cpus, monkeypatch, capsys):
    cpus(2)
    parent = os.getpid()
    side_types = kernel._side_types

    def failing_in_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return side_types(*args)

    monkeypatch.setattr(kernel, "_side_types", failing_in_child)
    code = main(["hindex", "--papers", str(TESTDATA / "fix1_papers.jsonl"),
                 "--out", str(tmp_path / "o"), "--min-pubs", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("selfcite: worker error: ") and err.count("\n") == 1
    _no_child_left()


@pytest.mark.parametrize("setting", ["thread", "one cpu"])
def test_the_pass_stays_in_process(setting, cpus, fix1):
    cpus(1 if setting == "one cpu" else 3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if setting == "thread":
        thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            counts = count_edges(fix1)
    finally:
        stop.set()
        if setting == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert counts.kernel_workers == 1
