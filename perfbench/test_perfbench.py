"""Self-test of the benchmark on tiny corpora; runs in seconds.

    python3 -m pytest perfbench

Each workload's command sequence runs through the benchmark's own code
with ``n_authors`` cut to a handful, so the printed result line, the
digest gate and the error accounting are exercised end to end.
"""

import json
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
TINY_AUTHORS = 12
SEED = 12345  # not in pins.json


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A directory that looks like a checkout, with tiny workloads."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    for workload in run.WORKLOADS.values():
        monkeypatch.setitem(workload, "config",
                            {**workload["config"], "n_authors": TINY_AUTHORS})
    return tmp_path


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_printed_with_unit(checkout, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = _result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * (1 + len(run.WORKLOADS[workload]["commands"]))
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wall_time_rescaled_to_reference_speed(tmp_path, monkeypatch):
    # A CPU at half the reference speed: the kernel takes twice as long.
    monkeypatch.setattr(run, "calibration_kernel", lambda: 2 * run.CALIBRATION_REF_S)
    result = run.Program(ROOT, tmp_path).launch(["-c", "pass"])
    assert result["exit"] == 0
    assert result["ref_s"] == pytest.approx(result["wall_s"] / 2)


def _pins(record) -> dict:
    return {record["workload"]: {str(record["seed"]): {
        "corpus": record["corpus_digests"], "artifacts": record["artifact_digests"]}}}


def test_flipped_artifact_byte_counts_as_failure(checkout, monkeypatch):
    workload = "report-quarter"
    clean = run.benchmark(checkout, workload, SEED, 0, False, {})
    pins = _pins(clean)
    assert run.benchmark(checkout, workload, SEED, 0, False, pins)["failed"] == 0

    launch = run.Program.command

    def corrupting(self, name, data, out):
        result = launch(self, name, data, out)
        for artifact in run.ARTIFACTS[name][:1]:
            path = out / artifact
            content = bytearray(path.read_bytes())
            content[len(content) // 2] ^= 0x01
            path.write_bytes(bytes(content))
        return result

    monkeypatch.setattr(run.Program, "command", corrupting)
    record = run.benchmark(checkout, workload, SEED, 0, False, pins)
    passes = 2  # warm-up and one timed pass
    assert record["failed"] == passes * len(run.WORKLOADS[workload]["commands"])
    assert record["error_rate"] > 0
    assert run.result_line(record, False)["correct"] is False


def test_unpinned_seed_checked_against_earlier_run(checkout):
    first = run.benchmark(checkout, "teams-edge", SEED, 0, False, {})
    assert first["reference"] == "the warm-up pass"
    second = run.benchmark(checkout, "teams-edge", SEED, 0, False, {})
    assert second["reference"] == "an earlier run in this checkout"
    assert second["failed"] == 0


def test_corpus_drift_aborts_before_timing(checkout):
    workload = "text-simil"
    pins = _pins(run.benchmark(checkout, workload, SEED, 0, False, {}))
    pins[workload][str(SEED)]["corpus"]["papers.jsonl"] = "0" * 64
    with pytest.raises(run.BenchError, match="generator drifted"):
        run.benchmark(checkout, workload, SEED, 0, False, pins)


def test_fails_without_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "teams-edge", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
