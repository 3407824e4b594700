"""Self-test of the benchmark on a tiny corpus (72 utterances, 30 trees).

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import gauge  # noqa: E402
import workloads  # noqa: E402
from workloads import Sizes  # noqa: E402

TINY = Sizes(speakers=4, vowels=6, n_estimators=30, grid_estimators=(5, 10))


def _run(workload, trace=False, seed=7, **kwargs):
    return bench.run_benchmark(workload, seed, 0.0, trace, ROOT, TINY, **kwargs)


def _declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["extract", "train", "classify"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line = json.loads(bench.result_line(_run(workload, trace)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_corrupt_wav_is_a_failed_request_not_a_crash():
    record = _run("classify", trace=True, corrupt=1)
    requests = record["attempted"] // len(record["passes"])
    assert record["failed"] == len(record["passes"])    # one per pass
    assert record["error_rate"] == pytest.approx(1 / requests)
    assert not record["correct"]
    assert record["failures_by_type"]["audio.read_wav"] == {"CorruptContainer": 1}


def test_check_that_raises_is_a_failed_pass_not_a_crash(monkeypatch):
    def broken(*args):
        raise KeyError("sample_id")

    monkeypatch.setattr(workloads, "recovery_errors", broken)
    record = _run("extract")
    assert record["failed"] == record["attempted"] == len(record["passes"])
    assert not record["correct"]
    assert any("KeyError" in p for p in record["problems"])


def test_gauge_takes_out_its_own_time_and_scales_by_host_speed():
    g = gauge.Gauge()
    g.starts = [1.0, 1.5, 2.0, 5.0]
    g.durations = [0.1, 0.2, 0.1, 0.4]
    assert g.spent_s(1.0, 2.0) == pytest.approx(0.3)
    assert g.refs_per_s(1.0, 2.0) == pytest.approx((10 + 5) / 2)
    # no sample inside the interval: every sample of the run counts
    assert g.refs_per_s(3.0, 4.0) == pytest.approx((10 + 5 + 10 + 2.5) / 4)


def test_gauge_samples_while_entered_and_then_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with gauge.Gauge() as g:
        end = time.perf_counter() + 10 * gauge.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(g.durations) >= 3 and g.starts == sorted(g.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_same_seed_gives_identical_feature_and_model_bytes():
    first = _run("train", seed=11)["hashes"]
    assert set(first) == {"features_csv", "model"}
    assert _run("train", seed=11)["hashes"] == first
    assert _run("train", seed=12)["hashes"]["features_csv"] != first["features_csv"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == b""
