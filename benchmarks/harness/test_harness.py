"""Self-test of the benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/harness -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HARNESS)]

import compare  # noqa: E402
import protocol  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, *flags):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), "--smoke", "--out", str(out), *flags],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text()), elapsed


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("smoke"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), "--trace", "1")


def test_smoke_runs_every_workload_in_under_ten_seconds(smoke):
    line, document, elapsed = smoke
    assert set(document["workloads"]) == set(workloads.WORKLOADS)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert elapsed < 10


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == protocol.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == protocol.PER_LAYER


def test_every_end_to_end_metric_is_printed_with_its_unit(smoke):
    line, _document, _elapsed = smoke
    for name in workloads.WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            printed = line["metrics"][f"{name}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] > 0


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    line, document, _elapsed = traced
    assert line["correct"]
    for name in workloads.WORKLOADS:
        for metric in BENCHMARK["per_layer"]:
            printed = line["metrics"][f"{name}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] is not None


def test_traced_fingerprints_equal_untraced(traced):
    _line, document, _elapsed = traced
    for report in document["workloads"].values():
        # Every traced call was checked against the untraced reference.
        assert report["failed"] == 0, report["errors"]
        for kind, passes in report["trace"].items():
            assert passes, kind
            for traced_pass in passes.values():
                wall = traced_pass["wall_s"]
                assert abs(traced_pass["self_sum_s"] - wall) <= 0.05 * wall


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 5] (holding b [2, 3]) and c [6, 7].
    clock = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0]).__next__
    recorder = tracing.SpanRecorder(clock)
    recorder.enter("root")
    recorder.enter("a")
    recorder.enter("b")
    recorder.exit()
    recorder.exit()
    recorder.enter("c")
    recorder.exit()
    recorder.exit()
    assert recorder.stats == {
        (None, "root"): [1, 10.0, 5.0],
        ("root", "a"): [1, 4.0, 3.0],
        ("a", "b"): [1, 1.0, 1.0],
        ("root", "c"): [1, 1.0, 1.0],
    }
    assert recorder.self_sum() == 10.0


def test_install_wraps_and_restores_without_changing_dispatch():
    from repro import api
    from repro.core.kernel import JoinKernel
    from repro.core.policies.base import EvictionPolicy
    from repro.core.policies.life import LifePolicy
    from repro.core.policies.random_policy import RandomEvictionPolicy

    run, insert = api.run, JoinKernel.insert
    with tracing.install(tracing.SpanRecorder()):
        assert api.run is not run and JoinKernel.insert is not insert
        # Engines tell arrival observers apart by method identity.
        assert RandomEvictionPolicy.observe_arrival is EvictionPolicy.observe_arrival
        assert LifePolicy.observe_arrival is not EvictionPolicy.observe_arrival
    assert api.run is run and JoinKernel.insert is insert


def test_a_perturbed_fingerprint_raises_error_rate(monkeypatch):
    real = workloads.fingerprint

    def perturbed(result):
        fp = real(result)
        if result.policy_name == "EXACT":
            return (fp[0] + 1,) + fp[1:]
        return fp

    monkeypatch.setattr(workloads, "fingerprint", perturbed)
    report = protocol.measure("pair_tuple", smoke=True)
    assert not report["correct"]
    assert report["error_rate"] > 0


def test_ledger_fails_mismatches_and_every_call_of_a_broken_run():
    workload = workloads.WORKLOADS["pair_tuple"]
    ledger = workloads.Ledger(workload, {1000: 50})
    good = (50, 60, 0, 0, 1800, 0)
    assert ledger.record("exact", 1000, good)
    assert ledger.record("exact", 1000, good)
    assert not ledger.record("exact", 1000, (49,) + good[1:])
    assert not ledger.record("rand", 1000, (51, 60, 0, 0, 1800, 0))  # > EXACT
    assert not ledger.record("rand", 1000, (51, 60, 0, 0, 1800, 0))
    assert (ledger.attempted, ledger.failed) == (5, 3)


def test_compare_reports_unchanged_for_identical_runs_and_flags_regressions(
    smoke, tmp_path, capsys
):
    _line, document, _elapsed = smoke
    a = tmp_path / "a.json"
    a.write_text(json.dumps(document))
    assert compare.main([str(a), "--", str(a)]) == 0
    assert "worse" not in capsys.readouterr().out

    slower = json.loads(json.dumps(document))
    metric = slower["workloads"]["pair_batch"]["metrics"]["exact_ktps"]
    metric["value"] /= 2
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), "--", str(b)]) == 1
    assert "worse" in capsys.readouterr().out

    failing = json.loads(json.dumps(document))
    failing["workloads"]["pair_tuple"]["failed"] = 1
    b.write_text(json.dumps(failing))
    assert compare.main([str(a), "--", str(b)]) == 1
