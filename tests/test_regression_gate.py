"""Tests for benchmarks/regression.py: the table-driven perf-regression gate."""

import copy
import fnmatch
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

from regression import GATES, evaluate, format_checks  # noqa: E402


def committed(gate):
    return json.loads((BENCHMARKS.parent / GATES[gate].baseline).read_text())


def failures(gate, baseline, fresh, **kwargs):
    return [f"{c.path}: {c.failure}"
            for c in evaluate(gate, baseline, fresh, **kwargs) if c.failure]


def failing_paths(gate, baseline, fresh):
    return {c.path for c in evaluate(gate, baseline, fresh) if c.failure}


def child(node, key):
    """The child ``key`` of a dict, or the entry keyed ``key`` of a list."""
    if isinstance(node, list):
        return next(e for e in node if str(e.get("policy", e.get("seed"))) == key)
    return node[key]


def perturbed(snapshot, path, change):
    """A copy of ``snapshot`` with the value at flattened ``path`` changed."""
    fresh = copy.deepcopy(snapshot)
    *parents, leaf = path.split(".")
    node = fresh
    for key in parents:
        node = child(node, key)
    node[leaf] = change(node[leaf])
    return fresh


def snapshot(**overrides):
    entry = {
        "policy": "PROB",
        "output_count": 3020,
        "ktuples_per_second": 100.0,
        "seconds": 0.02,
        "metrics_overhead_pct": 30.0,
        "trace_overhead_pct": 80.0,
    }
    entry.update(overrides)
    return {"benchmark": "engine_throughput", "scale": "ci", "policies": [entry]}


class TestCompareSnapshots:
    """The engine gate: exact counts, drop, and overhead slack rows."""

    def test_identical_snapshots_pass(self):
        assert failures("engine", snapshot(), snapshot()) == []

    def test_small_drop_within_tolerance_passes(self):
        fresh = snapshot(ktuples_per_second=85.0)
        assert failures("engine", snapshot(), fresh, tolerance=0.20) == []

    def test_tolerance_edge_passes(self):
        fresh = snapshot(ktuples_per_second=50.0)
        assert failures("engine", snapshot(), fresh, tolerance=0.5) == []
        fresh = snapshot(ktuples_per_second=49.9)
        assert failures("engine", snapshot(), fresh, tolerance=0.5)

    def test_large_drop_fails(self):
        fresh = snapshot(ktuples_per_second=70.0)
        found = failures("engine", snapshot(), fresh, tolerance=0.20)
        assert len(found) == 1
        assert "policies.PROB.ktuples_per_second" in found[0]
        assert "below baseline" in found[0]

    def test_speedup_never_fails(self):
        fresh = snapshot(ktuples_per_second=500.0)
        assert failures("engine", snapshot(), fresh) == []

    def test_output_count_drift_fails(self):
        fresh = snapshot(output_count=3021)
        found = failures("engine", snapshot(), fresh)
        assert any("output_count" in f for f in found)
        assert any("semantics" in f for f in found)

    def test_overhead_doubling_fails(self):
        fresh = snapshot(metrics_overhead_pct=90.0)
        found = failures("engine", snapshot(), fresh)
        assert any("metrics_overhead_pct" in f for f in found)

    def test_overhead_within_slack_passes(self):
        # baseline 80% + max(20, 80) slack = 160% ceiling
        fresh = snapshot(trace_overhead_pct=160.0)
        assert failures("engine", snapshot(), fresh) == []
        fresh = snapshot(trace_overhead_pct=160.1)
        assert failures("engine", snapshot(), fresh)

    def test_overhead_drop_never_fails(self):
        fresh = snapshot(metrics_overhead_pct=1.0, trace_overhead_pct=2.0)
        assert failures("engine", snapshot(), fresh) == []

    def test_missing_policy_in_fresh_fails(self):
        fresh = snapshot()
        fresh["policies"] = []
        found = failures("engine", snapshot(), fresh)
        assert any("missing from fresh" in f for f in found)

    def test_new_policy_without_baseline_fails(self):
        base = snapshot()
        fresh = snapshot()
        fresh["policies"].append({
            "policy": "NEW",
            "output_count": 1,
            "ktuples_per_second": 1.0,
        })
        found = failures("engine", base, fresh)
        assert any("NEW" in f and "baseline" in f for f in found)

    def test_old_baseline_without_trace_overhead_is_skipped(self):
        base = snapshot()
        del base["policies"][0]["trace_overhead_pct"]
        fresh = snapshot(trace_overhead_pct=400.0)
        assert failures("engine", base, fresh) == []


class TestFormatComparison:
    def test_table_shows_both_sides(self):
        base = snapshot()
        fresh = snapshot(ktuples_per_second=90.0)
        table = format_checks(evaluate("engine", base, fresh))
        assert "policies.PROB.ktuples_per_second" in table
        assert "100.00" in table
        assert "90.00" in table
        assert "FAIL" not in table

    def test_missing_policy_is_called_out(self):
        fresh = snapshot()
        fresh["policies"] = []
        table = format_checks(evaluate("engine", snapshot(), fresh))
        assert "FAIL missing from fresh snapshot" in table


class TestCommittedBaseline:
    """The checked-in BENCH_*.json files must stay gate-compatible."""

    def test_baseline_has_gated_fields(self):
        baseline = committed("engine")
        assert baseline["scale"] in ("ci", "default", "paper")
        assert baseline["policies"]
        for entry in baseline["policies"]:
            assert entry["output_count"] > 0
            assert entry["ktuples_per_second"] > 0
            assert "metrics_overhead_pct" in entry
            assert "trace_overhead_pct" in entry

    def test_baseline_compares_clean_against_itself(self):
        found = {
            gate: failures(gate, committed(gate), committed(gate))
            for gate in GATES
        }
        assert found == {gate: [] for gate in GATES}

    @pytest.mark.parametrize("gate", list(GATES))
    def test_every_row_matches_its_baseline(self, gate):
        # A row whose path matches nothing in the committed file would
        # pass forever without checking anything.
        paths = {c.path for c in evaluate(gate, committed(gate), committed(gate))}
        for pattern, _kind, _bound in GATES[gate].rows:
            prefix = pattern.split("*")[0]
            assert any(path.startswith(prefix) for path in paths), pattern


#: One-field perturbations of each committed baseline, one per row:
#: (gate, changed path, change).  Changes: ("flag",) sets an identity
#: flag false with a mismatch; ("count", d) adds d to a count; ("drop",
#: f) scales a throughput; ("slack",) puts an overhead one point past
#: its ceiling; ("floor", bound) and ("ratio", bound) pin the bound:
#: the value at (or just under) it passes, just past it fails.
PERTURBATIONS = [
    ("engine", "policies.PROB.output_count", ("count", 1)),
    ("engine", "policies.LIFE.ktuples_per_second", ("drop", 0.7)),
    ("engine", "policies.EXACT.metrics_overhead_pct", ("slack",)),
    ("engine", "policies.ARM.trace_overhead_pct", ("slack",)),
    ("runtime", "outputs_match", ("flag",)),
    ("runtime", "counts.1.PROBV", ("count", 1)),
    ("runtime", "parallel_seconds/serial_seconds", ("ratio", 5.0)),
    ("shard", "exact_identical", ("flag",)),
    ("shard", "counts.exact_output", ("count", 1)),
    ("shard", "counts.exact_total_output", ("count", -1)),
    ("shard", "counts.prob_sharded_output", ("count", 1)),
    ("shard", "parallel_seconds/unsharded_seconds", ("ratio", 25.0)),
    ("chaos", "recovery_identical", ("flag",)),
    ("chaos", "counts.exact_output", ("count", 1)),
    ("chaos", "counts.prob_sharded_output", ("count", 1)),
    ("chaos", "counts.degraded_output", ("count", 1)),
    ("chaos", "counts.lost_output", ("count", -1)),
    ("batch", "batched_identical", ("flag",)),
    ("batch", "counts.exact_output", ("count", 1)),
    ("batch", "counts.exact_total_output", ("count", 1)),
    ("batch", "speedup", ("floor", 1.5)),
    ("policy", "batched_identical", ("flag",)),
    ("policy", "counts.rand_output", ("count", 1)),
    ("policy", "counts.life_total_output", ("count", 1)),
    ("policy", "policies.PROB.speedup", ("floor", 2.0)),
    ("policy", "policies.LIFE.speedup", ("floor", 2.0)),
    ("obs", "telemetry_identical", ("flag",)),
    ("obs", "counts.exact_output", ("count", 1)),
    ("obs", "counts.exact_total_output", ("count", 1)),
    ("obs", "counts.heartbeats", ("count", 1)),
    ("soak", "flat_memory", ("flag",)),
    ("soak", "counts.exact_output", ("count", 1)),
    ("soak", "counts.exact_total_output", ("count", 1)),
    ("soak", "counts.policy_output", ("count", 1)),
]


def with_ratio(snapshot, row, ratio):
    numerator, denominator = row.split("/")
    return dict(snapshot, **{numerator: snapshot[denominator] * ratio})


@pytest.mark.parametrize(
    "gate,path,change", PERTURBATIONS,
    ids=[f"{g}:{p}" for g, p, _ in PERTURBATIONS],
)
def test_one_field_perturbation_trips_its_row(gate, path, change):
    baseline = committed(gate)
    kind = change[0]
    if kind == "ratio":
        bound = change[1]
        assert not failing_paths(gate, baseline,
                                 with_ratio(baseline, path, 0.99 * bound))
        fresh = with_ratio(baseline, path, 1.01 * bound)
    elif kind == "floor":
        bound = change[1]
        at_floor = perturbed(baseline, path, lambda value: bound)
        assert not failing_paths(gate, baseline, at_floor)
        fresh = perturbed(baseline, path, lambda value: bound - 0.01)
    elif kind == "flag":
        fresh = perturbed(baseline, path, lambda value: False)
        fresh["mismatches"] = ["injected mismatch"]
        assert "injected mismatch" in " ".join(failures(gate, baseline, fresh))
    elif kind == "count":
        fresh = perturbed(baseline, path, lambda value: value + change[1])
    elif kind == "drop":
        fresh = perturbed(baseline, path, lambda value: value * change[1])
    else:
        fresh = perturbed(
            baseline, path, lambda value: value + max(20.0, abs(value)) + 1.0
        )
    assert failing_paths(gate, baseline, fresh) == {path}


@pytest.mark.parametrize("gate", list(GATES))
def test_every_row_has_a_perturbation(gate):
    perturbed_paths = [p for g, p, _ in PERTURBATIONS if g == gate]
    for pattern, _kind, _bound in GATES[gate].rows:
        assert fnmatch.filter(perturbed_paths, pattern), pattern


def test_false_flag_without_mismatches_still_fails():
    fresh = dict(committed("chaos"), recovery_identical=False, mismatches=[])
    assert failing_paths("chaos", committed("chaos"), fresh) == {
        "recovery_identical"
    }


@pytest.mark.parametrize(
    "gate", ["runtime", "shard", "chaos", "batch", "policy", "obs", "soak"]
)
def test_missing_count_fails(gate):
    baseline = committed(gate)
    fresh = copy.deepcopy(baseline)
    fresh["counts"] = [] if isinstance(baseline["counts"], list) else {}
    found = failures(gate, baseline, fresh)
    count_rows = [c for c in evaluate(gate, baseline, baseline)
                  if c.path.startswith("counts.")]
    assert count_rows
    assert len(found) == len(count_rows)
    assert all("missing from fresh" in f for f in found)


def test_missing_floor_enforced_policy_fails():
    baseline = committed("policy")
    fresh = copy.deepcopy(baseline)
    fresh["policies"] = [p for p in fresh["policies"] if p["policy"] != "LIFE"]
    assert failing_paths("policy", baseline, fresh) == {"policies.LIFE.speedup"}


def test_advisory_policy_has_no_floor():
    baseline = committed("policy")
    fresh = perturbed(baseline, "policies.RAND.speedup", lambda value: 0.1)
    assert failing_paths("policy", baseline, fresh) == set()


@pytest.mark.parametrize("gate", sorted(GATES))
def test_baseline_without_parameters_is_an_error(gate):
    # the builder arguments come from the baseline alone, never a default
    baseline = committed(gate)
    del baseline["parameters"]
    with pytest.raises(KeyError):
        GATES[gate].rebuild(baseline)


def runtime_snapshot(**overrides):
    data = {
        "benchmark": "runtime_parallel",
        "scale": "ci",
        "serial_seconds": 0.2,
        "parallel_seconds": 0.25,
        "speedup": 0.8,
        "outputs_match": True,
        "mismatches": [],
        "counts": [
            {"seed": 0, "RAND": 100, "PROB": 300},
            {"seed": 1, "RAND": 110, "PROB": 290},
        ],
    }
    data.update(overrides)
    return data


class TestCheckRuntime:
    def test_identical_snapshots_pass(self):
        assert failures("runtime", runtime_snapshot(), runtime_snapshot()) == []

    def test_parallel_serial_divergence_fails(self):
        fresh = runtime_snapshot(
            outputs_match=False,
            mismatches=["PROB(seed=0): serial 300 != parallel 299"],
        )
        found = failures("runtime", runtime_snapshot(), fresh)
        assert any("outputs_match" in f and "serial 300 != parallel 299" in f
                   for f in found)

    def test_count_drift_vs_baseline_fails(self):
        fresh = runtime_snapshot(
            counts=[
                {"seed": 0, "RAND": 100, "PROB": 301},
                {"seed": 1, "RAND": 110, "PROB": 290},
            ]
        )
        found = failures("runtime", runtime_snapshot(), fresh)
        assert any("counts.0.PROB" in f for f in found)
        assert any("semantics" in f for f in found)

    def test_modest_slowdown_passes(self):
        fresh = runtime_snapshot(parallel_seconds=0.6)  # 3x serial
        assert failures("runtime", runtime_snapshot(), fresh) == []

    def test_pathological_slowdown_fails(self):
        fresh = runtime_snapshot(parallel_seconds=1.5)  # 7.5x serial
        found = failures("runtime", runtime_snapshot(), fresh)
        assert any("parallel_seconds/serial_seconds" in f for f in found)

    def test_speedup_never_fails(self):
        fresh = runtime_snapshot(parallel_seconds=0.05, speedup=4.0)
        assert failures("runtime", runtime_snapshot(), fresh) == []


class TestCommittedRuntimeBaseline:
    """The checked-in BENCH_runtime.json must stay gate-compatible."""

    def test_baseline_is_internally_consistent(self):
        baseline = committed("runtime")
        assert baseline["outputs_match"] is True
        assert baseline["mismatches"] == []
        assert baseline["serial_seconds"] > 0
        assert baseline["parallel_seconds"] > 0
        assert baseline["counts"]
        assert failures("runtime", baseline, baseline) == []
