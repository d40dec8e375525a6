"""Tests for the Archive-metric and archive-backed refinement."""

import pytest

from repro.api import RunSpec, run
from repro.core.archive import ArchiveStore, refine_from_archive
from repro.core.metrics.archive import archive_metric
from repro.streams import StreamPair, zipf_pair


class TestArchiveMetric:
    def test_exact_run_has_zero_arm(self):
        pair = zipf_pair(200, 6, 1.0, seed=1)
        window = 15
        result = run(RunSpec(algorithm="EXACT", window=window), pair=pair)
        report = archive_metric(
            pair, result.r_departures, result.s_departures, window
        )
        assert report.arm == 0
        assert report.incomplete_fraction == 0.0

    def test_shed_run_has_positive_arm(self):
        pair = zipf_pair(200, 6, 1.0, seed=2)
        window = 15
        result = run(RunSpec(algorithm="RAND", window=window, memory=4), pair=pair)
        report = archive_metric(
            pair, result.r_departures, result.s_departures, window
        )
        assert report.arm > 0
        assert report.arm == report.incomplete_r + report.incomplete_s
        assert 0.0 < report.incomplete_fraction <= 1.0

    def test_hand_built_scenario(self):
        # R = [9, 1]; S = [1, 1]; w = 2.
        # Partners: s(0)=1 is an earlier partner of r(1)=1; s(1)=1 is the
        # simultaneous partner of r(1).
        pair = StreamPair(r=[9, 1], s=[1, 1])
        window = 2
        # Case 1: everything survives -> all complete.
        report = archive_metric(pair, [1, 1], [2, 2], window)
        assert report.arm == 0
        # Case 2: s(0) was shed immediately (departure 0): r(1) misses its
        # earlier partner -> r(1) incomplete; s(0) itself had a future
        # partner (r(1) at t=1) it no longer sees -> s(0) incomplete.
        report = archive_metric(pair, [1, 1], [0, 2], window)
        assert report.incomplete_r == 1
        assert report.incomplete_s == 1

    def test_tuples_without_partners_are_complete(self):
        pair = StreamPair(r=[1, 2], s=[3, 4])
        report = archive_metric(pair, [0, 1], [0, 1], window=2)
        assert report.arm == 0

    def test_count_from_skips_warmup(self):
        pair = StreamPair(r=[1, 1, 1], s=[1, 1, 1])
        # All shed instantly: every tuple is incomplete...
        full = archive_metric(pair, [0, 1, 2], [0, 1, 2], window=3)
        # ...but only arrivals >= 2 are assessed with count_from=2.
        late = archive_metric(pair, [0, 1, 2], [0, 1, 2], window=3, count_from=2)
        assert late.arm < full.arm
        assert late.considered == 2

    def test_validation(self):
        pair = StreamPair(r=[1], s=[1])
        with pytest.raises(ValueError, match="cover"):
            archive_metric(pair, [], [0], window=1)
        with pytest.raises(ValueError, match="positive"):
            archive_metric(pair, [0], [0], window=0)

    def test_semantic_policies_beat_random(self):
        # On skewed data with a realistic domain, keeping probable tuples
        # also keeps them (and their partners) complete.  (On tiny domains
        # where most tuples have many partners the ordering can flip.)
        pair = zipf_pair(400, 50, 1.2, seed=3)
        window, memory = 40, 20

        def arm_of(name):
            result = run(RunSpec(algorithm=name, window=window, memory=memory), pair=pair)
            return archive_metric(
                pair, result.r_departures, result.s_departures, window,
                count_from=2 * window,
            ).arm

        assert arm_of("PROB") < arm_of("RAND")


class TestArchiveStore:
    def test_append_and_lookup(self):
        store = ArchiveStore()
        store.append("R", 0, "a")
        store.append("R", 1, "b")
        store.append("R", 2, "a")
        assert store.size("R") == 3
        assert list(store.partners_in_range("R", "a", 0, 2)) == [0, 2]
        assert store.reads == 2

    def test_out_of_order_append_rejected(self):
        store = ArchiveStore()
        with pytest.raises(ValueError, match="order"):
            store.append("R", 5, "a")

    def test_read_counting(self):
        store = ArchiveStore()
        store.append("S", 0, "x")
        store.key_at("S", 0)
        assert store.reads == 1
        store.reset_reads()
        assert store.reads == 0

    def test_from_pair(self):
        pair = StreamPair(r=[1, 2], s=[3, 4])
        store = ArchiveStore.from_pair(pair)
        assert store.size("R") == store.size("S") == 2


class TestRefinement:
    def test_day_plus_night_equals_exact(self):
        """The load-smoothing guarantee: refinement completes the join."""
        pair = zipf_pair(300, 6, 1.0, seed=4)
        window, memory = 15, 6
        day = run(
            RunSpec(algorithm="PROB", window=window, memory=memory, materialize=True),
            pair=pair,
        )
        night = refine_from_archive(pair, day)
        exact = run(RunSpec(algorithm="EXACT", window=window, materialize=True), pair=pair)

        produced = {(p.r_arrival, p.s_arrival) for p in day.pairs}
        missing = {(p.r_arrival, p.s_arrival) for p in night.missing_pairs}
        expected = {(p.r_arrival, p.s_arrival) for p in exact.pairs}
        assert produced.isdisjoint(missing)
        assert produced | missing == expected
        assert len(day.pairs) + night.missing_count == exact.output_count

    def test_night_repays_missing_output_on_figure3_workload(self):
        """Figure 3's ci-scale workload (seed 1) with PROB at M = w/2."""
        pair = zipf_pair(900, 50, 1.0, seed=1)
        window = 60
        day = run(
            RunSpec(algorithm="PROB", window=window, memory=30, materialize=True),
            pair=pair,
        )
        night = refine_from_archive(pair, day)
        exact = run(RunSpec(algorithm="EXACT", window=window), pair=pair)
        assert day.output_count + night.missing_count == exact.output_count
        assert night.archive_reads >= night.missing_count > 0

    def test_exact_day_needs_no_refinement(self):
        pair = zipf_pair(200, 6, 1.0, seed=5)
        window = 12
        day = run(RunSpec(algorithm="EXACT", window=window, materialize=True), pair=pair)
        night = refine_from_archive(pair, day)
        assert night.missing_count == 0
        assert night.incomplete_tuples == 0

    def test_work_scales_with_arm(self):
        """More shedding => more incomplete tuples => more archive reads."""
        pair = zipf_pair(300, 6, 1.0, seed=6)
        window = 15
        tight = refine_from_archive(
            pair,
            run(RunSpec(algorithm="RAND", window=window, memory=4, seed=1), pair=pair),
        )
        roomy = refine_from_archive(
            pair,
            run(RunSpec(algorithm="RAND", window=window, memory=20, seed=1), pair=pair),
        )
        assert tight.incomplete_tuples > roomy.incomplete_tuples
        assert tight.missing_count > roomy.missing_count

    def test_requires_survival_tracking(self):
        pair = zipf_pair(50, 4, 1.0, seed=7)
        day = run(
            RunSpec(algorithm="RAND", window=5, memory=4, track_survival=False),
            pair=pair,
        )
        with pytest.raises(ValueError, match="track_survival"):
            refine_from_archive(pair, day)
