"""Tests for the experiment harness: config, algorithm names, reporting."""

import pytest

from repro.api import RunSpec, run
from repro.experiments import (
    ALL_ALGORITHMS,
    SCALES,
    current_scale,
    estimators_for,
    even_memory,
    format_figure,
    format_table,
    memory_sweep,
)
from repro.experiments.figures import FigureData, Series, TableData
from repro.streams import StreamPair, weather_pair, zipf_pair


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"paper", "default", "ci"}
        paper = SCALES["paper"]
        assert paper.stream_length == 5600
        assert paper.window == 400
        assert paper.window_large == 800
        assert paper.weather_window == 5000

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert current_scale().name == "ci"
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert current_scale().name == "paper"
        monkeypatch.delenv("REPRO_SCALE")
        assert current_scale().name == "default"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()

    def test_even_memory(self):
        assert even_memory(400, 0.1) == 40
        assert even_memory(60, 0.25) == 14  # 15 rounded down to even
        assert even_memory(4, 0.1) == 2  # floor of 2

    def test_memory_sweep_matches_paper_fractions(self):
        assert memory_sweep(400) == [40, 100, 200, 400, 600]


class TestEstimators:
    def test_synthetic_distributions_used(self):
        pair = zipf_pair(100, 10, 1.0, seed=0)
        estimators = estimators_for(pair)
        true_p = pair.metadata["r_distribution"].probabilities()
        for value in range(10):
            assert estimators["R"].probability(value) == pytest.approx(true_p[value])

    def test_weather_probability_arrays_used(self):
        pair = weather_pair(100, seed=0)
        estimators = estimators_for(pair)
        p = pair.metadata["r_probabilities"]
        assert estimators["R"].probability(0) == pytest.approx(p[0])

    def test_fallback_to_empirical_frequency(self):
        pair = StreamPair(r=[1, 1, 2, 2], s=[2, 2, 2, 3])
        estimators = estimators_for(pair)
        assert estimators["R"].probability(1) == pytest.approx(0.5)
        assert estimators["S"].probability(2) == pytest.approx(0.75)


class TestRunner:
    """Every named algorithm through ``repro.api.run`` over a given pair."""

    def test_all_algorithms_run(self, small_zipf_pair):
        for name in ALL_ALGORITHMS:
            spec = RunSpec(algorithm=name, window=20, memory=10, seed=1)
            assert run(spec, pair=small_zipf_pair).output_count >= 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RunSpec(algorithm="FANCY", window=20, memory=10)

    def test_exact_ignores_memory(self, small_zipf_pair):
        a = run(RunSpec(algorithm="EXACT", window=20, memory=2), pair=small_zipf_pair)
        b = run(RunSpec(algorithm="EXACT", window=20, memory=999), pair=small_zipf_pair)
        assert a.output_count == b.output_count

    def test_determinism(self, small_zipf_pair):
        spec = RunSpec(algorithm="RAND", window=20, memory=10, seed=9)
        a = run(spec, pair=small_zipf_pair)
        b = run(spec, pair=small_zipf_pair)
        assert a.output_count == b.output_count

    def test_seed_changes_rand(self, small_zipf_pair):
        a = run(RunSpec(algorithm="RAND", window=20, memory=10, seed=1), pair=small_zipf_pair)
        b = run(RunSpec(algorithm="RAND", window=20, memory=10, seed=2), pair=small_zipf_pair)
        assert a.output_count != b.output_count  # overwhelmingly likely

    def test_warmup_override(self, small_zipf_pair):
        spec = RunSpec(algorithm="PROB", window=20, memory=10)
        default = run(spec, pair=small_zipf_pair)
        from_zero = run(RunSpec(algorithm="PROB", window=20, memory=10, warmup=0),
                        pair=small_zipf_pair)
        assert from_zero.output_count >= default.output_count


class TestReporting:
    def _figure(self):
        return FigureData(
            figure_id="fig-test",
            title="A title",
            x_label="x",
            y_label="y",
            series=[
                Series("alpha", [(1, 10), (2, 20)]),
                Series("beta", [(1, 11), (2, 21)]),
            ],
            expectation="alpha below beta",
        )

    def test_format_figure_contains_everything(self):
        text = format_figure(self._figure())
        for token in ("fig-test", "alpha", "beta", "10", "21", "alpha below beta"):
            assert token in text

    def test_format_figure_downsamples(self):
        series = Series("long", [(i, i) for i in range(1000)])
        figure = FigureData("f", "t", "x", "y", [series])
        text = format_figure(figure, max_rows=10)
        data_lines = text.splitlines()[3:]  # title + header + rule
        assert len(data_lines) == 10

    def test_series_lookup(self):
        figure = self._figure()
        assert figure.series_by_label("alpha").y == [10, 20]
        with pytest.raises(KeyError):
            figure.series_by_label("gamma")

    def test_format_table(self):
        table = TableData(
            table_id="tbl",
            title="T",
            columns=["a", "b"],
            rows=[[1, 2.5], [3, 4.0]],
            expectation="b grows",
        )
        text = format_table(table)
        for token in ("tbl", "a", "b", "2.5", "b grows"):
            assert token in text
        assert table.column("a") == [1, 3]
