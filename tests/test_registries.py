"""Consistency checks across the public registries and exports."""

import pytest

import repro
from repro.experiments import (
    ABLATION_GENERATORS,
    ALL_ALGORITHMS,
    FIGURE_GENERATORS,
    TABLE_GENERATORS,
)


class TestAlgorithmRegistry:
    def test_every_fixed_algorithm_has_a_variable_twin(self):
        fixed = [n for n in ALL_ALGORITHMS if not n.endswith("V") and n not in ("EXACT",)]
        for name in fixed:
            if name == "OPT":
                assert "OPTV" in ALL_ALGORITHMS
            else:
                assert f"{name}V" in ALL_ALGORITHMS

    def test_no_duplicates(self):
        assert len(set(ALL_ALGORITHMS)) == len(ALL_ALGORITHMS)


class TestFigureRegistry:
    def test_all_paper_figures_present(self):
        expected = {f"figure{i}" for i in range(3, 12)} | {"figure6_correlated"}
        assert expected == set(FIGURE_GENERATORS)

    def test_table_registry_covers_prose_results_and_extensions(self):
        expected = {
            "variable_memory",
            "varying_memory",
            "multi_query",
            "static_join",
            "multiway_join",
            "arm_study",
            "slow_cpu",
            "variance_study",
            "flow_solver",
        }
        assert expected == set(TABLE_GENERATORS)

    def test_ablation_registry(self):
        assert set(ABLATION_GENERATORS) == {
            "ablation_statistics",
            "ablation_predictor",
            "ablation_drift",
        }

    def test_registries_disjoint(self):
        assert not set(TABLE_GENERATORS) & set(ABLATION_GENERATORS)
        assert not set(FIGURE_GENERATORS) & set(TABLE_GENERATORS)


class TestPackageExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        import repro.core as core
        import repro.experiments as experiments
        import repro.flow as flow
        import repro.stats as stats
        import repro.streams as streams

        for module in (core, experiments, flow, stats, streams):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_readme_quickstart_snippet(self):
        """The README's quickstart code runs and shows the right ordering."""
        from repro import RunSpec, build_pair, compare, exact_join_size

        spec = RunSpec(window=100, memory=50, length=2000, skew=1.0, seed=7)
        results = compare([spec, "RAND", "OPT"])
        rand, prob, opt = results["RAND"], results["PROB"], results["OPT"]
        exact = exact_join_size(build_pair(spec), 100, count_from=200)
        assert rand.output_count < prob.output_count <= opt.output_count <= exact
