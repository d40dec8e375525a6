# Convenience targets for the reproduction workflow.

PYTHON ?= python
SCALE ?= default

.PHONY: install test bench bench-gate soak check figures clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Perf-regression gate: rebuild every committed BENCH_*.json snapshot
# (engine, runtime, shard, chaos, batch, policy, obs, soak) and check
# it against the baseline row by row -- identity flags, exact counts,
# throughput drops, overhead slack, speedup floors, wall-clock ratios.
# Read-only: `python benchmarks/regression.py --write [GATE ...]`
# rewrites the baselines.  See benchmarks/regression.py for the table.
bench-gate:
	$(PYTHON) benchmarks/regression.py

# The bounded-memory soak gate alone: 2M ticks through the streaming
# EXACT lane plus 200k through the PROB+EWMA engine path under
# tracemalloc (a few minutes); live memory must stay flat.
soak:
	$(PYTHON) benchmarks/regression.py soak

# Tier-1 gate: the full test-suite and the benchmark harness self-test
# (it catches renames of the entry points the tracer wraps).
check:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/harness -q

# Regenerate every figure/table via the CLI at the chosen scale.
figures:
	@for fig in figure3 figure4 figure5 figure6 figure7 figure8 figure9 figure10 figure11; do \
		REPRO_SCALE=$(SCALE) $(PYTHON) -m repro figure $$fig; echo; \
	done
	@for tbl in variable_memory varying_memory static_join multiway_join arm_study slow_cpu multi_query; do \
		REPRO_SCALE=$(SCALE) $(PYTHON) -m repro table $$tbl; echo; \
	done

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
