# Convenience targets for the reproduction workflow.

PYTHON ?= python
SCALE ?= default

.PHONY: install test bench-gate soak check ab figures clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

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

# A/B the end-to-end benchmark: BASE (any commit) against the working
# tree, on one workload.  BASE is checked out into a temporary git
# worktree; both reports land in benchmarks/results/ and the exit status
# is compare.py's (1 if a metric is worse than its bound).  This is a
# smoke check: one pair, BASE always run first.  A claimed gain or a
# "no regression" claim still needs ten alternating pairs of
# benchmarks/harness/run.py, compared with compare.py directly.
#   make ab BASE=HEAD WORKLOAD=stream_drift
BASE ?= HEAD
WORKLOAD ?= stream_drift
AB_OUT := benchmarks/results/ab-$(WORKLOAD)

ab:
	@mkdir -p benchmarks/results; \
	tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1; rm -rf "$$tmp"; git worktree prune' EXIT; \
	git worktree add --detach --quiet "$$tmp/base" "$(BASE)" || exit 2; \
	(cd "$$tmp/base" && $(PYTHON) benchmarks/harness/run.py \
		--workload $(WORKLOAD) --out "$(CURDIR)/$(AB_OUT)-A.json") || exit $$?; \
	$(PYTHON) benchmarks/harness/run.py \
		--workload $(WORKLOAD) --out "$(AB_OUT)-B.json" || exit $$?; \
	$(PYTHON) benchmarks/harness/compare.py "$(AB_OUT)-A.json" -- "$(AB_OUT)-B.json"

# Regenerate every registered figure, table and ablation through the CLI
# at the chosen scale into benchmarks/results/<id>.txt, the committed
# results (SCALE=default reproduces them byte for byte).  The lists must
# match the generator registries; tests/test_paper_claims.py checks it.
FIGURES := figure3 figure4 figure5 figure6 figure6_correlated figure7 figure8 figure9 figure10 figure11
TABLES := variable_memory varying_memory static_join multiway_join arm_study slow_cpu multi_query variance_study flow_solver ablation_statistics ablation_predictor ablation_drift

figures:
	@for id in $(FIGURES); do \
		echo "figure $$id"; \
		REPRO_SCALE=$(SCALE) PYTHONPATH=src $(PYTHON) -m repro figure $$id > benchmarks/results/$$id.txt || exit 1; \
	done
	@for id in $(TABLES); do \
		echo "table $$id"; \
		REPRO_SCALE=$(SCALE) PYTHONPATH=src $(PYTHON) -m repro table $$id > benchmarks/results/$$id.txt || exit 1; \
	done

# Scratch outputs only: benchmarks/results/*.txt are committed.
clean:
	rm -rf .pytest_cache .hypothesis
	rm -f benchmarks/results/ab-*.json benchmarks/results/timeline.json
	find . -name __pycache__ -type d -exec rm -rf {} +
