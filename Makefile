PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test test-stress lint selflint ruff chaos chaos-parallel bench-smoke bench-compare bench-scale bench-trend race-check perfbench-test

check: test selflint chaos ruff

test:
	$(PYTHON) -m pytest -x -q

# the benchmark of record's self-tests (perfbench/NOTES.md); tier-1
# collects only tests/, so they run as their own step
perfbench-test:
	$(PYTHON) -m pytest -q perfbench/tests

# opt-in stress/soak tier: worker-kill chaos, wave batching, and the
# columnar format all at once, plus leaked-process / leaked-fd checks.
# Deselected from the default run by addopts (-m "not stress").
test-stress:
	$(PYTHON) -m pytest -x -q -m stress tests/stress

# end-to-end fault-tolerance suite: full BT pipeline fault-free vs under
# a seeded fault schedule vs killed-and-resumed; asserts byte-identical
# output (see docs/FAULT_TOLERANCE.md)
chaos:
	$(PYTHON) -m repro chaos

# the same suite under the supervised process executor, plus the
# executor-chaos phase: seeded worker-kills mid-run, asserting the
# output hash matches the unfailed baseline (docs/PARALLELISM.md,
# "Worker failure semantics"); the JSON report carries phase timings
# and is folded into the CI benchmark artifact upload
chaos-parallel:
	@mkdir -p profile_out
	$(PYTHON) -m repro chaos --executor process --workers 4 \
		--json > profile_out/chaos_parallel.json
	@$(PYTHON) -c "import json; d = json.load(open('profile_out/chaos_parallel.json')); \
		assert d['passed'], d; ec = d['executor_chaos']; \
		print('chaos-parallel passed:', ec['injected'], 'worker fault(s),', \
		'byte_identical =', ec['byte_identical'])"

# fast machine-readable benchmark: events/sec + peak heap per builtin
# BT query, a memory-scaling series, per-stage wall times of the
# combined TiMR job, the serial-vs-parallel speedup table, and the
# row-vs-columnar batch-format table, written to
# profile_out/BENCH_current.json (profile_out/ is git-ignored; CI
# uploads it as a non-gating artifact). Committed reference baselines
# live in benchmarks/baselines/.
bench-smoke:
	@mkdir -p profile_out
	$(PYTHON) benchmarks/bench_smoke.py --out profile_out/BENCH_current.json

# re-measure into a scratch artifact and compare against the committed
# baseline: per-query events/sec (noisy, loose threshold) plus the
# serial-vs-parallel speedup ratios, which divide runner speed out and
# are stable enough to gate CI on
bench-compare:
	@mkdir -p profile_out
	$(PYTHON) benchmarks/bench_smoke.py --out profile_out/BENCH_current.json \
		--baseline benchmarks/baselines/BENCH_pr10.json \
		--gate queries,parallel

# the millions-of-events scaling table on top of the smoke sections:
# serial vs thread vs process with wave batching, recording both the
# honest measured wall ratio and the labeled critical-path projection
# (see the scale section docs in benchmarks/bench_smoke.py). This is
# how benchmarks/baselines/BENCH_pr10.json was produced.
bench-scale:
	@mkdir -p profile_out
	$(PYTHON) benchmarks/bench_smoke.py --out profile_out/BENCH_scale.json \
		--scale-rows 1000000

# run-over-run tracking: append the current artifact to
# profile_out/BENCH_history.jsonl and compare against the best-known
# per-query events/sec across every committed baseline and prior
# history entry. Always exits 0 (the report is advisory; pass --strict
# to gate).
bench-trend: bench-smoke
	$(PYTHON) benchmarks/trend.py

# the tier-1 suite under the shadow race checker: every parallel wave is
# replayed serially with owning-schedule attribution; byte-identity means
# this must pass exactly like the plain suite (docs/PARALLELISM.md)
race-check:
	REPRO_RACE_CHECK=1 REPRO_EXECUTOR=thread REPRO_WORKERS=4 \
		$(PYTHON) -m pytest -x -q
	$(PYTHON) -m repro lint --builtin --no-plan --dynamic

selflint:
	$(PYTHON) -m repro lint --builtin --no-plan
	$(PYTHON) -m repro lint examples/*.py --no-plan

# ruff is optional in the dev container; the committed config in
# pyproject.toml is authoritative wherever it IS available (CI).
ruff:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (CI runs it)"; \
	fi
