# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-slow bench bench-smoke bench-primitives bench-fig5 bench-state bench-trace bench-trace-full bench-variants bench-shard bench-resilience engine-smoke chaos-smoke fuzz-smoke fuzz-trace-smoke fuzz-variant-smoke golden-check docs-check reproduce examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Slow-marked sweeps excluded from tier-1 (full Table-1 variant
# invariance and friends).  Scheduled CI runs this nightly.
test-slow:
	$(PYTHON) -m pytest tests/ -m slow

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Tiny-budget run of the parallel-campaign benchmark: exercises the whole
# engine (pool, journal-less fan-out, deterministic merge) in seconds.
# Used by CI; see docs/BENCHMARKS.md.
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_parallel_campaign.py --benchmark-only -s

# Per-call costs of the core primitives: capture, compare, checkpoint,
# restore, the injection wrapper (off, capturing, elided) and Figure 5's
# atomicity wrapper under each checkpoint strategy.  Prints the timing
# table; asserts only that each primitive works.  Used by CI.
bench-primitives:
	$(PYTHON) -m pytest benchmarks/bench_core_primitives.py --benchmark-only -s

# Figure 5's shape on the full grid (overhead grows with the wrapped-call
# ratio and with the checkpointed object's size, and is negligible when
# almost no call is wrapped) plus the Section 6.2 ablation (the undo log
# beats the eager checkpoint at 1,024 fields and grows less with size).
# Guards the shape of the masking-overhead curves whenever the checkpoint
# gets faster.
bench-fig5:
	$(PYTHON) -m pytest benchmarks/bench_fig5.py \
		benchmarks/bench_ablation_cow.py --benchmark-only -s

# Graph vs fingerprint state backend on the Figure-5 detection sweep.
# Smoke budget in CI (REPRO_BENCH_SMOKE=1 skips the >=2x assertion, which
# only holds for non-trivial state sizes); run without the env var for
# the full grid.  Emits BENCH_state_backends.json.
bench-state:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_state_backends.py --benchmark-only -s

# One-trace-many-points derivation vs the fully dynamic sweep on the
# Table-1 Java campaign.  Asserts >= 5x fewer subject executions with
# bit-identical classification in both modes (smoke runs three small
# applications; run without the env var for all ten).  Emits
# BENCH_trace_derive.json.
bench-trace:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_trace_derive.py --benchmark-only -s

# The same derivation benchmark over all ten Java applications (no
# smoke subset).  Takes minutes; the scheduled CI job runs it.
bench-trace-full:
	$(PYTHON) -m pytest \
		benchmarks/bench_trace_derive.py --benchmark-only -s

# Metamorphic variant corpus over grafted Table-1 applications: every
# variant's campaign outputs must be bit-identical to the original's
# (modulo provenance).  Smoke subset in CI; full grid without the env
# var.  Emits BENCH_variants.json.
bench-variants:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_variants.py --benchmark-only -s

# Shard-able campaign service: a 2-shard (and wider) fragment merge
# must be bit-identical to the sequential engine, and so must the
# supervised engine with its defaults (both shard processes at once,
# one pipe message each); a repeat service submission must
# be served from the result cache with zero subject executions.  Emits
# BENCH_shard.json.
bench-shard:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_shard.py --benchmark-only -s

# One engine, three entry points: a journaled 2-shard campaign, the
# coordinator merge of its fragments, and a resume that asks for 3
# workers (the shard count comes from the fragments) must each print the
# sequential engine's classification lines, and the resume must execute
# nothing (runs=0/N, resumed=N).  The 2-shard campaign must also take
# the sequential engine's number of state captures: a shard process that
# never installed its parent's profile captures before every call.  Last,
# shard 0's fragment loses its final 1,500 bytes, as a machine crash
# loses the unsynced tail of a group commit, and a second resume must
# re-run those points (runs=N/M, N >= 1) to the same classification.
# CircularList catches injected exceptions and then calls methods that
# raise, so its runs take those calls' captures on demand: both engines
# must print the same classification, captures and recaptured= count
# (at least 1), which a shard process that skipped differently breaks.
engine-smoke:
	@J=$$(mktemp -d) && \
	$(PYTHON) -m repro detect LLMap > $$J/plain && \
	$(PYTHON) -m repro detect LLMap --workers 2 --journal $$J/journal \
		> $$J/sharded && \
	grep 'calls=' $$J/plain > $$J/expected && \
	grep 'calls=' $$J/sharded | diff $$J/expected - && \
	grep '^state:' $$J/plain | grep -o 'captures=[0-9]*' > $$J/captures && \
	grep '^state:' $$J/sharded | grep -o 'captures=[0-9]*' \
		| diff $$J/captures - && \
	$(PYTHON) -m repro merge $$J/journal/shard-*.jsonl \
		| grep 'calls=' | diff $$J/expected - && \
	$(PYTHON) -m repro detect LLMap --workers 3 --journal $$J/journal \
		--resume > $$J/resumed && \
	grep 'calls=' $$J/resumed | diff $$J/expected - && \
	grep -E 'runs=0/([0-9]+) \(resumed=\1,' $$J/resumed && \
	truncate -s -1500 $$J/journal/shard-00.jsonl && \
	$(PYTHON) -m repro detect LLMap --workers 3 --journal $$J/journal \
		--resume > $$J/lost-tail && \
	grep 'calls=' $$J/lost-tail | diff $$J/expected - && \
	grep -E 'runs=[1-9][0-9]*/[0-9]+ \(resumed=' $$J/lost-tail && \
	$(PYTHON) -m repro detect CircularList > $$J/ring-plain && \
	$(PYTHON) -m repro detect CircularList --workers 2 \
		--journal $$J/ring-journal > $$J/ring-sharded && \
	for run in plain sharded; do \
		grep 'calls=' $$J/ring-$$run > $$J/ring-$$run.key && \
		grep '^state:' $$J/ring-$$run | grep -o 'captures=[0-9]*' \
			>> $$J/ring-$$run.key && \
		grep -o 'recaptured=[0-9]*' $$J/ring-$$run >> $$J/ring-$$run.key \
			|| exit 1; \
	done && \
	diff $$J/ring-plain.key $$J/ring-sharded.key && \
	grep 'recaptured=[1-9]' $$J/ring-plain.key && \
	rm -rf $$J && echo "engine-smoke: OK"

# Chaos resilience: seeded fault plans (worker kills, torn journal
# writes, IO errors, hung runs) against the supervised sharded campaign
# — the merged result must stay bit-identical to the fault-free
# sequential engine — plus the persistent-cache restart oracle (a
# recreated service answers repeats with zero executions).  Emits
# BENCH_resilience.json (and a *_reproducer_seed*.json on divergence;
# CI uploads it).
bench-resilience:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_resilience.py --benchmark-only -s

# Fast seeded chaos gate: supervised campaigns under the standard fault
# plan (plain, then trace+fingerprint twice) must converge bit-identical
# to the fault-free engine, and the two trace+fingerprint runs must
# print the same attempts per shard: retries start in a fixed order, so
# the plan's faults fire the same way on every run.  Leaves
# chaos-report.json behind as the reproducer; CI uploads it on failure.
chaos-smoke:
	$(PYTHON) -m repro chaos LLMap --seed 20260808 --shards 3 \
		--report-out chaos-report.json
	@J=$$(mktemp -d) && \
	for run in 1 2; do \
		$(PYTHON) -m repro chaos LLMap --seed 20260808 --shards 3 \
			--state-backend fingerprint --trace-derive \
			--report-out chaos-report.json > $$J/run$$run; \
		code=$$?; cat $$J/run$$run; test $$code -eq 0 || exit $$code; \
	done && \
	grep -o 'attempts per shard: [0-9, ]*' $$J/run1 > $$J/attempts && \
	grep -o 'attempts per shard: [0-9, ]*' $$J/run2 | diff $$J/attempts - && \
	rm -rf $$J && echo "chaos-smoke: same attempts per shard on repeat"

# Fixed-seed differential fuzzing sweep plus the classifier-mutation
# self-check (< 60 s).  A failure shrinks the first failing program and
# leaves fuzz-reproducer.json behind; CI uploads it as an artifact.
# Reproduce with: repro fuzz --replay fuzz-reproducer.json
fuzz-smoke:
	$(PYTHON) -m repro fuzz --seed 20260806 --programs 50 \
		--reproducer-out fuzz-reproducer.json
	$(PYTHON) -m repro fuzz --self-check --seed 20260806 --programs 8

# Differential trace oracle: every fuzzed program is swept twice
# (dynamic, trace-derived) and the run logs must agree bit for bit
# modulo provenance.  Same reproducer protocol as fuzz-smoke.
fuzz-trace-smoke:
	$(PYTHON) -m repro fuzz --seed 20260806 --programs 25 \
		--engine sequential --trace-derive \
		--reproducer-out fuzz-reproducer.json

# Detection-invariance oracle (Check 7): every fuzzed program is also
# campaigned as three semantic-preserving variants, and the log,
# classification, and masking fixpoints must match the original's bit
# for bit.  Same reproducer protocol as fuzz-smoke.
fuzz-variant-smoke:
	$(PYTHON) -m repro fuzz --seed 20260806 --programs 20 \
		--engine sequential --variants 3 \
		--reproducer-out fuzz-reproducer.json

# Golden verdicts: one pass of each benchmark workload whose run logs
# are pinned in benchmarks/e2e/golden/table1.json (every difference
# string included; t1-distributed checks the shard engine, pooled and
# supervised).  run.py exits 1 on any mismatch.  Needs Python >= 3.10
# (the harness's yardstick uses bisect's key=).
golden-check:
	@for w in t1-dynamic t1-derived t1-distributed mask-harden; do \
		$(PYTHON) benchmarks/e2e/run.py --workload $$w --seed 1 \
			--seconds 0 > /dev/null || exit 1; \
		echo "golden-check: $$w OK"; \
	done

# Every internal link in docs/*.md and every `src/repro/...` module
# path mentioned in the docs must resolve to a real file.
docs-check:
	$(PYTHON) tools/check_docs_links.py

reproduce:
	$(PYTHON) -m repro reproduce --out RESULTS.md

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
