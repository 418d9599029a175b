# Convenience targets for the MPI-xCCL reproduction.

PYTHON ?= python

.PHONY: install lint test test-all test-fast bench bench-selfcheck bench-claim bench-guard bench-hier bench-hetero bench-online-tune bench-all check-gates scale-smoke mem-smoke trace-smoke hier-smoke hetero-smoke elastic-smoke reach report examples tune clean

install:
	pip install -e .

# ruff when present (CI installs it); otherwise the stdlib AST fallback
# so the target works in hermetic containers
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks tools; \
	else \
		echo "ruff not found; using tools/lint.py fallback"; \
		$(PYTHON) tools/lint.py src tests benchmarks tools; \
	fi

# default pytest config deselects @pytest.mark.slow sweeps; the 15
# slowest tests are listed so every log shows where the budget goes
test:
	$(PYTHON) -m pytest tests/ --durations=15

test-all:
	$(PYTHON) -m pytest tests/ -m ""

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# the seven bench_ablation_*.py design ablations under pytest-benchmark
# (a figure is checked by `make report`, not here)
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# the end-to-end harness checking itself (not collected by tier-1):
# fails when a name its span table wraps no longer resolves, instead of
# a later run silently reporting bench.spans_absent > 0
bench-selfcheck:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# the README's "Recipe for a claim" as a command: alternating
# parent/change pairs of one workload, every pair, medians, quartiles,
# wins and the verdict (about a minute a pair; never run in CI)
#   make bench-claim W=multinode_64 PARENT=HEAD~1 [PAIRS=10 SEED0=1000]
PAIRS ?= 10
SEED0 ?= 1000
bench-claim:
	$(PYTHON) tools/claim_pairs.py --parent $(PARENT) --workload $(W) \
		--pairs $(PAIRS) --seed0 $(SEED0)

# "must not move" as a command: a few alternating pairs of every
# workload, each metric's median against its BENCHMARK.json bound
# (non-zero exit on a failed op or a median worse than its bound)
#   make bench-guard PARENT=HEAD~1 [PAIRS=3 SEED0=1000]
bench-guard:
	$(PYTHON) tools/claim_pairs.py --parent $(PARENT) --workload all \
		--pairs $(if $(filter command environment,$(origin PAIRS)),$(PAIRS),3) \
		--seed0 $(SEED0)

# flat vs node-leader vs pipelined hierarchy at 8 -> 512 ranks
# (several minutes; the 512-rank legs dominate)
bench-hier:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hier_scale.py

# mixed-vendor island bridge vs whole-job host staging (1 -> 32 MiB)
bench-hetero:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hetero.py

# online tuner vs a deliberately wrong static table (oracle-route
# recovery fraction; writes BENCH_online_tune.json)
bench-online-tune:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_online_tune.py

# refresh every committed BENCH_*.json in one go (BENCH_engine_scale.json
# is history, like the hot-path / fusion / zero-copy rows in
# docs/performance.md: their reference arms no longer exist)
bench-all: bench-hier bench-hetero bench-online-tune

# tier-1 suite with the default of each of the two run options
# individually switched on through its variable: off its trigger, every
# option must be invisible to results (CI runs this target — the legs
# are listed here and nowhere else)
check-gates:
	MPIX_TRACE=1 $(PYTHON) -m pytest tests/ -x -q
	MPIX_ONLINE_TUNE=1 $(PYTHON) -m pytest tests/ -x -q

# fast CI leg: a 256-rank oversubscribed job must stay quick and
# bit-identical run to run, hot compiled calls must hand the run token
# between threads about once per member, and a deadlock must be
# reported at once
scale-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest \
		tests/test_engine_scale.py::test_scale_smoke_256 \
		tests/test_engine_scale.py::test_compiled_handoffs_256 \
		tests/test_engine_scale.py::test_coop_exact_deadlock_detected_fast \
		-q
	PYTHONPATH=src $(PYTHON) -m repro.omb.cli barrier \
		--system thetagpu --nodes 4 --ranks 256 --sizes 4:4 \
		--iterations 2 --warmup 1
	PYTHONPATH=src $(PYTHON) -m repro.omb.cli allreduce \
		--system thetagpu --nodes 4 --ranks 256 --sizes 4:4 \
		--iterations 2 --warmup 1

# memory CI leg, six fresh processes, each against its own peak RSS:
# a 2048-rank Barrier + Allreduce (256 MiB) — communicator set-up must
# not grow as ranks squared; one quick storage-free fig5 sweep (96 MiB)
# and a storage-free 128-rank Alltoall at 4 MiB per peer (256 MiB) —
# benchmark windows must hold no storage; the fig5 NCCL column on real
# buffers, gc at its defaults (450 MiB) — device buffers must die with
# their last reference, not with the cycle collector's next pass; 32 x
# 1 MiB Isend/Irecv windows across two nodes (112 MiB) — a rendezvous
# Isend must lend its window, not snapshot it; fig9's paper-scale TF
# panels (96 MiB) — the DL trainer must run storage-free; then 200 and
# 2000 Dup/attach/Allreduce/Free cycles must leave the same engine
# records and per-rank dict sizes behind
mem-smoke:
	PYTHONPATH=src $(PYTHON) tools/mem_smoke.py

# end-to-end observability smoke: a small traced sweep covering a
# direct-CCL collective and a sendrecv-composed one (the hinted group
# exchange), then a multi-node pure-CCL alltoall (an unhinted group: the
# bulk mailbox transport); each Chrome trace validated and summarized
# (runs in CI)
TRACE_SMOKE ?= /tmp/mpix-trace-smoke.json
TRACE_SMOKE_BULK ?= /tmp/mpix-trace-smoke-bulk.json
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.omb.cli allreduce alltoallv \
		--system thetagpu --nodes 1 --sizes 4K:256K \
		--iterations 2 --warmup 1 --trace $(TRACE_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli validate $(TRACE_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli summarize $(TRACE_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.omb.cli alltoall --stack ccl \
		--system thetagpu --nodes 2 --sizes 4K:64K \
		--iterations 2 --warmup 1 --trace $(TRACE_SMOKE_BULK)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli validate $(TRACE_SMOKE_BULK)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli summarize $(TRACE_SMOKE_BULK)

# hierarchical-route CI leg: a traced multi-node NIC-striped sweep on
# the committed table whose rows select the hierarchy
# (tools/site_tables.py), validated end to end (routing counters +
# trace well-formedness)
HIER_SMOKE ?= /tmp/mpix-hier-smoke.json
hier-smoke:
	MPIX_TUNING_FILE=tools/tables/hier_smoke.json PYTHONPATH=src \
		$(PYTHON) -m repro.omb.cli allreduce bcast \
		--system thetagpu --topology 4x8 --nics 8 \
		--sizes 2M:16M --iterations 2 --warmup 1 --stats \
		--trace $(HIER_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli validate $(HIER_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli summarize $(HIER_SMOKE)

# mixed-vendor CI leg: a traced NVIDIA+AMD sweep through the bridge
# route on the committed all-bridge table (tools/site_tables.py), the
# negotiated intersection printed, the trace validated and summarized
# (per-island bytes table included)
HETERO_SMOKE ?= /tmp/mpix-hetero-smoke.json
hetero-smoke:
	MPIX_TUNING_FILE=tools/tables/hetero_smoke.json PYTHONPATH=src \
		$(PYTHON) -m repro.omb.cli allreduce bcast \
		--vendors nvidia:2,amd:2 \
		--sizes 256K:4M --iterations 2 --warmup 1 --stats \
		--trace $(HETERO_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli validate $(HETERO_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli summarize $(HETERO_SMOKE)

# elastic CI leg: 16-rank traced allreduce loop with one rank killed
# mid-run — survivors revoke/agree/shrink and finish a fixed schedule,
# the online tuner re-fits for the survivor shape, and the trace is
# validated plus rendered through tune-report
ELASTIC_SMOKE ?= /tmp/mpix-elastic-smoke.json
elastic-smoke:
	PYTHONPATH=src $(PYTHON) tools/elastic_smoke.py $(ELASTIC_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli validate $(ELASTIC_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.obs.cli tune-report $(ELASTIC_SMOKE) \
		--system thetagpu --nodes 2 --ranks 16

# every function of src/repro has a user: runs every product entry
# point (examples, experiments, smokes, each mpix-omb benchmark and CLI
# subcommand) in one profiled process and fails when a function no
# entry point enters is missing from tools/reach_allow.txt, or an entry
# there has no reason or is stale
reach:
	PYTHONPATH=src $(PYTHON) tools/reach.py

# every figure at paper scale into EXPERIMENTS.md (CI's anchors job fails
# when a byte changes); "<id>: <wall> s, peak RSS <MiB>" lines on stderr
report:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli report --scale paper -o EXPERIMENTS.md

# every shipped example end to end (CI runs this on one interpreter)
examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/heffte_fft.py
	PYTHONPATH=src $(PYTHON) examples/portability_sweep.py
	PYTHONPATH=src $(PYTHON) examples/custom_algorithm.py
	PYTHONPATH=src $(PYTHON) examples/dl_training.py

tune:
	$(PYTHON) -m repro.core.tune_cli --system thetagpu --nodes 4 --show

clean:
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
