# Mirrors .github/workflows/ci.yml so `make ci` locally reproduces the
# gate a PR has to pass.

CARGO ?= cargo

.PHONY: ci build test perfbench-test fmt fmt-fix clippy doc bench-smoke \
	fault-matrix fleet-determinism memo-parity bench-json bench-gate soak \
	lint-study dataloss-study daemon-soak chaos-soak

ci: build test perfbench-test fmt clippy doc fault-matrix fleet-determinism \
	memo-parity bench-smoke lint-study dataloss-study soak daemon-soak \
	chaos-soak

# Seeds for the fault-injection suite. Debug builds keep the
# batched-vs-eager equivalence checker armed, so each seed also
# cross-checks the two flush policies against each other.
FAULT_SEEDS ?= 1 2 3 5 8

# `--locked`: a change that adds or drops a dependency must commit the
# updated Cargo.lock instead of letting cargo rewrite it quietly.
build:
	$(CARGO) build --release --locked

test:
	$(CARGO) test -q

# The host-time benchmark (perfbench/) is a workspace of its own, so
# `cargo test` at the root does not reach its tests. They pin its copy
# of the study body and its traced `run_app` to the committed digests.
perfbench-test:
	$(CARGO) test --offline --manifest-path perfbench/Cargo.toml

fmt:
	$(CARGO) fmt --all --check

fmt-fix:
	$(CARGO) fmt --all

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# The rustdoc gate: a doc link to a renamed, deleted or private item
# fails here instead of dangling silently.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --offline

fault-matrix:
	for seed in $(FAULT_SEEDS); do \
		echo "--- fault matrix, seed $$seed ---"; \
		FAULT_SEED=$$seed $(CARGO) test -q --test fault_matrix || exit 1; \
	done

bench-smoke:
	$(CARGO) bench -p rch-bench --bench fig07_handling_time_27 -- --test
	$(CARGO) bench -p rch-bench --bench migration_batching -- --test
	$(CARGO) bench -p rch-bench --bench robustness_faults -- --test
	$(CARGO) bench -p rch-bench --bench fleet_parallel -- --test

# The fleet determinism gate: a parallel run's per-device digests must
# be bit-identical to the DROIDSIM_JOBS=1 inline run (3 seeds, 5% fault
# rate). Runs the suite twice so worker counts above and below the
# machine's core count are both exercised.
fleet-determinism:
	$(CARGO) test -q --test fleet_determinism
	DROIDSIM_JOBS=2 $(CARGO) test -q --test fleet_determinism

# The warm-path parity gate (DESIGN.md §13): fleet digests with the
# built-app slot on must be bit-identical to a cold run at every worker
# count under a 5% fault rate, random app specs must digest identically
# warm and cold, and the committed table5 and rchlint digests must come
# out with the kill switch on and off. The second line re-runs the
# fleet determinism suite with the warm path disabled so the kill
# switch itself stays a first-class, tested configuration.
memo-parity:
	$(CARGO) test -q --release --test memo_parity
	DROIDSIM_NO_MEMO=1 $(CARGO) test -q --test fleet_determinism

# Crash-safety soak: a 40-task supervised fleet with a 5% injected
# fleet-task fault rate (panics and a forced stall) plus two hard-broken
# tasks. Must exit 0 with exactly those two tasks quarantined; the
# journal and crash dumps land under target/soak/ for CI to archive.
soak:
	$(CARGO) run -q --release -p rch-experiments --bin soak

# Daemon soak (DESIGN.md §12): droidsim-load drives droidsimd at 2x its
# queue capacity with 5% injected worker panics; the script SIGKILLs
# the daemon mid-backlog and restarts it on the same journal. Gate:
# zero lost acknowledged jobs, every digest equal to the jobs=1
# reference, explicit rejections only. Journal lands in
# target/daemon-soak/ for CI to archive.
daemon-soak:
	$(CARGO) build --release -q -p rch-experiments --bins
	bash scripts/daemon_soak.sh

# Chaos soak (DESIGN.md §14): the daemon edge under injected I/O
# faults. Phase 1 forces an ENOSPC window (--enospc-window) and
# requires the full degraded -> recovered round trip on disk; phase 2
# floods a daemon running 5% journal/socket faults at 2x capacity with
# 20% deliberately lost acks and a SIGKILL/restart mid-backlog. Gate:
# zero lost acknowledged jobs, zero duplicated executions, explicit
# rejections only. Journals land in target/chaos-soak/ for CI.
chaos-soak:
	$(CARGO) build --release -q -p rch-experiments --bins
	bash scripts/chaos_soak.sh

# The static-analysis study (DESIGN.md §10): every known-issue-free
# corpus app must lint clean even under --deny-warnings, and the
# static verdicts must agree with the dynamic detection oracle
# field-by-field for all 647 apps (tp27, top100, and the generated
# data-loss corpus) under all three runtimes, with the differential
# digest identical at --jobs 1 and --jobs 4.
lint-study:
	$(CARGO) run -q --release -p rch-experiments --bin rchlint -- \
		--corpus all --clean-only --deny-warnings
	set -e; \
	serial=$$($(CARGO) run -q --release -p rch-experiments --bin rchlint -- \
		--differential --corpus all --jobs 1 | tail -1); \
	parallel=$$($(CARGO) run -q --release -p rch-experiments --bin rchlint -- \
		--differential --corpus all --jobs 4 | tail -1); \
	echo "serial:   $$serial"; echo "parallel: $$parallel"; \
	test "$$(echo "$$serial" | sed 's/jobs=[0-9]*//')" = \
		"$$(echo "$$parallel" | sed 's/jobs=[0-9]*//')"

# The data-loss differential study (DESIGN.md §15): replay the whole
# generated 520-app corpus through the three-runtime dynamic oracle
# (stock / RCHDroid / RuntimeDroid class schedules), require zero
# static/dynamic disagreements with the --jobs 1 and --jobs 4 digests
# identical, and regenerate the committed per-class loss-rate table
# (results/table_dataloss.csv) from the verified verdicts.
dataloss-study:
	set -e; \
	serial=$$($(CARGO) run -q --release -p rch-experiments --bin rchlint -- \
		--differential --corpus dataloss --jobs 1 | grep '^=> fleet:'); \
	parallel=$$($(CARGO) run -q --release -p rch-experiments --bin rchlint -- \
		--differential --corpus dataloss --jobs 4 \
		--table results/table_dataloss.csv | grep '^=> fleet:'); \
	echo "serial:   $$serial"; echo "parallel: $$parallel"; \
	test "$$(echo "$$serial" | sed 's/jobs=[0-9]*//')" = \
		"$$(echo "$$parallel" | sed 's/jobs=[0-9]*//')"

# Real (non-smoke) runs of the fleet and migration benches, with the
# vendored criterion harness writing its estimates as compact JSON
# artifacts under results/.
bench-json:
	mkdir -p results
	CRITERION_JSON=$(CURDIR)/results/BENCH_fleet.json \
		$(CARGO) bench -p rch-bench --bench fleet_parallel
	CRITERION_JSON=$(CURDIR)/results/BENCH_migration.json \
		$(CARGO) bench -p rch-bench --bench migration_batching

# The bench-regression gate: re-measures both benches into
# target/bench-gate/ and compares the fresh means against the committed
# reference under results/ (±15% band, plus the hard jobs=8 ≤ 0.5×
# jobs=1 scaling assertion). On hardware whose core count differs from
# the reference runner's, violations downgrade to warnings.
bench-gate:
	mkdir -p target/bench-gate
	CRITERION_JSON=$(CURDIR)/target/bench-gate/BENCH_fleet.json \
		$(CARGO) bench -p rch-bench --bench fleet_parallel
	CRITERION_JSON=$(CURDIR)/target/bench-gate/BENCH_migration.json \
		$(CARGO) bench -p rch-bench --bench migration_batching
	$(CARGO) run -q --release -p rch-experiments --bin bench_gate -- \
		target/bench-gate/BENCH_fleet.json results/BENCH_fleet.json \
		target/bench-gate/BENCH_migration.json results/BENCH_migration.json
