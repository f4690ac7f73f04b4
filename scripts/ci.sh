#!/usr/bin/env bash
# Full local CI gate: formatting, lints (warnings are errors), tests.
# Run from the repository root:  ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The concurrency suite again, explicitly multi-threaded: the stress
# tests must hold when the harness itself runs them in parallel.
echo "==> cargo test -q --test concurrency -- --test-threads=4"
cargo test -q --test concurrency -- --test-threads=4

# Differential kernel suite, explicitly: the bit-parallel NTI kernel must
# be bit-identical to Sellers-classic on distances, spans, and reports,
# and the SWAR byte-folding/classifier kernels must agree byte-for-byte
# with their scalar references (debug build, so debug assertions are
# live inside the kernels).
echo "==> differential kernel tests (strmatch myers + swar, nti kernel, lexer equivalence)"
cargo test -q -p joza-strmatch myers
cargo test -q -p joza-strmatch --test proptests myers
cargo test -q -p joza-strmatch swar
cargo test -q -p joza-strmatch --test proptests swar
cargo test -q -p joza-strmatch --test proptests to_lower
cargo test -q -p joza-nti --test proptests kernels
cargo test -q -p joza-sqlparse --test proptests lex_into
cargo test -q -p joza-sqlparse --test proptests sym_skeleton
cargo test -q --test alloc_free

# Database executor, explicitly: every statement the testbed issues must
# replay bit-identical to the golden recording (rows, columns, errors,
# virtual time, table dumps); statements nested past the parser's limit
# must come back as parse errors instead of aborting, and multiplying
# subqueries must stop at the row budget; a statement's heap allocations
# must not grow with the rows it scans; and a statement bound into a
# cached plan must behave exactly as a fresh parse of its text.
echo "==> db golden differential, nesting limit, allocation bound, plan cache"
cargo test -q -p joza-lab --test db_golden
cargo test -q -p joza-sqlparse --lib nesting
cargo test -q -p joza-db --test depth_limit
cargo test -q -p joza-db --test alloc_bound
cargo test -q -p joza-db --test proptests

# NTI stage, explicitly: every (inputs, query) pair the testbed issues
# must produce the golden recording's markings and critical tokens (and
# the Classic kernel, the prefilter-off analyzer and the engine's NTI
# stage must agree with it); a warm NTI-only check whose inputs mark
# nothing must not allocate; and the fixed-size q-gram prefilter must
# never change a marking, with its bound below Ukkonen's exact one.
echo "==> nti golden differential, allocation-free NTI stage, prefilter proptests"
cargo test -q -p joza-lab --test nti_golden
cargo test -q --test alloc_free warm_nti_stage
cargo test -q -p joza-nti --test proptests prefilter
cargo test -q -p joza-strmatch --test proptests qgram_profile

# Thread-scaling smoke over the batch-first serving API: verdicts must be
# bit-identical to single-threaded at every thread count, the deploy-
# under-load pass must conserve every counter across the mid-run swaps,
# and 8 workers must reach >= 6x the single-thread checked-query rate
# (the pipe waits overlap; the binary dies if the sharded core
# serializes them).
echo "==> scaling smoke (8 threads, >= 6x gate)"
cargo run --quiet --release -p joza-bench --bin scaling -- \
    --requests 24 --repeat 1 --threads 1,8 --min-speedup 6 \
    --out /tmp/joza_scaling_smoke.json

# Live-serving smoke: Zipf traffic with attack bursts through check_batch
# while models are rolled out and back mid-run; the binary asserts every
# verdict against ground truth and counter conservation across both
# deploys.
echo "==> serve_live smoke"
cargo run --quiet --release -p joza-bench --bin serve_live -- \
    --requests 32 --threads 4

# Kernel-benchmark smoke: tiny iteration count; the binary asserts full
# Classic/BitParallel report identity over the lab corpus and both
# workloads before timing anything.
echo "==> nti_kernel smoke"
cargo run --quiet --release -p joza-bench --bin nti_kernel -- \
    --iters 2 --long-pairs 8 --out /tmp/joza_nti_kernel_smoke.json

# Query-model smoke: the binary asserts model completeness against the
# lab's ground-truth labels, zero verdict deltas model-on vs model-off
# over benign + exploit traffic, no fast-pathed attacks, and a >= 50%
# benign fast-path rate before timing anything.
echo "==> querymodel smoke"
cargo run --quiet --release -p joza-bench --bin querymodel -- \
    --requests 24 --repeat 1 --threads 1,2 --out /tmp/joza_querymodel_smoke.json

# Verdict golden, explicitly: every session verdict (stage trace
# included) and every served response over the full lab corpus must
# match the recorded fixture.
echo "==> cargo test -q -p joza-lab --test verdict_golden"
cargo test -q -p joza-lab --test verdict_golden

# Engine equivalence, explicitly: the bytecode VM and the tree-walking
# interpreter must produce bit-identical responses (body, queries,
# sql_error, blocked) and database state over the full lab corpus —
# benign, every exploit, and both second-order two-phase flows — plus the
# 404 and parse-error paths.
echo "==> cargo test -q -p joza-lab --test engine_differential"
cargo test -q -p joza-lab --test engine_differential

# Engine differential property test: seeded random phpsim programs
# (loops, compound assignment, indexed stores, host query calls,
# mid-program termination) diffed VM vs tree-walk on result, output, and
# the exact SQL sequence the host saw.
echo "==> cargo test -q -p joza-phpsim --test vm_differential"
cargo test -q -p joza-phpsim --test vm_differential

# Engine edge semantics: foreach snapshotting, break/continue depth,
# Terminated mid-expression, uninitialized reads, and string/number
# coercions pinned against both engines.
echo "==> cargo test -q -p joza-phpsim --test engine_edges"
cargo test -q -p joza-phpsim --test engine_edges

# Pipeline-bench smoke: asserts the path counters partition the checked
# queries before timing, exercises the per-stage breakdown writers, and
# enforces the single-thread gate-direct throughput floor (the ROADMAP
# 50k-checked-q/s target; the allocation-free hot path clears it with
# an order of magnitude of headroom, so a trip means a real regression).
echo "==> pipeline smoke (--min-qps 50000 single-thread gate-direct floor)"
cargo run --quiet --release -p joza-bench --bin pipeline -- \
    --requests 24 --repeat 1 --threads 1 --min-qps 50000 \
    --out /tmp/joza_pipeline_smoke.json

# Hardening smoke: the binary asserts >= 50/57 routes statically
# rewritten to prepared statements, a passing differential (bit-identical
# benign responses + DB state, every ungated exploit on rewritten routes
# neutralized), and no effective gated attacks before timing anything.
echo "==> harden smoke"
cargo run --quiet --release -p joza-bench --bin harden -- \
    --requests 24 --repeat 1 --threads 1,2 --out /tmp/joza_harden_smoke.json

# Second-order smoke: the binary asserts the detection floor — every
# labeled two-phase exploit (original + PTI-evading variant) classified
# second-order-reachable statically AND caught dynamically by the
# persistence-aware gate, with zero benign round trips blocked — before
# timing anything.
echo "==> second_order smoke"
cargo run --quiet --release -p joza-bench --bin second_order -- \
    --requests 24 --repeat 1 --out /tmp/joza_second_order_smoke.json

# VM-bench smoke: asserts every response bit-identical across engines on
# both the testbed corpus and the interpreter-bound render routes, runs a
# small soak with latency percentiles and query-count conservation, and
# enforces the ISSUE floor — the VM must serve the engine-bound render
# routes >= 3x faster end to end than the tree-walker.
echo "==> vm bench smoke (--min-speedup 3 render-route floor)"
cargo run --quiet --release -p joza-bench --bin vm -- \
    --requests 24 --repeat 1 --soak 200 --min-speedup 3 \
    --out /tmp/joza_vm_smoke.json

# Live-serving soak smoke: after the deploy demo, serve the corpus
# repeatedly and assert the verdict split is identical on every pass and
# the engine's query counter advances by exactly the corpus size per
# pass (steady-state drift check, small N for CI).
echo "==> serve_live soak smoke"
cargo run --quiet --release -p joza-bench --bin serve_live -- \
    --requests 48 --threads 4 --soak 400

echo "==> CI green"
